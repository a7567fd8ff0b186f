// Streaming and batch statistics used by the metric collectors and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace mecar::util {

class SnapshotWriter;
class SnapshotReader;

/// Welford-style running accumulator: mean/variance/min/max in one pass
/// without storing samples.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  /// Checkpoint support: the accumulator state round-trips bit-exactly
  /// (doubles as raw IEEE-754 patterns), so a resumed reduction continues
  /// the Welford stream without drift.
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

  std::size_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  double sum() const noexcept { return sum_; }
  /// Mean of the samples; 0 when empty.
  double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }
  /// Unbiased sample variance; 0 with fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Returns the q-th quantile (q in [0,1]) with linear interpolation.
/// Throws std::invalid_argument on an empty sample or q outside [0,1].
double quantile(std::span<const double> sorted_samples, double q);

/// Sorts a copy of `samples` and returns the q-th quantile.
double quantile_unsorted(std::span<const double> samples, double q);

/// Percentile convenience over quantile: pct in [0,100].
/// percentile(s, 95.0) == quantile(s, 0.95) bit-for-bit (pct/100.0 rounds
/// to the same double for the percentiles we use), so callers can migrate
/// without perturbing golden outputs.
double percentile(std::span<const double> sorted_samples, double pct);

/// Sorts a copy of `samples` and returns the pct-th percentile.
double percentile_unsorted(std::span<const double> samples, double pct);

/// The three tail percentiles every latency report wants, in one pass over
/// an unsorted sample. Throws std::invalid_argument when empty.
struct PercentileSummary {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};
PercentileSummary percentile_summary(std::span<const double> samples);

/// Percentile estimate from a fixed-boundary histogram, as produced by
/// obs::MetricRegistry snapshots: `counts` has boundaries.size() + 1
/// buckets, the last being the overflow bucket (boundaries.back(), +inf).
/// Linear interpolation inside the target bucket; the first bucket's lower
/// edge is taken as min(0, boundaries[0]) and ranks landing in the
/// overflow bucket return boundaries.back() (there is no upper edge to
/// interpolate toward). Throws std::invalid_argument on an empty
/// histogram, mismatched sizes, or pct outside [0,100].
double histogram_percentile(std::span<const double> boundaries,
                            std::span<const std::uint64_t> counts,
                            double pct);

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> samples) noexcept;

/// Sum of a span.
double sum(std::span<const double> samples) noexcept;

}  // namespace mecar::util
