#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/snapshot.h"

namespace mecar::util {

void RunningStats::add(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  sum_ += other.sum_;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::save(SnapshotWriter& w) const {
  w.u64(static_cast<std::uint64_t>(n_));
  w.f64(mean_);
  w.f64(m2_);
  w.f64(sum_);
  w.f64(min_);
  w.f64(max_);
}

void RunningStats::load(SnapshotReader& r) {
  n_ = static_cast<std::size_t>(r.u64());
  mean_ = r.f64();
  m2_ = r.f64();
  sum_ = r.f64();
  min_ = r.f64();
  max_ = r.f64();
}

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept {
  return std::sqrt(variance());
}

double quantile(std::span<const double> sorted_samples, double q) {
  if (sorted_samples.empty()) {
    throw std::invalid_argument("quantile: empty sample");
  }
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("quantile: q outside [0,1]");
  }
  const double pos = q * static_cast<double>(sorted_samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted_samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_samples[lo] * (1.0 - frac) + sorted_samples[hi] * frac;
}

double quantile_unsorted(std::span<const double> samples, double q) {
  std::vector<double> copy(samples.begin(), samples.end());
  std::sort(copy.begin(), copy.end());
  return quantile(copy, q);
}

double percentile(std::span<const double> sorted_samples, double pct) {
  if (pct < 0.0 || pct > 100.0) {
    throw std::invalid_argument("percentile: pct outside [0,100]");
  }
  return quantile(sorted_samples, pct / 100.0);
}

double percentile_unsorted(std::span<const double> samples, double pct) {
  std::vector<double> copy(samples.begin(), samples.end());
  std::sort(copy.begin(), copy.end());
  return percentile(copy, pct);
}

PercentileSummary percentile_summary(std::span<const double> samples) {
  std::vector<double> copy(samples.begin(), samples.end());
  std::sort(copy.begin(), copy.end());
  PercentileSummary out;
  out.p50 = percentile(copy, 50.0);
  out.p95 = percentile(copy, 95.0);
  out.p99 = percentile(copy, 99.0);
  return out;
}

double histogram_percentile(std::span<const double> boundaries,
                            std::span<const std::uint64_t> counts,
                            double pct) {
  if (pct < 0.0 || pct > 100.0) {
    throw std::invalid_argument("histogram_percentile: pct outside [0,100]");
  }
  if (boundaries.empty() || counts.size() != boundaries.size() + 1) {
    throw std::invalid_argument(
        "histogram_percentile: counts must have boundaries.size()+1 buckets");
  }
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) {
    throw std::invalid_argument("histogram_percentile: empty histogram");
  }
  const double rank = pct / 100.0 * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double in_bucket = static_cast<double>(counts[b]);
    if (cumulative + in_bucket < rank || in_bucket == 0.0) {
      cumulative += in_bucket;
      continue;
    }
    if (b == boundaries.size()) {
      // Overflow bucket has no upper edge; the best bounded estimate is
      // the last boundary.
      return boundaries.back();
    }
    const double lower = b == 0 ? std::min(0.0, boundaries[0])
                                : boundaries[b - 1];
    const double upper = boundaries[b];
    const double frac = (rank - cumulative) / in_bucket;
    return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
  }
  return boundaries.back();
}

double mean(std::span<const double> samples) noexcept {
  if (samples.empty()) return 0.0;
  return sum(samples) / static_cast<double>(samples.size());
}

double sum(std::span<const double> samples) noexcept {
  double total = 0.0;
  for (double x : samples) total += x;
  return total;
}

}  // namespace mecar::util
