// Telemetry metrics: a registry of named counters, gauges, and
// fixed-boundary histograms shared by the LP, bandit, and online
// scheduling layers.
//
// Design constraints (DESIGN.md §10):
//   * near-zero overhead on the hot paths: recording is one thread-local
//     shard lookup plus an indexed add — no locks, no allocation after the
//     first touch per thread;
//   * safe under util::ThreadPool seed sweeps: every thread writes only its
//     own shard, shards are aggregated when a snapshot is taken (snapshot
//     after the parallel region, never concurrently with recording);
//   * deterministic: recording never reads clocks or RNGs, counter sums of
//     integral increments are exact regardless of thread schedule, and the
//     default (no-export) runs emit nothing anywhere;
//   * compiled out: configuring with -DMECAR_TELEMETRY=OFF turns every
//     record call into an empty inline body. Registration and snapshots
//     still work (the `mecar_cli metrics` inventory stays available), all
//     values simply stay zero.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#ifndef MECAR_TELEMETRY_ENABLED
#define MECAR_TELEMETRY_ENABLED 1
#endif

namespace mecar::util {
class SnapshotWriter;
class SnapshotReader;
}  // namespace mecar::util

namespace mecar::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

std::string_view to_string(MetricKind kind);

class MetricRegistry;

/// Monotonically increasing sum. Handles are cheap value types bound to
/// one registry; the default-constructed handle is inert (add is a no-op).
class Counter {
 public:
  Counter() = default;
  void add(double delta = 1.0) const noexcept;

 private:
  friend class MetricRegistry;
  Counter(MetricRegistry* reg, int id) : reg_(reg), id_(id) {}
  MetricRegistry* reg_ = nullptr;
  int id_ = -1;
};

/// Last-write-wins instantaneous value (e.g. active arms).
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const noexcept;

 private:
  friend class MetricRegistry;
  Gauge(MetricRegistry* reg, int id) : reg_(reg), id_(id) {}
  MetricRegistry* reg_ = nullptr;
  int id_ = -1;
};

/// Fixed-boundary histogram: bucket i counts observations in
/// (boundaries[i-1], boundaries[i]], the final bucket is the overflow
/// (boundaries.back(), +inf). Boundaries are set at registration and never
/// change, so shards merge by summing bucket counts.
class Histogram {
 public:
  Histogram() = default;
  void observe(double value) const noexcept;

 private:
  friend class MetricRegistry;
  Histogram(MetricRegistry* reg, int id) : reg_(reg), id_(id) {}
  MetricRegistry* reg_ = nullptr;
  int id_ = -1;
};

struct CounterSnapshot {
  std::string name;
  std::string help;
  double value = 0.0;
};

struct GaugeSnapshot {
  std::string name;
  std::string help;
  double value = 0.0;
  bool ever_set = false;
};

struct HistogramSnapshot {
  std::string name;
  std::string help;
  std::vector<double> boundaries;
  /// boundaries.size() + 1 buckets; the last is the overflow bucket.
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  /// Percentile estimate (pct in [0,100]) by linear interpolation inside
  /// the target bucket (util::histogram_percentile), clamped to the
  /// observed [min, max]. Returns 0 when empty.
  double percentile(double pct) const;
};

/// Aggregated view of every registered metric (including never-touched
/// ones, so the inventory is complete), in registration order per kind.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// True when no metric recorded any data.
  bool empty() const noexcept;
  const CounterSnapshot* find_counter(std::string_view name) const noexcept;
  const GaugeSnapshot* find_gauge(std::string_view name) const noexcept;
  const HistogramSnapshot* find_histogram(
      std::string_view name) const noexcept;
};

/// One registered metric, for inventory listings.
struct MetricDescriptor {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<double> boundaries;  // histograms only
};

/// Registry of named metrics with per-thread shards.
///
/// Threading contract: counter/gauge/histogram registration and snapshot()
/// take a lock and may run from any thread; recording through handles is
/// lock-free per thread. snapshot() and reset() must not run concurrently
/// with recording — take snapshots after parallel regions complete
/// (exp::Runner's util::parallel_map regions join before any export).
class MetricRegistry {
 public:
  MetricRegistry();
  ~MetricRegistry();

  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Returns the handle for `name`, registering it on first use.
  /// Re-registering an existing name with a different kind (or different
  /// histogram boundaries) throws std::logic_error.
  Counter counter(std::string_view name, std::string_view help = {});
  Gauge gauge(std::string_view name, std::string_view help = {});
  Histogram histogram(std::string_view name, std::vector<double> boundaries,
                      std::string_view help = {});

  /// Aggregates all shards. See the threading contract above.
  MetricsSnapshot snapshot() const;

  /// Zeroes every recorded value; registrations are kept.
  void reset();

  /// Overwrites recorded values with a previously taken snapshot, matched
  /// to the live catalog by metric name (unknown names are ignored;
  /// histograms additionally require identical boundaries). Used by
  /// checkpoint restore so counters accumulated before a crash continue
  /// from their saved totals. Same threading contract as reset().
  void restore(const MetricsSnapshot& snapshot);

  /// Inventory of every registered metric, counters then gauges then
  /// histograms, each in registration order.
  std::vector<MetricDescriptor> descriptors() const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct Shard;
  struct Impl;

  Shard& local_shard() const;
  void record_counter(int id, double delta) const noexcept;
  void record_gauge(int id, double value) const noexcept;
  void record_histogram(int id, double value) const noexcept;

  std::unique_ptr<Impl> impl_;
};

/// Process-global registry: the hot layers record here, `mecar_cli
/// experiment --metrics-out` snapshots it.
MetricRegistry& registry();

/// Prometheus text exposition format (one family per metric; names are
/// prefixed with `mecar_` and dots become underscores).
void write_prometheus(const MetricsSnapshot& snapshot, std::ostream& os);

/// JSON snapshot via util::JsonWriter: {"counters": {name: value, ...},
/// "gauges": {...}, "histograms": {name: {boundaries, counts, count, sum,
/// p50, p95, p99}, ...}}.
void write_metrics_json(const MetricsSnapshot& snapshot, std::ostream& os);

/// Checkpoint (de)serialization of a snapshot (DESIGN.md §14). Help text
/// is not written — restore() resolves it from the live catalog.
void save_metrics_snapshot(const MetricsSnapshot& snapshot,
                           util::SnapshotWriter& w);
MetricsSnapshot load_metrics_snapshot(util::SnapshotReader& r);

}  // namespace mecar::obs
