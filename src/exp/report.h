// Uniform result container of the scenario engine: named (metric, policy)
// series over sweep points, seed-averaged, with one table/CSV/JSON
// emission path: `mecar_cli experiment` prints every scenario through it.
//
// Subsumes the old bench_util SeriesCollector; the historical footgun —
// add() before any start_point() dereferenced .back() on an empty vector
// (undefined behaviour) — is now a structured std::logic_error.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/stats.h"

namespace mecar::exp {

/// Accumulates named series over sweep points: series["Appro"] is the
/// vector of per-point accumulators, one per sweep point, averaged over
/// seeds.
class SeriesCollector {
 public:
  /// Empty collector, as load() targets and map value slots need.
  SeriesCollector() = default;
  explicit SeriesCollector(std::vector<std::string> names);

  /// Starts a new sweep point (call once per x value).
  void start_point();

  /// Adds one seed's sample at the current sweep point. Throws
  /// std::logic_error when no sweep point has been started and
  /// std::out_of_range for an unknown series name.
  void add(const std::string& name, double value);

  double mean_at(const std::string& name, std::size_t point) const;
  const util::RunningStats& stats_at(const std::string& name,
                                     std::size_t point) const;
  std::size_t num_points() const noexcept { return num_points_; }

  /// Checkpoint support: serializes/overwrites the full accumulator state.
  void save(util::SnapshotWriter& w) const;
  void load(util::SnapshotReader& r);

  /// True when the collector holds exactly the series `names`, each with
  /// one accumulator per point of `points`.
  bool shaped(const std::vector<std::string>& names,
              std::size_t points) const;

 private:
  std::map<std::string, std::vector<util::RunningStats>> series_;
  std::size_t num_points_ = 0;
};

/// Result of one scenario run: for every collected metric, a policy-keyed
/// SeriesCollector over the sweep points, plus the axis/point labelling
/// its metric tables print.
class Report {
 public:
  Report() = default;
  Report(std::string scenario_name, std::string axis_label,
         std::vector<std::string> metrics, std::vector<std::string> policies);

  /// Opens the next sweep point across every metric series.
  void start_point(double point_value, std::string point_label);

  /// Adds one seed's sample of (metric, policy) at the current point.
  void add(const std::string& metric, const std::string& policy, double value);

  double mean(const std::string& metric, const std::string& policy,
              std::size_t point) const;

  const std::string& scenario_name() const noexcept { return scenario_name_; }
  const std::string& axis_label() const noexcept { return axis_label_; }
  const std::vector<std::string>& metrics() const noexcept { return metrics_; }
  const std::vector<std::string>& policies() const noexcept {
    return policies_;
  }
  const std::vector<double>& points() const noexcept { return points_; }
  const std::vector<std::string>& point_labels() const noexcept {
    return point_labels_;
  }
  std::size_t num_points() const noexcept { return points_.size(); }

  /// Prints one metric as a figure table: header = axis label + policy
  /// columns, one row per sweep point, `precision` decimals, then the same
  /// rows as a CSV block.
  void print_metric_table(std::ostream& os, const std::string& title,
                          const std::string& metric, int precision) const;

  /// Writes the uniform JSON snapshot: scenario name, axis, points, then
  /// per-policy per-metric mean series.
  void write_json(std::ostream& os) const;

  /// Checkpoint support: the full report state (labels, points, every
  /// accumulator) round-trips so a resumed run's tables are bit-identical
  /// to an uninterrupted run's. load() throws util::SnapshotParseError
  /// when the series do not match the metrics, policies and points.
  void save(util::SnapshotWriter& w) const;
  void load(util::SnapshotReader& r);

 private:
  const SeriesCollector& collector(const std::string& metric) const;

  std::string scenario_name_;
  std::string axis_label_;
  std::vector<std::string> metrics_;
  std::vector<std::string> policies_;
  std::map<std::string, SeriesCollector> by_metric_;
  std::vector<double> points_;
  std::vector<std::string> point_labels_;
};

}  // namespace mecar::exp
