#include "exp/report.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "util/json_writer.h"
#include "util/snapshot.h"
#include "util/table.h"

namespace mecar::exp {

namespace {

/// Whether `map`'s keys are exactly the entries of `names`.
template <typename Map>
bool keyed_by(const Map& map, const std::vector<std::string>& names) {
  return std::all_of(map.begin(), map.end(),
                     [&](const auto& entry) {
                       return std::find(names.begin(), names.end(),
                                        entry.first) != names.end();
                     }) &&
         std::all_of(names.begin(), names.end(),
                     [&](const std::string& n) { return map.count(n) != 0; });
}

}  // namespace

SeriesCollector::SeriesCollector(std::vector<std::string> names) {
  for (auto& name : names) series_[std::move(name)];
}

void SeriesCollector::start_point() {
  ++num_points_;
  for (auto& [name, values] : series_) {
    values.emplace_back();
  }
}

void SeriesCollector::add(const std::string& name, double value) {
  if (num_points_ == 0) {
    throw std::logic_error(
        "SeriesCollector: add(\"" + name +
        "\") before any start_point() — no sweep point is open");
  }
  const auto it = series_.find(name);
  if (it == series_.end()) {
    throw std::out_of_range("SeriesCollector: unknown series '" + name + "'");
  }
  it->second.back().add(value);
}

double SeriesCollector::mean_at(const std::string& name,
                                std::size_t point) const {
  return stats_at(name, point).mean();
}

const util::RunningStats& SeriesCollector::stats_at(const std::string& name,
                                                    std::size_t point) const {
  const auto it = series_.find(name);
  if (it == series_.end()) {
    throw std::out_of_range("SeriesCollector: unknown series '" + name + "'");
  }
  return it->second.at(point);
}

void SeriesCollector::save(util::SnapshotWriter& w) const {
  w.u64(static_cast<std::uint64_t>(num_points_));
  w.u64(static_cast<std::uint64_t>(series_.size()));
  for (const auto& [name, values] : series_) {
    w.str(name);
    w.vec(values, [&](const util::RunningStats& s) { s.save(w); });
  }
}

void SeriesCollector::load(util::SnapshotReader& r) {
  num_points_ = static_cast<std::size_t>(r.u64());
  series_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = r.str();
    series_[std::move(name)] = r.vec<util::RunningStats>([&] {
      util::RunningStats s;
      s.load(r);
      return s;
    });
  }
}

bool SeriesCollector::shaped(const std::vector<std::string>& names,
                             std::size_t points) const {
  return num_points_ == points && keyed_by(series_, names) &&
         std::all_of(series_.begin(), series_.end(), [&](const auto& entry) {
           return entry.second.size() == points;
         });
}

Report::Report(std::string scenario_name, std::string axis_label,
               std::vector<std::string> metrics,
               std::vector<std::string> policies)
    : scenario_name_(std::move(scenario_name)),
      axis_label_(std::move(axis_label)),
      metrics_(std::move(metrics)),
      policies_(std::move(policies)) {
  for (const std::string& metric : metrics_) {
    by_metric_.emplace(metric, SeriesCollector(policies_));
  }
}

void Report::start_point(double point_value, std::string point_label) {
  points_.push_back(point_value);
  point_labels_.push_back(std::move(point_label));
  for (auto& [metric, collector] : by_metric_) collector.start_point();
}

void Report::add(const std::string& metric, const std::string& policy,
                 double value) {
  const auto it = by_metric_.find(metric);
  if (it == by_metric_.end()) {
    throw std::out_of_range("Report: unknown metric '" + metric + "'");
  }
  it->second.add(policy, value);
}

const SeriesCollector& Report::collector(const std::string& metric) const {
  const auto it = by_metric_.find(metric);
  if (it == by_metric_.end()) {
    throw std::out_of_range("Report: unknown metric '" + metric + "'");
  }
  return it->second;
}

double Report::mean(const std::string& metric, const std::string& policy,
                    std::size_t point) const {
  return collector(metric).mean_at(policy, point);
}

void Report::print_metric_table(std::ostream& os, const std::string& title,
                                const std::string& metric,
                                int precision) const {
  const SeriesCollector& series = collector(metric);
  std::vector<std::string> header{axis_label_};
  header.insert(header.end(), policies_.begin(), policies_.end());
  util::Table table(header);
  for (std::size_t p = 0; p < points_.size(); ++p) {
    std::vector<double> row;
    row.reserve(policies_.size());
    for (const auto& policy : policies_) row.push_back(series.mean_at(policy, p));
    table.add_numeric_row(point_labels_[p], row, precision);
  }
  table.print(os, title);
  os << '\n';
}

void Report::print_policy_table(std::ostream& os, const std::string& title,
                                const std::string& row_header,
                                const std::vector<MetricColumn>& columns,
                                std::size_t point) const {
  std::vector<std::string> header{row_header};
  for (const MetricColumn& column : columns) header.push_back(column.header);
  util::Table table(header);
  for (const std::string& policy : policies_) {
    std::vector<std::string> row{policy};
    for (const MetricColumn& column : columns) {
      row.push_back(util::format_double(
          collector(column.metric).mean_at(policy, point), column.precision));
    }
    table.add_row(std::move(row));
  }
  table.print(os, title);
}

void Report::save(util::SnapshotWriter& w) const {
  w.str(scenario_name_);
  w.str(axis_label_);
  w.vec(metrics_, [&](const std::string& s) { w.str(s); });
  w.vec(policies_, [&](const std::string& s) { w.str(s); });
  w.u64(static_cast<std::uint64_t>(by_metric_.size()));
  for (const auto& [metric, collector] : by_metric_) {
    w.str(metric);
    collector.save(w);
  }
  w.vec(points_, [&](double v) { w.f64(v); });
  w.vec(point_labels_, [&](const std::string& s) { w.str(s); });
}

void Report::load(util::SnapshotReader& r) {
  scenario_name_ = r.str();
  axis_label_ = r.str();
  metrics_ = r.vec<std::string>([&] { return r.str(); });
  policies_ = r.vec<std::string>([&] { return r.str(); });
  by_metric_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string metric = r.str();
    by_metric_[std::move(metric)].load(r);
  }
  points_ = r.vec<double>([&] { return r.f64(); });
  point_labels_ = r.vec<std::string>([&] { return r.str(); });
  // add() and the table writers index every series by point.
  const bool shaped =
      point_labels_.size() == points_.size() &&
      keyed_by(by_metric_, metrics_) &&
      std::all_of(by_metric_.begin(), by_metric_.end(), [&](const auto& entry) {
        return entry.second.shaped(policies_, points_.size());
      });
  if (!shaped) {
    throw util::SnapshotParseError(
        r.offset(), "Report: series do not match the metrics, policies "
                    "and points");
  }
}

void Report::write_json(std::ostream& os) const {
  util::JsonWriter w(os);
  w.begin_object();
  w.field("scenario", scenario_name_);
  w.field("axis", axis_label_);
  w.key("points").begin_array();
  for (const double p : points_) w.value(p);
  w.end_array();
  w.key("policies").begin_object();
  for (const std::string& policy : policies_) {
    w.key(policy).begin_object();
    for (const std::string& metric : metrics_) {
      w.key(metric).begin_array();
      const SeriesCollector& series = collector(metric);
      for (std::size_t p = 0; p < points_.size(); ++p) {
        w.value(series.mean_at(policy, p));
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace mecar::exp
