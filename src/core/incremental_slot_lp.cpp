#include "core/incremental_slot_lp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>

#include "lp/serialize.h"
#include "obs/catalog.h"
#include "util/snapshot.h"

namespace mecar::core {

namespace {

/// Capacity-row map key for (station, l). l is bounded by the slot count
/// of one station (a few dozen), far below the shift width.
long long cap_key(int bs, int l) {
  return (static_cast<long long>(bs) << 20) | static_cast<long long>(l);
}

bool same_share_cap(const std::optional<double>& a,
                    const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || *a == *b;
}

}  // namespace

void IncrementalSlotLp::invalidate() {
  valid_ = false;
  entries_.clear();
  capacity_rows_.clear();
  candidate_cache_.clear();
  topo_ = nullptr;
  dead_columns_ = 0;
}

bool IncrementalSlotLp::preconditions_hold(const mec::Topology& topo,
                                           const AlgorithmParams& params,
                                           const SlotLpOptions& options) const {
  // Everything a column objective or capacity coefficient depends on must
  // be unchanged; waiting times are deliberately absent (they only gate
  // the candidate prefix, which the per-entry signature tracks). The
  // capacity override is also absent: a moved override only shifts column
  // objectives, which build() reconciles in place.
  return valid_ && topo_ == &topo && num_stations_ == topo.num_stations() &&
         params_.slot_capacity_mhz == params.slot_capacity_mhz &&
         params_.c_unit == params.c_unit &&
         params_.max_candidate_stations == params.max_candidate_stations &&
         same_share_cap(options_.share_cap_mhz, options.share_cap_mhz);
}

bool IncrementalSlotLp::override_preserves_slot_counts(
    const SlotLpOptions& options) const {
  for (int bs = 0; bs < num_stations_; ++bs) {
    const double cap =
        options.capacity_override_mhz.empty()
            ? topo_->station(bs).capacity_mhz
            : options.capacity_override_mhz[static_cast<std::size_t>(bs)];
    const int L = std::max(
        1, static_cast<int>(std::floor(cap / params_.slot_capacity_mhz)));
    if (L != inst_.slots_per_station[static_cast<std::size_t>(bs)]) {
      return false;
    }
  }
  return true;
}

bool IncrementalSlotLp::reconcile_entry(const mec::ARRequest& req,
                                        const Entry& e, bool& mutated) {
  const auto& cands = candidate_cache_.find(req.id)->second;
  auto station_capacity = [&](int bs) {
    return options_.capacity_override_mhz.empty()
               ? topo_->station(bs).capacity_mhz
               : options_.capacity_override_mhz[static_cast<std::size_t>(bs)];
  };
  // e.columns is the subsequence of the (candidate, l) lattice whose
  // expected reward was positive when the entry was materialized; walk
  // both in step. A lattice position with er > 0 but no column means the
  // old override had pruned it — only then is in-place repair impossible.
  std::size_t cursor = 0;
  for (int c = 0; c < e.candidate_count; ++c) {
    const int bs = cands[static_cast<std::size_t>(c) + 1].station;
    const int L = inst_.slots_per_station[static_cast<std::size_t>(bs)];
    for (int l = 0; l < L; ++l) {
      const double rate_cap =
          (station_capacity(bs) - l * params_.slot_capacity_mhz) /
          params_.c_unit;
      const double er = req.demand.expected_reward_within(rate_cap);
      const bool have =
          cursor < e.columns.size() &&
          inst_.vars[static_cast<std::size_t>(e.columns[cursor])].station ==
              bs &&
          inst_.vars[static_cast<std::size_t>(e.columns[cursor])].slot == l;
      if (!have) {
        if (er > 0.0) return false;
        continue;
      }
      const int col = e.columns[cursor++];
      SlotVar& var = inst_.vars[static_cast<std::size_t>(col)];
      if (var.expected_reward != er) {
        inst_.model.update_objective(col, er);
        var.expected_reward = er;
        mutated = true;
      }
      const double upper = er > 0.0 ? 1.0 : 0.0;
      if (inst_.model.variable(col).upper != upper) {
        inst_.model.update_bound(col, upper);
        mutated = true;
      }
    }
  }
  return cursor == e.columns.size();
}

const std::vector<CandidateStation>& IncrementalSlotLp::candidates_of(
    const mec::ARRequest& req) {
  auto [it, inserted] = candidate_cache_.try_emplace(req.id);
  // Mobility can re-home a request between slots without changing its id;
  // the cached latency list is keyed on the home station via recompute.
  if (!inserted && !it->second.empty() &&
      it->second.front().station == -1 - req.home_station) {
    return it->second;
  }
  std::vector<CandidateStation>& list = it->second;
  list.clear();
  // Slot 0 is a sentinel recording the home station the list was computed
  // for (station = -1 - home, never a valid candidate index).
  list.push_back(CandidateStation{-1 - req.home_station, 0.0});
  std::vector<CandidateStation> all;
  all.reserve(static_cast<std::size_t>(num_stations_));
  for (int bs = 0; bs < num_stations_; ++bs) {
    all.push_back(
        CandidateStation{bs, mec::placement_latency_ms(*topo_, req, bs)});
  }
  std::sort(all.begin(), all.end(),
            [](const CandidateStation& a, const CandidateStation& b) {
              if (a.latency_ms != b.latency_ms) {
                return a.latency_ms < b.latency_ms;
              }
              return a.station < b.station;
            });
  list.insert(list.end(), all.begin(), all.end());
  return list;
}

int IncrementalSlotLp::candidate_count(const mec::ARRequest& req,
                                       double waiting_ms) const {
  // const_cast-free variant: candidates_of is non-const because it fills
  // the cache; count is only called after the cache was primed.
  auto it = candidate_cache_.find(req.id);
  const auto& list = it->second;
  // The feasibility filter `waiting + lat <= budget` admits a prefix of
  // the latency-sorted list (addition is monotone in lat), so the
  // canonical filtered-then-sorted set is exactly this prefix.
  const auto begin = list.begin() + 1;  // skip the home-station sentinel
  const auto split = std::partition_point(
      begin, list.end(), [&](const CandidateStation& c) {
        return waiting_ms + c.latency_ms <= req.latency_budget_ms;
      });
  int count = static_cast<int>(split - begin);
  if (params_.max_candidate_stations > 0) {
    count = std::min(count, params_.max_candidate_stations);
  }
  return count;
}

IncrementalSlotLp::Entry IncrementalSlotLp::make_signature(
    const mec::ARRequest& req, int count) {
  Entry e;
  e.id = req.id;
  e.candidate_count = count;
  e.latency_budget_ms = req.latency_budget_ms;
  e.demand_levels = req.demand.size();
  e.demand_min_rate = req.demand.min_rate();
  e.demand_expected_reward = req.demand.expected_reward();
  return e;
}

bool IncrementalSlotLp::signature_matches(const Entry& a, const Entry& b) {
  // Same id, same candidate prefix, same demand identity: the entry's
  // columns are bit-identical, so nothing needs rewriting. The demand
  // fields distinguish a displaced "ghost" (degenerate single-level
  // distribution, effectively unbounded budget) from the original request
  // it shadows.
  return a.id == b.id && a.candidate_count == b.candidate_count &&
         a.latency_budget_ms == b.latency_budget_ms &&
         a.demand_levels == b.demand_levels &&
         a.demand_min_rate == b.demand_min_rate &&
         a.demand_expected_reward == b.demand_expected_reward;
}

IncrementalSlotLp::Entry IncrementalSlotLp::add_entry(const mec::ARRequest& req,
                                                      double waiting_ms,
                                                      int count) {
  Entry e = make_signature(req, count);
  const auto& cands = candidates_of(req);
  auto station_capacity = [&](int bs) {
    return options_.capacity_override_mhz.empty()
               ? topo_->station(bs).capacity_mhz
               : options_.capacity_override_mhz[static_cast<std::size_t>(bs)];
  };
  // New capacity rows this entry forces into existence, in deterministic
  // (station, l) order. A row is missing exactly when no live column ever
  // needed it, so its initial terms are all from this entry.
  std::map<long long, std::vector<lp::Term>> pending_rows;
  std::vector<lp::ColumnEntry> row_entries;
  std::vector<std::pair<long long, double>> missing;  // (row key, coeff)
  (void)waiting_ms;  // the filter is already folded into `count`

  for (int c = 0; c < count; ++c) {
    const CandidateStation& cand = cands[static_cast<std::size_t>(c) + 1];
    const int bs = cand.station;
    const int L = inst_.slots_per_station[static_cast<std::size_t>(bs)];
    for (int l = 0; l < L; ++l) {
      const double rate_cap =
          (station_capacity(bs) - l * params_.slot_capacity_mhz) /
          params_.c_unit;
      const double er = req.demand.expected_reward_within(rate_cap);
      if (er <= 0.0) continue;
      row_entries.clear();
      missing.clear();
      for (int lr = l + 1; lr <= L; ++lr) {
        double cap = lr * params_.slot_capacity_mhz / params_.c_unit;
        if (options_.share_cap_mhz) {
          cap = std::min(cap, *options_.share_cap_mhz / params_.c_unit);
        }
        const double truncated = req.demand.expected_truncated_rate(cap);
        if (truncated <= 0.0) continue;
        const auto row_it = capacity_rows_.find(cap_key(bs, lr));
        if (row_it != capacity_rows_.end()) {
          row_entries.push_back(lp::ColumnEntry{row_it->second, truncated});
        } else {
          missing.emplace_back(cap_key(bs, lr), truncated);
        }
      }
      const int col = inst_.model.add_column(
          "y_" + std::to_string(req.id) + "_" + std::to_string(bs) + "_" +
              std::to_string(l),
          er, 1.0, row_entries);
      for (const auto& [key, coeff] : missing) {
        pending_rows[key].push_back(lp::Term{col, coeff});
      }
      // request_index is patched per slot once the batch order is known.
      inst_.vars.push_back(SlotVar{-1, bs, l, er, cand.latency_ms});
      e.columns.push_back(col);
      ++stats_.columns_added;
    }
  }
  if (e.columns.size() >= 2) {
    std::vector<lp::Term> terms;
    terms.reserve(e.columns.size());
    for (int col : e.columns) terms.push_back(lp::Term{col, 1.0});
    inst_.model.add_constraint("assign_" + std::to_string(req.id),
                               lp::Sense::kLe, 1.0, std::move(terms));
  }
  for (auto& [key, terms] : pending_rows) {
    const int bs = static_cast<int>(key >> 20);
    const int l = static_cast<int>(key & ((1 << 20) - 1));
    const double rate_cap = l * params_.slot_capacity_mhz / params_.c_unit;
    capacity_rows_[key] = inst_.model.add_constraint(
        "slots_" + std::to_string(bs) + "_" + std::to_string(l), lp::Sense::kLe,
        2.0 * rate_cap, std::move(terms));
  }
  return e;
}

void IncrementalSlotLp::full_build(const mec::Topology& topo,
                                   const std::vector<mec::ARRequest>& requests,
                                   const AlgorithmParams& params,
                                   const SlotLpOptions& options) {
  ++stats_.full_builds;
  obs::metrics().lp_incremental_rebuilds.add();
  if (topo_ != &topo) candidate_cache_.clear();
  topo_ = &topo;
  num_stations_ = topo.num_stations();
  params_ = params;
  options_ = options;
  dead_columns_ = 0;
  capacity_rows_.clear();

  // The canonical builder stays the single source of truth for the scratch
  // path; bookkeeping is derived from its deterministic row naming.
  inst_ = build_slot_lp(topo, requests, params, options);
  for (int r = 0; r < inst_.model.num_constraints(); ++r) {
    const std::string& name = inst_.model.row(r).name;
    if (name.rfind("slots_", 0) != 0) continue;
    const std::size_t sep = name.find('_', 6);
    const int bs = std::stoi(name.substr(6, sep - 6));
    const int l = std::stoi(name.substr(sep + 1));
    capacity_rows_[cap_key(bs, l)] = r;
  }

  auto waiting_of = [&](std::size_t j) {
    return options.waiting_ms_per_request.empty()
               ? options.waiting_ms
               : options.waiting_ms_per_request[j];
  };
  entries_.clear();
  entries_.reserve(requests.size());
  for (std::size_t b = 0; b < requests.size(); ++b) {
    (void)candidates_of(requests[b]);  // prime the cache
    Entry e = make_signature(requests[b],
                             candidate_count(requests[b], waiting_of(b)));
    e.columns = inst_.request_columns[b];
    entries_.push_back(std::move(e));
  }
  valid_ = true;
}

const SlotLpInstance& IncrementalSlotLp::build(
    const mec::Topology& topo, const std::vector<mec::ARRequest>& requests,
    const AlgorithmParams& params, const SlotLpOptions& options) {
  const long long live_columns =
      static_cast<long long>(inst_.model.num_variables()) - dead_columns_;
  if (!preconditions_hold(topo, params, options) ||
      dead_columns_ > std::max<long long>(64, live_columns)) {
    full_build(topo, requests, params, options);
    return inst_;
  }

  // Residual-capacity churn: objectives move but the lattice shape only
  // changes when a station's slot count does.
  const bool override_moved =
      options_.capacity_override_mhz != options.capacity_override_mhz;
  if (override_moved) {
    if (!override_preserves_slot_counts(options)) {
      full_build(topo, requests, params, options);
      return inst_;
    }
    options_.capacity_override_mhz = options.capacity_override_mhz;
  }

  auto waiting_of = [&](std::size_t j) {
    return options.waiting_ms_per_request.empty()
               ? options.waiting_ms
               : options.waiting_ms_per_request[j];
  };

  // Match the new batch against the materialized entries by request id.
  std::unordered_map<int, std::size_t> prev_by_id;
  prev_by_id.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    prev_by_id.emplace(entries_[i].id, i);
  }

  std::vector<Entry> next;
  next.reserve(requests.size());
  std::vector<char> prev_used(entries_.size(), 0);
  bool mutated = false;
  for (std::size_t b = 0; b < requests.size(); ++b) {
    const mec::ARRequest& req = requests[b];
    (void)candidates_of(req);
    const Entry sig = make_signature(req, candidate_count(req, waiting_of(b)));
    const auto it = prev_by_id.find(req.id);
    if (it != prev_by_id.end() &&
        signature_matches(entries_[it->second], sig) &&
        (!override_moved ||
         reconcile_entry(req, entries_[it->second], mutated))) {
      prev_used[it->second] = 1;
      next.push_back(std::move(entries_[it->second]));
    } else {
      // Joined, or the candidate prefix / demand identity moved: fresh
      // columns (a changed predecessor is struck below as unused).
      mutated = true;
      next.push_back(add_entry(req, waiting_of(b), sig.candidate_count));
    }
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (prev_used[i]) continue;
    mutated = true;
    for (int col : entries_[i].columns) {
      inst_.model.remove_column(col);
      ++dead_columns_;
      ++stats_.columns_removed;
    }
  }
  entries_ = std::move(next);

  // Rewire the per-batch views: the batch order can shift even when no
  // entry changed (the waiting queue is re-sorted by density every slot).
  // Each entry's candidate list is the prefix of its cached sorted list
  // that this slot's count admits, which is what candidate_stations()
  // returns for the same request and waiting time.
  inst_.request_columns.assign(requests.size(), {});
  inst_.request_candidates.resize(requests.size());
  for (std::size_t b = 0; b < entries_.size(); ++b) {
    inst_.request_columns[b] = entries_[b].columns;
    for (int col : entries_[b].columns) {
      inst_.vars[static_cast<std::size_t>(col)].request_index =
          static_cast<int>(b);
    }
    const auto& cands = candidate_cache_.find(requests[b].id)->second;
    inst_.request_candidates[b].assign(
        cands.begin() + 1, cands.begin() + 1 + entries_[b].candidate_count);
  }

  if (mutated) {
    ++stats_.delta_builds;
    obs::metrics().lp_incremental_deltas.add();
  } else {
    ++stats_.reuses;
    obs::metrics().lp_incremental_reuses.add();
  }
  return inst_;
}

void IncrementalSlotLp::save(util::SnapshotWriter& w) const {
  w.boolean(valid_);
  if (!valid_) return;
  lp::save_model(inst_.model, w);
  w.vec(inst_.vars, [&](const SlotVar& v) {
    w.i32(v.request_index);
    w.i32(v.station);
    w.i32(v.slot);
    w.f64(v.expected_reward);
    w.f64(v.latency_ms);
  });
  w.vec(inst_.request_columns, [&](const std::vector<int>& cols) {
    w.vec(cols, [&](int c) { w.i32(c); });
  });
  w.vec(inst_.slots_per_station, [&](int n) { w.i32(n); });
  w.vec(entries_, [&](const Entry& e) {
    w.i32(e.id);
    w.i32(e.candidate_count);
    w.f64(e.latency_budget_ms);
    w.u64(static_cast<std::uint64_t>(e.demand_levels));
    w.f64(e.demand_min_rate);
    w.f64(e.demand_expected_reward);
    w.vec(e.columns, [&](int c) { w.i32(c); });
  });
  w.i32(num_stations_);
  w.f64(params_.slot_capacity_mhz);
  w.f64(params_.c_unit);
  w.i32(params_.max_candidate_stations);
  w.f64(params_.rounding_divisor);
  w.boolean(params_.backfill);
  w.boolean(params_.enforce_backhaul);
  w.boolean(options_.share_cap_mhz.has_value());
  if (options_.share_cap_mhz) w.f64(*options_.share_cap_mhz);
  w.f64(options_.waiting_ms);
  w.vec(options_.waiting_ms_per_request, [&](double v) { w.f64(v); });
  w.vec(options_.capacity_override_mhz, [&](double v) { w.f64(v); });
  w.i64(dead_columns_);
  w.i64(stats_.full_builds);
  w.i64(stats_.reuses);
  w.i64(stats_.delta_builds);
  w.i64(stats_.columns_added);
  w.i64(stats_.columns_removed);
}

void IncrementalSlotLp::load(util::SnapshotReader& r,
                             const mec::Topology& topo) {
  invalidate();
  if (!r.boolean()) return;
  inst_.model = lp::load_model(r);
  inst_.vars = r.vec<SlotVar>([&] {
    SlotVar v;
    v.request_index = r.i32();
    v.station = r.i32();
    v.slot = r.i32();
    v.expected_reward = r.f64();
    v.latency_ms = r.f64();
    return v;
  });
  inst_.request_columns = r.vec<std::vector<int>>(
      [&] { return r.vec<int>([&] { return r.i32(); }); });
  inst_.slots_per_station = r.vec<int>([&] { return r.i32(); });
  entries_ = r.vec<Entry>([&] {
    Entry e;
    e.id = r.i32();
    e.candidate_count = r.i32();
    e.latency_budget_ms = r.f64();
    e.demand_levels = static_cast<std::size_t>(r.u64());
    e.demand_min_rate = r.f64();
    e.demand_expected_reward = r.f64();
    e.columns = r.vec<int>([&] { return r.i32(); });
    return e;
  });
  num_stations_ = r.i32();
  params_.slot_capacity_mhz = r.f64();
  params_.c_unit = r.f64();
  params_.max_candidate_stations = r.i32();
  params_.rounding_divisor = r.f64();
  params_.backfill = r.boolean();
  params_.enforce_backhaul = r.boolean();
  if (r.boolean()) {
    options_.share_cap_mhz = r.f64();
  } else {
    options_.share_cap_mhz.reset();
  }
  options_.waiting_ms = r.f64();
  options_.waiting_ms_per_request = r.vec<double>([&] { return r.f64(); });
  options_.capacity_override_mhz = r.vec<double>([&] { return r.f64(); });
  dead_columns_ = r.i64();
  stats_.full_builds = r.i64();
  stats_.reuses = r.i64();
  stats_.delta_builds = r.i64();
  stats_.columns_added = r.i64();
  stats_.columns_removed = r.i64();

  // The capacity-row map and candidate cache are derived state: rows come
  // back from the canonical "slots_<bs>_<l>" naming, candidates reprime
  // lazily on the next build().
  topo_ = &topo;
  for (int row = 0; row < inst_.model.num_constraints(); ++row) {
    const std::string& name = inst_.model.row(row).name;
    if (name.rfind("slots_", 0) != 0) continue;
    const std::size_t sep = name.find('_', 6);
    const int bs = std::stoi(name.substr(6, sep - 6));
    const int l = std::stoi(name.substr(sep + 1));
    capacity_rows_[cap_key(bs, l)] = row;
  }
  if (num_stations_ != topo.num_stations()) {
    throw util::SnapshotParseError(r.offset(),
                                   "IncrementalSlotLp: station count mismatch");
  }
  valid_ = true;
}

}  // namespace mecar::core
