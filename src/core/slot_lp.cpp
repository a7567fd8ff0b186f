#include "core/slot_lp.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <string>

#include "obs/catalog.h"

namespace mecar::core {

namespace {

/// The strict (latency, id) order of candidate lists.
bool nearer(const CandidateStation& a, const CandidateStation& b) {
  if (a.latency_ms != b.latency_ms) return a.latency_ms < b.latency_ms;
  return a.station < b.station;
}

/// Calls `row(bs, cols)` once per station that has columns, stations
/// ascending, with `cols` that station's column ids in ascending order: a
/// per-station capacity row reads only its own columns, not all of them.
template <typename RowFn>
void for_each_station_columns(const std::vector<SlotVar>& vars, RowFn row) {
  std::vector<int> order(vars.size());
  std::iota(order.begin(), order.end(), 0);
  const auto station_of = [&](int col) {
    return vars[static_cast<std::size_t>(col)].station;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return station_of(a) < station_of(b); });
  for (std::size_t first = 0; first < order.size();) {
    const int bs = station_of(order[first]);
    std::size_t last = first + 1;
    while (last < order.size() && station_of(order[last]) == bs) ++last;
    row(bs, std::span<const int>(order.data() + first, last - first));
    first = last;
  }
}

}  // namespace

std::vector<CandidateStation> candidate_stations(const mec::Topology& topo,
                                                 const mec::ARRequest& req,
                                                 const AlgorithmParams& params,
                                                 double waiting_ms) {
  const std::span<const double> delay = topo.delays_from(req.home_station);
  const std::vector<mec::BaseStation>& stations = topo.stations();
  const double weight = req.total_proc_weight();
  const std::size_t limit =
      params.max_candidate_stations > 0
          ? static_cast<std::size_t>(params.max_candidate_stations)
          : stations.size();
  // A max-heap under nearer(): its front is the worst station kept so far,
  // and a scanned station enters only when it beats that one.
  std::vector<CandidateStation> kept;
  kept.reserve(std::min(limit, stations.size()));
  for (std::size_t bs = 0; bs < stations.size(); ++bs) {
    const double lat = mec::placement_latency_ms(
        delay[bs], weight, stations[bs].proc_ms_per_unit);
    if (!(waiting_ms + lat <= req.latency_budget_ms)) continue;
    const CandidateStation cand{static_cast<int>(bs), lat};
    if (kept.size() < limit) {
      kept.push_back(cand);
      std::push_heap(kept.begin(), kept.end(), nearer);
    } else if (nearer(cand, kept.front())) {
      std::pop_heap(kept.begin(), kept.end(), nearer);
      kept.back() = cand;
      std::push_heap(kept.begin(), kept.end(), nearer);
    }
  }
  std::sort_heap(kept.begin(), kept.end(), nearer);
  return kept;
}

SlotLpInstance build_slot_lp(const mec::Topology& topo,
                             const std::vector<mec::ARRequest>& requests,
                             const AlgorithmParams& params,
                             const SlotLpOptions& options) {
  obs::metrics().lp_slot_models.add();
  SlotLpInstance inst;
  const int num_stations = topo.num_stations();
  if (!options.capacity_override_mhz.empty() &&
      options.capacity_override_mhz.size() !=
          static_cast<std::size_t>(num_stations)) {
    throw std::invalid_argument(
        "build_slot_lp: capacity_override_mhz size mismatch");
  }
  if (!options.waiting_ms_per_request.empty() &&
      options.waiting_ms_per_request.size() != requests.size()) {
    throw std::invalid_argument(
        "build_slot_lp: waiting_ms_per_request size mismatch");
  }
  auto station_capacity = [&](int bs) {
    return options.capacity_override_mhz.empty()
               ? topo.station(bs).capacity_mhz
               : options.capacity_override_mhz[static_cast<std::size_t>(bs)];
  };
  auto waiting_of = [&](std::size_t j) {
    return options.waiting_ms_per_request.empty()
               ? 0.0
               : options.waiting_ms_per_request[j];
  };
  inst.slots_per_station.resize(static_cast<std::size_t>(num_stations));
  for (int bs = 0; bs < num_stations; ++bs) {
    inst.slots_per_station[static_cast<std::size_t>(bs)] = std::max(
        1, static_cast<int>(
               std::floor(station_capacity(bs) / params.slot_capacity_mhz)));
  }
  inst.request_columns.resize(requests.size());
  inst.request_candidates.resize(requests.size());

  // Columns y_jil with ER_jil objective. The candidate list carries the
  // placement latency it computed for the feasibility filter, so each
  // (request, station) latency is evaluated exactly once.
  for (std::size_t j = 0; j < requests.size(); ++j) {
    const mec::ARRequest& req = requests[j];
    inst.request_candidates[j] =
        candidate_stations(topo, req, params, waiting_of(j));
    for (const CandidateStation& cand : inst.request_candidates[j]) {
      const int bs = cand.station;
      const double latency = cand.latency_ms;
      const int L = inst.slots_per_station[static_cast<std::size_t>(bs)];
      for (int l = 0; l < L; ++l) {
        const double rate_cap =
            (station_capacity(bs) - l * params.slot_capacity_mhz) /
            params.c_unit;
        const double er = req.demand.expected_reward_within(rate_cap);
        if (er <= 0.0) continue;  // no level fits from this slot onward
        // The per-stream share is a true column bound (0 <= y <= 1), not a
        // row: the revised simplex handles it natively and the basis stays
        // at the real constraint count.
        const int col = inst.model.add_variable(
            "y_" + std::to_string(req.id) + "_" + std::to_string(bs) + "_" +
                std::to_string(l),
            er, 1.0);
        inst.vars.push_back(SlotVar{static_cast<int>(j), bs, l, er, latency});
        inst.request_columns[j].push_back(col);
      }
    }
  }

  // (9): per-request assignment rows. A request with a single candidate
  // column needs no row at all — its constraint is exactly the column's
  // upper bound, so the polytope is unchanged with one row fewer.
  for (std::size_t j = 0; j < requests.size(); ++j) {
    if (inst.request_columns[j].size() < 2) continue;
    std::vector<lp::Term> terms;
    terms.reserve(inst.request_columns[j].size());
    for (int col : inst.request_columns[j]) {
      terms.push_back(lp::Term{col, 1.0});
    }
    inst.model.add_constraint("assign_" + std::to_string(requests[j].id),
                              lp::Sense::kLe, 1.0, std::move(terms));
  }

  // (10)/(23): slot-prefix capacity rows per (station, l), l = 1..L. A
  // station without columns has no row.
  for_each_station_columns(
      inst.vars, [&](int bs, std::span<const int> cols) {
        const int L = inst.slots_per_station[static_cast<std::size_t>(bs)];
        for (int l = 1; l <= L; ++l) {
          const double rate_cap =
              l * params.slot_capacity_mhz / params.c_unit;
          double cap = rate_cap;
          if (options.share_cap_mhz) {
            cap = std::min(cap, *options.share_cap_mhz / params.c_unit);
          }
          std::vector<lp::Term> terms;
          for (int col : cols) {
            const SlotVar& var = inst.vars[static_cast<std::size_t>(col)];
            if (var.slot >= l) continue;
            const double truncated =
                requests[static_cast<std::size_t>(var.request_index)]
                    .demand.expected_truncated_rate(cap);
            if (truncated > 0.0) terms.push_back(lp::Term{col, truncated});
          }
          if (terms.empty()) continue;
          inst.model.add_constraint(
              "slots_" + std::to_string(bs) + "_" + std::to_string(l),
              lp::Sense::kLe, 2.0 * rate_cap, std::move(terms));
        }
      });

  return inst;
}

SlotLpInstance build_ilp_rm(const mec::Topology& topo,
                            const std::vector<mec::ARRequest>& requests,
                            const AlgorithmParams& params) {
  SlotLpInstance inst;
  const int num_stations = topo.num_stations();
  inst.slots_per_station.assign(static_cast<std::size_t>(num_stations), 1);
  inst.request_columns.resize(requests.size());
  inst.request_candidates.resize(requests.size());

  for (std::size_t j = 0; j < requests.size(); ++j) {
    const mec::ARRequest& req = requests[j];
    inst.request_candidates[j] = candidate_stations(topo, req, params);
    for (const CandidateStation& cand : inst.request_candidates[j]) {
      const int bs = cand.station;
      const double latency = cand.latency_ms;
      // Expected reward restricted to rates the station can hold at all
      // (consistent with Eq. (8) at slot 0).
      const double rate_cap = topo.station(bs).capacity_mhz / params.c_unit;
      const double er = req.demand.expected_reward_within(rate_cap);
      if (er <= 0.0) continue;
      const int col = inst.model.add_variable(
          "x_" + std::to_string(req.id) + "_" + std::to_string(bs), er, 1.0,
          /*integral=*/true);
      inst.vars.push_back(SlotVar{static_cast<int>(j), bs, 0, er, latency});
      inst.request_columns[j].push_back(col);
    }
  }

  // (3): each request to at most one station.
  for (std::size_t j = 0; j < requests.size(); ++j) {
    if (inst.request_columns[j].empty()) continue;
    std::vector<lp::Term> terms;
    for (int col : inst.request_columns[j]) {
      terms.push_back(lp::Term{col, 1.0});
    }
    inst.model.add_constraint("assign_" + std::to_string(requests[j].id),
                              lp::Sense::kLe, 1.0, std::move(terms));
  }

  // (4): expected-demand capacity per station that has columns.
  for_each_station_columns(
      inst.vars, [&](int bs, std::span<const int> cols) {
        std::vector<lp::Term> terms;
        terms.reserve(cols.size());
        for (int col : cols) {
          const SlotVar& var = inst.vars[static_cast<std::size_t>(col)];
          const double demand =
              requests[static_cast<std::size_t>(var.request_index)]
                  .demand.expected_rate() *
              params.c_unit;
          terms.push_back(lp::Term{col, demand});
        }
        inst.model.add_constraint("cap_" + std::to_string(bs),
                                  lp::Sense::kLe,
                                  topo.station(bs).capacity_mhz,
                                  std::move(terms));
      });

  return inst;
}

}  // namespace mecar::core
