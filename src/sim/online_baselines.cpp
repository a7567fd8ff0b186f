#include "sim/online_baselines.h"

#include <algorithm>

#include "core/slot_lp.h"

namespace mecar::sim {
namespace {

/// Local candidate horizon of the cluster-style baselines (section VI-B:
/// "they utilize a local strategy").
constexpr int kLocalCandidates = 3;

/// Rebuilds per-station reservations from the simulator state: every
/// unfinished admitted stream holds `estimate(request)` at its station.
/// Every placed stream is pending, and the list ascends, so this walk
/// occupies in the order a scan of every request would, at the cost of
/// the live set.
template <typename EstimateFn>
core::StationLoad reservations(const mec::Topology& topo, const SlotView& view,
                               EstimateFn estimate) {
  core::StationLoad load(topo);
  for (const int j : view.pending) {
    const auto i = static_cast<std::size_t>(j);
    const RequestState& st = (*view.states)[i];
    if (st.phase == Phase::kServed && st.station >= 0) {
      load.occupy(st.station, estimate((*view.requests)[i]));
    }
  }
  return load;
}

/// Activates every resident unfinished stream (non-preemptive policies)
/// and re-places streams displaced by station outages or backhaul
/// partitions: nearest available station with reservation room for the
/// policy's estimate. On the effective (degraded) topology, stations the
/// user can no longer reach have an infinite backhaul delay and are
/// skipped — the shared failover contract of every baseline.
template <typename EstimateFn>
void activate_residents(const mec::Topology& topo, const SlotView& view,
                        core::StationLoad& reserved, EstimateFn estimate,
                        SlotDecision& decision) {
  for (int j : view.pending) {
    const RequestState& st = (*view.states)[static_cast<std::size_t>(j)];
    if (st.phase != Phase::kServed) continue;
    if (st.station >= 0) {
      decision.active.push_back({j, st.station});
      continue;
    }
    const mec::ARRequest& req = (*view.requests)[static_cast<std::size_t>(j)];
    const double reserve = estimate(req);
    for (int bs : topo.stations_by_distance(req.home_station)) {
      if (!view.is_up(bs)) continue;
      if (!topo.reachable(req.home_station, bs)) continue;
      if (reserved.remaining_mhz(bs) < reserve) continue;
      reserved.occupy(bs, reserve);
      decision.active.push_back({j, bs});
      break;
    }
  }
}

std::vector<int> waiting_requests(const SlotView& view) {
  std::vector<int> waiting;
  for (int j : view.pending) {
    if ((*view.states)[static_cast<std::size_t>(j)].phase == Phase::kWaiting) {
      waiting.push_back(j);
    }
  }
  return waiting;
}

}  // namespace

GreedyOnlinePolicy::GreedyOnlinePolicy(const mec::Topology& topo,
                                       core::AlgorithmParams alg)
    : topo_(topo), alg_(alg) {}

SlotDecision GreedyOnlinePolicy::decide(const SlotView& view) {
  SlotDecision decision;
  decision.active.reserve(view.pending.size());
  const mec::Topology& topo = view.topo != nullptr ? *view.topo : topo_;
  auto peak = [&](const mec::ARRequest& r) {
    return r.demand.max_rate() * alg_.c_unit;
  };
  core::StationLoad reserved = reservations(topo, view, peak);
  activate_residents(topo, view, reserved, peak, decision);

  std::vector<int> waiting = waiting_requests(view);
  auto execution_time = [&](int j) {
    const auto& req = (*view.requests)[static_cast<std::size_t>(j)];
    return req.total_proc_weight() * req.demand.expected_rate();
  };
  std::sort(waiting.begin(), waiting.end(), [&](int a, int b) {
    const double ta = execution_time(a);
    const double tb = execution_time(b);
    if (ta != tb) return ta > tb;
    return a < b;
  });

  core::AlgorithmParams near = alg_;
  near.max_candidate_stations = kLocalCandidates;
  for (int j : waiting) {
    const mec::ARRequest& req = (*view.requests)[static_cast<std::size_t>(j)];
    const double reserve = peak(req);
    int best_bs = -1;
    double best_lat = 0.0;
    for (const core::CandidateStation& cand : view.candidates(j, near)) {
      if (!view.is_up(cand.station)) continue;
      if (reserved.remaining_mhz(cand.station) < reserve) continue;
      if (best_bs < 0 || cand.latency_ms < best_lat) {
        best_bs = cand.station;
        best_lat = cand.latency_ms;
      }
    }
    if (best_bs < 0) continue;
    reserved.occupy(best_bs, reserve);
    decision.active.push_back({j, best_bs});
  }
  return decision;
}

OcorpOnlinePolicy::OcorpOnlinePolicy(const mec::Topology& topo,
                                     core::AlgorithmParams alg)
    : topo_(topo), alg_(alg) {}

SlotDecision OcorpOnlinePolicy::decide(const SlotView& view) {
  SlotDecision decision;
  decision.active.reserve(view.pending.size());
  const mec::Topology& topo = view.topo != nullptr ? *view.topo : topo_;
  auto peak = [&](const mec::ARRequest& r) {
    return r.demand.max_rate() * alg_.c_unit;
  };
  core::StationLoad reserved = reservations(topo, view, peak);
  activate_residents(topo, view, reserved, peak, decision);

  std::vector<int> waiting = waiting_requests(view);
  std::sort(waiting.begin(), waiting.end(), [&](int a, int b) {
    const auto& ra = (*view.requests)[static_cast<std::size_t>(a)];
    const auto& rb = (*view.requests)[static_cast<std::size_t>(b)];
    if (ra.arrival_slot != rb.arrival_slot) {
      return ra.arrival_slot < rb.arrival_slot;
    }
    const double da = ra.demand.expected_rate() * ra.duration_slots;
    const double db = rb.demand.expected_rate() * rb.duration_slots;
    if (da != db) return da < db;
    return a < b;
  });

  core::AlgorithmParams near = alg_;
  near.max_candidate_stations = kLocalCandidates;
  for (int j : waiting) {
    const mec::ARRequest& req = (*view.requests)[static_cast<std::size_t>(j)];
    const double reserve = peak(req);
    int best_bs = -1;
    double best_resid = 0.0;
    for (const core::CandidateStation& cand : view.candidates(j, near)) {
      if (!view.is_up(cand.station)) continue;
      const double resid = reserved.remaining_mhz(cand.station);
      if (resid < reserve) continue;
      if (best_bs < 0 || resid < best_resid) {
        best_bs = cand.station;
        best_resid = resid;
      }
    }
    if (best_bs < 0) continue;
    reserved.occupy(best_bs, reserve);
    decision.active.push_back({j, best_bs});
  }
  return decision;
}

HeuKktOnlinePolicy::HeuKktOnlinePolicy(const mec::Topology& topo,
                                       core::AlgorithmParams alg)
    : topo_(topo), alg_(alg) {}

SlotDecision HeuKktOnlinePolicy::decide(const SlotView& view) {
  SlotDecision decision;
  decision.active.reserve(view.pending.size());
  const mec::Topology& topo = view.topo != nullptr ? *view.topo : topo_;
  auto mean = [&](const mec::ARRequest& r) {
    return r.demand.expected_rate() * alg_.c_unit;
  };
  core::StationLoad committed = reservations(topo, view, mean);
  activate_residents(topo, view, committed, mean, decision);

  std::vector<int> waiting = waiting_requests(view);
  // KKT water-filling admits the smallest expected demands first.
  std::sort(waiting.begin(), waiting.end(), [&](int a, int b) {
    const double da =
        (*view.requests)[static_cast<std::size_t>(a)].demand.expected_rate();
    const double db =
        (*view.requests)[static_cast<std::size_t>(b)].demand.expected_rate();
    if (da != db) return da < db;
    return a < b;
  });

  for (int j : waiting) {
    const mec::ARRequest& req = (*view.requests)[static_cast<std::size_t>(j)];
    const double commit = mean(req);
    const double wait = view.waiting_ms(j);
    const int home = req.home_station;
    int chosen = -1;
    if (view.is_up(home) && committed.remaining_mhz(home) >= commit &&
        wait + mec::placement_latency_ms(topo, req, home) <=
            req.latency_budget_ms) {
      chosen = home;
    } else {
      // Overflow: most spare latency-feasible NEIGHBOUR (Ma et al.'s
      // cooperation is between neighbouring edges; farther offload leaves
      // the MEC network for the cloud and earns no edge reward).
      core::AlgorithmParams neighbourhood = alg_;
      neighbourhood.max_candidate_stations = 6;
      double best_spare = 0.0;
      for (const core::CandidateStation& cand :
           view.candidates(j, neighbourhood)) {
        if (!view.is_up(cand.station)) continue;
        const double spare = committed.remaining_mhz(cand.station);
        if (spare < commit) continue;
        if (chosen < 0 || spare > best_spare) {
          chosen = cand.station;
          best_spare = spare;
        }
      }
    }
    if (chosen < 0) continue;  // remote cloud: no edge reward
    committed.occupy(chosen, commit);
    decision.active.push_back({j, chosen});
  }
  return decision;
}

}  // namespace mecar::sim
