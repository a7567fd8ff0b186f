#include "sim/online_sim.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "mec/topology_overlay.h"
#include "obs/catalog.h"
#include "obs/event_trace.h"
#include "sim/checkpoint.h"
#include "sim/shard.h"
#include "util/log.h"
#include "util/snapshot.h"
#include "util/timer.h"

namespace mecar::sim {

void OnlinePolicy::feedback(const SlotFeedback& /*fb*/) {}

void OnlinePolicy::save_state(util::SnapshotWriter& /*w*/) const {}

void OnlinePolicy::load_state(util::SnapshotReader& /*r*/) {}

double SlotView::waiting_ms(int request_index) const {
  const auto& req = (*requests)[static_cast<std::size_t>(request_index)];
  return (slot - req.arrival_slot) * slot_ms;
}

std::vector<double> SlotView::resident_demand_mhz() const {
  if (resident_demand != nullptr) return *resident_demand;
  std::vector<double> demand(static_cast<std::size_t>(topo->num_stations()),
                             0.0);
  for (std::size_t j = 0; j < states->size(); ++j) {
    const RequestState& st = (*states)[j];
    if (st.phase == Phase::kServed && st.station >= 0) {
      demand[static_cast<std::size_t>(st.station)] += st.demand_mhz;
    }
  }
  return demand;
}

std::vector<double> waterfill(double capacity,
                              const std::vector<double>& demands) {
  std::vector<double> alloc(demands.size(), 0.0);
  if (demands.empty() || capacity <= 0.0) return alloc;
  for (double d : demands) {
    if (d < 0.0) throw std::invalid_argument("waterfill: negative demand");
  }
  std::vector<std::size_t> open(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) open[i] = i;
  double remaining = capacity;
  while (!open.empty() && remaining > 1e-12) {
    const double share = remaining / static_cast<double>(open.size());
    std::vector<std::size_t> still_open;
    bool saturated_any = false;
    for (std::size_t i : open) {
      const double need = demands[i] - alloc[i];
      if (need <= share + 1e-12) {
        alloc[i] += need;
        remaining -= need;
        saturated_any = true;
      } else {
        still_open.push_back(i);
      }
    }
    if (!saturated_any) {
      // Everyone open wants more than the share: split evenly and stop.
      for (std::size_t i : still_open) {
        alloc[i] += share;
      }
      remaining = 0.0;
      break;
    }
    open = std::move(still_open);
  }
  return alloc;
}

OnlineSimulator::OnlineSimulator(const mec::Topology& topo,
                                 std::vector<mec::ARRequest> requests,
                                 std::vector<std::size_t> realized,
                                 OnlineParams params)
    : topo_(topo),
      requests_(std::move(requests)),
      realized_(std::move(realized)),
      params_(params) {
  if (realized_.size() != requests_.size()) {
    throw std::invalid_argument("OnlineSimulator: realized size mismatch");
  }
  if (params_.horizon_slots <= 0 || params_.slot_ms <= 0.0) {
    throw std::invalid_argument("OnlineSimulator: bad horizon/slot length");
  }
  min_latency_ms_.reserve(requests_.size());
  for (const mec::ARRequest& req : requests_) {
    min_latency_ms_.push_back(mec::min_placement_latency_ms(topo_, req));
  }
}

OnlineMetrics OnlineSimulator::run(OnlinePolicy& policy, SlotHook* hook,
                                   const SimSnapshot* resume) {
  // Sharded O(live + changes) engine (sim/shard.h); bit-identical to the
  // legacy loop below at any shard count. Selection: explicit
  // params_.num_shards, else the MECAR_SHARDS environment variable.
  const int shards = resolve_num_shards(params_, topo_.num_stations());
  if (shards > 0) {
    ShardEngine engine(topo_, requests_, realized_, params_, min_latency_ms_,
                       shards);
    return engine.run(policy, hook, resume);
  }

  // Mobility mutates request attachments; work on a copy so runs stay
  // independent and repeatable.
  std::vector<mec::ARRequest> requests = requests_;
  std::vector<double> min_latency = min_latency_ms_;

  // Fault machinery. The legacy `outages` list merges into the plan; when
  // the merged plan is empty the whole chaos path is skipped and the run
  // is bit-identical to the pre-fault-engine simulator.
  FaultPlan plan = params_.faults;
  plan.station_outages.insert(plan.station_outages.end(),
                              params_.outages.begin(),
                              params_.outages.end());
  const bool chaos = !plan.empty();
  if (chaos) plan.validate(topo_);
  std::optional<mec::TopologyOverlay> overlay;
  if (chaos) overlay.emplace(topo_);
  // The network every placement decision sees this slot: the base topology
  // when healthy, the overlay's effective topology under faults.
  const mec::Topology* active = &topo_;

  std::vector<RequestState> states(requests.size());
  OnlineMetrics metrics;
  metrics.per_slot_reward.assign(
      static_cast<std::size_t>(params_.horizon_slots), 0.0);

  // Telemetry. Counters are always cheap; the event trace is armed only
  // when an export was requested (exp::run_with_telemetry), so default
  // runs pay one relaxed load per slot.
  const obs::Metrics& om = obs::metrics();
  obs::EventTrace& tr = obs::trace();
  const bool tracing = tr.enabled();
  if (tracing) tr.begin_run(policy.name(), params_.slot_ms);
  // Preemption = a served, placed stream that was active last slot but not
  // re-activated this slot (transition-counted, not per-idle-slot).
  std::vector<char> was_active(states.size(), 0);
  // Fault-epoch trace bookkeeping: the slot the current epoch began.
  int epoch_index = -1;
  int epoch_begin_slot = 0;

  // Fault attribution state (see DropCause): per request, the minimal
  // placement latency over live stations of the *faulted* network, the
  // number of slots in which only faults blocked a budget-feasible
  // placement, whether it was ever fully cut off, and — for displaced
  // streams — the slot the displacement happened.
  std::vector<double> eff_min = min_latency;
  std::vector<int> fault_blocked(requests.size(), 0);
  std::vector<char> cut_off(requests.size(), 0);
  std::vector<int> displaced_at(requests.size(), -1);
  double recovery_slots_total = 0.0;
  std::vector<char> up(static_cast<std::size_t>(topo_.num_stations()), 1);
  std::vector<char> prev_up;

  const auto eff_min_of = [&](const mec::ARRequest& req) {
    return mec::min_placement_latency_ms(*active, req, up);
  };
  const auto drop_cause_of = [&](std::size_t j) {
    if (!chaos) return DropCause::kStarvation;
    if (cut_off[j] != 0) return DropCause::kPartition;
    if (fault_blocked[j] > 0) return DropCause::kFault;
    return DropCause::kStarvation;
  };
  const auto account_drop = [&](std::size_t j) {
    const DropCause cause = drop_cause_of(j);
    states[j].drop_cause = cause;
    switch (cause) {
      case DropCause::kStarvation:
        ++metrics.resilience.dropped_starvation;
        break;
      case DropCause::kFault:
        ++metrics.resilience.dropped_fault;
        break;
      case DropCause::kPartition:
        ++metrics.resilience.dropped_partition;
        break;
      case DropCause::kNone:
        break;
    }
    if (cause == DropCause::kFault || cause == DropCause::kPartition) {
      metrics.resilience.fault_dropped_expected_reward +=
          requests[j].demand.expected_reward();
    }
  };

  // Resume: overwrite the canonical state with the snapshot, then
  // re-derive everything else exactly as the uninterrupted run would have
  // computed it (same formulas over the same inputs -> same bits).
  int start_slot = 0;
  if (resume != nullptr) {
    if (resume->states.size() != requests.size()) {
      throw std::invalid_argument(
          "OnlineSimulator: resume snapshot request-count mismatch");
    }
    start_slot = resume->next_slot;
    for (std::size_t j = 0; j < requests.size(); ++j) {
      requests[j].home_station = resume->home_station[j];
      min_latency[j] = mec::min_placement_latency_ms(topo_, requests[j]);
    }
    states = resume->states;
    metrics = resume->metrics;
    fault_blocked = resume->fault_blocked;
    cut_off = resume->cut_off;
    displaced_at = resume->displaced_at;
    recovery_slots_total = resume->recovery_slots_total;
    up = resume->up;
    prev_up = resume->prev_up;
    epoch_index = resume->epoch_index;
    epoch_begin_slot = resume->epoch_begin_slot;
    for (std::size_t j = 0; j < states.size(); ++j) {
      was_active[j] = states[j].active_this_slot &&
                              states[j].phase == Phase::kServed
                          ? 1
                          : 0;
    }
    if (chaos && start_slot > 0) {
      // Prime the overlay with the perturbation active at the last
      // completed slot: the loop's slot-start apply() then sees the same
      // epoch transition (or none) as the uninterrupted run.
      overlay->apply(plan.snapshot(topo_, start_slot - 1).perturbation);
      overlay->set_epochs(resume->overlay_epochs);
      active = &overlay->effective();
      for (std::size_t j = 0; j < requests.size(); ++j) {
        eff_min[j] = eff_min_of(requests[j]);
      }
    }
    util::SnapshotReader pr = util::SnapshotReader::unframed(
        resume->policy_state);
    policy.load_state(pr);
  }

  for (int t = start_slot; t < params_.horizon_slots; ++t) {
    if (hook != nullptr && hook->want_snapshot(t)) {
      SimSnapshot snap;
      snap.next_slot = t;
      snap.home_station.reserve(requests.size());
      for (const mec::ARRequest& req : requests) {
        snap.home_station.push_back(req.home_station);
      }
      snap.states = states;
      snap.metrics = metrics;
      snap.fault_blocked = fault_blocked;
      snap.cut_off = cut_off;
      snap.displaced_at = displaced_at;
      snap.recovery_slots_total = recovery_slots_total;
      snap.up = up;
      snap.prev_up = prev_up;
      snap.overlay_epochs = overlay ? overlay->epochs() : 0;
      snap.epoch_index = epoch_index;
      snap.epoch_begin_slot = epoch_begin_slot;
      util::SnapshotWriter pw;
      policy.save_state(pw);
      snap.policy_state = pw.payload();
      hook->on_snapshot(t, std::move(snap));
    }
    crash_point(t, plan.crash_at(t));
    const util::Timer slot_timer;
    om.sim_slots.add();
    if (tracing) tr.set_slot(t);
    // Mobility: re-attach moved users (before drop checks, so a move into
    // better coverage can save a request from starvation this very slot).
    for (const MobilityEvent& move : params_.mobility) {
      if (move.slot != t) continue;
      if (move.request_index < 0 ||
          move.request_index >= static_cast<int>(requests.size()) ||
          move.new_home < 0 || move.new_home >= topo_.num_stations()) {
        throw std::out_of_range("OnlineSimulator: bad mobility event");
      }
      auto& req = requests[static_cast<std::size_t>(move.request_index)];
      if (req.home_station == move.new_home) continue;
      req.home_station = move.new_home;
      ++metrics.handovers;
      om.sim_handovers.add();
      min_latency[static_cast<std::size_t>(move.request_index)] =
          mec::min_placement_latency_ms(topo_, req);
      if (chaos) {
        eff_min[static_cast<std::size_t>(move.request_index)] =
            eff_min_of(req);
      }
    }
    // 0. Fault bookkeeping: project the plan onto this slot, swap the
    // overlay epoch when the fault set changed, and displace resident
    // streams whose station died or whose user the backhaul cut off
    // (progress kept, placement lost).
    int slot_lp_budget = 0;
    bool slot_lp_fault = false;
    if (chaos) {
      FaultSnapshot snap = plan.snapshot(topo_, t);
      up = std::move(snap.station_up);
      slot_lp_budget = snap.solver_max_pivots;
      slot_lp_fault = snap.solver_jam;
      const bool rebuilt = overlay->apply(snap.perturbation);
      active = &overlay->effective();
      if (rebuilt || up != prev_up) {
        // New fault epoch: live-station reachability changed, so the
        // faulted minimum latencies must be re-derived.
        for (std::size_t j = 0; j < requests.size(); ++j) {
          eff_min[j] = eff_min_of(requests[j]);
        }
        om.sim_fault_epochs.add();
        if (tracing) {
          if (epoch_index >= 0) {
            tr.emit(obs::EventKind::kFaultEpochEnd, epoch_index,
                    t - epoch_begin_slot);
          }
          ++epoch_index;
          epoch_begin_slot = t;
          int stations_up = 0;
          for (char u : up) stations_up += u;
          tr.emit(obs::EventKind::kFaultEpochBegin, epoch_index,
                  stations_up);
        }
      }
      prev_up = up;
    }
    for (std::size_t j = 0; j < states.size(); ++j) {
      RequestState& st = states[j];
      if (st.phase != Phase::kServed || st.station < 0) continue;
      const bool station_down = up[static_cast<std::size_t>(st.station)] == 0;
      const bool unreachable =
          chaos && !std::isfinite(active->transmission_delay_ms(
                        requests[j].home_station, st.station));
      if (!station_down && !unreachable) continue;
      st.station = -1;  // displaced; policy must re-place
      ++metrics.displaced;
      om.sim_displacements.add();
      if (tracing) {
        tr.emit(obs::EventKind::kDisplacement, static_cast<double>(j),
                station_down ? 0.0 : 1.0);
      }
      if (station_down) {
        ++metrics.resilience.displaced_outage;
      } else {
        ++metrics.resilience.displaced_partition;
      }
      if (displaced_at[j] < 0) displaced_at[j] = t;
    }

    // 1. Arrivals and starvation drops.
    SlotView view;
    view.slot = t;
    view.slot_ms = params_.slot_ms;
    view.station_up = up;
    view.lp_pivot_budget = slot_lp_budget;
    view.lp_fault = slot_lp_fault;
    view.topo = active;
    view.requests = &requests;
    view.states = &states;
    double dropped_expected = 0.0;
    for (std::size_t j = 0; j < requests.size(); ++j) {
      const mec::ARRequest& req = requests[j];
      RequestState& st = states[j];
      if (req.arrival_slot > t) continue;
      if (req.arrival_slot == t) ++metrics.arrived;
      if (st.phase == Phase::kWaiting) {
        const double wait_ms = (t - req.arrival_slot) * params_.slot_ms;
        // The drop rule is the OPTIMISTIC bound (healthy-network minimum
        // latency): a fault may clear before the budget runs out, so a
        // request is only declared dead once waiting alone kills it.
        if (wait_ms + min_latency[j] > req.latency_budget_ms) {
          st.phase = Phase::kDropped;  // starved: deadline unmeetable
          dropped_expected += req.demand.expected_reward();
          account_drop(j);
          om.sim_drops.add();
          continue;
        }
        if (chaos && wait_ms + eff_min[j] > req.latency_budget_ms) {
          // This slot, only the faults stand between the request and a
          // budget-feasible placement — the evidence drop attribution uses.
          ++fault_blocked[j];
          if (!std::isfinite(eff_min[j])) cut_off[j] = 1;
        }
        view.pending.push_back(static_cast<int>(j));
      } else if (st.phase == Phase::kServed) {
        view.pending.push_back(static_cast<int>(j));
      }
    }

    if (tracing) {
      tr.emit(obs::EventKind::kSlotBegin,
              static_cast<double>(view.pending.size()));
    }

    // 2. Policy decision.
    const SlotDecision decision = policy.decide(view);

    // 3. Apply activations.
    for (auto& st : states) st.active_this_slot = false;
    for (const SlotDecision::Activation& act : decision.active) {
      if (act.request_index < 0 ||
          act.request_index >= static_cast<int>(requests.size())) {
        throw std::out_of_range("OnlineSimulator: activation out of range");
      }
      const auto j = static_cast<std::size_t>(act.request_index);
      RequestState& st = states[j];
      const mec::ARRequest& req = requests[j];
      if (req.arrival_slot > t || st.phase == Phase::kCompleted ||
          st.phase == Phase::kDropped) {
        continue;  // stale activation; ignore
      }
      if (st.phase == Phase::kWaiting) {
        if (act.station < 0 || act.station >= topo_.num_stations()) {
          throw std::out_of_range("OnlineSimulator: bad placement station");
        }
        if (up[static_cast<std::size_t>(act.station)] == 0) {
          continue;  // placed onto a failed station; refuse
        }
        const double wait_ms = (t - req.arrival_slot) * params_.slot_ms;
        const double lat =
            wait_ms + mec::placement_latency_ms(*active, req, act.station);
        if (lat > req.latency_budget_ms) {
          util::log_debug() << "policy " << policy.name()
                            << " placed request " << req.id
                            << " beyond its latency budget; ignoring";
          continue;
        }
        const std::size_t level = realized_[j];
        st.phase = Phase::kServed;
        om.sim_admissions.add();
        if (tracing) {
          tr.emit(obs::EventKind::kAdmission, static_cast<double>(j),
                  act.station);
        }
        st.station = act.station;
        st.first_service_slot = t;
        st.realized_level = level;
        st.demand_mhz = req.demand.level(level).rate * params_.alg.c_unit;
        st.work_total = st.demand_mhz * req.duration_slots;
        st.work_done = 0.0;
        st.latency_ms = lat;
      } else if (st.station < 0) {
        // Displaced stream: the activation re-places it (progress kept).
        if (act.station < 0 || act.station >= topo_.num_stations()) {
          throw std::out_of_range("OnlineSimulator: bad re-placement station");
        }
        if (up[static_cast<std::size_t>(act.station)] == 0) continue;
        if (chaos && !std::isfinite(active->transmission_delay_ms(
                         req.home_station, act.station))) {
          continue;  // re-placed across a partition; refuse
        }
        st.station = act.station;
        if (displaced_at[j] >= 0) {
          ++metrics.resilience.recovered;
          recovery_slots_total += t - displaced_at[j];
          displaced_at[j] = -1;
        }
      }
      st.active_this_slot = true;
    }

    // Preemptions: placed streams the policy served last slot but left
    // idle this slot (displacements already zeroed their station above).
    for (std::size_t j = 0; j < states.size(); ++j) {
      const RequestState& st = states[j];
      if (was_active[j] != 0 && !st.active_this_slot &&
          st.phase == Phase::kServed && st.station >= 0) {
        om.sim_preemptions.add();
        if (tracing) {
          tr.emit(obs::EventKind::kPreemption, static_cast<double>(j),
                  st.station);
        }
      }
    }

    // 4. Per-station max-min fair allocation among active streams.
    std::vector<std::vector<std::size_t>> residents(
        static_cast<std::size_t>(topo_.num_stations()));
    for (std::size_t j = 0; j < states.size(); ++j) {
      if (states[j].active_this_slot && states[j].phase == Phase::kServed &&
          states[j].station >= 0) {
        residents[static_cast<std::size_t>(states[j].station)].push_back(j);
      }
    }
    double slot_reward = 0.0;
    double slot_allocated = 0.0;
    for (int bs = 0; bs < topo_.num_stations(); ++bs) {
      const auto& ids = residents[static_cast<std::size_t>(bs)];
      if (ids.empty()) continue;
      std::vector<double> demands;
      demands.reserve(ids.size());
      for (std::size_t j : ids) {
        demands.push_back(
            std::min(states[j].demand_mhz,
                     states[j].work_total - states[j].work_done));
      }
      // Capacity comes from the effective topology: a brownout shrinks the
      // pool every resident stream water-fills from.
      const auto alloc =
          waterfill(active->station(bs).capacity_mhz, demands);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        RequestState& st = states[ids[k]];
        st.work_done += alloc[k];
        slot_allocated += alloc[k];
        if (st.work_done >= st.work_total - 1e-9) {
          st.phase = Phase::kCompleted;
          om.sim_completions.add();
          st.reward = requests[ids[k]].demand.level(st.realized_level).reward;
          slot_reward += st.reward;
          if (params_.collect_detail) {
            metrics.completed_latencies_ms.push_back(st.latency_ms);
          }
        }
      }
    }
    metrics.per_slot_reward[static_cast<std::size_t>(t)] = slot_reward;
    metrics.total_reward += slot_reward;
    om.sim_slot_reward.observe(slot_reward);
    int active_streams = 0;
    for (std::size_t j = 0; j < states.size(); ++j) {
      const RequestState& st = states[j];
      const bool active_now =
          st.active_this_slot && st.phase == Phase::kServed;
      active_streams += active_now ? 1 : 0;
      was_active[j] = active_now ? 1 : 0;
    }
    if (tracing) {
      tr.emit(obs::EventKind::kSlotEnd, slot_reward, active_streams);
    }
    if (params_.collect_detail) {
      metrics.per_slot_utilization.push_back(
          slot_allocated / topo_.total_capacity_mhz());
    }

    // 5. Policy feedback.
    SlotFeedback fb;
    fb.slot = t;
    fb.completed_reward = slot_reward;
    fb.dropped_expected_reward = dropped_expected;
    policy.feedback(fb);
    om.sim_slot_wall_ms.observe(slot_timer.elapsed_ms());
  }

  // Final accounting.
  double latency_total = 0.0;
  for (std::size_t j = 0; j < requests.size(); ++j) {
    if (requests[j].arrival_slot >= params_.horizon_slots) continue;
    if (params_.collect_detail && states[j].work_total > 0.0) {
      metrics.service_ratios.push_back(states[j].work_done /
                                       states[j].work_total);
    }
    switch (states[j].phase) {
      case Phase::kCompleted:
        ++metrics.completed;
        latency_total += states[j].latency_ms;
        break;
      case Phase::kDropped:
        ++metrics.dropped;
        break;
      case Phase::kWaiting:
        ++metrics.dropped;  // never scheduled within the horizon
        account_drop(j);
        om.sim_drops.add();
        break;
      case Phase::kServed:
        ++metrics.unfinished;
        if (states[j].station < 0) ++metrics.resilience.unrecovered;
        break;
    }
  }
  if (metrics.completed > 0) {
    metrics.avg_latency_ms = latency_total / metrics.completed;
  }
  if (metrics.resilience.recovered > 0) {
    metrics.resilience.mean_recovery_slots =
        recovery_slots_total / metrics.resilience.recovered;
  }
  if (overlay) metrics.resilience.fault_epochs = overlay->epochs();
  if (tracing && epoch_index >= 0) {
    tr.emit(obs::EventKind::kFaultEpochEnd, epoch_index,
            params_.horizon_slots - epoch_begin_slot);
  }
  return metrics;
}

}  // namespace mecar::sim
