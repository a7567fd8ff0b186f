#include "sim/online_sim.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "mec/topology_overlay.h"
#include "obs/catalog.h"
#include "obs/event_trace.h"
#include "sim/checkpoint.h"
#include "util/log.h"
#include "util/snapshot.h"
#include "util/timer.h"

namespace mecar::sim {

namespace {

/// Merges the (sorted, unique) indices in `add` into sorted `list`
/// through `buf`. The two vectors swap storage, so both keep their
/// capacity and a steady-state merge allocates nothing.
void insert_sorted(std::vector<int>& list, const std::vector<int>& add,
                   std::vector<int>& buf) {
  if (add.empty()) return;
  buf.clear();
  std::merge(list.cbegin(), list.cend(), add.cbegin(), add.cend(),
             std::back_inserter(buf));
  list.swap(buf);
}

/// Stable counting sort: afterwards `order` lists the positions i of
/// `keys` (each key in [0, num_keys)) grouped by key, ascending i within a
/// group, and key k's group is order[begin[k], begin[k + 1]). `next` is
/// scratch; every vector keeps its capacity across calls.
void counting_sort(std::span<const int> keys, std::size_t num_keys,
                   std::vector<std::size_t>& begin,
                   std::vector<std::size_t>& next, std::vector<int>& order) {
  begin.assign(num_keys + 1, 0);
  for (const int key : keys) ++begin[static_cast<std::size_t>(key) + 1];
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  next.assign(begin.begin(), begin.end() - 1);
  order.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    order[next[static_cast<std::size_t>(keys[i])]++] = static_cast<int>(i);
  }
}

/// Throws std::invalid_argument unless `snap` can continue a run of
/// `num_requests` requests over `num_stations` stations and `horizon`
/// slots: every index the slot loop reads from it must be in range.
void validate_resume(const SimSnapshot& snap, std::size_t num_requests,
                     int num_stations, int horizon) {
  const auto reject = [](const std::string& what) {
    return std::invalid_argument("OnlineSimulator: resume snapshot " + what);
  };
  if (snap.states.size() != num_requests ||
      snap.home_station.size() != num_requests ||
      snap.fault_blocked.size() != num_requests ||
      snap.cut_off.size() != num_requests ||
      snap.displaced_at.size() != num_requests) {
    throw reject("request-count mismatch");
  }
  if (snap.next_slot < 0 || snap.next_slot > horizon ||
      snap.metrics.per_slot_reward.size() !=
          static_cast<std::size_t>(horizon)) {
    throw reject("horizon mismatch");
  }
  const auto stations = static_cast<std::size_t>(num_stations);
  if (snap.up.size() != stations ||
      (!snap.prev_up.empty() && snap.prev_up.size() != stations)) {
    throw reject("station-count mismatch");
  }
  for (std::size_t j = 0; j < num_requests; ++j) {
    const int home = snap.home_station[j];
    const int placed = snap.states[j].station;
    if (home < 0 || home >= num_stations || placed < -1 ||
        placed >= num_stations) {
      throw reject("station index out of range");
    }
  }
}

}  // namespace

void OnlinePolicy::feedback(const SlotFeedback& /*fb*/) {}

void OnlinePolicy::save_state(util::SnapshotWriter& /*w*/) const {}

void OnlinePolicy::load_state(util::SnapshotReader& /*r*/) {}

double SlotView::waiting_ms(int request_index) const {
  const auto& req = (*requests)[static_cast<std::size_t>(request_index)];
  return (slot - req.arrival_slot) * slot_ms;
}

std::span<const core::CandidateStation> SlotView::candidates(
    int request_index, const core::AlgorithmParams& params) const {
  if (topo == nullptr) {
    throw std::logic_error("SlotView::candidates: the view has no topology");
  }
  const auto& req = (*requests)[static_cast<std::size_t>(request_index)];
  const double wait = waiting_ms(request_index);
  if (candidate_memo != nullptr) {
    return candidate_memo->lookup(*topo, req, params, wait);
  }
  scanned_ = core::candidate_stations(*topo, req, params, wait);
  return scanned_;
}

void waterfill_into(double capacity, std::span<const double> demands,
                    std::vector<double>& alloc,
                    std::vector<std::size_t>& open) {
  alloc.assign(demands.size(), 0.0);
  if (demands.empty() || capacity <= 0.0) return;
  for (double d : demands) {
    if (d < 0.0) throw std::invalid_argument("waterfill: negative demand");
  }
  // Each round offers every open demand an equal share of what is left;
  // the saturated ones leave, and the open list compacts in place.
  open.resize(demands.size());
  std::iota(open.begin(), open.end(), std::size_t{0});
  std::size_t num_open = open.size();
  double remaining = capacity;
  while (num_open > 0 && remaining > 1e-12) {
    const double share = remaining / static_cast<double>(num_open);
    std::size_t still_open = 0;
    bool saturated_any = false;
    for (std::size_t k = 0; k < num_open; ++k) {
      const std::size_t i = open[k];
      const double need = demands[i] - alloc[i];
      if (need <= share + 1e-12) {
        alloc[i] += need;
        remaining -= need;
        saturated_any = true;
      } else {
        open[still_open++] = i;
      }
    }
    if (!saturated_any) {
      // Everyone open wants more than the share: split evenly and stop.
      for (std::size_t k = 0; k < still_open; ++k) alloc[open[k]] += share;
      return;
    }
    num_open = still_open;
  }
}

std::vector<double> waterfill(double capacity,
                              const std::vector<double>& demands) {
  std::vector<double> alloc;
  std::vector<std::size_t> open;
  waterfill_into(capacity, demands, alloc, open);
  return alloc;
}

OnlineSimulator::OnlineSimulator(const mec::Topology& topo,
                                 const std::vector<mec::ARRequest>& requests,
                                 std::vector<std::size_t> realized,
                                 OnlineParams params)
    : topo_(topo),
      requests_(requests),
      realized_(std::move(realized)),
      params_(std::move(params)) {
  if (realized_.size() != requests_.size()) {
    throw std::invalid_argument("OnlineSimulator: realized size mismatch");
  }
  if (params_.horizon_slots <= 0 || params_.slot_ms <= 0.0) {
    throw std::invalid_argument("OnlineSimulator: bad horizon/slot length");
  }
  min_latency_ms_ = mec::min_placement_latencies(topo_, requests_);
}

OnlineMetrics OnlineSimulator::run(OnlinePolicy& policy, SlotHook* hook,
                                   const SimSnapshot* resume) {
  const int num_stations = topo_.num_stations();
  const std::size_t num_requests = requests_.size();
  const int horizon = params_.horizon_slots;
  if (resume != nullptr) {
    validate_resume(*resume, num_requests, num_stations, horizon);
  }

  // Mobility and resume re-home requests. Only then does the run work on
  // a copy of the workload (each request owns its task and rate-level
  // vectors), so runs stay independent and repeatable.
  const bool rehoming = !params_.mobility.empty() || resume != nullptr;
  std::vector<mec::ARRequest> rehomed;
  std::vector<double> rehomed_min_latency;
  if (rehoming) {
    rehomed = requests_;
    rehomed_min_latency = min_latency_ms_;
  }
  const std::vector<mec::ARRequest>& requests =
      rehoming ? rehomed : requests_;
  const std::vector<double>& min_latency =
      rehoming ? rehomed_min_latency : min_latency_ms_;

  // Fault machinery. An empty plan skips the whole chaos path, so a
  // fault-free run is bit-identical to the pre-fault-engine simulator.
  const FaultPlan& plan = params_.faults;
  const bool chaos = !plan.empty();
  if (chaos) plan.validate(topo_);
  std::optional<mec::TopologyOverlay> overlay;
  if (chaos) overlay.emplace(topo_);
  // The network every placement decision sees this slot: the base topology
  // when healthy, the overlay's effective topology under faults.
  const mec::Topology* active = &topo_;
  // Candidate lists of `active`, shared by every slot's decision. Only an
  // overlay rebuild changes delays, so the slot-start rebuild is the one
  // place it is cleared (station availability never enters a list, and a
  // re-homed request looks up its new home's key). A resume primes the
  // overlay before anything is looked up.
  core::CandidateMemo candidate_memo;

  std::vector<RequestState> states(num_requests);
  OnlineMetrics metrics;
  metrics.per_slot_reward.assign(static_cast<std::size_t>(horizon), 0.0);

  // Telemetry. Counters are always cheap; the event trace is armed only
  // when an export was requested (exp::run_with_telemetry), so default
  // runs pay one relaxed load per slot.
  const obs::Metrics& om = obs::metrics();
  obs::EventTrace& tr = obs::trace();
  const bool tracing = tr.enabled();
  if (tracing) tr.begin_run(policy.name(), params_.slot_ms);
  // Fault-epoch trace bookkeeping: the slot the current epoch began.
  int epoch_index = -1;
  int epoch_begin_slot = 0;

  // Fault attribution state (see DropCause): per request, the minimal
  // placement latency over live stations of the *faulted* network, the
  // number of slots in which only faults blocked a budget-feasible
  // placement, whether it was ever fully cut off, and — for displaced
  // streams — the slot the displacement happened. eff_min is LAZY: a new
  // fault epoch bumps eff_epoch, and a request's value is recomputed on
  // its first use inside an epoch (eff_stamp records the epoch it was
  // computed in). It is a pure function of the epoch's up-set and
  // effective topology, so laziness cannot change a value read.
  std::vector<double> eff_min;
  std::vector<long long> eff_stamp;
  if (chaos) {
    eff_min.assign(num_requests, 0.0);
    eff_stamp.assign(num_requests, -1);
  }
  long long eff_epoch = 0;
  std::vector<int> fault_blocked(num_requests, 0);
  std::vector<char> cut_off(num_requests, 0);
  std::vector<int> displaced_at(num_requests, -1);
  double recovery_slots_total = 0.0;
  std::vector<char> up(static_cast<std::size_t>(num_stations), 1);
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

  // Live sets, each sorted by request index. Every pass below walks them
  // in ascending order, which fixes the floating-point accumulation order
  // and the trace-event order, and keeps a slot's cost proportional to
  // the live requests rather than to |R|.
  std::vector<int> waiting;    // arrived kWaiting requests
  std::vector<int> served;     // kServed streams placed on a station
  std::vector<int> displaced;  // kServed streams that lost their station
  // Activations of the latest slot, sorted and unique: the only
  // active_this_slot flags set, so the next slot resets just these.
  std::vector<int> flags;
  // Streams active and kServed after the latest slot (preemption check).
  std::vector<int> prev_active;

  // Arrival order: a counting sort of the requests by clamped slot
  // max(arrival_slot, 0), ascending index within a slot, so slot t's
  // arrivals are arrivals[arrival_begin[t], arrival_begin[t + 1]).
  // Pre-horizon arrivals join at slot 0 (but are never counted in
  // `arrived`); requests arriving at or after the horizon share the last
  // bucket and are never live.
  const auto arrival_slot_of = [&](std::size_t j) {
    return std::max(requests[j].arrival_slot, 0);
  };
  std::vector<std::size_t> arrival_begin;
  std::vector<int> arrivals;
  {
    std::vector<int> slot_of(num_requests);
    for (std::size_t j = 0; j < num_requests; ++j) {
      slot_of[j] = std::min(arrival_slot_of(j), horizon);
    }
    std::vector<std::size_t> next;
    counting_sort(slot_of, static_cast<std::size_t>(horizon) + 1,
                  arrival_begin, next, arrivals);
  }

  // Per-slot scratch, reused so steady-state slots keep their capacity and
  // allocate nothing.
  std::vector<int> candidates;  // waiting + this slot's arrivals
  std::vector<int> merged;      // insert_sorted's buffer
  std::vector<int> lost;        // placements displaced this slot
  // The water-fill's (station, request) order: a counting sort of the
  // flags' stations. Station s's residents are flags[by_station[k]] for k
  // in [station_begin[s], station_begin[s + 1]).
  std::vector<int> flag_station;
  std::vector<std::size_t> station_begin;
  std::vector<std::size_t> station_next;
  std::vector<int> by_station;
  std::vector<double> demands;
  std::vector<double> shares;
  std::vector<std::size_t> open;

  // Resume: overwrite the canonical state with the snapshot, then
  // re-derive everything else (live sets, activation flags, lazy eff_min)
  // exactly as the uninterrupted run holds it.
  int start_slot = 0;
  if (resume != nullptr) {
    start_slot = resume->next_slot;
    for (std::size_t j = 0; j < num_requests; ++j) {
      if (rehomed[j].home_station == resume->home_station[j]) continue;
      rehomed[j].home_station = resume->home_station[j];
      rehomed_min_latency[j] =
          mec::min_placement_latency_ms(topo_, rehomed[j]);
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
    for (std::size_t j = 0; j < num_requests; ++j) {
      const RequestState& st = states[j];
      const int ji = static_cast<int>(j);
      if (st.active_this_slot) {
        flags.push_back(ji);
        if (st.phase == Phase::kServed) prev_active.push_back(ji);
      }
      // A kWaiting request is live iff a pre-resume slot routed its
      // arrival; this slot's arrivals join inside the loop.
      if (st.phase == Phase::kWaiting && requests[j].arrival_slot < horizon &&
          arrival_slot_of(j) < start_slot) {
        waiting.push_back(ji);
      } else if (st.phase == Phase::kServed && st.station >= 0) {
        served.push_back(ji);
      } else if (st.phase == Phase::kServed) {
        displaced.push_back(ji);
      }
    }
    if (chaos && start_slot > 0) {
      // Prime the overlay with the perturbation active at the last
      // completed slot: the loop's slot-start apply() then sees the same
      // epoch transition (or none) as the uninterrupted run, and the
      // recorded epoch count keeps fault_epochs bit-identical.
      overlay->apply(plan.snapshot(topo_, start_slot - 1).perturbation);
      overlay->set_epochs(resume->overlay_epochs);
      active = &overlay->effective();
    }
    util::SnapshotReader pr =
        util::SnapshotReader::unframed(resume->policy_state);
    policy.load_state(pr);
    // A blob the policy did not read to the end was written by another
    // policy or another schema: resuming from its prefix would not be the
    // run that wrote it.
    pr.expect_end();
  }

  // The policy's view, reused across slots: its pending list and
  // availability vector keep their capacity.
  SlotView view;
  view.slot_ms = params_.slot_ms;
  view.requests = &requests;
  view.states = &states;
  view.candidate_memo = &candidate_memo;

  for (int t = start_slot; t < horizon; ++t) {
    if (hook != nullptr && hook->want_snapshot(t)) {
      SimSnapshot snap;
      snap.next_slot = t;
      snap.home_station.reserve(num_requests);
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
          move.request_index >= static_cast<int>(num_requests) ||
          move.new_home < 0 || move.new_home >= num_stations) {
        throw std::out_of_range("OnlineSimulator: bad mobility event");
      }
      const auto j = static_cast<std::size_t>(move.request_index);
      mec::ARRequest& req = rehomed[j];
      if (req.home_station == move.new_home) continue;
      req.home_station = move.new_home;
      ++metrics.handovers;
      om.sim_handovers.add();
      rehomed_min_latency[j] = mec::min_placement_latency_ms(topo_, req);
      if (chaos) {
        eff_min[j] = eff_min_of(req);
        eff_stamp[j] = eff_epoch;
      }
    }
    // 0. Fault bookkeeping: project the plan onto this slot, swap the
    // overlay epoch when the fault set changed, and displace placed
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
      if (rebuilt) candidate_memo.clear();
      active = &overlay->effective();
      if (rebuilt || up != prev_up) {
        // New fault epoch: live-station reachability changed, so every
        // faulted minimum latency goes stale.
        ++eff_epoch;
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
      // Streams whose station died or whose user the backhaul cut off
      // leave `served` (compacted in place) for `displaced`.
      lost.clear();
      std::size_t kept = 0;
      for (std::size_t k = 0; k < served.size(); ++k) {
        const int ji = served[k];
        const auto j = static_cast<std::size_t>(ji);
        RequestState& st = states[j];
        const bool station_down = up[static_cast<std::size_t>(st.station)] == 0;
        const bool unreachable =
            !active->reachable(requests[j].home_station, st.station);
        if (!station_down && !unreachable) {
          served[kept++] = ji;
          continue;
        }
        lost.push_back(ji);
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
      served.resize(kept);
      insert_sorted(displaced, lost, merged);
    }

    // 1. Arrivals and starvation drops over the carried waiting list
    // merged with this slot's arrivals, in ascending request order.
    const auto slot = static_cast<std::size_t>(t);
    const auto slot_arrivals = std::span<const int>(arrivals).subspan(
        arrival_begin[slot], arrival_begin[slot + 1] - arrival_begin[slot]);
    for (const int ji : slot_arrivals) {
      if (requests[static_cast<std::size_t>(ji)].arrival_slot == t) {
        ++metrics.arrived;
      }
    }
    candidates.clear();
    std::merge(waiting.cbegin(), waiting.cend(), slot_arrivals.begin(),
               slot_arrivals.end(), std::back_inserter(candidates));
    waiting.clear();
    double dropped_expected = 0.0;
    for (const int ji : candidates) {
      const auto j = static_cast<std::size_t>(ji);
      const mec::ARRequest& req = requests[j];
      RequestState& st = states[j];
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
      if (chaos) {
        if (eff_stamp[j] != eff_epoch) {
          eff_min[j] = eff_min_of(req);
          eff_stamp[j] = eff_epoch;
        }
        if (wait_ms + eff_min[j] > req.latency_budget_ms) {
          // This slot, only the faults stand between the request and a
          // budget-feasible placement — the evidence drop attribution
          // uses.
          ++fault_blocked[j];
          if (!std::isfinite(eff_min[j])) cut_off[j] = 1;
        }
      }
      waiting.push_back(ji);
    }

    // Pending = waiting ∪ served ∪ displaced, ascending.
    std::vector<int>& pending = view.pending;
    pending.clear();
    std::merge(waiting.cbegin(), waiting.cend(), served.cbegin(),
               served.cend(), std::back_inserter(pending));
    insert_sorted(pending, displaced, merged);

    view.slot = t;
    view.station_up = up;
    view.lp_pivot_budget = slot_lp_budget;
    view.lp_fault = slot_lp_fault;
    view.topo = active;
    if (tracing) {
      tr.emit(obs::EventKind::kSlotBegin, static_cast<double>(pending.size()));
    }

    // 2. Policy decision.
    const SlotDecision decision = policy.decide(view);

    // 3. Apply activations in decision order. The previous slot's flags
    // are the only ones set, so only they are reset. A resident's
    // activation only sets its flag (its placement is sticky); the other
    // accepted ones place a waiting request or re-place a displaced
    // stream. Every refusal is counted by cause.
    for (const int ji : flags) {
      states[static_cast<std::size_t>(ji)].active_this_slot = false;
    }
    for (const SlotDecision::Activation& act : decision.active) {
      if (act.request_index < 0 ||
          act.request_index >= static_cast<int>(num_requests)) {
        throw std::out_of_range("OnlineSimulator: activation out of range");
      }
      const auto j = static_cast<std::size_t>(act.request_index);
      RequestState& st = states[j];
      if (st.phase == Phase::kServed && st.station >= 0) {
        st.active_this_slot = true;
        continue;
      }
      const mec::ARRequest& req = requests[j];
      if (req.arrival_slot > t || st.phase == Phase::kCompleted ||
          st.phase == Phase::kDropped) {
        om.sim_refused_stale.add();
        continue;
      }
      const bool waiting_request = st.phase == Phase::kWaiting;
      if (act.station < 0 || act.station >= num_stations) {
        throw std::out_of_range(
            waiting_request ? "OnlineSimulator: bad placement station"
                            : "OnlineSimulator: bad re-placement station");
      }
      if (up[static_cast<std::size_t>(act.station)] == 0) {
        om.sim_refused_station_down.add();
        continue;
      }
      if (waiting_request) {
        const double wait_ms = (t - req.arrival_slot) * params_.slot_ms;
        // A policy places from candidate lists, so the memo usually holds
        // the station's latency (the same bits). A miss runs one search to
        // the station and reads no cached row, so the run's work does not
        // depend on what earlier runs left cached (a resume repeats it).
        const double* listed = candidate_memo.latency_of(req, act.station);
        const double lat =
            wait_ms +
            (listed != nullptr
                 ? *listed
                 : mec::placement_latency_ms(
                       active->delay_between(req.home_station, act.station),
                       req.total_proc_weight(),
                       active->station(act.station).proc_ms_per_unit));
        if (lat > req.latency_budget_ms) {
          om.sim_refused_over_budget.add();
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
      } else {
        // Displaced stream: the activation re-places it (progress kept).
        if (chaos && !active->reachable(req.home_station, act.station)) {
          om.sim_refused_partition.add();
          continue;
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
    // Every accepted activation is live, so one pass over the sorted
    // pending list yields this slot's flags and the three live sets,
    // each still ascending.
    flags.clear();
    flag_station.clear();
    waiting.clear();
    served.clear();
    displaced.clear();
    for (const int ji : pending) {
      const RequestState& st = states[static_cast<std::size_t>(ji)];
      if (st.phase == Phase::kWaiting) {
        waiting.push_back(ji);
        continue;
      }
      if (st.station < 0) {
        displaced.push_back(ji);
        continue;
      }
      served.push_back(ji);
      if (st.active_this_slot) {
        flags.push_back(ji);
        flag_station.push_back(st.station);
      }
    }

    // Preemptions: placed streams the policy served last slot but left
    // idle this slot (displacements already zeroed their station above).
    for (const int ji : prev_active) {
      const RequestState& st = states[static_cast<std::size_t>(ji)];
      if (!st.active_this_slot && st.phase == Phase::kServed &&
          st.station >= 0) {
        om.sim_preemptions.add();
        if (tracing) {
          tr.emit(obs::EventKind::kPreemption, static_cast<double>(ji),
                  st.station);
        }
      }
    }

    // 4. Per-station max-min fair allocation among active streams, in
    // (station, request) order: a counting sort buckets the ascending
    // flags by station, so each bucket stays in ascending request order.
    double slot_reward = 0.0;
    double slot_allocated = 0.0;
    bool completed_any = false;
    if (!flags.empty()) {
      const auto stations = static_cast<std::size_t>(num_stations);
      counting_sort(flag_station, stations, station_begin, station_next,
                    by_station);
      const auto resident = [&](std::size_t k) {
        return static_cast<std::size_t>(
            flags[static_cast<std::size_t>(by_station[k])]);
      };
      for (std::size_t bs = 0; bs < stations; ++bs) {
        const std::size_t begin = station_begin[bs];
        const std::size_t end = station_begin[bs + 1];
        if (begin == end) continue;
        demands.clear();
        for (std::size_t k = begin; k < end; ++k) {
          const RequestState& st = states[resident(k)];
          demands.push_back(
              std::min(st.demand_mhz, st.work_total - st.work_done));
        }
        // Capacity comes from the effective topology: a brownout shrinks
        // the pool every resident stream water-fills from.
        waterfill_into(active->station(static_cast<int>(bs)).capacity_mhz,
                       demands, shares, open);
        for (std::size_t k = begin; k < end; ++k) {
          const double share = shares[k - begin];
          const std::size_t j = resident(k);
          RequestState& st = states[j];
          st.work_done += share;
          slot_allocated += share;
          if (st.work_done >= st.work_total - 1e-9) {
            st.phase = Phase::kCompleted;
            om.sim_completions.add();
            st.reward = requests[j].demand.level(st.realized_level).reward;
            slot_reward += st.reward;
            if (params_.collect_detail) {
              metrics.completed_latencies_ms.push_back(st.latency_ms);
            }
            completed_any = true;
          }
        }
      }
    }
    const auto completed = [&](int ji) {
      return states[static_cast<std::size_t>(ji)].phase == Phase::kCompleted;
    };
    if (completed_any) std::erase_if(served, completed);
    metrics.per_slot_reward[slot] = slot_reward;
    metrics.total_reward += slot_reward;
    om.sim_slot_reward.observe(slot_reward);
    prev_active.clear();
    std::remove_copy_if(flags.cbegin(), flags.cend(),
                        std::back_inserter(prev_active), completed);
    if (tracing) {
      tr.emit(obs::EventKind::kSlotEnd, slot_reward,
              static_cast<double>(prev_active.size()));
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
  for (std::size_t j = 0; j < num_requests; ++j) {
    if (requests[j].arrival_slot >= horizon) continue;
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
            horizon - epoch_begin_slot);
  }
  return metrics;
}

}  // namespace mecar::sim
