#include "sim/shard.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/catalog.h"
#include "obs/event_trace.h"
#include "sim/checkpoint.h"
#include "util/log.h"
#include "util/parallel.h"
#include "util/parse.h"
#include "util/snapshot.h"
#include "util/timer.h"

namespace mecar::sim {

namespace {

/// A cursor into one shard's sorted int list.
struct Span {
  const int* it = nullptr;
  const int* end = nullptr;
};

/// K-way merge of ascending spans into `out` (appended). Request indices
/// are globally unique across shards, so ties cannot occur and the merge
/// order is fully determined — this is what makes every cross-shard
/// reduction reproduce the legacy loop's ascending-j scan order. `heap` is
/// caller-provided scratch so steady-state slots reuse its capacity.
void merge_ascending(std::vector<Span>& spans,
                     std::vector<std::pair<int, std::size_t>>& heap,
                     std::vector<int>& out) {
  heap.clear();
  for (std::size_t s = 0; s < spans.size(); ++s) {
    if (spans[s].it != spans[s].end) heap.emplace_back(*spans[s].it++, s);
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const auto [value, s] = heap.back();
    heap.pop_back();
    out.push_back(value);
    if (spans[s].it != spans[s].end) {
      heap.emplace_back(*spans[s].it++, s);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
  }
}

/// Removes the (sorted, unique) indices in `gone` from sorted `list`.
void remove_sorted(std::vector<int>& list, const std::vector<int>& gone) {
  if (gone.empty()) return;
  auto out = list.begin();
  auto g = gone.begin();
  for (auto it = list.begin(); it != list.end(); ++it) {
    while (g != gone.end() && *g < *it) ++g;
    if (g != gone.end() && *g == *it) continue;
    *out++ = *it;
  }
  list.erase(out, list.end());
}

/// Merges the (sorted, unique) indices in `add` into sorted `list`.
void insert_sorted(std::vector<int>& list, const std::vector<int>& add) {
  if (add.empty()) return;
  const auto old_size = static_cast<std::ptrdiff_t>(list.size());
  list.insert(list.end(), add.begin(), add.end());
  std::inplace_merge(list.begin(), list.begin() + old_size, list.end());
}

/// Moves one index between two sorted lists (mobility re-homing).
void move_sorted(std::vector<int>& from, std::vector<int>& to, int j) {
  from.erase(std::lower_bound(from.begin(), from.end(), j));
  to.insert(std::lower_bound(to.begin(), to.end(), j), j);
}

}  // namespace

int resolve_num_shards(const OnlineParams& params, int num_stations) {
  int n = params.num_shards;
  if (n < 0) return 0;
  if (n == 0) {
    const char* env = std::getenv("MECAR_SHARDS");
    if (env == nullptr || *env == '\0') return 0;
    const auto parsed = util::parse_int(std::string(env));
    if (!parsed || *parsed <= 0) return 0;
    n = static_cast<int>(std::min<std::int64_t>(*parsed, 1 << 20));
  }
  return std::min(n, std::max(1, num_stations));
}

struct ShardEngine::SlotScratch {
  /// kWaiting survivors of this slot's drop check, ascending.
  util::ArenaVector<int> survivors;
  /// Requests dropped this slot (phase already flipped), ascending.
  util::ArenaVector<int> drops;
  /// This shard's slice of the policy's pending list, ascending.
  util::ArenaVector<int> pending;
  /// Streams displaced this slot, encoded (j << 1) | station_down so the
  /// cross-shard merge carries the outage/partition cause with the index.
  util::ArenaVector<int> displaced;

  explicit SlotScratch(util::Arena& arena)
      : survivors(util::ArenaAllocator<int>(arena)),
        drops(util::ArenaAllocator<int>(arena)),
        pending(util::ArenaAllocator<int>(arena)),
        displaced(util::ArenaAllocator<int>(arena)) {}
};

ShardEngine::ShardEngine(const mec::Topology& topo,
                         const std::vector<mec::ARRequest>& requests,
                         const std::vector<std::size_t>& realized,
                         const OnlineParams& params,
                         const std::vector<double>& min_latency_ms,
                         int num_shards)
    : topo_(topo),
      requests_(requests),
      realized_(realized),
      params_(params),
      min_latency_(min_latency_ms) {
  const int num_stations = topo_.num_stations();
  const int count =
      std::min(std::max(num_shards, 1), std::max(1, num_stations));
  for (int i = 0; i < count; ++i) shards_.emplace_back();
  const int base = num_stations / count;
  const int rem = num_stations % count;
  int start = 0;
  for (int i = 0; i < count; ++i) {
    const int len = base + (i < rem ? 1 : 0);
    shards_[static_cast<std::size_t>(i)].first_station = start;
    shards_[static_cast<std::size_t>(i)].last_station = start + len;
    start += len;
  }
  station_shard_.assign(static_cast<std::size_t>(num_stations), 0);
  for (int i = 0; i < count; ++i) {
    const Shard& sh = shards_[static_cast<std::size_t>(i)];
    for (int s = sh.first_station; s < sh.last_station; ++s) {
      station_shard_[static_cast<std::size_t>(s)] = i;
    }
  }
  // Arrival calendar: one bucket per slot, indices ascending within each
  // bucket (we scan requests in order). Pre-horizon arrivals clamp to slot
  // 0; at-or-post-horizon arrivals are never live and never bucketed.
  arrivals_.assign(static_cast<std::size_t>(params_.horizon_slots), {});
  for (std::size_t j = 0; j < requests_.size(); ++j) {
    const int a = requests_[j].arrival_slot;
    if (a >= params_.horizon_slots) continue;
    arrivals_[static_cast<std::size_t>(std::max(a, 0))].push_back(
        static_cast<int>(j));
  }
}

int ShardEngine::shard_of_station(int station) const noexcept {
  return station_shard_[static_cast<std::size_t>(station)];
}

OnlineMetrics ShardEngine::run(OnlinePolicy& policy, SlotHook* hook,
                               const SimSnapshot* resume) {
  const int num_stations = topo_.num_stations();
  const int shard_count = num_shards();
  const std::size_t num_requests = requests_.size();

  // Fault machinery — identical to the legacy loop (online_sim.cpp).
  FaultPlan plan = params_.faults;
  plan.station_outages.insert(plan.station_outages.end(),
                              params_.outages.begin(),
                              params_.outages.end());
  const bool chaos = !plan.empty();
  if (chaos) plan.validate(topo_);
  std::optional<mec::TopologyOverlay> overlay;
  if (chaos) overlay.emplace(topo_);
  const mec::Topology* active = &topo_;

  std::vector<RequestState> states(num_requests);
  OnlineMetrics metrics;
  metrics.per_slot_reward.assign(
      static_cast<std::size_t>(params_.horizon_slots), 0.0);

  const obs::Metrics& om = obs::metrics();
  obs::EventTrace& tr = obs::trace();
  const bool tracing = tr.enabled();
  if (tracing) tr.begin_run(policy.name(), params_.slot_ms);
  om.sim_shards.set(static_cast<double>(shard_count));

  int epoch_index = -1;
  int epoch_begin_slot = 0;

  // Fault attribution state. eff_min is maintained LAZILY: instead of the
  // legacy whole-table rebuild on every epoch switch, a request's value is
  // recomputed on first use inside an epoch (eff_stamp tracks the epoch it
  // was computed in). eff_min_of is a pure function of the epoch's up-set
  // and effective topology, so the values read are identical.
  std::vector<double> eff_min = min_latency_;
  std::vector<long long> eff_stamp(num_requests, -1);
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
          requests_[j].demand.expected_reward();
    }
  };

  // Sharded-loop scratch, reused across slots so steady state allocates
  // only from the per-shard arenas.
  const auto sc = static_cast<std::size_t>(shard_count);
  std::vector<std::optional<SlotScratch>> scratch(sc);
  std::vector<double> resident_demand(static_cast<std::size_t>(num_stations),
                                      0.0);
  std::vector<int> prev_active;  // active && kServed after last slot, asc
  std::vector<int> last_flags;   // states with active_this_slot set, asc
  std::vector<int> flags;
  std::vector<int> pending_buf;
  std::vector<int> merge_buf;
  std::vector<Span> span_buf;
  std::vector<std::pair<int, std::size_t>> heap_buf;
  std::vector<std::vector<int>> buf_disp_add(sc), buf_disp_rem(sc);
  std::vector<std::vector<int>> buf_wait_rem(sc), buf_srv_add(sc);
  std::vector<std::vector<int>> buf_repl_rem(sc), buf_done(sc);
  std::vector<std::pair<int, int>> res_pairs;  // (station, j), sorted
  std::vector<double> res_demand, res_alloc;

  // Checkpoint restore. The snapshot holds only canonical per-request /
  // per-station state; every sharded acceleration structure (ownership
  // lists, activation flags, lazy eff_min stamps) is re-derived from it,
  // which is what makes snapshots portable across engines and shard
  // counts.
  int start_slot = 0;
  if (resume != nullptr) {
    if (resume->states.size() != num_requests) {
      throw std::invalid_argument(
          "OnlineSimulator: resume snapshot request-count mismatch");
    }
    start_slot = resume->next_slot;
    for (std::size_t j = 0; j < num_requests; ++j) {
      requests_[j].home_station = resume->home_station[j];
      min_latency_[j] = mec::min_placement_latency_ms(topo_, requests_[j]);
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
    // Ownership lists: an ascending-j scan keeps every per-shard list
    // sorted. A kWaiting request is in a waiting list iff a pre-resume
    // slot already routed its arrival (routing happens at slot
    // max(arrival_slot, 0); this slot's arrivals route inside the loop).
    for (std::size_t j = 0; j < num_requests; ++j) {
      const mec::ARRequest& req = requests_[j];
      const RequestState& st = states[j];
      if (st.active_this_slot) {
        last_flags.push_back(static_cast<int>(j));
        if (st.phase == Phase::kServed) {
          prev_active.push_back(static_cast<int>(j));
        }
      }
      if (st.phase == Phase::kWaiting &&
          req.arrival_slot < params_.horizon_slots &&
          std::max(req.arrival_slot, 0) < start_slot) {
        shards_[static_cast<std::size_t>(shard_of_station(req.home_station))]
            .waiting.push_back(static_cast<int>(j));
      } else if (st.phase == Phase::kServed && st.station >= 0) {
        shards_[static_cast<std::size_t>(shard_of_station(st.station))]
            .served.push_back(static_cast<int>(j));
      } else if (st.phase == Phase::kServed && st.station < 0) {
        shards_[static_cast<std::size_t>(shard_of_station(req.home_station))]
            .displaced.push_back(static_cast<int>(j));
      }
    }
    // eff_min stays lazy: all stamps are -1, so first use inside the
    // resumed run recomputes against the then-active epoch.
    if (chaos && start_slot > 0) {
      // Prime the overlay with the pre-resume slot's perturbation so the
      // resumed slot's apply() sees the same epoch boundary (or absence of
      // one) the uninterrupted run saw, then stamp the recorded epoch
      // count so fault_epochs reporting matches bit-for-bit.
      overlay->apply(plan.snapshot(topo_, start_slot - 1).perturbation);
      overlay->set_epochs(resume->overlay_epochs);
      active = &overlay->effective();
    }
    util::SnapshotReader pr =
        util::SnapshotReader::unframed(resume->policy_state);
    policy.load_state(pr);
  }

  for (int t = start_slot; t < params_.horizon_slots; ++t) {
    if (hook != nullptr && hook->want_snapshot(t)) {
      SimSnapshot snap;
      snap.next_slot = t;
      snap.home_station.reserve(num_requests);
      for (const mec::ARRequest& req : requests_) {
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

    // Per-slot scratch: arenas reset (capacity kept), shard slices rebuilt.
    for (std::size_t s = 0; s < sc; ++s) {
      scratch[s].reset();
      shards_[s].arena.reset();
      scratch[s].emplace(shards_[s].arena);
      shards_[s].incoming.clear();
    }

    // Mobility (serial; legacy order). Re-homing moves the request between
    // the old and new home shard's ownership list when it is waiting or
    // displaced; placed streams stay owned by their serving shard.
    for (const MobilityEvent& move : params_.mobility) {
      if (move.slot != t) continue;
      if (move.request_index < 0 ||
          move.request_index >= static_cast<int>(num_requests) ||
          move.new_home < 0 || move.new_home >= topo_.num_stations()) {
        throw std::out_of_range("OnlineSimulator: bad mobility event");
      }
      const auto j = static_cast<std::size_t>(move.request_index);
      auto& req = requests_[j];
      if (req.home_station == move.new_home) continue;
      const int old_shard = shard_of_station(req.home_station);
      const int new_shard = shard_of_station(move.new_home);
      if (old_shard != new_shard) {
        RequestState& st = states[j];
        // In a waiting list iff already routed: arrivals route at slot
        // max(arrival_slot, 0), and mobility precedes routing in a slot.
        const bool routed = req.arrival_slot < params_.horizon_slots &&
                            std::max(req.arrival_slot, 0) < t;
        const auto si = static_cast<std::size_t>(old_shard);
        const auto di = static_cast<std::size_t>(new_shard);
        if (st.phase == Phase::kWaiting && routed) {
          move_sorted(shards_[si].waiting, shards_[di].waiting,
                      move.request_index);
        } else if (st.phase == Phase::kServed && st.station < 0) {
          move_sorted(shards_[si].displaced, shards_[di].displaced,
                      move.request_index);
        }
      }
      req.home_station = move.new_home;
      ++metrics.handovers;
      om.sim_handovers.add();
      min_latency_[j] = mec::min_placement_latency_ms(topo_, req);
      if (chaos) {
        eff_min[j] = eff_min_of(req);
        eff_stamp[j] = eff_epoch;
      }
    }

    // 0. Fault bookkeeping (serial) + displacement of dead placements.
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
        // New fault epoch: invalidate every eff_min by bumping the epoch
        // stamp (values recompute lazily on first use).
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

      // Parallel detect over each shard's placed streams; the per-shard
      // hit lists are ascending by construction.
      util::parallel_for(sc, [&](std::size_t s) {
        Shard& sh = shards_[s];
        SlotScratch& scr = *scratch[s];
        for (int j : sh.served) {
          const RequestState& st = states[static_cast<std::size_t>(j)];
          const bool station_down =
              up[static_cast<std::size_t>(st.station)] == 0;
          const bool unreachable = !std::isfinite(active->transmission_delay_ms(
              requests_[static_cast<std::size_t>(j)].home_station,
              st.station));
          if (!station_down && !unreachable) continue;
          scr.displaced.push_back((j << 1) | (station_down ? 1 : 0));
        }
      });
      // Serial apply in global ascending-j order (legacy scan order).
      span_buf.clear();
      for (std::size_t s = 0; s < sc; ++s) {
        const auto& d = scratch[s]->displaced;
        span_buf.push_back({d.data(), d.data() + d.size()});
      }
      merge_buf.clear();
      merge_ascending(span_buf, heap_buf, merge_buf);
      for (std::size_t s = 0; s < sc; ++s) {
        buf_disp_add[s].clear();
        buf_disp_rem[s].clear();
      }
      for (const int enc : merge_buf) {
        const int ji = enc >> 1;
        const bool station_down = (enc & 1) != 0;
        const auto j = static_cast<std::size_t>(ji);
        RequestState& st = states[j];
        buf_disp_rem[static_cast<std::size_t>(shard_of_station(st.station))]
            .push_back(ji);
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
        buf_disp_add[static_cast<std::size_t>(
                         shard_of_station(requests_[j].home_station))]
            .push_back(ji);
      }
      for (std::size_t s = 0; s < sc; ++s) {
        remove_sorted(shards_[s].served, buf_disp_rem[s]);
        insert_sorted(shards_[s].displaced, buf_disp_add[s]);
      }
    }

    // Route this slot's arrivals to their home shards (serial, ascending).
    for (const int ji : arrivals_[static_cast<std::size_t>(t)]) {
      const auto& req = requests_[static_cast<std::size_t>(ji)];
      if (req.arrival_slot == t) ++metrics.arrived;
      shards_[static_cast<std::size_t>(shard_of_station(req.home_station))]
          .incoming.push_back(ji);
    }

    // 1. Admission pass (parallel): drop checks over waiting + incoming,
    // per-shard pending slice, and the resident-demand precompute for
    // SlotView::resident_demand_mhz. Each shard touches only its own
    // state; fault attribution writes (eff_min, fault_blocked, cut_off)
    // are per-request and owned by exactly one shard.
    util::parallel_for(sc, [&](std::size_t s) {
      Shard& sh = shards_[s];
      SlotScratch& scr = *scratch[s];
      // Resident demand of this shard's stations, ascending-j per station
      // (== legacy full-scan accumulation order per station).
      std::fill(resident_demand.begin() + sh.first_station,
                resident_demand.begin() + sh.last_station, 0.0);
      for (const int ji : sh.served) {
        const RequestState& st = states[static_cast<std::size_t>(ji)];
        resident_demand[static_cast<std::size_t>(st.station)] +=
            st.demand_mhz;
      }
      // Two-pointer merge of the carried waiting list and this slot's
      // arrivals, ascending j — the same order the legacy full scan visits
      // them in.
      std::size_t wi = 0;
      std::size_t ii = 0;
      const std::size_t wn = sh.waiting.size();
      const std::size_t in = sh.incoming.size();
      scr.survivors.reserve(wn + in);
      while (wi < wn || ii < in) {
        int ji;
        if (wi < wn && (ii >= in || sh.waiting[wi] < sh.incoming[ii])) {
          ji = sh.waiting[wi++];
        } else {
          ji = sh.incoming[ii++];
        }
        const auto j = static_cast<std::size_t>(ji);
        const mec::ARRequest& req = requests_[j];
        RequestState& st = states[j];
        const double wait_ms = (t - req.arrival_slot) * params_.slot_ms;
        // Optimistic drop rule (legacy): only waiting alone kills it.
        if (wait_ms + min_latency_[j] > req.latency_budget_ms) {
          st.phase = Phase::kDropped;
          scr.drops.push_back(ji);
          continue;
        }
        if (chaos) {
          if (eff_stamp[j] != eff_epoch) {
            eff_min[j] = eff_min_of(req);
            eff_stamp[j] = eff_epoch;
          }
          if (wait_ms + eff_min[j] > req.latency_budget_ms) {
            ++fault_blocked[j];
            if (!std::isfinite(eff_min[j])) cut_off[j] = 1;
          }
        }
        scr.survivors.push_back(ji);
      }
      // Pending slice = survivors ∪ served ∪ displaced, ascending (3-way).
      scr.pending.reserve(scr.survivors.size() + sh.served.size() +
                          sh.displaced.size());
      std::size_t ai = 0;
      std::size_t bi = 0;
      std::size_t ci = 0;
      const std::size_t an = scr.survivors.size();
      const std::size_t bn = sh.served.size();
      const std::size_t cn = sh.displaced.size();
      while (ai < an || bi < bn || ci < cn) {
        int best = std::numeric_limits<int>::max();
        if (ai < an) best = std::min(best, scr.survivors[ai]);
        if (bi < bn) best = std::min(best, sh.served[bi]);
        if (ci < cn) best = std::min(best, sh.displaced[ci]);
        if (ai < an && scr.survivors[ai] == best) {
          ++ai;
        } else if (bi < bn && sh.served[bi] == best) {
          ++bi;
        } else {
          ++ci;
        }
        scr.pending.push_back(best);
      }
      // Persist the surviving waiting set.
      sh.waiting.assign(scr.survivors.begin(), scr.survivors.end());
    });

    // Drop accounting (serial, global ascending-j = legacy FP order).
    double dropped_expected = 0.0;
    span_buf.clear();
    for (std::size_t s = 0; s < sc; ++s) {
      const auto& d = scratch[s]->drops;
      span_buf.push_back({d.data(), d.data() + d.size()});
    }
    merge_buf.clear();
    merge_ascending(span_buf, heap_buf, merge_buf);
    for (const int ji : merge_buf) {
      const auto j = static_cast<std::size_t>(ji);
      dropped_expected += requests_[j].demand.expected_reward();
      account_drop(j);
      om.sim_drops.add();
    }

    // Global pending list (serial k-way merge, ascending j).
    SlotView view;
    view.slot = t;
    view.slot_ms = params_.slot_ms;
    view.station_up = up;
    view.lp_pivot_budget = slot_lp_budget;
    view.lp_fault = slot_lp_fault;
    view.topo = active;
    view.requests = &requests_;
    view.states = &states;
    view.resident_demand = &resident_demand;
    span_buf.clear();
    for (std::size_t s = 0; s < sc; ++s) {
      const auto& p = scratch[s]->pending;
      span_buf.push_back({p.data(), p.data() + p.size()});
    }
    pending_buf.clear();
    merge_ascending(span_buf, heap_buf, pending_buf);
    view.pending = std::move(pending_buf);

    if (tracing) {
      tr.emit(obs::EventKind::kSlotBegin,
              static_cast<double>(view.pending.size()));
    }

    // 2. Policy decision.
    const SlotDecision decision = policy.decide(view);
    pending_buf = std::move(view.pending);

    // 3. Apply activations (serial; decision order, legacy semantics).
    // active_this_slot resets lazily: only last slot's set flags clear.
    for (const int ji : last_flags) {
      states[static_cast<std::size_t>(ji)].active_this_slot = false;
    }
    flags.clear();
    for (std::size_t s = 0; s < sc; ++s) {
      buf_wait_rem[s].clear();
      buf_srv_add[s].clear();
      buf_repl_rem[s].clear();
    }
    for (const SlotDecision::Activation& act : decision.active) {
      if (act.request_index < 0 ||
          act.request_index >= static_cast<int>(num_requests)) {
        throw std::out_of_range("OnlineSimulator: activation out of range");
      }
      const auto j = static_cast<std::size_t>(act.request_index);
      RequestState& st = states[j];
      const mec::ARRequest& req = requests_[j];
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
        // Ownership: leaves the home shard's waiting list, enters the
        // serving shard's served list (applied after this loop).
        buf_wait_rem[static_cast<std::size_t>(
                         shard_of_station(req.home_station))]
            .push_back(act.request_index);
        buf_srv_add[static_cast<std::size_t>(shard_of_station(act.station))]
            .push_back(act.request_index);
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
        buf_repl_rem[static_cast<std::size_t>(
                         shard_of_station(req.home_station))]
            .push_back(act.request_index);
        buf_srv_add[static_cast<std::size_t>(shard_of_station(act.station))]
            .push_back(act.request_index);
        st.station = act.station;
        if (displaced_at[j] >= 0) {
          ++metrics.resilience.recovered;
          recovery_slots_total += t - displaced_at[j];
          displaced_at[j] = -1;
        }
      }
      st.active_this_slot = true;
      flags.push_back(act.request_index);
    }
    std::sort(flags.begin(), flags.end());
    flags.erase(std::unique(flags.begin(), flags.end()), flags.end());
    last_flags = flags;
    for (std::size_t s = 0; s < sc; ++s) {
      std::sort(buf_wait_rem[s].begin(), buf_wait_rem[s].end());
      std::sort(buf_repl_rem[s].begin(), buf_repl_rem[s].end());
      std::sort(buf_srv_add[s].begin(), buf_srv_add[s].end());
      remove_sorted(shards_[s].waiting, buf_wait_rem[s]);
      remove_sorted(shards_[s].displaced, buf_repl_rem[s]);
      insert_sorted(shards_[s].served, buf_srv_add[s]);
    }

    // Preemptions: placed streams the policy served last slot but left
    // idle this slot (prev_active is last slot's active set, ascending).
    for (const int ji : prev_active) {
      const RequestState& st = states[static_cast<std::size_t>(ji)];
      if (!st.active_this_slot && st.phase == Phase::kServed &&
          st.station >= 0) {
        om.sim_preemptions.add();
        if (tracing) {
          tr.emit(obs::EventKind::kPreemption,
                  static_cast<double>(static_cast<std::size_t>(ji)),
                  st.station);
        }
      }
    }

    // 4. Per-station max-min fair allocation. Residents are exactly this
    // slot's flagged set; sorted by (station, j) it reproduces the legacy
    // per-station ascending-j grouping. The waterfills are independent
    // across stations (each reads only its own residents' demands), so
    // they run shard-parallel; the reward/work reduction applies serially
    // in (station, k) order — the legacy FP accumulation order.
    res_pairs.clear();
    for (const int ji : flags) {
      const RequestState& st = states[static_cast<std::size_t>(ji)];
      if (st.active_this_slot && st.phase == Phase::kServed &&
          st.station >= 0) {
        res_pairs.emplace_back(st.station, ji);
      }
    }
    std::stable_sort(res_pairs.begin(), res_pairs.end(),
                     [](const std::pair<int, int>& a,
                        const std::pair<int, int>& b) {
                       return a.first < b.first;
                     });
    res_demand.resize(res_pairs.size());
    res_alloc.assign(res_pairs.size(), 0.0);
    for (std::size_t k = 0; k < res_pairs.size(); ++k) {
      const RequestState& st =
          states[static_cast<std::size_t>(res_pairs[k].second)];
      res_demand[k] = std::min(st.demand_mhz, st.work_total - st.work_done);
    }
    util::parallel_for(sc, [&](std::size_t s) {
      const Shard& sh = shards_[s];
      const auto lo = std::lower_bound(
          res_pairs.begin(), res_pairs.end(), sh.first_station,
          [](const std::pair<int, int>& p, int bs) { return p.first < bs; });
      const auto hi = std::lower_bound(
          res_pairs.begin(), res_pairs.end(), sh.last_station,
          [](const std::pair<int, int>& p, int bs) { return p.first < bs; });
      std::size_t k = static_cast<std::size_t>(lo - res_pairs.begin());
      const std::size_t end = static_cast<std::size_t>(hi - res_pairs.begin());
      while (k < end) {
        const int bs = res_pairs[k].first;
        std::size_t e = k;
        while (e < end && res_pairs[e].first == bs) ++e;
        const std::vector<double> demands(res_demand.begin() + k,
                                          res_demand.begin() + e);
        const auto alloc =
            waterfill(active->station(bs).capacity_mhz, demands);
        std::copy(alloc.begin(), alloc.end(), res_alloc.begin() + k);
        k = e;
      }
    });
    double slot_reward = 0.0;
    double slot_allocated = 0.0;
    for (std::size_t s = 0; s < sc; ++s) buf_done[s].clear();
    for (std::size_t k = 0; k < res_pairs.size(); ++k) {
      const int ji = res_pairs[k].second;
      const auto j = static_cast<std::size_t>(ji);
      RequestState& st = states[j];
      st.work_done += res_alloc[k];
      slot_allocated += res_alloc[k];
      if (st.work_done >= st.work_total - 1e-9) {
        st.phase = Phase::kCompleted;
        om.sim_completions.add();
        st.reward = requests_[j].demand.level(st.realized_level).reward;
        slot_reward += st.reward;
        if (params_.collect_detail) {
          metrics.completed_latencies_ms.push_back(st.latency_ms);
        }
        buf_done[static_cast<std::size_t>(shard_of_station(res_pairs[k].first))]
            .push_back(ji);
      }
    }
    for (std::size_t s = 0; s < sc; ++s) {
      std::sort(buf_done[s].begin(), buf_done[s].end());
      remove_sorted(shards_[s].served, buf_done[s]);
    }
    metrics.per_slot_reward[static_cast<std::size_t>(t)] = slot_reward;
    metrics.total_reward += slot_reward;
    om.sim_slot_reward.observe(slot_reward);
    int active_streams = 0;
    prev_active.clear();
    for (const int ji : flags) {
      const RequestState& st = states[static_cast<std::size_t>(ji)];
      if (st.active_this_slot && st.phase == Phase::kServed) {
        ++active_streams;
        prev_active.push_back(ji);
      }
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

    // Shard balance: max live set over mean live set (1.0 = perfectly
    // even or idle). Live = waiting + served + displaced.
    std::size_t total_live = 0;
    std::size_t max_live = 0;
    for (const Shard& sh : shards_) {
      const std::size_t live =
          sh.waiting.size() + sh.served.size() + sh.displaced.size();
      total_live += live;
      max_live = std::max(max_live, live);
    }
    om.sim_shard_imbalance.set(
        total_live == 0
            ? 1.0
            : static_cast<double>(max_live) *
                  static_cast<double>(shard_count) /
                  static_cast<double>(total_live));
    om.sim_slot_wall_ms.observe(slot_timer.elapsed_ms());
  }

  // Final accounting (legacy-verbatim single O(|R|) pass).
  double latency_total = 0.0;
  for (std::size_t j = 0; j < num_requests; ++j) {
    if (requests_[j].arrival_slot >= params_.horizon_slots) continue;
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
