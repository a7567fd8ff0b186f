// Slotted-time simulator for the dynamic reward maximization problem
// (section V).
//
// Time is divided into slots of 0.05 s (section VI-A). AR requests arrive
// over the horizon, wait to be scheduled, and — once scheduled — stream for
// their session duration. The data rate of a request realizes at the moment
// it is first scheduled. Scheduling is PREEMPTIVE: a policy may pause a
// resident stream (it keeps its progress and placement) and resume it later.
//
// Work model (DESIGN.md section 3): a request with realized rate rho and
// duration tau holds W = rho * C_unit * tau MHz-slots of work; each slot an
// active request receives a max-min-fair share of its station's capacity,
// capped at its per-slot demand rho * C_unit. The session completes when W
// is exhausted, collecting the realized reward. A request whose waiting
// time alone makes its latency budget unmeetable is dropped (starvation —
// the failure mode DynamicRR's threshold learning avoids).
#pragma once

#include <span>
#include <string>
#include <vector>

#include <cstdint>

#include "core/slot_lp.h"
#include "core/types.h"
#include "mec/request.h"
#include "mec/topology.h"
#include "sim/fault_plan.h"

namespace mecar::util {
class SnapshotWriter;
class SnapshotReader;
}  // namespace mecar::util

namespace mecar::sim {

/// A user movement: at `slot`, the user of `request_index` re-attaches to
/// `new_home`. Waiting requests see their placement feasibility change; a
/// stream already being served keeps its service instance (the session is
/// anchored) but its user now reaches it across the new attachment point.
struct MobilityEvent {
  int request_index = 0;
  int slot = 0;
  int new_home = 0;
};

/// Simulation parameters (paper defaults).
struct OnlineParams {
  int horizon_slots = 600;
  /// Slot length: 0.05 s (section VI-A).
  double slot_ms = 50.0;
  core::AlgorithmParams alg;
  /// Fault scenario (empty = healthy network): station outages, brownouts,
  /// link outages/degradations and solver faults, scripted or
  /// chaos-generated (see sim/fault_plan.h).
  FaultPlan faults;
  /// User mobility (empty = static users).
  std::vector<MobilityEvent> mobility;
  /// Record detailed series (per-slot utilization, latency samples,
  /// service ratios) for sim::summarize.
  bool collect_detail = false;
};

/// Lifecycle of a request inside the simulator.
enum class Phase {
  kWaiting,    // arrived, never scheduled
  kServed,     // scheduled at least once (rate realized, placement sticky)
  kCompleted,  // all work done, reward collected
  kDropped,    // deadline unmeetable before first scheduling
};

/// Why a request was dropped (see DESIGN.md "Fault model"). Attribution
/// rule: a drop is fault-caused when the request spent at least one slot in
/// which only the active faults prevented a budget-feasible placement, and
/// partition-caused when it was at some point completely cut off from every
/// live station. Everything else is plain starvation (capacity contention).
enum class DropCause {
  kNone,        // not dropped
  kStarvation,  // contention: the policy never found room in time
  kFault,       // degraded network pushed every placement out of budget
  kPartition,   // no live station reachable at all
};

/// Mutable per-request simulation state (read-only for policies).
struct RequestState {
  Phase phase = Phase::kWaiting;
  int station = -1;             // sticky placement once served
  int first_service_slot = -1;  // b_j
  std::size_t realized_level = 0;
  double demand_mhz = 0.0;      // realized rate * C_unit (per-slot need)
  double work_total = 0.0;      // MHz-slots
  double work_done = 0.0;
  double latency_ms = 0.0;      // waiting + placement latency, set at b_j
  double reward = 0.0;          // collected at completion
  bool active_this_slot = false;
  DropCause drop_cause = DropCause::kNone;
};

/// What a policy observes each slot.
struct SlotView {
  int slot = 0;
  double slot_ms = 50.0;
  const mec::Topology* topo = nullptr;
  const std::vector<mec::ARRequest>* requests = nullptr;
  const std::vector<RequestState>* states = nullptr;
  /// Requests available for scheduling this slot: kWaiting and unfinished
  /// kServed ones (including displaced streams whose station is -1).
  std::vector<int> pending;
  /// Per-station availability this slot (outage injection).
  std::vector<char> station_up;
  /// Active solver-fault injection (sim/fault_plan.h): tightest pivot
  /// budget for the slot LP (0 = unlimited) and whether a numerical jam
  /// is scripted for this slot.
  int lp_pivot_budget = 0;
  bool lp_fault = false;
  /// The run's candidate-list memo for `topo` (core/slot_lp.h). The
  /// simulator owns it and clears it whenever the effective topology is
  /// rebuilt. Null on a hand-built view.
  core::CandidateMemo* candidate_memo = nullptr;
  /// Waiting time (ms) a request would have accumulated if first scheduled
  /// this slot.
  double waiting_ms(int request_index) const;
  /// core::candidate_stations(*topo, request, params, waiting_ms(request))
  /// read through `candidate_memo`; a view without a memo searches afresh.
  /// The span stays valid until the next call on this view. Throws
  /// std::logic_error when `topo` is null.
  std::span<const core::CandidateStation> candidates(
      int request_index, const core::AlgorithmParams& params) const;
  bool is_up(int station) const {
    return station_up.empty() ||
           station_up[static_cast<std::size_t>(station)] != 0;
  }

 private:
  /// The list of the latest candidates() call on a view without a memo.
  mutable std::vector<core::CandidateStation> scanned_;
};

/// Scheduling decision for one slot: the set of requests that receive
/// resources this slot. For a first-time-scheduled request, `station` is
/// its placement; for resident requests the field is ignored (sticky).
struct SlotDecision {
  struct Activation {
    int request_index = -1;
    int station = -1;
  };
  std::vector<Activation> active;
};

/// End-of-slot observation handed to policies.
struct SlotFeedback {
  int slot = 0;
  /// Reward collected from sessions completing this slot.
  double completed_reward = 0.0;
  /// Expected reward of requests starved past their deadline this slot —
  /// the opportunity cost a learning policy should charge itself.
  double dropped_expected_reward = 0.0;
};

/// Interface implemented by DynamicRR and the online baselines.
class OnlinePolicy {
 public:
  virtual ~OnlinePolicy() = default;
  virtual SlotDecision decide(const SlotView& view) = 0;
  /// Called at the end of each slot.
  virtual void feedback(const SlotFeedback& fb);
  virtual std::string name() const = 0;

  /// Checkpoint support: (de)serializes the policy's mutable state as an
  /// opaque blob inside the engine snapshot. The defaults are no-ops —
  /// correct for the stateless baselines (Greedy, OCORP, HeuKKT);
  /// DynamicRR overrides both. load_state is called on a freshly
  /// constructed policy with the original constructor arguments.
  virtual void save_state(util::SnapshotWriter& w) const;
  virtual void load_state(util::SnapshotReader& r);
};

/// Fault-attributed accounting of one run (all zero when the fault plan is
/// empty, except dropped_starvation which is always maintained).
struct ResilienceReport {
  /// Topology-overlay rebuilds — fault epochs entered, including the
  /// return-to-healthy epoch after a fault clears.
  int fault_epochs = 0;
  /// Stream displacements by cause: the serving station died vs the
  /// backhaul no longer connects the user to its service instance.
  int displaced_outage = 0;
  int displaced_partition = 0;
  /// Displaced streams the policy re-placed, and the mean slots from
  /// displacement to re-placement (0 = same-slot failover).
  int recovered = 0;
  double mean_recovery_slots = 0.0;
  /// Displaced streams still unplaced when the horizon ended.
  int unrecovered = 0;
  /// Drop-cause breakdown (sums to OnlineMetrics::dropped).
  int dropped_starvation = 0;
  int dropped_fault = 0;
  int dropped_partition = 0;
  /// Expected reward of fault- and partition-caused drops — the demand the
  /// faults destroyed outright, independent of any policy choice.
  double fault_dropped_expected_reward = 0.0;
};

/// Aggregate metrics of one simulation run.
struct OnlineMetrics {
  double total_reward = 0.0;
  int arrived = 0;
  int completed = 0;
  int dropped = 0;
  int unfinished = 0;  // still streaming when the horizon ended
  int displaced = 0;   // stream-displacement events (outages + partitions)
  int handovers = 0;   // mobility events applied
  /// Fault-attributed accounting (drop causes, recovery times, epochs).
  ResilienceReport resilience;
  /// Mean experienced latency (waiting + placement) over completed requests.
  double avg_latency_ms = 0.0;
  std::vector<double> per_slot_reward;
  /// Detail series (populated when OnlineParams::collect_detail is set).
  std::vector<double> completed_latencies_ms;
  /// Allocated / total capacity per slot, in [0, 1].
  std::vector<double> per_slot_utilization;
  /// work_done / work_total per request that was ever scheduled.
  std::vector<double> service_ratios;
};

/// The complete canonical state of an online run at the top of one slot —
/// everything the slot loop accumulates that is not a pure function of
/// the inputs. Derived structures (minimum latencies, the live request
/// lists, the arrival cursor, effective-topology caches, the candidate
/// memo, preemption flags) are reconstructed from these fields at
/// restore, so a resumed run is bit-identical to the uninterrupted one.
/// `sim::Checkpoint` (sim/checkpoint.h) owns the byte-level framing.
struct SimSnapshot {
  /// The slot the resumed loop executes first.
  int next_slot = 0;
  /// Per-request home station (mobility mutates the request copy).
  std::vector<int> home_station;
  std::vector<RequestState> states;
  /// Metrics accumulated so far (per_slot_reward is horizon-sized with
  /// zeros beyond next_slot).
  OnlineMetrics metrics;
  /// Fault-attribution state (see the DropCause contract).
  std::vector<int> fault_blocked;
  std::vector<char> cut_off;
  std::vector<int> displaced_at;
  double recovery_slots_total = 0.0;
  /// Station availability of the previous slot (equal at the loop top).
  std::vector<char> up;
  std::vector<char> prev_up;
  /// Overlay epoch counter + trace epoch bookkeeping.
  int overlay_epochs = 0;
  int epoch_index = -1;
  int epoch_begin_slot = 0;
  /// Opaque policy state (OnlinePolicy::save_state payload).
  std::vector<std::uint8_t> policy_state;
};

/// Observer the slot loop calls at the TOP of each slot (before any of the
/// slot's mutations), letting a checkpointing driver capture SimSnapshots
/// at its own cadence without the simulator knowing about files or
/// framing.
class SlotHook {
 public:
  virtual ~SlotHook() = default;
  /// Return true to have the engine capture a snapshot at `slot`.
  virtual bool want_snapshot(int slot) = 0;
  /// Receives the captured snapshot (only called after want_snapshot
  /// returned true for `slot`).
  virtual void on_snapshot(int slot, SimSnapshot snapshot) = 0;
};

/// Runs one policy over one workload realization.
///
/// The simulator borrows its topology and its workload: both must outlive
/// it and stay unchanged while it lives. A run that re-homes requests
/// (mobility or resume) works on its own copy of the workload.
class OnlineSimulator {
 public:
  OnlineSimulator(const mec::Topology& topo,
                  const std::vector<mec::ARRequest>& requests,
                  std::vector<std::size_t> realized, OnlineParams params);
  /// A temporary workload would dangle once the constructor returns.
  OnlineSimulator(const mec::Topology& topo,
                  std::vector<mec::ARRequest>&& requests,
                  std::vector<std::size_t> realized,
                  OnlineParams params) = delete;

  /// Runs the slot loop. Each slot costs time in proportion to the live
  /// requests (waiting, serving or displaced), not to the whole workload.
  /// `hook` (optional) observes slot tops for checkpointing; `resume`
  /// (optional) continues from a captured snapshot instead of slot 0,
  /// bit-identically to the uninterrupted run. Throws
  /// std::invalid_argument when the snapshot does not fit this simulator:
  /// a different request count, horizon or station count, a next_slot
  /// outside [0, horizon], or a station index out of range.
  OnlineMetrics run(OnlinePolicy& policy, SlotHook* hook = nullptr,
                    const SimSnapshot* resume = nullptr);

  const OnlineParams& params() const noexcept { return params_; }

 private:
  const mec::Topology& topo_;
  const std::vector<mec::ARRequest>& requests_;
  std::vector<std::size_t> realized_;
  OnlineParams params_;
  std::vector<double> min_latency_ms_;  // per request, over all stations
};

/// Max-min fair allocation of `capacity` among demands with per-request
/// caps: every demand gets min(cap_i, fair share), water-filling the rest.
/// Throws std::invalid_argument on a negative demand.
std::vector<double> waterfill(double capacity,
                              const std::vector<double>& demands);

/// waterfill() into caller-owned buffers, for a caller that fills many
/// stations in a row: `alloc` is overwritten with demands.size() shares
/// and `open` is scratch. Once both have grown to the largest station's
/// size, a call allocates nothing. waterfill() is this routine with
/// fresh buffers.
void waterfill_into(double capacity, std::span<const double> demands,
                    std::vector<double>& alloc,
                    std::vector<std::size_t>& open);

}  // namespace mecar::sim
