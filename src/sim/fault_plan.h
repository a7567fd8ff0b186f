// Scripted + stochastic fault model for the online simulator — the chaos
// engine behind the resilience studies.
//
// The original simulator knew a single failure mode: the full-station
// outage. Real MEC deployments degrade partially — backhaul links fail or
// inflate their latency, stations brown out rather than die — so the fault
// taxonomy here generalizes it:
//
//  * StationOutage     — a base station serves nothing for a slot window;
//                        resident streams are displaced (progress kept).
//  * CapacityBrownout  — a station's C(bs_i) is scaled to a fraction for a
//                        window (thermal throttling, partial rack failure).
//                        A factor of 0 is a full outage.
//  * LinkOutage        — a backhaul link is removed for a window (fiber
//                        cut). Cutting enough links PARTITIONS the network:
//                        streams whose user can no longer reach their
//                        service instance are displaced.
//  * LinkDegradation   — a link's d^trans is multiplied for a window
//                        (congestion, reroute over a slower path).
//  * SolverBudgetSqueeze — the slot-LP solver's pivot budget is capped for
//                        a window (CPU contention on the orchestrator
//                        node); the anytime simplex must still yield a
//                        feasible placement each slot.
//  * SolverJam         — a numerical fault is injected into the slot-LP
//                        solver for a window, exercising the recovery /
//                        degradation ladder end to end.
//
// A FaultPlan is a static script of such events; snapshot() projects it
// onto one slot as the station availability map plus the
// mec::TopologyPerturbation the simulator feeds to mec::TopologyOverlay.
// generate_chaos samples a plan of spatially *correlated* fault bursts
// (an epicentre station plus its blast radius fails together) from a
// seeded Rng, so resilience sweeps are reproducible under MECAR_THREADS
// parallelism — every trial derives its plan from its own seed.
//
// Plans round-trip through a line-oriented text format (read_fault_plan /
// write_fault_plan) so scenarios can be versioned and replayed:
//
//   # comment
//   station_outage   <station> <from_slot> <until_slot>
//   brownout         <station> <from_slot> <until_slot> <factor>
//   link_outage      <link>    <from_slot> <until_slot>
//   link_degradation <link>    <from_slot> <until_slot> <delay_factor>
//   solver_budget    <from_slot> <until_slot> <max_pivots>
//   solver_jam       <from_slot> <until_slot>
//   crash            <slot>
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "mec/topology_overlay.h"
#include "util/rng.h"

namespace mecar::sim {

/// A base-station outage: the station serves nothing in slots
/// [from_slot, until_slot); resident streams are displaced (they keep
/// their progress but must be re-placed by the policy).
struct StationOutage {
  int station = 0;
  int from_slot = 0;
  int until_slot = 0;
};

/// A capacity brownout: the station's capacity is scaled by `factor` in
/// [0, 1] over [from_slot, until_slot). Overlapping brownouts compound
/// multiplicatively; an effective factor of ~0 behaves like an outage.
struct CapacityBrownout {
  int station = 0;
  int from_slot = 0;
  int until_slot = 0;
  double factor = 0.5;
};

/// A backhaul link outage over [from_slot, until_slot): the link carries
/// nothing; routes through it vanish (possibly partitioning the network).
struct LinkOutage {
  int link = 0;
  int from_slot = 0;
  int until_slot = 0;
};

/// Link latency inflation over [from_slot, until_slot): the link's
/// per-unit transmission delay is multiplied by `delay_factor` (>= 1).
/// Overlapping degradations compound multiplicatively.
struct LinkDegradation {
  int link = 0;
  int from_slot = 0;
  int until_slot = 0;
  double delay_factor = 2.0;
};

/// A solver budget squeeze: the per-slot LP is limited to `max_pivots`
/// simplex pivots over [from_slot, until_slot) — models CPU starvation of
/// the orchestrator. Overlapping squeezes take the tightest budget.
struct SolverBudgetSqueeze {
  int from_slot = 0;
  int until_slot = 0;
  int max_pivots = 8;
};

/// A solver jam: a transient numerical fault (NaN in the factorization
/// path) is injected into every slot LP over [from_slot, until_slot),
/// forcing the solver's recovery ladder to engage.
struct SolverJam {
  int from_slot = 0;
  int until_slot = 0;
};

/// A process crash: the simulator raises SIGKILL at the TOP of `slot`
/// (before any of the slot's work) — the kill-anywhere leg of the
/// checkpoint/restore contract. Unlike every other event this is not a
/// fault the network model absorbs, so crash points do not count as
/// events (a crash-only plan is still `empty()`) and are ignored on
/// `--resume` runs.
struct CrashPoint {
  int slot = 0;
};

/// Projection of a FaultPlan onto one slot.
struct FaultSnapshot {
  /// Per-station availability (station outages + zero-factor brownouts).
  std::vector<char> station_up;
  /// Capacity scales and link perturbations for mec::TopologyOverlay.
  mec::TopologyPerturbation perturbation;
  /// Tightest active solver pivot budget (0 = unlimited).
  int solver_max_pivots = 0;
  /// True when a solver jam is active this slot.
  bool solver_jam = false;
  /// True when anything deviates from the healthy network this slot.
  bool any_fault = false;
};

/// A scripted fault scenario over a simulation horizon.
struct FaultPlan {
  std::vector<StationOutage> station_outages;
  std::vector<CapacityBrownout> brownouts;
  std::vector<LinkOutage> link_outages;
  std::vector<LinkDegradation> link_degradations;
  std::vector<SolverBudgetSqueeze> solver_budgets;
  std::vector<SolverJam> solver_jams;
  std::vector<CrashPoint> crashes;

  /// True when no fault events are scripted. Crash points are NOT events:
  /// they must not arm the chaos machinery (overlays, fault accounting),
  /// so a crash-only plan stays empty() and the slot loop only consults
  /// crash_at().
  bool empty() const noexcept;
  /// Fault events, crash points excluded (see empty()).
  std::size_t num_events() const noexcept;

  /// True when a crash point is scripted at exactly `slot`.
  bool crash_at(int slot) const noexcept;

  /// Checks ids, windows, and factors against `topo`; throws
  /// std::invalid_argument naming the offending event.
  void validate(const mec::Topology& topo) const;

  /// The availability map + perturbation active at `slot`.
  FaultSnapshot snapshot(const mec::Topology& topo, int slot) const;
};

/// Knobs of the correlated-burst chaos generator. `intensity` is the one
/// sweepable dial: 0 yields an empty plan, 1 the nominal burst rate, and
/// larger values proportionally more bursts.
struct ChaosParams {
  double intensity = 0.5;
  /// Expected bursts per 100 slots at intensity 1.
  double bursts_per_100_slots = 2.0;
  /// Burst duration range, slots.
  int burst_min_slots = 20;
  int burst_max_slots = 80;
  /// Stations hit per burst: the epicentre plus its nearest neighbours.
  int blast_radius = 2;
  /// Per affected station: probability of a full outage (else brownout).
  double p_station_outage = 0.25;
  /// Brownout factor range.
  double brownout_min = 0.2;
  double brownout_max = 0.7;
  /// Per link incident to an affected station: probability the link is
  /// involved at all, and — if involved — of a cut (else degradation).
  double p_link_affected = 0.6;
  double p_link_outage = 0.5;
  /// Delay inflation range for degraded links.
  double delay_scale_min = 2.0;
  double delay_scale_max = 8.0;
  /// Per burst: probability of an accompanying solver fault (a budget
  /// squeeze or a jam over the burst window). 0 draws nothing from the
  /// rng, so existing seeds reproduce their plans bit-for-bit.
  double p_solver_fault = 0.0;
  /// If a solver fault fires: probability it is a jam (else a squeeze).
  double p_solver_jam = 0.5;
  /// Pivot budget range for solver budget squeezes.
  int squeeze_min_pivots = 4;
  int squeeze_max_pivots = 32;
};

/// Samples a fault plan of correlated bursts over `horizon_slots`. All
/// randomness comes from `rng`, so a seed fully determines the plan.
FaultPlan generate_chaos(const mec::Topology& topo, const ChaosParams& params,
                         int horizon_slots, util::Rng& rng);

/// Structured scenario-file parse failure carrying the 1-based line number.
class FaultPlanParseError : public std::invalid_argument {
 public:
  FaultPlanParseError(int line, const std::string& what)
      : std::invalid_argument(what), line_(line) {}
  int line() const noexcept { return line_; }

 private:
  int line_;
};

/// Parses the scenario format documented above. Throws FaultPlanParseError
/// on malformed input; ids are validated later by FaultPlan::validate.
FaultPlan read_fault_plan(std::istream& is);

/// Writes a plan in the scenario format (round-trips through
/// read_fault_plan).
void write_fault_plan(const FaultPlan& plan, std::ostream& os);

}  // namespace mecar::sim
