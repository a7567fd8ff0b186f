// Well-known metric handles shared by the LP, bandit, and scheduling
// layers. Centralizing registration here (instead of scattering
// registry().counter(...) calls through the hot layers) guarantees that
// every documented metric appears in every snapshot — even at zero — so
// `mecar_cli metrics` can list the full taxonomy and exported snapshots
// have a stable schema regardless of which code paths a run exercised.
#pragma once

#include "obs/telemetry.h"

namespace mecar::obs {

/// The metric taxonomy (DESIGN.md §10). Handles are value types; grab the
/// singleton once per call site (`const auto& m = obs::metrics();`) and
/// record through it — registration happens on first use, thread-safely.
struct Metrics {
  // --- lp: simplex solver work ----------------------------------------
  Counter lp_solves;             // lp.solves
  Counter lp_pivots;             // lp.pivots
  Counter lp_refactorizations;   // lp.refactorizations
  Counter lp_warm_start_hits;    // lp.warm_start_hits
  Counter lp_warm_start_misses;  // lp.warm_start_misses
  Counter lp_slot_models;        // lp.slot_models
  Counter lp_recoveries;         // lp.recoveries
  Counter lp_numerical_errors;   // lp.numerical_errors
  Histogram lp_pivots_per_solve;  // lp.pivots_per_solve
  Histogram lp_eta_len;           // lp.eta_len
  Gauge lp_pricing_mode;          // lp.pricing_mode

  // --- mec: network substrate ----------------------------------------
  Counter mec_delay_rows;  // mec.delay_rows

  // --- bandit: learner dynamics ---------------------------------------
  Counter bandit_arm_pulls;         // bandit.arm_pulls
  Counter bandit_arm_eliminations;  // bandit.arm_eliminations
  Gauge bandit_active_arms;         // bandit.active_arms

  // --- sim: online scheduling churn -----------------------------------
  Counter sim_slots;          // sim.slots
  Counter sim_admissions;     // sim.admissions
  Counter sim_preemptions;    // sim.preemptions
  Counter sim_displacements;  // sim.displacements
  Counter sim_completions;    // sim.completions
  Counter sim_drops;          // sim.drops
  Counter sim_handovers;      // sim.handovers
  Counter sim_fault_epochs;   // sim.fault_epochs
  Counter sim_lp_fallbacks;   // sim.lp_fallbacks
  // Activations the engine refused, by cause.
  Counter sim_refused_station_down;  // sim.refused_activations.station_down
  Counter sim_refused_partition;     // sim.refused_activations.partition
  Counter sim_refused_stale;         // sim.refused_activations.stale
  Counter sim_refused_over_budget;   // sim.refused_activations.over_budget
  Gauge sim_degradation_level;  // sim.degradation_level
  Histogram sim_slot_reward;  // sim.slot_reward
  Histogram sim_slot_wall_ms;   // sim.slot_wall_ms

  // --- exp: experiment engine -----------------------------------------
  Counter exp_trials;  // exp.trials
};

/// Lazily-registered handles into the global registry().
const Metrics& metrics();

}  // namespace mecar::obs
