#include "obs/catalog.h"

namespace mecar::obs {

namespace {

Metrics make_metrics() {
  MetricRegistry& reg = registry();
  Metrics m;
  m.lp_solves = reg.counter("lp.solves", "simplex solves (dense + revised)");
  m.lp_pivots = reg.counter("lp.pivots", "simplex pivots across all solves");
  m.lp_refactorizations =
      reg.counter("lp.refactorizations", "basis refactorizations");
  m.lp_warm_start_hits = reg.counter(
      "lp.warm_start_hits", "solves that adopted the carried-over basis");
  m.lp_warm_start_misses = reg.counter(
      "lp.warm_start_misses",
      "warm-start attempts that fell back to a cold phase-1 start");
  m.lp_slot_models =
      reg.counter("lp.slot_models", "per-slot LP models built");
  m.lp_recoveries = reg.counter(
      "lp.recoveries",
      "recovery-ladder actions (refactorizations, basis resets, dense "
      "cross-solves) taken after a numerical fault");
  m.lp_numerical_errors = reg.counter(
      "lp.numerical_errors",
      "solves that exhausted the recovery ladder without an answer");
  m.lp_pivots_per_solve = reg.histogram(
      "lp.pivots_per_solve",
      {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0},
      "pivot count distribution per solve");
  m.lp_eta_len = reg.histogram(
      "lp.eta_len", {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0},
      "peak eta-file length per revised-simplex solve");
  m.lp_pricing_mode = reg.gauge(
      "lp.pricing_mode",
      "pricing rule of the latest solve (0=dantzig 1=devex 2=steepest-edge)");

  m.bandit_arm_pulls =
      reg.counter("bandit.arm_pulls", "learner updates (arm feedback)");
  m.bandit_arm_eliminations = reg.counter(
      "bandit.arm_eliminations", "arms eliminated by successive elimination");
  m.bandit_active_arms =
      reg.gauge("bandit.active_arms", "arms still active in the learner");

  m.sim_slots = reg.counter("sim.slots", "simulated slots executed");
  m.sim_admissions =
      reg.counter("sim.admissions", "requests first scheduled onto a station");
  m.sim_preemptions = reg.counter(
      "sim.preemptions", "served streams descheduled by a later decision");
  m.sim_displacements = reg.counter(
      "sim.displacements", "streams displaced by outages or partitions");
  m.sim_completions =
      reg.counter("sim.completions", "streams that finished their demand");
  m.sim_drops = reg.counter("sim.drops", "requests dropped (all causes)");
  m.sim_handovers =
      reg.counter("sim.handovers", "mobility handovers between stations");
  m.sim_fault_epochs =
      reg.counter("sim.fault_epochs", "distinct fault epochs entered");
  m.sim_lp_fallbacks = reg.counter(
      "sim.lp_fallbacks", "slot LPs that fell back to the greedy policy");
  m.sim_degradation_level = reg.gauge(
      "sim.degradation_level",
      "degradation-ladder rung of the latest slot decision (0=warm LP "
      "1=cold LP 2=dense LP 3=greedy 4=carry)");
  m.sim_slot_reward = reg.histogram(
      "sim.slot_reward",
      {0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0},
      "per-slot realized reward distribution");

  m.sim_slot_wall_ms = reg.histogram(
      "sim.slot_wall_ms",
      {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
       100.0},
      "wall-clock time per simulated slot, ms");

  m.exp_trials = reg.counter("exp.trials", "experiment trials executed");
  return m;
}

}  // namespace

const Metrics& metrics() {
  static const Metrics m = make_metrics();
  return m;
}

}  // namespace mecar::obs
