// Executes any ScenarioSpec: derives and checks every sweep point, builds
// instances, runs each point's trials over the process thread pool (the
// determinism contract: every trial derives all randomness from its seed
// and the reduction is serial in seed order, so results are bit-identical
// to a serial sweep), and reduces into an exp::Report. A checkpointed run
// walks the same units one at a time (CheckpointOptions).
//
// Metric names a trial produces (collect any subset via spec.metrics):
//   offline policies: reward, latency, runtime_ms, admitted, rewarded,
//     lp_bound; with spec.backhaul_audit also voided, reward_lost,
//     peak_link_util (and `reward` is then the audited reward).
//   online policies: reward, latency, drops, completed, arrived,
//     unfinished, displaced, handovers, baseline_reward, retention
//     (faulted / fault-free reward under common random numbers; 1 when no
//     faults), fault_epochs, displaced_outage, displaced_partition,
//     recovered, unrecovered, mean_recovery_slots, dropped_starvation,
//     dropped_fault, dropped_partition, fault_dropped_expected_reward;
//     with spec.collect_detail also latency_p50, latency_p95, latency_max,
//     fairness, mean_util, peak_util.
//
// kRegret scenarios ignore spec.policies/metrics and emit the fixed
// series {"best fixed", "DynamicRR"} under metric "reward" (the Theorem 3
// protocol: per seed, every arm of the kappa grid runs as a constant
// policy and the hindsight best competes against the learned run). Their
// points derive as a sweep's do; a regret spec with chaos, a fault plan or
// mobility is rejected.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exp/registry.h"
#include "exp/report.h"
#include "exp/scenario.h"

namespace mecar::exp {

/// One (point, seed, policy) outcome handed to the observer during the
/// serial reduction — in (point, seed, policy) order, deterministically.
/// `metrics` holds every metric the trial produced, not just the collected
/// ones (drivers use this for invariant checking).
struct TrialObservation {
  std::size_t point_index = 0;
  double point_value = 0.0;
  unsigned seed = 0;
  const std::string* policy = nullptr;  // display label
  const std::map<std::string, double>* metrics = nullptr;
};

/// Checkpointing configuration (`mecar_cli experiment --checkpoint-dir`).
/// A non-empty `dir` makes run() execute its units one at a time instead
/// of on the thread pool, writing a checkpoint generation after every
/// completed unit and every `every_slots` simulated slots; `resume`
/// continues from the newest generation that parses and fits the run.
/// The Report (and hence stdout) is bit-identical either way, and a
/// resumed run is bit-identical to an uninterrupted one.
struct CheckpointOptions {
  std::string dir;
  int every_slots = 0;
  bool resume = false;
};

class Runner {
 public:
  /// Validates nothing yet; run() resolves policies, loads any fault-plan
  /// file, and throws std::invalid_argument on a malformed spec.
  explicit Runner(ScenarioSpec spec, const PolicyRegistry& registry =
                                         PolicyRegistry::global());

  /// CLI overrides (--seeds / --horizon); 0 / negative = keep the spec's.
  void set_seeds(int seeds);
  void set_horizon(int horizon);
  /// CLI override (--lp-budget): anytime pivot budget for the per-slot LP
  /// of every DynamicRR-family policy; 0 / negative = keep the spec's.
  void set_lp_budget(int pivots);

  /// Called once per (point, seed, policy) during the serial reduction.
  void set_observer(std::function<void(const TrialObservation&)> observer);

  /// Runs units one at a time with checkpoints (empty dir disables).
  void set_checkpoint(CheckpointOptions options);

  Report run() const;

  const ScenarioSpec& spec() const noexcept { return spec_; }

 private:
  class Execution;  // one run() call (runner.cpp)

  ScenarioSpec spec_;
  const PolicyRegistry* registry_;
  int seeds_override_ = 0;
  int horizon_override_ = -1;
  int lp_budget_override_ = 0;
  CheckpointOptions checkpoint_;
  std::function<void(const TrialObservation&)> observer_;
};

}  // namespace mecar::exp
