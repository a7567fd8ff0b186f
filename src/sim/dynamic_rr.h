// Algorithm DynamicRR (paper Alg. 3): online learning for the dynamic
// reward maximization problem.
//
// Per time slot:
//   1. A Lipschitz bandit (uniform discretization of [C^th_min, C^th_max]
//      into kappa arms + successive elimination) picks the round-robin
//      threshold C^th_t. The observed per-slot reward (normalized) feeds
//      the played arm.
//   2. Pending requests are sorted by expected data rate and admitted into
//      R_t while the average capacity share stays >= C^th_t (Alg. 3 steps
//      10-11).
//   3. Newly admitted requests are placed by solving LP-PT over the batch
//      against the residual capacities and rounding the fractional
//      assignment (the Heu invocation of Alg. 3 step 12); placements are
//      sticky thereafter (a service instance is created at the station).
//   4. Requests in R_t stream this slot; the rest are preempted (paused).
#pragma once

#include <memory>
#include <vector>

#include "bandit/bandit.h"
#include "bandit/lipschitz.h"
#include "bandit/successive_elimination.h"
#include "bandit/zooming.h"
#include "lp/revised_simplex.h"
#include "sim/online_sim.h"
#include "util/rng.h"

namespace mecar::sim {

/// Which learner drives the threshold (successive elimination is the
/// paper's choice; the rest are ablations, zooming being the adaptive
/// continuum alternative to the fixed kappa grid).
enum class ThresholdLearner {
  kSuccessiveElimination,
  kUcb1,
  kEpsilonGreedy,
  kThompson,
  kZooming,
};

struct DynamicRrParams {
  /// Threshold range Z = [C^th_min, C^th_max] in MHz. The provider knows
  /// the demand support (DR x C_unit, 600-1000 MHz at the paper defaults),
  /// so the range brackets it: from mild oversubscription to full peak
  /// reservation with headroom.
  double threshold_min_mhz = 500.0;
  double threshold_max_mhz = 1100.0;
  /// Number of arms kappa the interval is discretized into.
  int kappa = 4;
  /// Normalization scale for per-slot rewards fed to the bandit; <= 0
  /// derives a scale from the observed rewards adaptively.
  double reward_scale = 0.0;
  /// Cap on the per-slot LP-PT batch (placement of new requests).
  int max_batch = 48;
  /// The chosen arm is held for this many consecutive slots and the bandit
  /// is fed the window's mean reward ("try all active arms in possibly
  /// multiple rounds", Alg. 3 step 5). Windowing de-noises the lumpy
  /// per-slot completion rewards.
  int window_slots = 10;
  /// Confidence-radius scale of the successive elimination policy on the
  /// normalized (windowed) rewards.
  double confidence_range = 0.5;
  /// Arm-selection rule (ablations; the paper uses successive elimination).
  ThresholdLearner learner = ThresholdLearner::kSuccessiveElimination;
  /// Pivot budget handed to the per-slot LP solver; 0 picks the solver's
  /// automatic limit. A solve that exhausts the budget returns
  /// kIterationLimit and the batch falls back to greedy placement
  /// (counted in DegradationStats::lp_fallbacks) — a latency guard for
  /// deployments where a slot deadline beats an exact placement.
  int lp_max_iterations = 0;
  /// Anytime pivot budget (lp::SolveBudget::max_pivots): unlike
  /// lp_max_iterations, exhausting it returns the best primal-feasible
  /// iterate found so far (kDeadline), which still drives placement. 0 =
  /// unlimited. A scripted SolverBudgetSqueeze tightens it further.
  int lp_pivot_budget = 0;
  /// Wall-clock deadline for the per-slot LP in milliseconds (0 = none).
  /// Non-deterministic by nature — keep it 0 in reproducible experiments
  /// and let lp_pivot_budget bound the work instead.
  double lp_deadline_ms = 0.0;
};

/// Graceful-degradation accounting of one DynamicRrPolicy instance: how
/// often the slot LP actually drove placement, how often a non-optimal LP
/// status forced the greedy fallback (the failover contract: a failed LP
/// must never turn into an empty assignment), and how displaced streams
/// were recovered.
struct DegradationStats {
  long long lp_solves = 0;
  /// LP returned kInfeasible/kIterationLimit/...: the whole batch fell
  /// back to per-request greedy placement.
  long long lp_fallbacks = 0;
  /// Displaced streams that entered the slot LP for re-placement.
  long long displaced_seen = 0;
  /// ... and were re-placed through the LP's fractional support.
  long long displaced_replaced_lp = 0;
  /// ... and were re-placed by the greedy nearest-fit failover.
  long long displaced_replaced_greedy = 0;
  /// Degradation-ladder attribution: which rung produced each slot's
  /// placement. Rung 0 — warm-started sparse LP; rung 1 — cold sparse LP;
  /// rung 2 — the solver's dense cross-solve after a numerical fault;
  /// rung 3 — per-request greedy (no usable LP solution); rung 4 — carry:
  /// even greedy placed nothing, residents alone stream on.
  long long slots_warm_lp = 0;
  long long slots_cold_lp = 0;
  long long slots_dense_lp = 0;
  long long slots_greedy = 0;
  long long slots_carry = 0;
  /// Budgeted solves whose best-so-far (kDeadline) iterate drove placement.
  long long lp_deadline_used = 0;
  /// Recovery-ladder actions the solver took across all slot LPs
  /// (in-place refactorizations + cold resets + dense cross-solves) —
  /// nonzero whenever a numerical fault was contained, even when the
  /// contained solve still came back optimal.
  long long lp_recovery_actions = 0;
  /// Solves that came back kNumericalError after the solver's own
  /// recovery ladder (refactorize -> cold reset -> dense cross-solve) was
  /// exhausted, or whose model carried non-finite input.
  long long lp_numerical_errors = 0;
  /// Rung of the most recent decision (mirrors sim.degradation_level).
  int last_level = 0;
};

class DynamicRrPolicy final : public OnlinePolicy {
 public:
  DynamicRrPolicy(const mec::Topology& topo, core::AlgorithmParams alg,
                  DynamicRrParams params, util::Rng rng);
  ~DynamicRrPolicy() override;

  SlotDecision decide(const SlotView& view) override;
  void feedback(const SlotFeedback& fb) override;
  std::string name() const override { return "DynamicRR"; }

  /// Checkpoint support (sim/checkpoint.h): every mutable field that can
  /// influence a future decision — learner posteriors, the open reward
  /// window, the warm-start basis (vertex selection under degeneracy
  /// depends on it), degradation counters —
  /// round-trips so a resumed run decides bit-identically. Configuration
  /// (params_, grid_) is reconstructed by the caller, not serialized;
  /// load_state expects a policy built with the original arguments.
  void save_state(util::SnapshotWriter& w) const override;
  void load_state(util::SnapshotReader& r) override;

  /// Introspection for tests/benches. `bandit()` is only meaningful for
  /// discrete learners (everything except kZooming).
  const bandit::LipschitzGrid& grid() const noexcept { return grid_; }
  const bandit::SuccessiveElimination& bandit() const;
  double last_threshold_mhz() const noexcept { return last_threshold_; }
  const DegradationStats& degradation_stats() const noexcept {
    return degradation_;
  }

 private:
  /// Places a batch of newly arrived requests — plus displaced streams
  /// needing re-placement — via LP-PT + rounding, falling back to greedy
  /// placement per request when the LP is not optimal.
  void admit_new(const mec::Topology& topo, const SlotView& view,
                 const std::vector<int>& waiting,
                 const std::vector<int>& displaced,
                 std::vector<int>& slots_left,
                 std::vector<double>& residual_mhz, SlotDecision& decision);

  /// Picks the threshold for the next window from the configured learner.
  double next_threshold();
  /// Feeds the closed window's normalized reward back to the learner.
  void learn(double normalized_reward);

  const mec::Topology& topo_;
  core::AlgorithmParams alg_;
  DynamicRrParams params_;
  util::Rng rng_;
  /// LP-PT basis carried across slots (warm starts). The solver itself is
  /// built per call: scripted solver faults vary its options slot to slot.
  lp::WarmStartBasis warm_basis_;
  bandit::LipschitzGrid grid_;
  std::unique_ptr<bandit::Bandit> discrete_;  // null when zooming
  std::unique_ptr<bandit::ZoomingBandit> zoom_;
  int played_arm_ = -1;
  bool window_open_ = false;
  double last_threshold_ = 0.0;
  double adaptive_scale_ = 0.0;
  int window_pos_ = 0;
  double window_reward_ = 0.0;
  DegradationStats degradation_;
  /// Per-slot scratch reused across decide() calls so the steady-state
  /// slot allocates nothing (values are fully rewritten every slot).
  std::vector<int> scratch_allowed_;
  std::vector<std::vector<int>> scratch_residents_;
  std::vector<int> scratch_waiting_;
  std::vector<int> scratch_displaced_;
  std::vector<int> scratch_slots_left_;
  std::vector<double> scratch_residual_mhz_;
  std::vector<int> scratch_ids_;
  std::vector<mec::ARRequest> scratch_batch_;
  std::vector<int> scratch_placement_;
  std::vector<double> scratch_placement_lat_;
  /// One station of a batch entry's LP support during rounding.
  struct StationMass {
    int station;
    double mass;
    double latency_ms;
  };
  std::vector<StationMass> scratch_support_;
};

}  // namespace mecar::sim
