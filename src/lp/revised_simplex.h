// Revised simplex over a sparse LU basis factorization with eta-file
// updates, steepest-edge pricing, and bounded-variable columns.
//
// A second, faster engine for the slot-indexed LPs, which are extremely
// sparse (~4 nonzeros per column). The basis is kept as B = L U plus a
// short eta file of product-form updates (see lp/lu_factor.h): a pivot
// costs two sparse triangular solves plus one appended eta vector, not the
// O(m^2) explicit-inverse update of the previous engine, and the factors
// are rebuilt from scratch every `refactor_interval` pivots for numerical
// stability. Finite variable upper bounds are handled natively (nonbasic
// columns sit at either bound, bound-to-bound flips skip the basis change
// entirely) instead of being expanded into explicit rows, so the basis
// dimension is the true row count. Same model class, same result type,
// same two-phase scheme as SimplexSolver; `solve_lp` picks the engine by
// model shape.
#pragma once

#include "lp/model.h"
#include "lp/simplex.h"

namespace mecar::lp {

/// Entering-column selection rule. Steepest-edge maximizes the objective
/// change per unit step in the edge direction (fewest pivots, two extra
/// BTRANs per pivot to maintain the norms); devex approximates the same
/// norms with one BTRAN; Dantzig is the classic most-negative reduced
/// cost. All three fall back to Bland's rule during a degenerate stall.
enum class PricingMode {
  kDantzig = 0,
  kDevex = 1,
  kSteepestEdge = 2,
};

struct RevisedSimplexOptions {
  double pivot_tol = 1e-9;
  double opt_tol = 1e-9;
  double feas_tol = 1e-7;
  int max_iterations = 0;  // 0 = automatic
  /// Refactorize B = LU once the eta file reaches this many updates (or
  /// earlier, when an update pivot is too small to be stable).
  int refactor_interval = 64;
  /// Consecutive degenerate pivots before switching to Bland's rule.
  int stall_threshold = 128;
  /// Entering-column rule. Steepest-edge self-monitors its reference
  /// weights against the exact edge norm of each entering column and
  /// drops to devex for the rest of the solve after repeated drift.
  PricingMode pricing = PricingMode::kSteepestEdge;
  /// Anytime work budget (pivots and/or wall clock); see lp::SolveBudget.
  /// Unlimited by default — the budget path costs nothing when unset.
  SolveBudget budget;
  /// Relative tolerance of the post-factorization residual check
  /// ‖B·x_B − b_eff‖∞ ≤ residual_tol · (1 + max|rhs|). A violation marks
  /// the factorization untrustworthy and engages the recovery ladder.
  double residual_tol = 1e-6;
  /// Eta-file growth ceiling: an update column whose max|w| / |pivot|
  /// exceeds this triggers a refactorization instead of an eta append
  /// (classic product-form element-growth monitor).
  double eta_growth_limit = 1e12;
  /// Test/fuzzer fault injection: poison the k-th entering-column FTRAN
  /// of this solve with a NaN (1-based; 0 = no injection). A transient
  /// fault the recovery ladder must contain.
  int inject_nan_at_pivot = 0;
  /// Poison EVERY entering-column FTRAN: a persistent fault that forces
  /// the ladder all the way to the dense cross-solve rung.
  bool inject_nan_every_pivot = false;
};

/// Optimal basis exported by one solve and fed to the next. The slot LPs of
/// consecutive simulator slots usually share their shape (same pending
/// batch, slightly different data), so re-entering the simplex at the
/// previous optimum takes a handful of pivots instead of a full two-phase
/// cold start. A mismatch in tableau dimensions — the batch changed — makes
/// the state unusable and the solve silently falls back to a cold start.
struct WarmStartBasis {
  int m = 0;           // tableau rows at export time
  int total_cols = 0;  // structural + slack + artificial columns
  std::vector<int> basis;
  /// Per-column nonbasic rest point: 1 = at upper bound, 0 = at lower.
  /// Entries for basic columns are ignored. Empty means "all at lower"
  /// (the pre-bounded-variable export format).
  std::vector<char> at_upper;

  bool empty() const noexcept { return basis.empty(); }
  void clear() {
    m = 0;
    total_cols = 0;
    basis.clear();
    at_upper.clear();
  }
};

/// Sparse revised simplex. Stateless between solves unless the caller
/// threads a WarmStartBasis through consecutive calls.
class RevisedSimplexSolver {
 public:
  explicit RevisedSimplexSolver(RevisedSimplexOptions options = {})
      : options_(options) {}

  /// Solves the LP relaxation of `model` (integrality flags ignored).
  SolveResult solve(const Model& model) const;

  /// Warm-started solve: seeds the engine from `warm` when its dimensions
  /// match the model's tableau and the stored basis factorizes and is
  /// still feasible for the bounds; otherwise cold-starts. On an optimal
  /// exit `warm` is updated to this solve's basis, ready for the next
  /// slot. The result is the same optimum as a cold solve (the warm start
  /// changes the path, not the destination); `SolveResult::warm_started`
  /// reports which path ran.
  SolveResult solve(const Model& model, WarmStartBasis& warm) const;

  const RevisedSimplexOptions& options() const noexcept { return options_; }

 private:
  RevisedSimplexOptions options_;
};

/// Convenience front-end: revised simplex for large sparse models, dense
/// tableau for small ones (lower constant factor).
SolveResult solve_lp(const Model& model);

}  // namespace mecar::lp
