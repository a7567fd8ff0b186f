// Tests for the bandit subsystem: successive elimination (correct arm kept,
// dominated arms pruned, sublinear regret), UCB1, epsilon-greedy and the
// Lipschitz grid.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bandit/epsilon_greedy.h"
#include "bandit/lipschitz.h"
#include "bandit/successive_elimination.h"
#include "bandit/ucb1.h"
#include "util/rng.h"

namespace mecar::bandit {
namespace {

/// Bernoulli bandit environment with fixed means.
struct BernoulliEnv {
  std::vector<double> means;
  util::Rng rng;
  double pull(int arm) {
    return rng.bernoulli(means[static_cast<std::size_t>(arm)]) ? 1.0 : 0.0;
  }
  double best() const {
    double b = 0.0;
    for (double m : means) b = std::max(b, m);
    return b;
  }
};

/// Plays `rounds` rounds; when `regret` is given, entry t receives the
/// cumulative regret against the best arm's mean after round t + 1.
double run_policy(Bandit& policy, BernoulliEnv& env, int rounds,
                  std::vector<double>* regret = nullptr) {
  double total = 0.0;
  double best_total = 0.0;
  for (int t = 0; t < rounds; ++t) {
    const int arm = policy.select_arm();
    const double reward = env.pull(arm);
    policy.update(arm, reward);
    total += reward;
    best_total += env.best();
    if (regret) regret->push_back(best_total - total);
  }
  return total;
}

TEST(SuccessiveElimination, ValidatesConstruction) {
  EXPECT_THROW(SuccessiveElimination(0), std::invalid_argument);
  EXPECT_THROW(SuccessiveElimination(3, -1.0), std::invalid_argument);
}

TEST(SuccessiveElimination, PlaysEveryArmFirst) {
  SuccessiveElimination se(4);
  std::vector<bool> seen(4, false);
  for (int i = 0; i < 4; ++i) {
    const int arm = se.select_arm();
    seen[static_cast<std::size_t>(arm)] = true;
    se.update(arm, 0.5);
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(SuccessiveElimination, EliminatesClearlyDominatedArm) {
  SuccessiveElimination se(2, 1.0);
  // Arm 0 always 1.0, arm 1 always 0.0: deterministic gap.
  for (int t = 0; t < 200 && se.num_active() > 1; ++t) {
    const int arm = se.select_arm();
    se.update(arm, arm == 0 ? 1.0 : 0.0);
  }
  EXPECT_EQ(se.num_active(), 1);
  EXPECT_TRUE(se.is_active(0));
  EXPECT_FALSE(se.is_active(1));
  EXPECT_EQ(se.best_active_arm(), 0);
}

TEST(SuccessiveElimination, NeverEliminatesLastArm) {
  SuccessiveElimination se(3, 0.01);  // tiny radius -> aggressive pruning
  util::Rng rng(3);
  for (int t = 0; t < 500; ++t) {
    const int arm = se.select_arm();
    se.update(arm, rng.uniform());
  }
  EXPECT_GE(se.num_active(), 1);
}

TEST(SuccessiveElimination, BoundsBracketTheMean) {
  SuccessiveElimination se(1, 1.0);
  for (int t = 0; t < 50; ++t) se.update(0, 0.7);
  EXPECT_NEAR(se.mean(0), 0.7, 1e-12);
  EXPECT_GT(se.ucb(0), 0.7);
  EXPECT_LT(se.lcb(0), 0.7);
  EXPECT_NEAR(se.ucb(0) - se.mean(0), se.mean(0) - se.lcb(0), 1e-12);
}

TEST(SuccessiveElimination, UpdateValidatesArm) {
  SuccessiveElimination se(2);
  EXPECT_THROW(se.update(-1, 0.0), std::out_of_range);
  EXPECT_THROW(se.update(2, 0.0), std::out_of_range);
}

TEST(SuccessiveElimination, FindsBestBernoulliArm) {
  BernoulliEnv env{{0.2, 0.5, 0.8, 0.4}, util::Rng(11)};
  SuccessiveElimination se(4, 1.0);
  run_policy(se, env, 3000);
  EXPECT_EQ(se.best_active_arm(), 2);
  EXPECT_NEAR(se.mean(2), 0.8, 0.1);
}

TEST(SuccessiveElimination, RegretIsSublinear) {
  // Average regret per round must shrink as T grows (Theorem 3's
  // O(sqrt(kappa T log T)) term implies regret/T -> 0).
  double early_rate = 0.0, late_rate = 0.0;
  for (unsigned seed = 1; seed <= 5; ++seed) {
    BernoulliEnv env{{0.3, 0.6, 0.9}, util::Rng(seed)};
    SuccessiveElimination se(3, 1.0);
    std::vector<double> traj;
    run_policy(se, env, 4000, &traj);
    early_rate += traj[399] / 400.0;
    late_rate += traj[3999] / 4000.0;
  }
  EXPECT_LT(late_rate, early_rate);
}

TEST(Ucb1, FindsBestArm) {
  BernoulliEnv env{{0.1, 0.9}, util::Rng(13)};
  Ucb1 ucb(2, 1.0);
  run_policy(ucb, env, 2000);
  EXPECT_GT(ucb.mean(1), ucb.mean(0));
  EXPECT_EQ(ucb.select_arm(), 1);
}

TEST(Ucb1, Validates) {
  EXPECT_THROW(Ucb1(0), std::invalid_argument);
  Ucb1 ucb(2);
  EXPECT_THROW(ucb.update(5, 0.0), std::out_of_range);
}

TEST(EpsilonGreedy, FindsBestArm) {
  BernoulliEnv env{{0.2, 0.7, 0.5}, util::Rng(17)};
  EpsilonGreedy eg(3, util::Rng(18));
  run_policy(eg, env, 3000);
  EXPECT_GT(eg.mean(1), eg.mean(0));
  EXPECT_GT(eg.mean(1), eg.mean(2));
}

TEST(EpsilonGreedy, Validates) {
  EXPECT_THROW(EpsilonGreedy(0, util::Rng(1)), std::invalid_argument);
  EXPECT_THROW(EpsilonGreedy(2, util::Rng(1), 0.0), std::invalid_argument);
}

TEST(LipschitzGrid, UniformSpacing) {
  const LipschitzGrid grid(200.0, 1000.0, 5);
  ASSERT_EQ(grid.num_arms(), 5);
  EXPECT_DOUBLE_EQ(grid.value(0), 200.0);
  EXPECT_DOUBLE_EQ(grid.value(4), 1000.0);
  EXPECT_DOUBLE_EQ(grid.spacing(), 200.0);
  EXPECT_DOUBLE_EQ(grid.value(2), 600.0);
}

TEST(LipschitzGrid, SingleArmUsesMidpoint) {
  const LipschitzGrid grid(0.0, 10.0, 1);
  ASSERT_EQ(grid.num_arms(), 1);
  EXPECT_DOUBLE_EQ(grid.value(0), 5.0);
}

TEST(LipschitzGrid, NearestArmClamps) {
  const LipschitzGrid grid(0.0, 10.0, 3);  // arms at 0, 5, 10
  EXPECT_EQ(grid.nearest_arm(-3.0), 0);
  EXPECT_EQ(grid.nearest_arm(4.0), 1);
  EXPECT_EQ(grid.nearest_arm(7.6), 2);
  EXPECT_EQ(grid.nearest_arm(100.0), 2);
}

TEST(LipschitzGrid, DiscretizationErrorIsEtaEpsilon) {
  const LipschitzGrid grid(0.0, 9.0, 10);  // epsilon = 1
  EXPECT_DOUBLE_EQ(grid.discretization_error(2.5), 2.5);
}

TEST(LipschitzGrid, Validates) {
  EXPECT_THROW(LipschitzGrid(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(LipschitzGrid(2.0, 1.0, 3), std::invalid_argument);
}

// Property sweep: on random Bernoulli instances with a clear gap, SE ends
// with the best arm active and among the best empirical means.
class SeSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(SeSweep, KeepsBestArmActive) {
  util::Rng setup(GetParam());
  const int k = static_cast<int>(setup.uniform_int(2, 6));
  std::vector<double> means;
  int best = 0;
  for (int a = 0; a < k; ++a) {
    means.push_back(setup.uniform(0.1, 0.5));
  }
  // Give one arm a clear margin.
  best = static_cast<int>(setup.uniform_int(0, k - 1));
  means[static_cast<std::size_t>(best)] = 0.9;

  BernoulliEnv env{means, util::Rng(GetParam() + 100)};
  SuccessiveElimination se(k, 1.0);
  run_policy(se, env, 5000);
  EXPECT_TRUE(se.is_active(best));
  EXPECT_EQ(se.best_active_arm(), best);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeSweep, ::testing::Range(1u, 13u));

}  // namespace
}  // namespace mecar::bandit
