// Tests for the parallel execution substrate: result ordering, exception
// propagation, nested regions, and the golden guarantee the bench sweeps
// rely on — a pooled sweep over seeded trials is bit-identical to the
// serial sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "exp/instance.h"
#include "sim/dynamic_rr.h"
#include "sim/online_sim.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace mecar::util {
namespace {

TEST(ThreadPool, ResolvesAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
  EXPECT_GE(default_thread_count(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesEmptyAndSingleElementRegions) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelMapStoresResultsByIndex) {
  ThreadPool pool(4);
  const auto out = pool.parallel_map(
      100, [](std::size_t i) { return static_cast<double>(i) * 3.0; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * 3.0);
  }
}

TEST(ThreadPool, SeededTrialsMatchSerialElementByElement) {
  // The determinism contract exp::Runner's sweeps rely on when they run
  // trials through util::parallel_map: each trial derives all randomness
  // from its index, so the pooled map equals the serial loop exactly (same
  // doubles).
  auto trial = [](std::size_t i) {
    Rng rng(static_cast<unsigned>(7 + i * 1000));
    double acc = 0.0;
    for (int k = 0; k < 1000; ++k) acc += rng.uniform(0.0, 1.0) * 1e-3;
    return acc;
  };
  std::vector<double> serial;
  for (std::size_t i = 0; i < 16; ++i) serial.push_back(trial(i));
  ThreadPool pool(4);
  const auto parallel = pool.parallel_map(16, trial);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "trial " << i;
  }
}

TEST(ThreadPool, RethrowsFirstTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(128,
                                 [](std::size_t i) {
                                   if (i == 17) {
                                     throw std::runtime_error("task failed");
                                   }
                                 }),
               std::runtime_error);
  // The pool must stay usable after a failed region.
  const auto out =
      pool.parallel_map(8, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(out.back(), 7);
}

TEST(ThreadPool, NestedRegionsRunInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    // A nested region on the default pool must not wait on the workers of
    // an already-busy pool; it runs inline on the calling task's thread.
    parallel_for(8, [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(DefaultPool, FreeFunctionsUseTheSharedPool) {
  const auto out =
      parallel_map(32, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 32u);
  EXPECT_EQ(out[5], 25);
}

// Golden test for the figure sweeps: a miniature fig4 trial (DynamicRR on
// an online instance) swept serially and through the pool must produce the
// exact same rewards. This is the end-to-end version of the determinism
// contract — it exercises the full simulator, LP warm starts included.
double fig4_mini_trial(unsigned seed) {
  exp::InstanceConfig config;
  config.num_requests = 40;
  config.horizon_slots = 60;
  const auto inst = exp::make_instance(seed, config);
  sim::OnlineParams params;
  params.horizon_slots = 60;
  sim::DynamicRrPolicy policy(inst.topo, core::AlgorithmParams{},
                              sim::DynamicRrParams{}, util::Rng(seed + 1));
  sim::OnlineSimulator simulator(inst.topo, inst.requests, inst.realized,
                                 params);
  return simulator.run(policy).total_reward;
}

TEST(GoldenSweep, Fig4MiniParallelMatchesSerialBitForBit) {
  const auto seeds = exp::bench_seeds(4);
  std::vector<double> serial;
  for (unsigned seed : seeds) serial.push_back(fig4_mini_trial(seed));

  ThreadPool pool(4);
  const auto parallel = pool.parallel_map(
      seeds.size(), [&](std::size_t i) { return fig4_mini_trial(seeds[i]); });

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "seed " << seeds[i];
  }
}

}  // namespace
}  // namespace mecar::util
