// Micro-benchmarks for the parallel execution substrate (util::ThreadPool):
// pool dispatch overhead and a miniature fig4 sweep run serially and
// pooled. Its determinism, exception and warm-start checks are gtests
// (GoldenSweep.*, ThreadPool.*, WarmStart.*).
//
//   ./bench/micro_parallel [--benchmark_filter=REGEX]
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "exp/instance.h"
#include "sim/dynamic_rr.h"
#include "sim/online_sim.h"
#include "util/parallel.h"

namespace {

using namespace mecar;

/// One fig4-style online trial, fully determined by its seed: DynamicRR on
/// a small instance. Heavy enough (hundreds of slot LPs) to dominate any
/// pool overhead, small enough to time in a few repetitions.
double fig4_mini_trial(unsigned seed, int num_requests, int horizon) {
  exp::InstanceConfig config;
  config.num_requests = num_requests;
  config.horizon_slots = horizon;
  const auto inst = exp::make_instance(seed, config);
  sim::OnlineParams params;
  params.horizon_slots = horizon;
  sim::DynamicRrPolicy policy(inst.topo, core::AlgorithmParams{},
                              sim::DynamicRrParams{}, util::Rng(seed + 1));
  sim::OnlineSimulator simulator(inst.topo, inst.requests, inst.realized,
                                 params);
  return simulator.run(policy).total_reward;
}

void BM_ParallelForOverhead(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> out(n);
  for (auto _ : state) {
    util::parallel_for(n, [&](std::size_t i) {
      out[i] = std::sqrt(static_cast<double>(i) + 1.0);
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(64)->Arg(4096);

void BM_Fig4MiniSerial(benchmark::State& state) {
  util::ThreadPool pool(1);
  const auto seeds = exp::bench_seeds(4);
  for (auto _ : state) {
    auto rewards = pool.parallel_map(
        seeds.size(), [&](std::size_t i) {
          return fig4_mini_trial(seeds[i], 60, 120);
        });
    benchmark::DoNotOptimize(rewards.data());
  }
}
BENCHMARK(BM_Fig4MiniSerial)->Unit(benchmark::kMillisecond);

void BM_Fig4MiniParallel(benchmark::State& state) {
  util::ThreadPool pool(0);  // MECAR_THREADS / hardware_concurrency
  const auto seeds = exp::bench_seeds(4);
  for (auto _ : state) {
    auto rewards = pool.parallel_map(
        seeds.size(), [&](std::size_t i) {
          return fig4_mini_trial(seeds[i], 60, 120);
        });
    benchmark::DoNotOptimize(rewards.data());
  }
  state.counters["threads"] = pool.num_threads();
}
BENCHMARK(BM_Fig4MiniParallel)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
