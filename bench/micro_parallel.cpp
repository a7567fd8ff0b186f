// Micro-benchmarks and self-checks for the parallel execution substrate
// (util::ThreadPool) and the warm-started slot LPs.
//
// Two entry modes:
//   ./bench/micro_parallel                google-benchmark timings
//   ./bench/micro_parallel --smoke        fast correctness checks (ctest):
//                                         parallel == serial bit-identical,
//                                         exception propagation, warm ==
//                                         cold LP objective; exit 0 on pass
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "core/slot_lp.h"
#include "exp/instance.h"
#include "lp/revised_simplex.h"
#include "sim/dynamic_rr.h"
#include "sim/online_sim.h"
#include "util/parallel.h"

namespace {

using namespace mecar;

// ---------------------------------------------------------------------------
// Shared workloads.

/// One fig4-style online trial, fully determined by its seed: DynamicRR on
/// a small instance. Heavy enough (hundreds of slot LPs) to dominate any
/// pool overhead, small enough for a smoke test.
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

/// Slot-LP sequence with a stable tableau shape (same construction as
/// micro_lp's warm/cold pair): residual capacities drift without crossing
/// a resource-slot boundary.
std::vector<lp::Model> slot_sequence_models(int num_requests, int slots) {
  util::Rng rng(7);
  const mec::Topology topo = mec::generate_topology({}, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = num_requests;
  const auto requests = mec::generate_requests(wparams, topo, rng);
  const core::AlgorithmParams params;
  std::vector<lp::Model> models;
  for (int t = 0; t < slots; ++t) {
    core::SlotLpOptions options;
    std::vector<double> caps;
    for (const auto& bs : topo.stations()) {
      const double k =
          std::floor(bs.capacity_mhz / params.slot_capacity_mhz);
      caps.push_back((k + 0.25 + 0.1 * static_cast<double>(t % 5)) *
                     params.slot_capacity_mhz);
    }
    options.capacity_override_mhz = std::move(caps);
    models.push_back(
        core::build_slot_lp(topo, requests, params, options).model);
  }
  return models;
}

// ---------------------------------------------------------------------------
// google-benchmark cases.

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

// ---------------------------------------------------------------------------
// --smoke: fast correctness checks, wired into ctest.

int run_smoke() {
  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    std::cout << (ok ? "  ok: " : "FAIL: ") << what << '\n';
    if (!ok) ++failures;
  };

  // Determinism: the pooled sweep must equal the serial sweep element by
  // element, exactly (same doubles, not just close).
  {
    const auto seeds = exp::bench_seeds(4);
    auto trial = [&](std::size_t i) {
      return fig4_mini_trial(seeds[i], 40, 60);
    };
    util::ThreadPool serial(1);
    util::ThreadPool pooled(0);
    const auto a = serial.parallel_map(seeds.size(), trial);
    const auto b = pooled.parallel_map(seeds.size(), trial);
    bool identical = a.size() == b.size();
    for (std::size_t i = 0; identical && i < a.size(); ++i) {
      identical = (a[i] == b[i]);
    }
    check(identical, "parallel sweep bit-identical to serial sweep");
  }

  // Exception propagation: a throwing body must surface on the caller.
  {
    bool threw = false;
    try {
      util::parallel_for(64, [](std::size_t i) {
        if (i == 13) throw std::runtime_error("boom");
      });
    } catch (const std::runtime_error&) {
      threw = true;
    }
    check(threw, "task exception rethrown on the calling thread");
  }

  // Warm-started LP: identical objective to the cold solve on a tiny slot
  // sequence, and the warm path actually engages after the first slot.
  {
    const auto models = slot_sequence_models(30, 4);
    lp::RevisedSimplexSolver solver;
    lp::WarmStartBasis warm;
    bool objectives_match = true;
    bool warm_engaged = false;
    for (std::size_t t = 0; t < models.size(); ++t) {
      const auto cold = solver.solve(models[t]);
      const auto warmres = solver.solve(models[t], warm);
      objectives_match = objectives_match && cold.optimal() &&
                         warmres.optimal() &&
                         std::abs(cold.objective - warmres.objective) < 1e-9;
      if (t > 0) warm_engaged = warm_engaged || warmres.warm_started;
    }
    check(objectives_match, "warm LP objective == cold LP objective");
    check(warm_engaged, "warm start engaged after the first slot");
  }

  std::cout << (failures == 0 ? "smoke: all checks passed\n"
                              : "smoke: FAILURES\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
