// Micro-benchmarks and self-checks for the telemetry subsystem (src/obs):
// how much one counter add / histogram observe / trace emit costs, and an
// end-to-end overhead probe comparing an instrumented fig4-mini trial
// against the compile-time budget (DESIGN.md §10: <5% vs -DMECAR_TELEMETRY=OFF).
//
// Three entry modes:
//   ./bench/micro_telemetry              google-benchmark timings
//   ./bench/micro_telemetry --smoke      fast correctness checks (ctest):
//                                        cross-thread sums exact, ring wrap
//                                        accounting, instrumented trial moves
//                                        the catalog counters (or keeps them
//                                        at zero when compiled out)
//   ./bench/micro_telemetry --overhead   times a fig4-mini sweep and prints
//                                        ms/trial; run it against both the
//                                        default and the notelemetry build
//                                        to measure the recording overhead
//   ./bench/micro_telemetry --snapshot[=path]
//                                        writes BENCH_telemetry.json: per-op
//                                        recording costs, ms/trial, and an
//                                        instrumented trial's catalog values
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "exp/instance.h"
#include "obs/catalog.h"
#include "obs/event_trace.h"
#include "obs/telemetry.h"
#include "sim/dynamic_rr.h"
#include "sim/online_sim.h"
#include "util/json_writer.h"
#include "util/timer.h"

namespace {

using namespace mecar;

/// One fig4-style online trial (same construction as micro_parallel):
/// heavy enough that the per-event telemetry cost is realistic in context.
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

// ---------------------------------------------------------------------------
// google-benchmark cases.

void BM_CounterAdd(benchmark::State& state) {
  obs::MetricRegistry reg;
  obs::Counter c = reg.counter("bench.count");
  for (auto _ : state) {
    c.add();
  }
  benchmark::DoNotOptimize(reg.snapshot().counters.data());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  obs::MetricRegistry reg;
  obs::Histogram h =
      reg.histogram("bench.hist", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0});
  double v = 0.0;
  for (auto _ : state) {
    h.observe(v);
    v += 0.37;
    if (v > 40.0) v = 0.0;
  }
  benchmark::DoNotOptimize(reg.snapshot().histograms.data());
}
BENCHMARK(BM_HistogramObserve);

void BM_TraceEmitDisabled(benchmark::State& state) {
  obs::EventTrace tr;  // never enabled: one relaxed atomic load per emit
  for (auto _ : state) {
    tr.emit(obs::EventKind::kAdmission, 1.0, 2.0);
  }
  benchmark::DoNotOptimize(tr.snapshot().dropped);
}
BENCHMARK(BM_TraceEmitDisabled);

void BM_TraceEmitEnabled(benchmark::State& state) {
  obs::EventTrace tr;
  tr.enable(1 << 12);
  (void)tr.begin_run("bench", 1.0);
  for (auto _ : state) {
    tr.emit(obs::EventKind::kAdmission, 1.0, 2.0);
  }
  tr.disable();
  benchmark::DoNotOptimize(tr.snapshot().dropped);
}
BENCHMARK(BM_TraceEmitEnabled);

// ---------------------------------------------------------------------------
// --smoke: fast correctness checks, wired into ctest.

int run_smoke() {
  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    std::cout << (ok ? "  ok: " : "FAIL: ") << what << '\n';
    if (!ok) ++failures;
  };

  // Cross-thread counter aggregation is exact for integral increments.
  {
    obs::MetricRegistry reg;
    obs::Counter c = reg.counter("smoke.count");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 50000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&c] {
        for (int i = 0; i < kPerThread; ++i) c.add();
      });
    }
    for (std::thread& w : workers) w.join();
    const double value =
        reg.snapshot().find_counter("smoke.count")->value;
#if MECAR_TELEMETRY_ENABLED
    check(value == static_cast<double>(kThreads) * kPerThread,
          "cross-thread counter sum is exact");
#else
    check(value == 0.0, "counter stays zero when telemetry is compiled out");
#endif
  }

  // Ring wrap: capacity survivors + dropped must account for every emit.
  {
    obs::EventTrace tr;
    tr.enable(8);
    (void)tr.begin_run("smoke", 1.0);
    for (int i = 0; i < 100; ++i) {
      tr.set_slot(i);
      tr.emit(obs::EventKind::kSlotBegin);
    }
    const auto snap = tr.snapshot();
    tr.disable();
    check(snap.events.size() + snap.dropped == 100,
          "ring wrap accounts for every emitted event");
    check(snap.events.size() == 8 && snap.events.front().slot == 92,
          "ring keeps the newest events, oldest first");
  }

  // End to end: an instrumented trial moves the catalog counters exactly
  // when recording is compiled in.
  {
    obs::registry().reset();
    (void)fig4_mini_trial(1u, 40, 60);
    const auto snap = obs::registry().snapshot();
    const double pivots = snap.find_counter("lp.pivots")->value;
    const double slots = snap.find_counter("sim.slots")->value;
#if MECAR_TELEMETRY_ENABLED
    check(pivots > 0.0, "fig4-mini trial recorded lp.pivots");
    check(slots == 60.0, "fig4-mini trial recorded one count per slot");
#else
    check(pivots == 0.0 && slots == 0.0,
          "compiled-out build records nothing");
#endif
    obs::registry().reset();
  }

  std::cout << (failures == 0 ? "smoke: all checks passed\n"
                              : "smoke: FAILURES\n");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --overhead: ms/trial for the ON-vs-OFF comparison (DESIGN.md §10).

int run_overhead() {
  const auto seeds = exp::bench_seeds(6);
  constexpr int kRepeats = 3;
  // Warm-up pass pages in code and data.
  for (unsigned seed : seeds) (void)fig4_mini_trial(seed, 60, 120);
  double best_ms = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    util::Timer t;
    for (unsigned seed : seeds) (void)fig4_mini_trial(seed, 60, 120);
    best_ms = std::min(best_ms, t.elapsed_ms());
  }
  const double per_trial = best_ms / static_cast<double>(seeds.size());
  std::cout << "telemetry_compiled="
            << (MECAR_TELEMETRY_ENABLED ? "on" : "off")
            << " trials=" << seeds.size() << " best_sweep_ms=" << best_ms
            << " ms_per_trial=" << per_trial << '\n';
  return 0;
}

// ---------------------------------------------------------------------------
// --snapshot: the BENCH_telemetry.json recording-cost snapshot.

/// Best-of-kRepeats nanoseconds per call of `op` over `iters` iterations.
template <typename Op>
double time_op_ns(int iters, Op op) {
  constexpr int kRepeats = 3;
  double best_ms = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    util::Timer t;
    for (int i = 0; i < iters; ++i) op(i);
    best_ms = std::min(best_ms, t.elapsed_ms());
  }
  return best_ms * 1e6 / static_cast<double>(iters);
}

int run_snapshot(const std::string& path) {
  constexpr int kIters = 200000;
  obs::MetricRegistry reg;
  obs::Counter c = reg.counter("bench.count");
  obs::Histogram h =
      reg.histogram("bench.hist", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0});
  const double counter_ns = time_op_ns(kIters, [&](int) { c.add(); });
  const double histogram_ns =
      time_op_ns(kIters, [&](int i) { h.observe((i % 100) * 0.4); });
  obs::EventTrace cold;  // never enabled: one relaxed load per emit
  const double emit_disabled_ns = time_op_ns(kIters, [&](int) {
    cold.emit(obs::EventKind::kAdmission, 1.0, 2.0);
  });
  obs::EventTrace hot;
  hot.enable(1 << 12);
  (void)hot.begin_run("bench", 1.0);
  const double emit_enabled_ns = time_op_ns(kIters, [&](int) {
    hot.emit(obs::EventKind::kAdmission, 1.0, 2.0);
  });
  hot.disable();
  benchmark::DoNotOptimize(reg.snapshot().counters.data());
  benchmark::DoNotOptimize(hot.snapshot().dropped);

  // End-to-end cost and one instrumented trial's catalog values (the same
  // series `mecar_cli experiment --metrics-out` exports).
  const auto seeds = exp::bench_seeds(6);
  for (unsigned seed : seeds) (void)fig4_mini_trial(seed, 60, 120);
  double best_sweep_ms = 1e300;
  for (int r = 0; r < 3; ++r) {
    util::Timer t;
    for (unsigned seed : seeds) (void)fig4_mini_trial(seed, 60, 120);
    best_sweep_ms = std::min(best_sweep_ms, t.elapsed_ms());
  }
  obs::registry().reset();
  (void)fig4_mini_trial(1u, 40, 60);
  const auto snap = obs::registry().snapshot();
  const double lp_pivots = snap.find_counter("lp.pivots")->value;
  const double sim_slots = snap.find_counter("sim.slots")->value;
  const obs::HistogramSnapshot* wall =
      snap.find_histogram("sim.slot_wall_ms");
  obs::registry().reset();

  std::ofstream os(path);
  if (!os) {
    std::cerr << "error: could not write " << path << '\n';
    return 1;
  }
  util::JsonWriter w(os);
  w.begin_object();
  w.field("telemetry_compiled", MECAR_TELEMETRY_ENABLED ? 1 : 0);
  w.key("op_ns").begin_object();
  w.field("counter_add", counter_ns);
  w.field("histogram_observe", histogram_ns);
  w.field("trace_emit_disabled", emit_disabled_ns);
  w.field("trace_emit_enabled", emit_enabled_ns);
  w.end_object();
  w.key("fig4_mini").begin_object();
  w.field("trials", static_cast<int>(seeds.size()));
  w.field("best_sweep_ms", best_sweep_ms);
  w.field("ms_per_trial",
          best_sweep_ms / static_cast<double>(seeds.size()));
  w.field("lp_pivots", lp_pivots);
  w.field("sim_slots", sim_slots);
  w.field("slot_wall_ms_p50", wall != nullptr ? wall->percentile(50.0) : 0.0);
  w.field("slot_wall_ms_p95", wall != nullptr ? wall->percentile(95.0) : 0.0);
  w.field("slot_wall_ms_p99", wall != nullptr ? wall->percentile(99.0) : 0.0);
  w.end_object();
  w.end_object();
  w.done();
  if (!os.good()) {
    std::cerr << "error: could not write " << path << '\n';
    return 1;
  }
  std::cout << "snapshot: " << path << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
    if (std::strcmp(argv[i], "--overhead") == 0) return run_overhead();
    if (std::strncmp(argv[i], "--snapshot", 10) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return run_snapshot(eq != nullptr ? std::string(eq + 1)
                                        : "BENCH_telemetry.json");
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
