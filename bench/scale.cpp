// Scale: the O(live + changes) slot loop on a large instance (default 10^3
// stations, 10^5 requests). Arrivals are packed into a front window so
// most of the horizon is steady-state drain: a slot where little changes
// must cost O(changes), not O(|R|) rescans of every request.
//
// One leg, `scratch`: DynamicRR at its defaults, which build every slot LP
// from scratch.
//
// Slot latency comes from the obs exporters: the sim.slot_wall_ms
// histogram is reset before each run and its p50/p95/p99 are read back
// from the registry snapshot, so the bench exercises the same telemetry
// path `mecar_cli experiment --metrics-out` exports.
//
//   ./bench/scale [--smoke] [--stations=N] [--requests=N] [--horizon=T]
//                 [--window=W] [--seeds=S] [--snapshot[=PATH]]
//
// Every run checks that the leg conserves requests (completed + dropped
// + unfinished == arrived) and saw every slot, and exits 1 otherwise;
// --smoke reports the outcome. --snapshot writes BENCH_scale.json.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>

#include "exp/instance.h"
#include "obs/telemetry.h"
#include "sim/dynamic_rr.h"
#include "sim/online_sim.h"
#include "util/cli.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace mecar;

/// One leg's outcome: headline simulator metrics plus the slot-latency
/// percentiles read back from the obs registry.
struct LegRun {
  std::string label;
  double reward = 0.0;
  double arrived = 0.0;
  double completed = 0.0;
  double drops = 0.0;
  double unfinished = 0.0;
  double total_ms = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double slots = 0.0;
};

LegRun run_leg(const exp::Instance& inst, int horizon, int seeds,
               std::string label) {
  LegRun out;
  out.label = std::move(label);
  // Pool the per-slot samples of every seed into one histogram so the
  // percentiles describe the engine, not one lucky run.
  obs::registry().reset();
  for (int s = 0; s < seeds; ++s) {
    sim::OnlineParams params;
    params.horizon_slots = horizon;
    sim::DynamicRrPolicy policy(inst.topo, core::AlgorithmParams{},
                                sim::DynamicRrParams{},
                                util::Rng(static_cast<unsigned>(s) + 1u));
    sim::OnlineSimulator simulator(inst.topo, inst.requests, inst.realized,
                                   params);
    const util::Timer run_timer;
    const sim::OnlineMetrics metrics = simulator.run(policy);
    out.total_ms += run_timer.elapsed_ms();
    out.reward += metrics.total_reward;
    out.arrived += static_cast<double>(metrics.arrived);
    out.completed += static_cast<double>(metrics.completed);
    out.drops += static_cast<double>(metrics.dropped);
    out.unfinished += static_cast<double>(metrics.unfinished);
  }
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  if (const obs::HistogramSnapshot* h =
          snap.find_histogram("sim.slot_wall_ms")) {
    out.p50 = h->percentile(50.0);
    out.p95 = h->percentile(95.0);
    out.p99 = h->percentile(99.0);
    out.max = h->max;
    out.slots = static_cast<double>(h->count);
  }
  return out;
}

void print_run(const LegRun& r) {
  std::cout << "  " << r.label << ": slot p50/p95/p99 = " << r.p50 << " / "
            << r.p95 << " / " << r.p99 << " ms  (max " << r.max << ", "
            << r.slots << " slots, total " << r.total_ms
            << " ms)  reward=" << r.reward << " completed=" << r.completed
            << " drops=" << r.drops << '\n';
}

/// Counts this leg's failed checks, reporting each on stderr.
int check_run(const LegRun& r, int horizon, int seeds) {
  int failures = 0;
  if (r.completed + r.drops + r.unfinished != r.arrived) {
    ++failures;
    std::cerr << "FAIL: " << r.label << " lost requests (completed "
              << r.completed << " + drops " << r.drops << " + unfinished "
              << r.unfinished << " != arrived " << r.arrived << ")\n";
  }
#if MECAR_TELEMETRY_ENABLED
  const double expected = static_cast<double>(horizon) * seeds;
  if (r.slots != expected) {
    ++failures;
    std::cerr << "FAIL: " << r.label << " observed " << r.slots
              << " slots, expected " << expected << '\n';
  }
#else
  (void)horizon;
  (void)seeds;
#endif
  return failures;
}

void write_run(util::JsonWriter& w, const LegRun& r) {
  w.key(r.label).begin_object();
  w.field("slot_ms_p50", r.p50);
  w.field("slot_ms_p95", r.p95);
  w.field("slot_ms_p99", r.p99);
  w.field("slot_ms_max", r.max);
  w.field("slots", r.slots);
  w.field("total_ms", r.total_ms);
  w.field("reward", r.reward);
  w.field("completed", r.completed);
  w.field("drops", r.drops);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    const bool smoke = cli.has("smoke");

    // The headline scenario: 10^3 stations, 10^5 requests, arrivals packed
    // into the first `window` slots so ~80% of the horizon is steady-state
    // drain — exactly where O(changes) and O(|R|) per slot diverge.
    const int stations = static_cast<int>(cli.get_int_or("stations", 1000));
    const int requests = static_cast<int>(cli.get_int_or("requests", 100000));
    const int horizon = static_cast<int>(cli.get_int_or("horizon", 2000));
    const int window = static_cast<int>(
        cli.get_int_or("window", std::max(1, horizon / 5)));
    const int seeds = static_cast<int>(cli.get_int_or("seeds", 1));
    if (stations <= 0 || requests <= 0 || horizon <= 0 || window <= 0 ||
        seeds <= 0) {
      std::cerr << "scale: all size parameters must be positive\n";
      return 1;
    }

    exp::InstanceConfig config;
    config.num_stations = stations;
    config.num_requests = requests;
    config.horizon_slots = window;  // arrival window, not the run horizon
    std::cout << "scale: " << stations << " stations, " << requests
              << " requests arriving over " << window << " of " << horizon
              << " slots, " << seeds << " seed(s)\n";
    const exp::Instance inst = exp::make_instance(1u, config);

    const LegRun scratch = run_leg(inst, horizon, seeds, "scratch");
    print_run(scratch);
    const int failures = check_run(scratch, horizon, seeds);

    if (cli.has("snapshot")) {
      const std::string path = cli.get_or("snapshot", "").empty()
                                   ? "BENCH_scale.json"
                                   : cli.get_or("snapshot", "");
      std::ofstream file(path);
      util::JsonWriter w(file);
      w.begin_object();
      w.field("stations", stations);
      w.field("requests", requests);
      w.field("horizon", horizon);
      w.field("arrival_window", window);
      w.field("seeds", seeds);
      w.key("legs").begin_object();
      write_run(w, scratch);
      w.end_object();
      w.end_object();
      w.done();
      if (!file.good()) {
        std::cerr << "FAIL: could not write snapshot " << path << '\n';
        return 1;
      }
      std::cout << "snapshot: " << path << '\n';
    }

    if (failures > 0) {
      std::cerr << "FAIL: " << failures << " scale check(s) failed\n";
      return 1;
    }
    if (smoke) std::cout << "smoke: all scale checks hold\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "scale: " << e.what() << '\n';
    return 1;
  }
}
