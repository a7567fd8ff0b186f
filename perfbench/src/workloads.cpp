#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/slot_lp.h"
#include "core/types.h"
#include "exp/instance.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "lp/revised_simplex.h"
#include "mec/topology.h"
#include "mec/workload.h"
#include "obs/telemetry.h"
#include "sim/dynamic_rr.h"
#include "sim/online_sim.h"

namespace perfbench {

namespace {

namespace core = mecar::core;
namespace exp = mecar::exp;
namespace lp = mecar::lp;
namespace mec = mecar::mec;
namespace obs = mecar::obs;
namespace sim = mecar::sim;
namespace util = mecar::util;

// ---- shared pieces ---------------------------------------------------

/// The embedded paper scenarios (perfbench/scenarios), in run order.
constexpr const char* kPaperScenarios[] = {
    "fig3_offline",  "fig4_online",  "fig5_stations", "fig6_rate",
    "regret_growth", "regret_kappa", "resilience",    "quality_metrics"};

/// obs counters of the real run. They must repeat exactly from run to run
/// and between the traced and the untraced run.
constexpr const char* kCounters[] = {
    "sim.slots",         "sim.admissions",     "sim.preemptions",
    "sim.completions",   "sim.drops",          "sim.lp_fallbacks",
    "lp.solves",         "lp.pivots",          "lp.refactorizations",
    "lp.warm_start_hits", "lp.warm_start_misses", "lp.slot_models",
    "bandit.arm_pulls",  "bandit.arm_eliminations", "exp.trials"};

using Counters = std::map<std::string, double>;

Counters read_counters() {
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  Counters out;
  for (const char* name : kCounters) {
    const obs::CounterSnapshot* c = snap.find_counter(name);
    out[name] = c != nullptr ? c->value : 0.0;
  }
  return out;
}

/// Equality that also holds for two NaNs (a repeated NaN is a repeat).
bool same(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

bool same(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](double x, double y) { return same(x, y); });
}

/// Generated inputs of one run, built one layer at a time so set-up time
/// splits between the topology (Waxman + all-pairs shortest paths) and the
/// workload.
struct Inputs {
  std::unique_ptr<mec::Topology> topo;
  std::vector<mec::ARRequest> requests;
  std::vector<std::size_t> realized;
  double topology_ms = 0.0;
  double workload_ms = 0.0;
};

/// exp::make_instance's steps. Passing one stream as both `topology_rng`
/// and `request_rng` draws exactly what make_instance draws; the online
/// workloads pass separate streams (see kTopologySeed).
Inputs build_inputs(util::Rng& topology_rng, util::Rng& request_rng,
                    const exp::InstanceConfig& config, SpanLog& spans,
                    int parent) {
  Inputs out;
  mec::TopologyParams tparams;
  tparams.num_stations = config.num_stations;
  tparams.link_bandwidth_min_mbps = config.link_bandwidth_min_mbps;
  tparams.link_bandwidth_max_mbps = config.link_bandwidth_max_mbps;
  int span = spans.open("mec.generate_topology", parent);
  double start = now_ms();
  out.topo = std::make_unique<mec::Topology>(
      mec::generate_topology(tparams, topology_rng));
  out.topology_ms = now_ms() - start;
  spans.close(span);

  mec::WorkloadParams wparams;
  wparams.num_requests = config.num_requests;
  wparams.rate_min = config.rate_min;
  wparams.rate_max = config.rate_max;
  wparams.horizon_slots = config.horizon_slots;
  wparams.reward_model = config.reward_model;
  wparams.arrivals = config.arrivals;
  wparams.home_skew = config.home_skew;
  span = spans.open("mec.generate_requests", parent);
  start = now_ms();
  out.requests = mec::generate_requests(wparams, *out.topo, request_rng);
  out.realized = core::realize_demand_levels(out.requests, request_rng);
  out.workload_ms = now_ms() - start;
  spans.close(span);
  return out;
}

/// Probes of core and lp on a workload's own requests, run after the
/// measured phases so they cannot perturb them.
struct Probe {
  long long candidate_calls = 0;
  double candidates_ms = 0.0;
  double kept_share = 0.0;  // sum over calls of kept / |BS|
  long long batches = 0;
  double build_ms = 0.0;
  double cols = 0.0;
  double rows = 0.0;
  double solve_ms = 0.0;
  long long not_optimal = 0;
};

/// core::candidate_stations at zero wait on up to `max_calls` requests
/// (evenly strided), then build_slot_lp on up to `max_batches`
/// arrival-ordered batches of DynamicRR's default batch size at full
/// capacity, each solved cold by the revised simplex.
void probe_core_lp(const mec::Topology& topo,
                   const std::vector<mec::ARRequest>& requests,
                   std::size_t max_calls, std::size_t max_batches,
                   Probe& probe, SpanLog& spans, int parent) {
  const core::AlgorithmParams alg;
  const std::size_t stride =
      std::max<std::size_t>(1, (requests.size() + max_calls - 1) / max_calls);
  int span = spans.open("core.candidate_stations", parent);
  double start = now_ms();
  double kept = 0.0;
  long long calls = 0;
  for (std::size_t j = 0; j < requests.size(); j += stride) {
    kept += static_cast<double>(
        core::candidate_stations(topo, requests[j], alg, 0.0).size());
    ++calls;
  }
  probe.candidates_ms += now_ms() - start;
  spans.close(span);
  probe.candidate_calls += calls;
  probe.kept_share += kept / topo.num_stations();

  std::vector<std::size_t> order(requests.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return requests[a].arrival_slot < requests[b].arrival_slot;
                   });
  const std::size_t batch_size =
      static_cast<std::size_t>(sim::DynamicRrParams{}.max_batch);
  const lp::RevisedSimplexSolver solver;
  for (std::size_t b = 0; b < max_batches; ++b) {
    const std::size_t first = b * batch_size;
    if (first >= order.size()) break;
    std::vector<mec::ARRequest> batch;
    for (std::size_t k = first; k < std::min(first + batch_size, order.size());
         ++k) {
      batch.push_back(requests[order[k]]);
    }
    span = spans.open("core.build_slot_lp", parent, static_cast<long long>(b));
    start = now_ms();
    const core::SlotLpInstance inst = core::build_slot_lp(topo, batch, alg);
    probe.build_ms += now_ms() - start;
    spans.close(span);
    probe.cols += inst.model.num_variables();
    probe.rows += inst.model.num_constraints();
    ++probe.batches;

    span = spans.open("lp.solve", parent, static_cast<long long>(b));
    start = now_ms();
    const lp::SolveResult res = solver.solve(inst.model);
    probe.solve_ms += now_ms() - start;
    spans.close(span);
    if (!res.optimal()) ++probe.not_optimal;
  }
}

/// Everything the per-layer table is computed from. Layers a workload
/// does not exercise stay 0.
struct Layers {
  double topology_ms = 0.0;
  double workload_ms = 0.0;
  double init_ms = 0.0;
  double engine_ms = 0.0;
  double traced_run_ms = 0.0;
  double plain_run_ms = 0.0;
  double latency_ms = 0.0;  // simulated outcome of the traced run
  SlotSummary slots;
  Counters counters;
  Probe probe;
  std::map<std::string, double> offline_ms;  // by policy label
  std::vector<double> scenario_ms;           // per kPaperScenarios entry
};

void add_layer_metrics(Outcome& out, const Layers& f) {
  const auto counter = [&](const char* name) {
    const auto it = f.counters.find(name);
    return it == f.counters.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto offline = [&](const char* label) {
    const auto it = f.offline_ms.find(label);
    return it == f.offline_ms.end() ? 0.0 : it->second;
  };
  const SlotSummary& s = f.slots;
  const Probe& p = f.probe;
  const double busy = static_cast<double>(s.busy_slots);

  out.add("mec.topology_ms", f.topology_ms, "ms");
  out.add("mec.workload_ms", f.workload_ms, "ms");
  out.add("sim.init_ms", f.init_ms, "ms");
  out.add("sim.engine_ms", f.engine_ms, "ms");
  out.add("sim.slot_overruns", static_cast<double>(s.overruns), "count",
          s.busy_slots);
  out.add("sim.slots", counter("sim.slots"), "count");
  out.add("sim.busy_slots", busy, "count");
  out.add("sim.admissions", counter("sim.admissions"), "count");
  out.add("sim.drops", counter("sim.drops"), "count");
  out.add("sim.completions", counter("sim.completions"), "count");
  out.add("sim.latency_ms", f.latency_ms, "ms");
  out.add("policy.decide_ms", s.decide_ms, "ms", s.slots);
  out.add("policy.decide_us_per_busy_slot",
          ratio(s.busy_decide_ms * 1000.0, busy), "us", s.busy_slots);
  out.add("policy.feedback_ms", s.feedback_ms, "ms", s.slots);
  out.add("policy.queue_len", ratio(s.awaiting_sum, busy), "requests",
          s.busy_slots);
  out.add("core.candidates_us",
          ratio(p.candidates_ms * 1000.0,
                static_cast<double>(p.candidate_calls)),
          "us", p.candidate_calls);
  out.add("core.candidates_kept_ratio",
          ratio(p.kept_share, static_cast<double>(p.candidate_calls)), "1",
          p.candidate_calls);
  const double batches = static_cast<double>(p.batches);
  out.add("core.slot_lp_build_ms", ratio(p.build_ms, batches), "ms",
          p.batches);
  out.add("core.slot_lp_cols", ratio(p.cols, batches), "count", p.batches);
  out.add("core.slot_lp_rows", ratio(p.rows, batches), "count", p.batches);
  out.add("core.appro_ms", offline("Appro"), "ms");
  out.add("core.heu_ms", offline("Heu"), "ms");
  out.add("lp.solve_ms", ratio(p.solve_ms, batches), "ms", p.batches);
  const double solves = counter("lp.solves");
  out.add("lp.solves", solves, "count");
  out.add("lp.pivots", counter("lp.pivots"), "count");
  out.add("lp.pivots_per_solve", ratio(counter("lp.pivots"), solves),
          "count");
  out.add("lp.refactorizations", counter("lp.refactorizations"), "count");
  const double hits = counter("lp.warm_start_hits");
  out.add("lp.warm_hit_ratio",
          ratio(hits, hits + counter("lp.warm_start_misses")), "1");
  out.add("lp.fallback_ratio", ratio(counter("sim.lp_fallbacks"), solves),
          "1");
  out.add("bandit.arm_pulls", counter("bandit.arm_pulls"), "count");
  out.add("bandit.arm_eliminations", counter("bandit.arm_eliminations"),
          "count");
  out.add("baselines.greedy_ms", offline("Greedy"), "ms");
  out.add("baselines.ocorp_ms", offline("OCORP"), "ms");
  out.add("baselines.heukkt_ms", offline("HeuKKT"), "ms");
  for (std::size_t i = 0; i < std::size(kPaperScenarios); ++i) {
    out.add(std::string("exp.") + kPaperScenarios[i] + "_s",
            i < f.scenario_ms.size() ? f.scenario_ms[i] / 1000.0 : 0.0, "s");
  }
  out.add("exp.trials", counter("exp.trials"), "count");
  out.add("obs.overhead", ratio(f.traced_run_ms, f.plain_run_ms) - 1.0, "1");
}

/// "name 12.3%" of `whole`, for the attribution notes.
std::string share(const char* name, double part, double whole) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s %.1f%%", name,
                whole > 0.0 ? 100.0 * part / whole : 0.0);
  return buf;
}

std::string seconds(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f s", ms / 1000.0);
  return buf;
}

void write_spans(const SpanLog& spans, const std::string& path) {
  if (path.empty()) return;
  std::ofstream file(path);
  spans.write_json(file);
  if (!file) throw std::runtime_error("cannot write spans to " + path);
}

// ---- steady / burst --------------------------------------------------

/// The 1000-station network both online workloads share. A topology draw
/// moves DynamicRR's outcome far more than a request draw does (about one
/// Waxman draw in twelve halves the mean latency), so the network is a
/// fixed deployment and the workload seed draws the requests.
constexpr unsigned kTopologySeed = 1;

struct OnlineShape {
  int stations = 1000;
  int requests = 0;
  int arrival_window = 0;  // arrivals uniform over [0, window)
  int horizon = 2000;
};

OnlineShape shape_of(const std::string& workload) {
  if (workload == "steady") return {1000, 20000, 2000, 2000};
  return {1000, 100000, 400, 2000};
}

exp::InstanceConfig instance_config(const OnlineShape& shape) {
  exp::InstanceConfig config;
  config.num_stations = shape.stations;
  config.num_requests = shape.requests;
  config.horizon_slots = shape.arrival_window;
  return config;
}

/// Inputs plus the library-default simulator (default slot loop, default
/// params), rebuilt and timed once per repetition.
struct OnlineSetup {
  Inputs inputs;
  std::unique_ptr<sim::OnlineSimulator> simulator;
  double init_ms = 0.0;

  /// Returns the whole set-up time, ms.
  double build(unsigned seed, const OnlineShape& shape, SpanLog& spans) {
    simulator.reset();  // free the previous repetition's memory first
    inputs = Inputs{};
    const int span = spans.open("setup");
    const double start = now_ms();
    util::Rng topology_rng(kTopologySeed);
    util::Rng request_rng(seed);
    inputs = build_inputs(topology_rng, request_rng, instance_config(shape),
                          spans, span);
    const int init_span = spans.open("sim.OnlineSimulator", span);
    const double init_start = now_ms();
    sim::OnlineParams params;
    params.horizon_slots = shape.horizon;
    simulator = std::make_unique<sim::OnlineSimulator>(
        *inputs.topo, inputs.requests, inputs.realized, params);
    init_ms = now_ms() - init_start;
    spans.close(init_span);
    spans.close(span);
    return now_ms() - start;
  }
};

struct OnlineRun {
  sim::OnlineMetrics metrics;
  double run_ms = 0.0;
  SlotSummary slots;
  Counters counters;
};

/// One closed-loop DynamicRR replay at default parameters.
OnlineRun run_dynamic_rr(const OnlineSetup& setup, unsigned seed, bool traced,
                         SpanLog& spans) {
  obs::registry().reset();
  TimedPolicy policy(std::make_unique<sim::DynamicRrPolicy>(
                         *setup.inputs.topo, core::AlgorithmParams{},
                         sim::DynamicRrParams{}, util::Rng(seed + 1u)),
                     traced);
  OnlineRun out;
  const int span = spans.open("sim.run");
  const double start = now_ms();
  out.metrics = setup.simulator->run(policy);
  out.run_ms = now_ms() - start;
  spans.close(span);
  spans.add_slots(policy.records(), policy.end_ms(), span);
  out.slots.add(policy.records(), policy.end_ms(), policy.slot_limit_ms());
  out.counters = read_counters();
  return out;
}

/// Conservation and sanity checks on one run; counts the run's requests.
void check_online_run(Outcome& out, const OnlineRun& run,
                      const OnlineShape& shape, const std::string& tag) {
  const sim::OnlineMetrics& m = run.metrics;
  const long long accounted =
      static_cast<long long>(m.completed) + m.dropped + m.unfinished;
  out.attempted += m.arrived;
  out.failed += std::llabs(m.arrived - accounted);
  out.check(m.arrived == accounted,
            tag + ": arrived != completed + dropped + unfinished");
  out.check(m.arrived == shape.requests,
            tag + ": not every request arrived within the horizon");
  out.check(std::isfinite(m.total_reward) && m.total_reward > 0.0,
            tag + ": reward is not a positive finite number");
  out.check(run.slots.slots == shape.horizon,
            tag + ": the policy did not see every slot");
}

void check_repeat(Outcome& out, const OnlineRun& a, const OnlineRun& b,
                  const std::string& tag) {
  out.check(same_outcome(a.metrics, b.metrics),
            tag + ": simulated outcome differs from the first run");
  out.check(a.counters == b.counters,
            tag + ": obs counters differ from the first run");
  out.check(a.slots.busy_slots == b.slots.busy_slots,
            tag + ": busy-slot count differs from the first run");
}

void add_outcome_metrics(Outcome& out, const sim::OnlineMetrics& m) {
  out.add("reward", m.total_reward, "reward");
  out.add("served_ratio",
          m.arrived > 0 ? static_cast<double>(m.completed) / m.arrived : 0.0,
          "1", m.arrived);
  // Reported but not gated: whether DynamicRR's learner settles on an arm
  // that trades admissions for waiting swings this between ~21 and ~40-45
  // ms from one request draw to the next (see README.md).
  out.add("latency_ms", m.avg_latency_ms, "ms", m.completed, false);
}

Outcome measure_online(const RunArgs& args, const OnlineShape& shape) {
  Outcome out;
  const double deadline = now_ms() + args.seconds * 1000.0;
  SpanLog off(false);
  OnlineSetup setup;
  std::vector<double> setup_ms;
  std::vector<double> run_ms;
  std::vector<double> rep_ms;
  SlotSummary slots;
  std::optional<OnlineRun> first;
  double peak_mib = 0.0;  // after the first repetition: one set-up + run
  do {
    const double rep_start = now_ms();
    setup_ms.push_back(setup.build(args.seed, shape, off));
    OnlineRun run = run_dynamic_rr(setup, args.seed, false, off);
    rep_ms.push_back(now_ms() - rep_start);
    const std::string tag = "run " + std::to_string(run_ms.size() + 1);
    std::cerr << tag << ": setup " << setup_ms.back() / 1000.0 << " s, run "
              << run.run_ms / 1000.0 << " s\n";
    check_online_run(out, run, shape, tag);
    if (first) check_repeat(out, *first, run, tag);
    run_ms.push_back(run.run_ms);
    slots.merge(run.slots);
    if (!first) {
      first = std::move(run);
      peak_mib = peak_rss_mib();
    }
  } while (run_ms.size() < 2 || now_ms() + median(rep_ms) <= deadline);

  const long long reps = static_cast<long long>(run_ms.size());
  out.add("setup_s", median(setup_ms) / 1000.0, "s", reps);
  out.add("run_s", median(run_ms) / 1000.0, "s", reps);
  out.add("slot_ms_p50", exact_percentile(slots.busy_slot_ms, 50.0), "ms",
          slots.busy_slots);
  out.add("slot_ms_p95", exact_percentile(slots.busy_slot_ms, 95.0), "ms",
          slots.busy_slots);
  out.add("peak_rss_mb", peak_mib, "MiB");
  add_outcome_metrics(out, first->metrics);
  return out;
}

Outcome trace_online(const RunArgs& args, const OnlineShape& shape) {
  Outcome out;
  SpanLog spans;
  SpanLog off(false);
  Layers f;

  OnlineSetup setup;
  setup.build(args.seed, shape, spans);
  // The measured path once, untraced: the reference the traced run must
  // reproduce and the denominator of obs.overhead.
  const OnlineRun plain = run_dynamic_rr(setup, args.seed, false, off);
  check_online_run(out, plain, shape, "untraced run");
  const OnlineRun traced = run_dynamic_rr(setup, args.seed, true, spans);
  check_online_run(out, traced, shape, "traced run");
  check_repeat(out, plain, traced, "traced run");

  const int probe_span = spans.open("probes");
  probe_core_lp(*setup.inputs.topo, setup.inputs.requests, 5000, 16, f.probe,
                spans, probe_span);
  spans.close(probe_span);
  out.check(f.probe.not_optimal == 0, "a probe slot LP did not solve");

  f.topology_ms = setup.inputs.topology_ms;
  f.workload_ms = setup.inputs.workload_ms;
  f.init_ms = setup.init_ms;
  f.traced_run_ms = traced.run_ms;
  f.plain_run_ms = plain.run_ms;
  f.latency_ms = traced.metrics.avg_latency_ms;
  f.slots = traced.slots;
  f.engine_ms = traced.run_ms - traced.slots.decide_ms -
                traced.slots.feedback_ms;
  f.counters = traced.counters;
  add_layer_metrics(out, f);
  const double setup_ms = f.topology_ms + f.workload_ms + f.init_ms;
  out.notes.push_back("set-up " + seconds(setup_ms) + ": " +
                      share("mec.topology", f.topology_ms, setup_ms) + ", " +
                      share("mec.workload", f.workload_ms, setup_ms) + ", " +
                      share("sim.init", f.init_ms, setup_ms));
  out.notes.push_back(
      "traced run " + seconds(traced.run_ms) + ": " +
      share("policy.decide", traced.slots.decide_ms, traced.run_ms) + ", " +
      share("policy.feedback", traced.slots.feedback_ms, traced.run_ms) +
      ", " + share("sim.engine", f.engine_ms, traced.run_ms) +
      "; untraced run " + seconds(plain.run_ms));
  write_spans(spans, args.trace_out);
  return out;
}

// ---- paper -----------------------------------------------------------

exp::ScenarioSpec load_spec(const std::string& dir, const char* name,
                            unsigned seed) {
  const std::string path = dir + "/" + name + ".scenario";
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path);
  exp::ScenarioSpec spec = exp::read_scenario(file);
  // The runner fixes each trial's instance seed (7 + 1000 i); the workload
  // seed drives every policy's random stream instead.
  spec.policy_seed_offset = seed;
  return spec;
}

/// One instance a paper sweep generates.
struct SweepInstance {
  unsigned seed = 0;           // the trial seed
  exp::InstanceConfig config;  // horizon_slots > 0: an online instance
};

/// The instances one sweep of `spec` generates, derived the way
/// exp::Runner derives them. Per sweep point, the axis overrides one field
/// of the base configuration. Every trial seed gets an offline instance
/// when the spec runs an offline policy, and an online one when it runs an
/// online policy. The regret protocol builds only online instances and
/// applies only the horizon axis to them; it rebuilds a seed's instance
/// for every arm, which is listed once here.
std::vector<SweepInstance> sweep_instances(
    const exp::ScenarioSpec& spec, const exp::PolicyRegistry& registry) {
  const bool regret = spec.kind == exp::ScenarioKind::kRegret;
  bool any_offline = false;
  bool any_online = regret;
  if (!regret) {
    for (const exp::PolicyRef& ref : spec.policies) {
      const bool online =
          exp::resolve_policy(registry, ref.name, spec.horizon).online;
      (online ? any_online : any_offline) = true;
    }
  }
  std::vector<double> points = spec.points;
  if (points.empty()) points.push_back(0.0);  // axis none: one point
  const exp::SweepAxis axis = regret && spec.axis != exp::SweepAxis::kHorizon
                                  ? exp::SweepAxis::kNone
                                  : spec.axis;
  std::vector<SweepInstance> out;
  for (const double point : points) {
    exp::InstanceConfig config = spec.base;
    config.horizon_slots = 0;
    int horizon = spec.horizon;
    switch (axis) {
      case exp::SweepAxis::kRequests:
        config.num_requests = static_cast<int>(point);
        break;
      case exp::SweepAxis::kStations:
        config.num_stations = static_cast<int>(point);
        break;
      case exp::SweepAxis::kRateMax:
        config.rate_max = point;
        break;
      case exp::SweepAxis::kHorizon:
        horizon = static_cast<int>(point);
        if (spec.requests_per_slot > 0.0) {
          config.num_requests =
              static_cast<int>(point * spec.requests_per_slot);
        }
        break;
      default:  // the chaos and kappa axes leave the instance alone
        break;
    }
    for (const unsigned seed : exp::bench_seeds(spec.seeds)) {
      if (any_offline) out.push_back({seed, config});
      if (any_online) {
        out.push_back({seed, config});
        out.back().config.horizon_slots = horizon;
      }
    }
  }
  return out;
}

/// Whether stepwise generation drew the instance exp::make_instance draws.
bool same_instance(const exp::Instance& a, const Inputs& b) {
  if (a.topo.num_stations() != b.topo->num_stations() ||
      a.realized != b.realized || a.requests.size() != b.requests.size()) {
    return false;
  }
  for (std::size_t j = 0; j < a.requests.size(); ++j) {
    const mec::ARRequest& x = a.requests[j];
    const mec::ARRequest& y = b.requests[j];
    if (x.home_station != y.home_station || x.arrival_slot != y.arrival_slot ||
        x.duration_slots != y.duration_slots ||
        x.latency_budget_ms != y.latency_budget_ms) {
      return false;
    }
  }
  return true;
}

/// One sweep of every embedded scenario.
struct PaperRep {
  double setup_ms = 0.0;  // summed over the scenarios' set-ups
  double topology_ms = 0.0;
  double workload_ms = 0.0;
  double init_ms = 0.0;
  long long instances = 0;
  double run_ms = 0.0;  // summed over the scenarios' Runner::run
  std::vector<double> scenario_ms;
  double reward = 0.0;
  long long arrived = 0;
  long long completed = 0;
  long long served = 0;           // online completed + offline rewarded
  double latency_weighted = 0.0;  // latency x served, every trial
  std::map<std::string, double> offline_ms;
  /// LP bound per offline trial instance (scenario, point, seed): Appro and
  /// Heu solve the same LP there, so they must report the same bound.
  std::map<std::string, double> lp_bounds;
  /// Every deterministic trial output in reduction order.
  std::vector<double> fingerprint;
  SlotSummary slots;
  Counters counters;
};

/// Folds one trial observation into the repetition and checks it.
void observe(const exp::TrialObservation& o, const exp::ScenarioSpec& spec,
             PaperRep& rep, Outcome& out) {
  const std::map<std::string, double>& m = *o.metrics;
  const auto get = [&](const char* key) {
    const auto it = m.find(key);
    return it == m.end() ? std::nan("") : it->second;
  };
  const std::string tag = spec.name + " point " + std::to_string(o.point_index) +
                          " seed " + std::to_string(o.seed) + " " + *o.policy;
  for (const auto& [key, value] : m) {
    if (key != "runtime_ms") rep.fingerprint.push_back(value);
  }
  const double reward = get("reward");
  out.check(std::isfinite(reward) && reward >= 0.0,
            tag + ": reward is not a finite non-negative number");
  rep.reward += reward;
  if (m.count("arrived") != 0) {
    const long long arrived = std::llround(get("arrived"));
    const long long completed = std::llround(get("completed"));
    const long long accounted =
        completed + std::llround(get("drops")) + std::llround(get("unfinished"));
    out.attempted += arrived;
    out.failed += std::llabs(arrived - accounted);
    out.check(arrived == accounted,
              tag + ": arrived != completed + dropped + unfinished");
    rep.arrived += arrived;
    rep.completed += completed;
    rep.served += completed;
    rep.latency_weighted += get("latency") * static_cast<double>(completed);
  } else {
    const long long offered = spec.axis == exp::SweepAxis::kRequests
                                  ? std::llround(o.point_value)
                                  : spec.base.num_requests;
    const long long admitted = std::llround(get("admitted"));
    const long long rewarded = std::llround(get("rewarded"));
    out.attempted += offered;
    out.check(rewarded <= admitted && admitted <= offered,
              tag + ": rewarded <= admitted <= offered does not hold");
    rep.offline_ms[*o.policy] += get("runtime_ms");
    rep.served += rewarded;
    rep.latency_weighted += get("latency") * static_cast<double>(rewarded);
    // Slot-indexed algorithms report their LP bound; the rest report 0.
    // The bound caps the expected reward, not the realized one: a lucky
    // draw can beat it (fig5_stations, 40 stations, seed 2007 does by
    // 0.12%), so the check is that both LP-based algorithms agree on it.
    const double bound = get("lp_bound");
    if (bound > 0.0) {
      const std::string trial = spec.name + "/" +
                                std::to_string(o.point_index) + "/" +
                                std::to_string(o.seed);
      const auto [it, fresh] = rep.lp_bounds.emplace(trial, bound);
      out.check(fresh || it->second == bound,
                tag + ": LP bound differs from the other slot-indexed "
                      "algorithm's on the same instance");
    }
  }
}

/// One scenario's set-up: reading and parsing its spec, constructing its
/// runner, and generating every instance its sweep uses (make_instance's
/// steps on one stream), with a simulator for each online one. No public
/// interface hands instances to the runner, so it generates them again
/// inside its trials; this measures that set-up work apart from the run.
exp::Runner set_up_scenario(const char* name, const RunArgs& args,
                            const exp::PolicyRegistry& registry,
                            PaperRep& rep, SpanLog& spans, int parent) {
  const int span = spans.open("setup", parent);
  const double start = now_ms();
  exp::Runner runner(load_spec(args.scenario_dir, name, args.seed), registry);
  for (const SweepInstance& si : sweep_instances(runner.spec(), registry)) {
    util::Rng rng(si.seed);
    const Inputs inst = build_inputs(rng, rng, si.config, spans, span);
    rep.topology_ms += inst.topology_ms;
    rep.workload_ms += inst.workload_ms;
    ++rep.instances;
    if (si.config.horizon_slots == 0) continue;
    const int init_span = spans.open("sim.OnlineSimulator", span);
    const double init_start = now_ms();
    sim::OnlineParams params;
    params.horizon_slots = si.config.horizon_slots;
    const sim::OnlineSimulator simulator(*inst.topo, inst.requests,
                                         inst.realized, params);
    rep.init_ms += now_ms() - init_start;
    spans.close(init_span);
  }
  rep.setup_ms += now_ms() - start;
  spans.close(span);
  return runner;
}

/// One sweep: each embedded scenario is set up and then run, so the
/// set-up samples spread over the whole sweep instead of one window of a
/// few tens of milliseconds. Spans nest under `parent`.
PaperRep run_paper_once(const RunArgs& args,
                        const exp::PolicyRegistry& registry, SlotSink& sink,
                        Outcome& out, SpanLog& spans, int parent = -1) {
  obs::registry().reset();
  sink.take();
  PaperRep rep;
  for (const char* name : kPaperScenarios) {
    exp::Runner runner =
        set_up_scenario(name, args, registry, rep, spans, parent);
    const exp::ScenarioSpec& spec = runner.spec();
    runner.set_observer([&](const exp::TrialObservation& o) {
      observe(o, spec, rep, out);
    });
    const int span = spans.open("exp." + spec.name, parent);
    sink.attach(&spans, span);
    const double start = now_ms();
    const exp::Report report = runner.run();
    const double ms = now_ms() - start;
    spans.close(span);
    rep.scenario_ms.push_back(ms);
    rep.run_ms += ms;
    if (spec.kind == exp::ScenarioKind::kRegret) {
      // The regret protocol reports seed means per series only.
      for (std::size_t p = 0; p < report.num_points(); ++p) {
        for (const std::string& series : report.policies()) {
          const double mean = report.mean("reward", series, p);
          rep.fingerprint.push_back(mean);
          rep.reward += mean * spec.seeds;
        }
      }
    }
  }
  sink.attach(nullptr, -1);
  rep.slots = sink.take();
  rep.counters = read_counters();
  out.check(sink.lost() == 0, "a wrapped policy's slot records were lost");
  return rep;
}

void check_paper_repeat(Outcome& out, const PaperRep& a, const PaperRep& b,
                        const std::string& tag) {
  out.check(same(a.fingerprint, b.fingerprint),
            tag + ": trial outputs differ from the reference run");
  out.check(a.counters == b.counters,
            tag + ": obs counters differ from the reference run");
  out.check(a.slots.busy_slots == b.slots.busy_slots,
            tag + ": busy-slot count differs from the reference run");
}

double paper_latency_ms(const PaperRep& rep) {
  return rep.served > 0 ? rep.latency_weighted / rep.served : 0.0;
}

void add_paper_outcome(Outcome& out, const PaperRep& rep) {
  out.add("reward", rep.reward, "reward");
  out.add("served_ratio",
          rep.arrived > 0 ? static_cast<double>(rep.completed) / rep.arrived
                          : 0.0,
          "1", rep.arrived);
  out.add("latency_ms", paper_latency_ms(rep), "ms", rep.served, false);
}

Outcome measure_paper(const RunArgs& args) {
  Outcome out;
  SpanLog off(false);
  SlotSink sink;
  const exp::PolicyRegistry registry = timed_registry(sink, false);
  const double deadline = now_ms() + args.seconds * 1000.0;
  std::vector<double> setup_ms;
  std::vector<double> run_ms;
  SlotSummary slots;
  // The process's first sweep runs cold (about a fifth slower) and is not
  // measured; it is the reference every measured sweep must reproduce.
  const PaperRep first = run_paper_once(args, registry, sink, out, off);
  const double peak_mib = peak_rss_mib();  // after one sweep
  do {
    const PaperRep rep = run_paper_once(args, registry, sink, out, off);
    const std::string tag = "run " + std::to_string(run_ms.size() + 1);
    std::cerr << tag << ": setup " << rep.setup_ms / 1000.0 << " s, run "
              << rep.run_ms / 1000.0 << " s\n";
    check_paper_repeat(out, first, rep, tag);
    setup_ms.push_back(rep.setup_ms);
    run_ms.push_back(rep.run_ms);
    slots.merge(rep.slots);
  } while (run_ms.size() < 2 ||
           now_ms() + median(setup_ms) + median(run_ms) <= deadline);

  const long long reps = static_cast<long long>(run_ms.size());
  out.add("setup_s", median(setup_ms) / 1000.0, "s", reps);
  out.add("run_s", median(run_ms) / 1000.0, "s", reps);
  out.add("slot_ms_p50", exact_percentile(slots.busy_slot_ms, 50.0), "ms",
          slots.busy_slots);
  out.add("slot_ms_p95", exact_percentile(slots.busy_slot_ms, 95.0), "ms",
          slots.busy_slots);
  out.add("peak_rss_mb", peak_mib, "MiB");
  add_paper_outcome(out, first);
  return out;
}

Outcome trace_paper(const RunArgs& args) {
  Outcome out;
  SpanLog spans;
  SpanLog off(false);
  Layers f;
  SlotSink sink;

  // The measured path untraced, twice: the process's first sweep runs
  // cold (about a fifth slower), so the second is the reference the traced
  // sweep must reproduce and the denominator of obs.overhead.
  PaperRep plain;
  {
    const exp::PolicyRegistry registry = timed_registry(sink, false);
    const PaperRep cold = run_paper_once(args, registry, sink, out, off);
    plain = run_paper_once(args, registry, sink, out, off);
    check_paper_repeat(out, cold, plain, "second untraced run");
  }
  const exp::PolicyRegistry registry = timed_registry(sink, true);
  const int run_span = spans.open("paper.run");
  const PaperRep traced =
      run_paper_once(args, registry, sink, out, spans, run_span);
  spans.close(run_span);
  check_paper_repeat(out, plain, traced, "traced run");

  // core/lp probes on the first instance each scenario's sweep generates,
  // built by exp::make_instance; the set-up's stepwise generation must
  // draw the same instance.
  const int probe_span = spans.open("probes");
  for (const char* name : kPaperScenarios) {
    const exp::ScenarioSpec spec =
        load_spec(args.scenario_dir, name, args.seed);
    const SweepInstance si = sweep_instances(spec, registry).front();
    const exp::Instance inst = exp::make_instance(si.seed, si.config);
    util::Rng rng(si.seed);
    out.check(same_instance(inst, build_inputs(rng, rng, si.config, off, -1)),
              spec.name +
                  ": stepwise generation differs from exp::make_instance");
    probe_core_lp(inst.topo, inst.requests, inst.requests.size(), 2, f.probe,
                  spans, probe_span);
  }
  spans.close(probe_span);
  out.check(f.probe.not_optimal == 0, "a probe slot LP did not solve");

  f.topology_ms = traced.topology_ms;
  f.workload_ms = traced.workload_ms;
  f.init_ms = traced.init_ms;
  f.traced_run_ms = traced.run_ms;
  f.plain_run_ms = plain.run_ms;
  f.latency_ms = paper_latency_ms(traced);
  f.slots = traced.slots;
  f.engine_ms = traced.slots.span_ms - traced.slots.decide_ms -
                traced.slots.feedback_ms;
  f.counters = traced.counters;
  f.offline_ms = traced.offline_ms;
  f.scenario_ms = traced.scenario_ms;
  add_layer_metrics(out, f);
  out.notes.push_back(
      "set-up " + seconds(traced.setup_ms) + " (" +
      std::to_string(traced.instances) + " instances): " +
      share("mec.topology", f.topology_ms, traced.setup_ms) + ", " +
      share("mec.workload", f.workload_ms, traced.setup_ms) + ", " +
      share("sim.init", f.init_ms, traced.setup_ms));
  double offline_ms = 0.0;
  for (const auto& [label, ms] : traced.offline_ms) offline_ms += ms;
  out.notes.push_back(
      "traced run " + seconds(traced.run_ms) + " = sum of exp.*_s; untraced run " +
      seconds(plain.run_ms) + "; thread time: " +
      share("offline algorithms", offline_ms, traced.run_ms) + ", " +
      share("policy.decide", traced.slots.decide_ms, traced.run_ms) + ", " +
      share("sim.engine", f.engine_ms, traced.run_ms) +
      " (two worker threads, so shares can sum past 100%)");
  write_spans(spans, args.trace_out);
  return out;
}

}  // namespace

Outcome run_online(const RunArgs& args) {
  const OnlineShape shape = shape_of(args.workload);
  return args.trace ? trace_online(args, shape) : measure_online(args, shape);
}

Outcome run_paper(const RunArgs& args) {
  return args.trace ? trace_paper(args) : measure_paper(args);
}

}  // namespace perfbench
