// Scenario engine: text-format round-trip, hardened parse errors, policy
// registry lookups, report collection, the runner's up-front spec checks,
// regret point derivation, chaos-sweep resilience accounting, the shared
// chaos plan, and a golden check pinning the runner's sweep to a
// hand-written per-seed loop.
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/registry.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "obs/catalog.h"
#include "obs/telemetry.h"
#include "sim/online_sim.h"
#include "util/json_writer.h"
#include "util/snapshot.h"
#include "util/stats.h"

namespace {

using namespace mecar;

// ---- scenario text format -------------------------------------------------

exp::ScenarioSpec full_spec() {
  exp::ScenarioSpec spec;
  spec.name = "roundtrip";
  spec.kind = exp::ScenarioKind::kRegret;
  spec.axis = exp::SweepAxis::kHorizon;
  spec.points = {200, 400, 800};
  spec.seeds = 5;
  spec.horizon = 600;
  spec.base.num_requests = 42;
  spec.base.num_stations = 11;
  spec.base.rate_min = 12.5;
  spec.base.rate_max = 61.25;
  spec.base.reward_model = mec::RewardModel::kProportional;
  spec.base.arrivals = mec::ArrivalProcess::kPoisson;
  spec.base.home_skew = 1.5;
  spec.base.link_bandwidth_min_mbps = 210.0;
  spec.base.link_bandwidth_max_mbps = 390.0;
  spec.policies = {{"DynamicRR", "learned"}, {"online:Greedy", "Greedy"}};
  spec.metrics = {"reward", "drops"};
  spec.policy_seed_offset = 9;
  spec.chaos_intensity = 0.25;
  spec.mobility = {{3, 120, 7}};
  spec.rr.threshold_min_mhz = 450.0;
  spec.rr.threshold_max_mhz = 1200.0;
  spec.rr.kappa = 8;
  spec.scale_thresholds = true;
  spec.threshold_headroom = 7.5;
  spec.alg.rounding_divisor = 2.0;
  spec.alg.backfill = true;
  spec.backhaul_audit = true;
  spec.collect_detail = true;
  spec.requests_per_slot = 0.5;
  return spec;
}

TEST(Scenario, WriteReadRoundTrip) {
  const exp::ScenarioSpec spec = full_spec();
  std::stringstream text;
  exp::write_scenario(spec, text);
  const exp::ScenarioSpec back = exp::read_scenario(text);

  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.kind, spec.kind);
  EXPECT_EQ(back.axis, spec.axis);
  EXPECT_EQ(back.points, spec.points);
  EXPECT_EQ(back.seeds, spec.seeds);
  EXPECT_EQ(back.horizon, spec.horizon);
  EXPECT_EQ(back.base.num_requests, spec.base.num_requests);
  EXPECT_EQ(back.base.num_stations, spec.base.num_stations);
  EXPECT_DOUBLE_EQ(back.base.rate_min, spec.base.rate_min);
  EXPECT_DOUBLE_EQ(back.base.rate_max, spec.base.rate_max);
  EXPECT_EQ(back.base.reward_model, spec.base.reward_model);
  EXPECT_EQ(back.base.arrivals, spec.base.arrivals);
  EXPECT_DOUBLE_EQ(back.base.home_skew, spec.base.home_skew);
  EXPECT_DOUBLE_EQ(back.base.link_bandwidth_min_mbps,
                   spec.base.link_bandwidth_min_mbps);
  EXPECT_DOUBLE_EQ(back.base.link_bandwidth_max_mbps,
                   spec.base.link_bandwidth_max_mbps);
  ASSERT_EQ(back.policies.size(), 2u);
  EXPECT_EQ(back.policies[0].name, "DynamicRR");
  EXPECT_EQ(back.policies[0].label, "learned");
  EXPECT_EQ(back.policies[1].name, "online:Greedy");
  EXPECT_EQ(back.policies[1].label, "Greedy");
  EXPECT_EQ(back.metrics, spec.metrics);
  EXPECT_EQ(back.policy_seed_offset, spec.policy_seed_offset);
  EXPECT_DOUBLE_EQ(back.chaos_intensity, spec.chaos_intensity);
  ASSERT_EQ(back.mobility.size(), 1u);
  EXPECT_EQ(back.mobility[0].request_index, 3);
  EXPECT_EQ(back.mobility[0].slot, 120);
  EXPECT_EQ(back.mobility[0].new_home, 7);
  EXPECT_DOUBLE_EQ(back.rr.threshold_min_mhz, spec.rr.threshold_min_mhz);
  EXPECT_DOUBLE_EQ(back.rr.threshold_max_mhz, spec.rr.threshold_max_mhz);
  EXPECT_EQ(back.rr.kappa, spec.rr.kappa);
  EXPECT_EQ(back.scale_thresholds, spec.scale_thresholds);
  EXPECT_DOUBLE_EQ(back.threshold_headroom, spec.threshold_headroom);
  EXPECT_DOUBLE_EQ(back.alg.rounding_divisor, spec.alg.rounding_divisor);
  EXPECT_EQ(back.alg.backfill, spec.alg.backfill);
  EXPECT_EQ(back.backhaul_audit, spec.backhaul_audit);
  EXPECT_EQ(back.collect_detail, spec.collect_detail);
  EXPECT_DOUBLE_EQ(back.requests_per_slot, spec.requests_per_slot);
}

TEST(Scenario, InfiniteBandwidthRoundTrips) {
  exp::ScenarioSpec spec;
  spec.name = "inf";
  spec.axis = exp::SweepAxis::kRequests;
  spec.points = {10};
  spec.policies = {{"Appro", ""}};
  spec.metrics = {"reward"};
  std::stringstream text;
  exp::write_scenario(spec, text);
  const exp::ScenarioSpec back = exp::read_scenario(text);
  EXPECT_TRUE(std::isinf(back.base.link_bandwidth_min_mbps));
  EXPECT_TRUE(std::isinf(back.base.link_bandwidth_max_mbps));
}

TEST(Scenario, ParseErrorsCarryLineNumbers) {
  const auto line_of = [](const std::string& text) {
    std::istringstream is(text);
    try {
      (void)exp::read_scenario(is);
    } catch (const exp::ScenarioParseError& e) {
      EXPECT_NE(std::string(e.what()).find("scenario line"),
                std::string::npos);
      return e.line();
    }
    return -1;
  };
  EXPECT_EQ(line_of("name x\nbogus_key 1\n"), 2);
  EXPECT_EQ(line_of("name x\n\nseeds\n"), 3);          // missing argument
  EXPECT_EQ(line_of("seeds notanumber\n"), 1);         // bad integer
  EXPECT_EQ(line_of("axis sideways\n"), 1);  // unknown axis token
  EXPECT_EQ(line_of("link_bandwidth 210\n"), 1);       // wrong arity
  EXPECT_EQ(line_of("name x\nchaos nan\n"), 2);        // not finite
  EXPECT_EQ(line_of("name x\nchaos inf\n"), 2);
  EXPECT_EQ(line_of("name x\nchaos -inf\n"), 2);
  // End-of-file validation: chaos and a scripted plan are exclusive.
  std::istringstream both(
      "name x\naxis requests\npoints 10\npolicy Appro\nmetric reward\n"
      "chaos 0.5\nfault_plan plan.txt\n");
  EXPECT_THROW((void)exp::read_scenario(both), exp::ScenarioParseError);
}

TEST(Scenario, IntegerKeysRejectOutOfRange) {
  // Each value lies outside the int range; a narrowing cast would read
  // 2^32 + 1 as 1 and run a different experiment without a word.
  const auto error_of = [](const std::string& line) -> std::string {
    std::istringstream is("name x\n" + line + '\n');
    try {
      (void)exp::read_scenario(is);
    } catch (const exp::ScenarioParseError& e) {
      EXPECT_EQ(e.line(), 2) << line;
      return e.what();
    }
    return "";
  };
  for (const char* line :
       {"seeds 4294967297", "horizon 4294967496", "requests 4294967297",
        "stations -4294967295", "mobility 4294967297 1 1",
        "mobility 1 4294967297 1", "mobility 1 1 4294967297",
        "policy_seed_offset 4294967297", "kappa 4294967300",
        "lp_max_iterations 4294967296", "lp_budget 4294967297"}) {
    EXPECT_NE(error_of(line).find("is out of range"), std::string::npos)
        << line;
  }
  std::istringstream edge("name x\nseeds 2147483647\n");
  EXPECT_EQ(exp::read_scenario(edge).seeds, 2147483647);
}

TEST(Scenario, ThresholdRangeMustBePositiveAndFinite) {
  const auto line_of = [](const std::string& text) {
    std::istringstream is(text);
    try {
      (void)exp::read_scenario(is);
    } catch (const exp::ScenarioParseError& e) {
      return e.line();
    }
    return -1;
  };
  EXPECT_EQ(line_of("name x\nthreshold_range 0 1100\n"), 2);
  EXPECT_EQ(line_of("name x\nthreshold_range -5 1100\n"), 2);
  EXPECT_EQ(line_of("name x\n\nthreshold_range nan 1100\n"), 3);
  EXPECT_EQ(line_of("threshold_range 500 inf\n"), 1);
  EXPECT_EQ(line_of("threshold_range -inf 1100\n"), 1);
  std::istringstream ok("name x\nthreshold_range 450 1200\n");
  const exp::ScenarioSpec spec = exp::read_scenario(ok);
  EXPECT_EQ(spec.rr.threshold_min_mhz, 450.0);
  EXPECT_EQ(spec.rr.threshold_max_mhz, 1200.0);
}

TEST(Scenario, CommentsAndBlankLinesIgnored) {
  std::istringstream is(
      "# a figure\n\nname fig\naxis requests\npoints 10 20\n"
      "policy DynamicRR  the learned one\nmetric reward\n");
  const exp::ScenarioSpec spec = exp::read_scenario(is);
  EXPECT_EQ(spec.name, "fig");
  ASSERT_EQ(spec.policies.size(), 1u);
  EXPECT_EQ(spec.policies[0].label, "the learned one");
}

// ---- policy registry ------------------------------------------------------

TEST(Registry, UnknownNamesThrowListingKnown) {
  const exp::PolicyRegistry& reg = exp::PolicyRegistry::global();
  const exp::Instance inst = exp::make_instance(7u, exp::InstanceConfig{});
  core::AlgorithmParams params;
  util::Rng rng(1u);
  try {
    (void)reg.run_offline("NoSuchAlgorithm", inst, params, rng);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("Appro"), std::string::npos);
  }
  EXPECT_THROW((void)reg.make_online("NoSuchPolicy", inst.topo, params,
                                     sim::DynamicRrParams{}, util::Rng(1u)),
               std::invalid_argument);
}

TEST(Registry, ResolvePolicyPrefixRules) {
  const exp::PolicyRegistry& reg = exp::PolicyRegistry::global();
  // Bare names on exactly one side resolve there regardless of horizon.
  EXPECT_FALSE(exp::resolve_policy(reg, "Appro", 600).online);
  EXPECT_TRUE(exp::resolve_policy(reg, "DynamicRR", 0).online);
  // Names on both sides resolve by horizon...
  EXPECT_FALSE(exp::resolve_policy(reg, "Greedy", 0).online);
  EXPECT_TRUE(exp::resolve_policy(reg, "Greedy", 600).online);
  // ...and the prefix forces a side and is stripped.
  const exp::ResolvedPolicy off = exp::resolve_policy(reg, "offline:OCORP", 600);
  EXPECT_FALSE(off.online);
  EXPECT_EQ(off.name, "OCORP");
  EXPECT_TRUE(exp::resolve_policy(reg, "online:HeuKKT", 0).online);
  EXPECT_THROW((void)exp::resolve_policy(reg, "offline:DynamicRR", 0),
               std::invalid_argument);
  EXPECT_THROW((void)exp::resolve_policy(reg, "nope", 600),
               std::invalid_argument);
}

// ---- series collection ----------------------------------------------------

TEST(SeriesCollector, AddBeforeStartPointIsStructuredError) {
  exp::SeriesCollector series({"Appro"});
  EXPECT_THROW(series.add("Appro", 1.0), std::logic_error);
  series.start_point();
  EXPECT_NO_THROW(series.add("Appro", 1.0));
  EXPECT_THROW(series.add("Unknown", 1.0), std::out_of_range);
  EXPECT_DOUBLE_EQ(series.mean_at("Appro", 0), 1.0);
}

// ---- runner golden check --------------------------------------------------

// The runner must reproduce the hand-written loop every figure bench ran
// before the refactor: per sweep point, per seed, one instance with common
// random numbers, one policy run seeded Rng(seed + offset), means in seed
// order. Exact equality, not tolerance — the refactor's contract is
// bit-identical output.
TEST(Runner, MatchesLegacyHandLoop) {
  const std::vector<double> points{30, 50};
  const int horizon = 60;
  const int num_seeds = 2;
  const std::vector<std::string> names{"DynamicRR", "Greedy"};

  exp::ScenarioSpec spec;
  spec.name = "golden";
  spec.axis = exp::SweepAxis::kRequests;
  spec.points = points;
  spec.horizon = horizon;
  spec.policies = {{"DynamicRR", "DynamicRR"}, {"online:Greedy", "Greedy"}};
  spec.metrics = {"reward", "drops"};
  exp::Runner runner(spec);
  runner.set_seeds(num_seeds);
  const exp::Report report = runner.run();

  const exp::PolicyRegistry& reg = exp::PolicyRegistry::global();
  for (std::size_t p = 0; p < points.size(); ++p) {
    std::map<std::string, util::RunningStats> reward, drops;
    for (unsigned seed : exp::bench_seeds(num_seeds)) {
      exp::InstanceConfig config;
      config.num_requests = static_cast<int>(points[p]);
      config.horizon_slots = horizon;
      const exp::Instance inst = exp::make_instance(seed, config);
      sim::OnlineParams params;
      params.horizon_slots = horizon;
      for (const std::string& name : names) {
        auto policy =
            reg.make_online(name, inst.topo, core::AlgorithmParams{},
                            sim::DynamicRrParams{}, util::Rng(seed + 1));
        sim::OnlineSimulator simulator(inst.topo, inst.requests,
                                       inst.realized, params);
        const sim::OnlineMetrics m = simulator.run(*policy);
        reward[name].add(m.total_reward);
        drops[name].add(m.dropped);
      }
    }
    for (const std::string& name : names) {
      EXPECT_EQ(report.mean("reward", name, p), reward[name].mean())
          << name << " reward at point " << p;
      EXPECT_EQ(report.mean("drops", name, p), drops[name].mean())
          << name << " drops at point " << p;
    }
  }
}

TEST(Runner, RejectsBadSpecs) {
  exp::ScenarioSpec spec;
  spec.name = "bad";
  spec.axis = exp::SweepAxis::kRequests;  // axis set but no points
  spec.policies = {{"Appro", ""}};
  spec.metrics = {"reward"};
  EXPECT_THROW((void)exp::Runner(spec).run(), std::invalid_argument);

  spec.points = {10};
  spec.metrics = {"no_such_metric"};
  EXPECT_THROW((void)exp::Runner(spec).run(), std::invalid_argument);

  spec.metrics = {"reward"};
  spec.policies = {{"DynamicRR", ""}};  // online with horizon 0
  EXPECT_THROW((void)exp::Runner(spec).run(), std::invalid_argument);
}

double exp_trials() {
  obs::metrics();  // registers exp.trials
  return obs::registry().snapshot().find_counter("exp.trials")->value;
}

/// Runs `spec`, expecting std::invalid_argument mentioning `expected`
/// before any trial ran.
void expect_rejected_up_front(const exp::ScenarioSpec& spec,
                              const std::string& expected) {
  exp::Runner runner(spec);
  int observed = 0;
  runner.set_observer([&](const exp::TrialObservation&) { ++observed; });
  const double trials = exp_trials();
  try {
    (void)runner.run();
    ADD_FAILURE() << "ran instead of rejecting " << expected;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(observed, 0) << expected;
  EXPECT_EQ(exp_trials(), trials) << expected;
}

TEST(Runner, RejectsNonIntegerPointsBeforeAnyTrial) {
  exp::ScenarioSpec spec;
  spec.name = "points";
  spec.axis = exp::SweepAxis::kRequests;
  spec.seeds = 1;
  spec.horizon = 40;
  spec.policies = {{"online:Greedy", ""}};
  spec.metrics = {"reward"};
  // Each bad point follows a good one, which must not run either.
  spec.points = {20, 150.7};
  expect_rejected_up_front(spec, "point 150.7");
  spec.points = {20, 3e9};
  expect_rejected_up_front(spec, "point 3e+09");
  spec.points = {20, std::nan("")};
  expect_rejected_up_front(spec, "point nan");
  spec.axis = exp::SweepAxis::kKappa;
  spec.points = {2, 2.5};
  expect_rejected_up_front(spec, "point 2.5");
  // The horizon axis scales |R| by requests_per_slot: 4e9 is past int.
  spec.axis = exp::SweepAxis::kHorizon;
  spec.requests_per_slot = 1e8;
  spec.points = {40};
  expect_rejected_up_front(spec, "point 40");
}

TEST(Runner, RegretChecksEveryPointBeforeAnyTask) {
  exp::ScenarioSpec spec;
  spec.name = "regret_points";
  spec.kind = exp::ScenarioKind::kRegret;
  spec.axis = exp::SweepAxis::kHorizon;
  spec.seeds = 1;
  spec.requests_per_slot = 0.5;
  spec.points = {60, -5};
  expect_rejected_up_front(spec, "horizon > 0");
  spec.axis = exp::SweepAxis::kKappa;
  spec.horizon = 60;
  spec.points = {2, 2.5};
  expect_rejected_up_front(spec, "point 2.5");
}

TEST(Runner, RegretRequestsAxisChangesTheInstance) {
  // Each point of a regret sweep over |R| is the regret run of that |R|
  // alone, not of the base instance's.
  exp::ScenarioSpec spec;
  spec.name = "regret_requests";
  spec.kind = exp::ScenarioKind::kRegret;
  spec.axis = exp::SweepAxis::kRequests;
  spec.points = {20, 60};
  spec.seeds = 1;
  spec.horizon = 300;
  spec.rr.kappa = 2;
  const exp::Report sweep = exp::Runner(spec).run();
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    exp::ScenarioSpec alone = spec;
    alone.axis = exp::SweepAxis::kNone;
    alone.points.clear();
    alone.base.num_requests = static_cast<int>(spec.points[p]);
    const exp::Report report = exp::Runner(alone).run();
    for (const char* series : {"best fixed", "DynamicRR"}) {
      EXPECT_EQ(sweep.mean("reward", series, p),
                report.mean("reward", series, 0))
          << series << " at |R| = " << spec.points[p];
    }
  }
  EXPECT_LT(sweep.mean("reward", "DynamicRR", 0),
            sweep.mean("reward", "DynamicRR", 1));
}

TEST(Runner, RegretRejectsFaultsAndMobilityBeforeAnyTask) {
  // Regret tasks run fault-free and unmoved: a chaos axis, a chaos
  // intensity, a fault plan or mobility would be silently ignored.
  exp::ScenarioSpec base;
  base.name = "regret_faults";
  base.kind = exp::ScenarioKind::kRegret;
  base.seeds = 1;
  base.horizon = 60;
  base.base.num_requests = 20;
  const std::string expected = "no chaos, fault_plan or mobility";

  exp::ScenarioSpec spec = base;
  spec.axis = exp::SweepAxis::kChaosIntensity;
  spec.points = {0, 1};
  expect_rejected_up_front(spec, expected);
  spec = base;
  spec.chaos_intensity = 0.5;
  expect_rejected_up_front(spec, expected);
  spec = base;
  spec.fault_plan_path = "never_opened.plan";
  expect_rejected_up_front(spec, expected);
  spec = base;
  spec.mobility = {{3, 30, 1}};
  expect_rejected_up_front(spec, expected);
}

TEST(Runner, ChaosSweepKeepsResilienceAccounting) {
  // Every trial of a reduced chaos sweep must account for each request,
  // drop and displacement exactly once, and intensity 0 must reproduce
  // the fault-free reference run bit for bit.
  exp::ScenarioSpec spec;
  spec.name = "resilience_accounting";
  spec.axis = exp::SweepAxis::kChaosIntensity;
  spec.points = {0.0, 0.75};
  spec.seeds = 2;
  spec.horizon = 150;
  spec.base.num_requests = 60;
  spec.policies = {{"DynamicRR", "DynamicRR"},
                   {"online:Greedy", "Greedy"},
                   {"online:OCORP", "OCORP"},
                   {"online:HeuKKT", "HeuKKT"}};
  spec.metrics = {"reward"};
  exp::Runner runner(spec);
  int observed = 0;
  double displaced_under_chaos = 0.0;
  runner.set_observer([&](const exp::TrialObservation& o) {
    ++observed;
    const std::map<std::string, double>& m = *o.metrics;
    SCOPED_TRACE(*o.policy + ", seed " + std::to_string(o.seed) +
                 ", intensity " + std::to_string(o.point_value));
    EXPECT_EQ(m.at("completed") + m.at("drops") + m.at("unfinished"),
              m.at("arrived"));
    EXPECT_EQ(m.at("dropped_starvation") + m.at("dropped_fault") +
                  m.at("dropped_partition"),
              m.at("drops"));
    EXPECT_EQ(m.at("displaced_outage") + m.at("displaced_partition"),
              m.at("displaced"));
    EXPECT_LE(m.at("recovered") + m.at("unrecovered"), m.at("displaced"));
    if (m.at("recovered") == 0.0) {
      EXPECT_EQ(m.at("mean_recovery_slots"), 0.0);
    }
    EXPECT_GE(m.at("fault_dropped_expected_reward"), 0.0);
    if (o.point_value == 0.0) {
      // Few sessions complete in 150 slots, so the reward alone would
      // rarely show a fault; an applied plan would count its epochs.
      EXPECT_EQ(m.at("reward"), m.at("baseline_reward"));
      EXPECT_EQ(m.at("fault_epochs"), 0.0);
      EXPECT_EQ(m.at("displaced"), 0.0);
    } else {
      displaced_under_chaos += m.at("displaced");
    }
  });
  (void)runner.run();
  EXPECT_EQ(observed, 2 * 2 * 4);
  EXPECT_GT(displaced_under_chaos, 0.0) << "the chaos point faulted nothing";
}

TEST(Runner, ChaosTrialFaultsWithTheSharedChaosPlan) {
  // A chaos trial faults with exp::chaos_plan of its seed, the plan
  // `mecar_cli resilience --emit-plan` prints: one seed of a chaos spec
  // through the runner equals a hand run of make_instance plus that plan.
  const int horizon = 300;
  const int num_requests = 150;
  const double intensity = 1.0;
  exp::ScenarioSpec spec;
  spec.name = "chaos_plan";
  spec.axis = exp::SweepAxis::kRequests;
  spec.points = {static_cast<double>(num_requests)};
  spec.seeds = 1;
  spec.horizon = horizon;
  spec.chaos_intensity = intensity;
  spec.policies = {{"online:Greedy", "Greedy"}};
  spec.metrics = {"reward"};
  exp::Runner runner(spec);
  std::map<std::string, double> observed;
  runner.set_observer(
      [&](const exp::TrialObservation& o) { observed = *o.metrics; });
  (void)runner.run();

  const unsigned seed = exp::bench_seeds(1).front();
  exp::InstanceConfig config;
  config.num_requests = num_requests;
  config.horizon_slots = horizon;
  const exp::Instance inst = exp::make_instance(seed, config);
  const auto run = [&](const sim::OnlineParams& params) {
    auto policy = exp::PolicyRegistry::global().make_online(
        "Greedy", inst.topo, core::AlgorithmParams{}, sim::DynamicRrParams{},
        util::Rng(seed + 1));
    sim::OnlineSimulator simulator(inst.topo, inst.requests, inst.realized,
                                   params);
    return simulator.run(*policy);
  };
  sim::OnlineParams params;
  params.horizon_slots = horizon;
  const sim::OnlineMetrics ref = run(params);
  params.faults = exp::chaos_plan(inst.topo, intensity, horizon, seed);
  const sim::OnlineMetrics faulted = run(params);
  ASSERT_GT(faulted.resilience.fault_epochs, 0);
  ASSERT_NE(faulted.total_reward, ref.total_reward);
  EXPECT_EQ(observed.at("baseline_reward"), ref.total_reward);
  EXPECT_EQ(observed.at("reward"), faulted.total_reward);
  EXPECT_EQ(observed.at("drops"), faulted.dropped);
  EXPECT_EQ(observed.at("displaced"), faulted.displaced);
  EXPECT_EQ(observed.at("fault_epochs"), faulted.resilience.fault_epochs);
  EXPECT_EQ(observed.at("dropped_fault"), faulted.resilience.dropped_fault);
}

TEST(Runner, ChaosLeavesOfflineOnlySweepsAlone) {
  // Chaos plans fault online runs only; a sweep without an online policy
  // builds no online instance to draw one on.
  exp::ScenarioSpec spec;
  spec.name = "offline_chaos";
  spec.axis = exp::SweepAxis::kRequests;
  spec.points = {20};
  spec.seeds = 1;
  spec.policies = {{"offline:Greedy", ""}};
  spec.metrics = {"reward", "admitted"};
  const exp::Report calm = exp::Runner(spec).run();
  spec.chaos_intensity = 0.5;
  const exp::Report chaos = exp::Runner(spec).run();
  EXPECT_EQ(chaos.mean("reward", "Greedy", 0),
            calm.mean("reward", "Greedy", 0));
  EXPECT_EQ(chaos.mean("admitted", "Greedy", 0),
            calm.mean("admitted", "Greedy", 0));
}

TEST(Report, LoadRejectsSeriesThatDoNotMatchItsPoints) {
  // A checkpointed report whose series disagree with its points would
  // index past them on the next add or table row.
  const auto payload = [](std::size_t series_points, std::size_t points) {
    const auto strings = [](util::SnapshotWriter& w,
                            const std::vector<std::string>& v) {
      w.vec(v, [&](const std::string& x) { w.str(x); });
    };
    util::SnapshotWriter w;
    w.str("shape");
    w.str("|R|");
    strings(w, {"reward"});
    strings(w, {"Appro"});
    w.u64(1);
    w.str("reward");
    exp::SeriesCollector series({"Appro"});
    for (std::size_t p = 0; p < series_points; ++p) series.start_point();
    series.save(w);
    w.vec(std::vector<double>(points, 10.0), [&](double v) { w.f64(v); });
    strings(w, std::vector<std::string>(points, "10"));
    return w.payload();
  };
  exp::Report report;
  const std::vector<std::uint8_t> fits = payload(2, 2);
  util::SnapshotReader good = util::SnapshotReader::unframed(fits);
  EXPECT_NO_THROW(report.load(good));
  const std::vector<std::uint8_t> misfits = payload(3, 2);
  util::SnapshotReader bad = util::SnapshotReader::unframed(misfits);
  EXPECT_THROW(report.load(bad), util::SnapshotParseError);
}

// ---- json writer ----------------------------------------------------------

TEST(JsonWriter, EscapesAndFormats) {
  EXPECT_EQ(util::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(util::json_escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(util::json_number(3.0), "3");
  EXPECT_EQ(util::json_number(0.5), "0.5");
  EXPECT_EQ(util::json_number(std::nan("")), "null");

  std::ostringstream os;
  util::JsonWriter w(os, 0);
  w.begin_object();
  w.field("name", "fig \"4\"");
  w.key("xs").begin_array().value(1).value(2.5).end_array();
  w.end_object();
  EXPECT_TRUE(w.done());
  EXPECT_EQ(os.str(), "{\"name\":\"fig \\\"4\\\"\",\"xs\":[1,2.5]}\n");
}

TEST(JsonWriter, MisuseThrows) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  EXPECT_THROW(w.value(1.0), std::logic_error);  // value without key
  EXPECT_THROW(w.end_array(), std::logic_error);  // unbalanced
}

}  // namespace
