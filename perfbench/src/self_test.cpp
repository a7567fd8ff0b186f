#include "self_test.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exp/instance.h"
#include "exp/registry.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "harness.h"
#include "mec/request.h"
#include "mec/topology.h"
#include "mec/workload.h"
#include "sim/dynamic_rr.h"
#include "sim/online_sim.h"
#include "util/stats.h"

namespace perfbench {

namespace {

namespace core = mecar::core;
namespace exp = mecar::exp;
namespace mec = mecar::mec;
namespace sim = mecar::sim;
namespace util = mecar::util;

using Failures = std::vector<std::string>;

void expect(Failures& failures, bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

void test_percentiles(Failures& failures) {
  expect(failures, exact_percentile({3.0, 1.0, 2.0}, 50.0) == 2.0,
         "p50 of {3,1,2} is not 2");
  expect(failures, exact_percentile({4.0, 1.0, 3.0, 2.0}, 50.0) == 2.5,
         "p50 of {1..4} is not 2.5");
  expect(failures, exact_percentile({7.0}, 95.0) == 7.0,
         "p95 of one sample is not the sample");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(failures, exact_percentile(hundred, 0.0) == 1.0 &&
                       exact_percentile(hundred, 100.0) == 100.0,
         "p0/p100 of 1..100 are not the extremes");
  const std::vector<std::vector<double>> inputs = {
      hundred, {0.5, 0.25, 8.0, 3.5, 3.5, 1e-3, 42.0}, {2.0, 2.0}};
  for (const std::vector<double>& in : inputs) {
    for (const double pct : {0.0, 5.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
      expect(failures,
             exact_percentile(in, pct) == util::percentile_unsorted(in, pct),
             "exact_percentile differs from util::percentile at p" +
                 std::to_string(pct));
    }
  }
}

void test_slot_intervals(Failures& failures) {
  // Entries at 0, 10, 30, 60 ms, last feedback exit at 100 ms: slot times
  // 10, 20, 30, 40; slots 0, 2 and 3 busy.
  std::vector<SlotRecord> records(4);
  const double entries[] = {0.0, 10.0, 30.0, 60.0};
  const bool busy[] = {true, false, true, true};
  for (std::size_t t = 0; t < records.size(); ++t) {
    records[t].entry_ms = entries[t];
    records[t].busy = busy[t];
    records[t].awaiting = busy[t] ? static_cast<int>(t) + 1 : 0;
  }
  SlotSummary s;
  s.add(records, 100.0, 35.0);
  expect(failures,
         s.busy_slot_ms == std::vector<double>({10.0, 30.0, 40.0}) &&
             s.slots == 4 && s.busy_slots == 3 && s.overruns == 1 &&
             s.awaiting_sum == 1.0 + 3.0 + 4.0 && s.span_ms == 100.0,
         "slot intervals from decide() entries are wrong");
  expect(failures, exact_percentile(s.busy_slot_ms, 50.0) == 30.0,
         "busy-slot p50 of {10,30,40} is not 30");
}

/// Places each waiting request on station 0 two slots after it arrives
/// and keeps every placed stream active.
class DeferringPolicy final : public sim::OnlinePolicy {
 public:
  sim::SlotDecision decide(const sim::SlotView& view) override {
    sim::SlotDecision d;
    for (const int j : view.pending) {
      const sim::RequestState& st = (*view.states)[static_cast<std::size_t>(j)];
      const int arrival =
          (*view.requests)[static_cast<std::size_t>(j)].arrival_slot;
      if (st.station >= 0) {
        d.active.push_back({j, st.station});
      } else if (view.slot >= arrival + 2) {
        d.active.push_back({j, 0});
      }
    }
    return d;
  }
  std::string name() const override { return "deferring"; }
};

void test_busy_slots(Failures& failures) {
  const mec::Topology topo({{0, 3000.0, 1.0, 0.0, 0.0}, {1, 3000.0, 1.0, 1.0, 0.0}},
                           {{0, 1, 2.0}});
  std::vector<mec::ARRequest> requests(2);
  for (int j = 0; j < 2; ++j) {
    mec::ARRequest& r = requests[static_cast<std::size_t>(j)];
    r.id = j;
    r.home_station = 0;
    r.tasks = mec::ar_pipeline(3);
    r.demand = mec::RateRewardDist({{30.0, 1.0, 10.0}});
    r.latency_budget_ms = 1e6;  // never dropped
    r.arrival_slot = j == 0 ? 1 : 4;
    r.duration_slots = 40;  // still streaming at the horizon
  }
  sim::OnlineParams params;
  params.horizon_slots = 12;
  sim::OnlineSimulator simulator(topo, requests, {0, 0}, params);
  TimedPolicy policy(std::make_unique<DeferringPolicy>(), true);
  const sim::OnlineMetrics m = simulator.run(policy);

  // Awaiting placement: request 0 in slots 1-3, request 1 in slots 4-6.
  // Slots 7-11 still have pending (streaming) requests but none awaits
  // placement, so they are not busy.
  std::vector<int> busy;
  std::vector<int> awaiting;
  for (std::size_t t = 0; t < policy.records().size(); ++t) {
    if (policy.records()[t].busy) busy.push_back(static_cast<int>(t));
    awaiting.push_back(policy.records()[t].awaiting);
  }
  expect(failures, policy.records().size() == 12,
         "the wrapper did not see all 12 slots");
  expect(failures, busy == std::vector<int>({1, 2, 3, 4, 5, 6}),
         "busy slots of the hand-built instance are not 1..6");
  expect(failures,
         awaiting == std::vector<int>({0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0}),
         "awaiting-queue lengths of the hand-built instance are wrong");
  expect(failures, m.arrived == 2 && m.unfinished == 2,
         "hand-built instance: both requests should still stream at the end");
}

void test_wrapper_is_transparent(Failures& failures) {
  exp::InstanceConfig config;
  config.num_stations = 20;
  config.num_requests = 300;
  config.horizon_slots = 200;
  const exp::Instance inst = exp::make_instance(3u, config);
  sim::OnlineParams params;
  params.horizon_slots = 200;
  sim::OnlineSimulator simulator(inst.topo, inst.requests, inst.realized,
                                 params);
  sim::DynamicRrPolicy bare(inst.topo, core::AlgorithmParams{},
                            sim::DynamicRrParams{}, util::Rng(4u));
  const sim::OnlineMetrics a = simulator.run(bare);
  for (const bool traced : {false, true}) {
    TimedPolicy wrapped(std::make_unique<sim::DynamicRrPolicy>(
                            inst.topo, core::AlgorithmParams{},
                            sim::DynamicRrParams{}, util::Rng(4u)),
                        traced);
    const sim::OnlineMetrics b = simulator.run(wrapped);
    expect(failures, same_outcome(a, b) && a.completed > 0,
           std::string("a wrapped DynamicRR run differs from a bare one") +
               (traced ? " (traced)" : ""));
  }

  // The same through exp::Runner: the wrapping registry must leave every
  // trial output unchanged.
  exp::ScenarioSpec spec;
  spec.name = "self_test";
  spec.seeds = 1;
  spec.horizon = 150;
  spec.base.num_requests = 80;
  spec.policies = {{"DynamicRR", ""}, {"online:Greedy", ""}};
  spec.metrics = {"reward"};
  const auto collect = [&](const exp::PolicyRegistry& registry) {
    exp::Runner runner(spec, registry);
    std::vector<std::map<std::string, double>> seen;
    runner.set_observer(
        [&](const exp::TrialObservation& o) { seen.push_back(*o.metrics); });
    runner.run();
    return seen;
  };
  SlotSink sink;
  const auto plain = collect(exp::PolicyRegistry::global());
  const auto timed = collect(timed_registry(sink, true));
  expect(failures, plain == timed && plain.size() == 2,
         "the wrapping registry changed exp::Runner's trial outputs");
  expect(failures, sink.take().slots == 2 * 150,
         "the wrapping registry did not see both online runs");
}

}  // namespace

std::vector<std::string> self_test() {
  Failures failures;
  test_percentiles(failures);
  test_slot_intervals(failures);
  test_busy_slots(failures);
  test_wrapper_is_transparent(failures);
  return failures;
}

}  // namespace perfbench
