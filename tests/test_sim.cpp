// Tests for the online simulator: water-filling, lifecycle (arrival,
// scheduling, preemption, completion, starvation), latency accounting, and
// the DynamicRR / online-baseline policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exp/instance.h"
#include "mec/workload.h"
#include "sim/dynamic_rr.h"
#include "sim/online_baselines.h"
#include "sim/online_sim.h"
#include "util/rng.h"

namespace mecar::sim {
namespace {

mec::Topology one_station(double capacity = 2000.0) {
  std::vector<mec::BaseStation> stations{{0, capacity, 1.0, 0.0, 0.0}};
  return mec::Topology(std::move(stations), {});
}

mec::ARRequest stream(int id, double rate, int arrival, int duration,
                      double reward = 500.0) {
  mec::ARRequest req;
  req.id = id;
  req.home_station = 0;
  req.tasks = mec::ar_pipeline(3);
  req.demand = mec::RateRewardDist({{rate, 1.0, reward}});
  req.latency_budget_ms = 200.0;
  req.arrival_slot = arrival;
  req.duration_slots = duration;
  return req;
}

/// Test policy: schedules every waiting request at station 0 immediately
/// and keeps all residents active.
class EagerPolicy final : public OnlinePolicy {
 public:
  SlotDecision decide(const SlotView& view) override {
    SlotDecision d;
    for (int j : view.pending) d.active.push_back({j, 0});
    return d;
  }
  std::string name() const override { return "Eager"; }
};

/// Test policy: never schedules anything.
class IdlePolicy final : public OnlinePolicy {
 public:
  SlotDecision decide(const SlotView&) override { return {}; }
  std::string name() const override { return "Idle"; }
};

TEST(Waterfill, EqualSplitWhenUncapped) {
  const auto alloc = waterfill(900.0, {1000.0, 1000.0, 1000.0});
  ASSERT_EQ(alloc.size(), 3u);
  for (double a : alloc) EXPECT_NEAR(a, 300.0, 1e-9);
}

TEST(Waterfill, CapsAreRespectedAndSurplusRedistributed) {
  const auto alloc = waterfill(1200.0, {100.0, 1000.0, 1000.0});
  EXPECT_NEAR(alloc[0], 100.0, 1e-9);
  EXPECT_NEAR(alloc[1], 550.0, 1e-9);
  EXPECT_NEAR(alloc[2], 550.0, 1e-9);
}

TEST(Waterfill, SurplusCapacityLeftUnused) {
  const auto alloc = waterfill(5000.0, {300.0, 200.0});
  EXPECT_NEAR(alloc[0], 300.0, 1e-9);
  EXPECT_NEAR(alloc[1], 200.0, 1e-9);
}

TEST(Waterfill, EdgeCases) {
  EXPECT_TRUE(waterfill(100.0, {}).empty());
  const auto zero = waterfill(0.0, {10.0});
  EXPECT_DOUBLE_EQ(zero[0], 0.0);
  EXPECT_THROW(waterfill(10.0, {-1.0}), std::invalid_argument);
}

TEST(Waterfill, ZeroCapacityGivesAllZeros) {
  const auto alloc = waterfill(0.0, {100.0, 250.0, 75.0});
  ASSERT_EQ(alloc.size(), 3u);
  for (double a : alloc) EXPECT_DOUBLE_EQ(a, 0.0);
}

TEST(Waterfill, AllZeroDemandsGetNothing) {
  const auto alloc = waterfill(1000.0, {0.0, 0.0, 0.0});
  ASSERT_EQ(alloc.size(), 3u);
  for (double a : alloc) EXPECT_DOUBLE_EQ(a, 0.0);
}

TEST(Waterfill, SingleSaturatingDemandGetsWholeCapacity) {
  const auto alloc = waterfill(100.0, {250.0});
  ASSERT_EQ(alloc.size(), 1u);
  EXPECT_NEAR(alloc[0], 100.0, 1e-9);
}

TEST(Waterfill, EvenSplitWhenNoDemandSaturates) {
  // Every demand exceeds the fair share, so nobody caps out and the split
  // is exactly even regardless of how lopsided the demands are.
  const auto alloc = waterfill(400.0, {900.0, 800.0, 700.0, 600.0});
  ASSERT_EQ(alloc.size(), 4u);
  for (double a : alloc) EXPECT_NEAR(a, 100.0, 1e-9);
}

TEST(Waterfill, ConservesCapacityUnderOverload) {
  util::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> demands;
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    double total_demand = 0.0;
    for (int i = 0; i < n; ++i) {
      demands.push_back(rng.uniform(0.0, 500.0));
      total_demand += demands.back();
    }
    const double cap = rng.uniform(50.0, 1500.0);
    const auto alloc = waterfill(cap, demands);
    double used = 0.0;
    for (std::size_t i = 0; i < alloc.size(); ++i) {
      EXPECT_LE(alloc[i], demands[i] + 1e-9);
      used += alloc[i];
    }
    EXPECT_LE(used, cap + 1e-6);
    // Work-conserving: uses min(cap, total demand).
    EXPECT_NEAR(used, std::min(cap, total_demand), 1e-6);
  }
}

TEST(OnlineSimulator, SingleStreamCompletesOnSchedule) {
  const mec::Topology topo = one_station();
  // Rate 50 -> demand 1000 MHz <= capacity; duration 4 slots.
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 2, 4)};
  OnlineParams params;
  params.horizon_slots = 20;
  OnlineSimulator sim(topo, requests, {0}, params);
  EagerPolicy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.arrived, 1);
  EXPECT_EQ(m.completed, 1);
  EXPECT_EQ(m.dropped, 0);
  EXPECT_DOUBLE_EQ(m.total_reward, 500.0);
  // Scheduled at its arrival slot: zero waiting, placement latency only.
  EXPECT_NEAR(m.avg_latency_ms, mec::placement_latency_ms(topo, requests[0], 0),
              1e-9);
  // Completion lands exactly `duration` slots after first service.
  double collected = 0.0;
  for (std::size_t t = 0; t < m.per_slot_reward.size(); ++t) {
    if (m.per_slot_reward[t] > 0.0) {
      EXPECT_EQ(t, 5u);  // slots 2..5 process 4 slots of work
      collected += m.per_slot_reward[t];
    }
  }
  EXPECT_DOUBLE_EQ(collected, 500.0);
}

TEST(OnlineSimulator, SharingStretchesSessions) {
  const mec::Topology topo = one_station(1000.0);
  // Two rate-50 streams (1000 MHz each) share 1000 MHz: each gets half
  // speed, so a 4-slot session takes 8 slots.
  std::vector<mec::ARRequest> requests{
      stream(0, 50.0, 0, 4),
      stream(1, 50.0, 0, 4),
  };
  OnlineParams params;
  params.horizon_slots = 30;
  OnlineSimulator sim(topo, requests, {0, 0}, params);
  EagerPolicy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.completed, 2);
  for (std::size_t t = 0; t < m.per_slot_reward.size(); ++t) {
    if (m.per_slot_reward[t] > 0.0) {
      EXPECT_EQ(t, 7u);  // both finish at slot 7
    }
  }
}

TEST(OnlineSimulator, UnservedRequestsStarve) {
  const mec::Topology topo = one_station();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 4)};
  OnlineParams params;
  params.horizon_slots = 20;
  OnlineSimulator sim(topo, requests, {0}, params);
  IdlePolicy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.completed, 0);
  EXPECT_EQ(m.dropped, 1);
  EXPECT_DOUBLE_EQ(m.total_reward, 0.0);
}

TEST(OnlineSimulator, LateSchedulingAddsWaitingLatency) {
  const mec::Topology topo = one_station();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 2)};
  OnlineParams params;
  params.horizon_slots = 20;

  class DelayedPolicy final : public OnlinePolicy {
   public:
    SlotDecision decide(const SlotView& view) override {
      SlotDecision d;
      if (view.slot >= 2) {
        for (int j : view.pending) d.active.push_back({j, 0});
      }
      return d;
    }
    std::string name() const override { return "Delayed"; }
  };

  OnlineSimulator sim(topo, requests, {0}, params);
  DelayedPolicy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.completed, 1);
  EXPECT_NEAR(m.avg_latency_ms,
              2 * params.slot_ms +
                  mec::placement_latency_ms(topo, requests[0], 0),
              1e-9);
}

TEST(OnlineSimulator, PreemptionPausesWithoutLosingProgress) {
  const mec::Topology topo = one_station();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 4)};
  OnlineParams params;
  params.horizon_slots = 30;

  // Serve slots 0-1, pause 2-9, resume at 10.
  class PausingPolicy final : public OnlinePolicy {
   public:
    SlotDecision decide(const SlotView& view) override {
      SlotDecision d;
      if (view.slot < 2 || view.slot >= 10) {
        for (int j : view.pending) d.active.push_back({j, 0});
      }
      return d;
    }
    std::string name() const override { return "Pausing"; }
  };

  OnlineSimulator sim(topo, requests, {0}, params);
  PausingPolicy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.completed, 1);  // 2 slots + 2 slots after resume
  for (std::size_t t = 0; t < m.per_slot_reward.size(); ++t) {
    if (m.per_slot_reward[t] > 0.0) {
      EXPECT_EQ(t, 11u);
    }
  }
  // Latency was fixed at first service (slot 0): no waiting.
  EXPECT_NEAR(m.avg_latency_ms,
              mec::placement_latency_ms(topo, requests[0], 0), 1e-9);
}

TEST(OnlineSimulator, LatencyViolatingPlacementIsIgnored) {
  // Station 1 is too far for the budget; an activation there is refused
  // and the request eventually starves.
  std::vector<mec::BaseStation> stations{
      {0, 2000.0, 1.0, 0.0, 0.0},
      {1, 2000.0, 1.0, 1.0, 0.0},
  };
  std::vector<mec::Link> links{{0, 1, 150.0}};  // 2x150 > 200 budget
  const mec::Topology topo(std::move(stations), std::move(links));
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 2)};

  class FarPolicy final : public OnlinePolicy {
   public:
    SlotDecision decide(const SlotView& view) override {
      SlotDecision d;
      for (int j : view.pending) d.active.push_back({j, 1});
      return d;
    }
    std::string name() const override { return "Far"; }
  };

  OnlineParams params;
  params.horizon_slots = 10;
  OnlineSimulator sim(topo, requests, {0}, params);
  FarPolicy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.completed, 0);
  EXPECT_EQ(m.dropped, 1);
}

TEST(OnlineSimulator, ValidatesInput) {
  const mec::Topology topo = one_station();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 2)};
  OnlineParams params;
  EXPECT_THROW(OnlineSimulator(topo, requests, {}, params),
               std::invalid_argument);
  params.horizon_slots = 0;
  EXPECT_THROW(OnlineSimulator(topo, requests, {0}, params),
               std::invalid_argument);
}

TEST(OnlineSimulator, BadActivationIndexThrows) {
  const mec::Topology topo = one_station();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 2)};
  OnlineParams params;
  params.horizon_slots = 5;

  class BadPolicy final : public OnlinePolicy {
   public:
    SlotDecision decide(const SlotView&) override {
      SlotDecision d;
      d.active.push_back({42, 0});
      return d;
    }
    std::string name() const override { return "Bad"; }
  };

  OnlineSimulator sim(topo, requests, {0}, params);
  BadPolicy policy;
  EXPECT_THROW(sim.run(policy), std::out_of_range);
}

TEST(SlotView, WaitingMsAtPoolBoundaries) {
  // First and last request index of the pool, plus a pre-horizon arrival
  // (negative arrival slots accrue waiting from their true arrival time).
  std::vector<mec::ARRequest> requests(3);
  requests[0].arrival_slot = 0;
  requests[1].arrival_slot = -4;
  requests[2].arrival_slot = 9;
  std::vector<RequestState> states(3);
  SlotView view;
  view.slot = 10;
  view.slot_ms = 50.0;
  view.requests = &requests;
  view.states = &states;
  EXPECT_EQ(view.waiting_ms(0), 500.0);
  EXPECT_EQ(view.waiting_ms(1), 700.0);
  EXPECT_EQ(view.waiting_ms(2), 50.0);  // last pool index
}

// --- End-to-end policy comparisons ---------------------------------------

struct OnlineSetup {
  mec::Topology topo;
  std::vector<mec::ARRequest> requests;
  std::vector<std::size_t> realized;
  OnlineParams params;
};

OnlineSetup make_setup(unsigned seed, int num_requests) {
  util::Rng rng(seed);
  mec::TopologyParams tparams;
  tparams.num_stations = 12;
  mec::Topology topo = mec::generate_topology(tparams, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = num_requests;
  wparams.horizon_slots = 400;
  auto requests = mec::generate_requests(wparams, topo, rng);
  auto realized = core::realize_demand_levels(requests, rng);
  OnlineParams params;
  params.horizon_slots = 400;
  return {std::move(topo), std::move(requests), std::move(realized), params};
}

TEST(OnlinePolicies, AllProduceValidMetrics) {
  const OnlineSetup setup = make_setup(3, 120);
  std::vector<std::unique_ptr<OnlinePolicy>> policies;
  policies.push_back(std::make_unique<DynamicRrPolicy>(
      setup.topo, core::AlgorithmParams{}, DynamicRrParams{}, util::Rng(4)));
  policies.push_back(std::make_unique<GreedyOnlinePolicy>(
      setup.topo, core::AlgorithmParams{}));
  policies.push_back(std::make_unique<OcorpOnlinePolicy>(
      setup.topo, core::AlgorithmParams{}));
  policies.push_back(std::make_unique<HeuKktOnlinePolicy>(
      setup.topo, core::AlgorithmParams{}));
  for (auto& policy : policies) {
    OnlineSimulator sim(setup.topo, setup.requests, setup.realized,
                        setup.params);
    const auto m = sim.run(*policy);
    EXPECT_EQ(m.arrived, 120) << policy->name();
    EXPECT_EQ(m.completed + m.dropped + m.unfinished, m.arrived)
        << policy->name();
    EXPECT_GT(m.total_reward, 0.0) << policy->name();
    EXPECT_GE(m.avg_latency_ms, 0.0) << policy->name();
    EXPECT_LE(m.avg_latency_ms, 200.0) << policy->name();
    EXPECT_EQ(m.per_slot_reward.size(), 400u) << policy->name();
  }
}

TEST(OnlinePolicies, DynamicRrBeatsLocalBaselinesUnderLoad) {
  double dynamic_total = 0.0, greedy_total = 0.0, ocorp_total = 0.0;
  for (unsigned seed : {7u, 23u, 41u}) {
    const OnlineSetup setup = make_setup(seed, 220);
    {
      DynamicRrPolicy policy(setup.topo, core::AlgorithmParams{},
                             DynamicRrParams{}, util::Rng(seed + 1));
      OnlineSimulator sim(setup.topo, setup.requests, setup.realized,
                          setup.params);
      dynamic_total += sim.run(policy).total_reward;
    }
    {
      GreedyOnlinePolicy policy(setup.topo, core::AlgorithmParams{});
      OnlineSimulator sim(setup.topo, setup.requests, setup.realized,
                          setup.params);
      greedy_total += sim.run(policy).total_reward;
    }
    {
      OcorpOnlinePolicy policy(setup.topo, core::AlgorithmParams{});
      OnlineSimulator sim(setup.topo, setup.requests, setup.realized,
                          setup.params);
      ocorp_total += sim.run(policy).total_reward;
    }
  }
  EXPECT_GT(dynamic_total, 1.1 * greedy_total);
  EXPECT_GT(dynamic_total, 1.1 * ocorp_total);
}

TEST(DynamicRr, ThresholdStaysOnGrid) {
  const OnlineSetup setup = make_setup(11, 150);
  DynamicRrPolicy policy(setup.topo, core::AlgorithmParams{},
                         DynamicRrParams{}, util::Rng(12));
  OnlineSimulator sim(setup.topo, setup.requests, setup.realized,
                      setup.params);
  sim.run(policy);
  const auto& values = policy.grid().values();
  const double th = policy.last_threshold_mhz();
  EXPECT_NE(std::find_if(values.begin(), values.end(),
                         [&](double v) { return std::abs(v - th) < 1e-9; }),
            values.end());
  EXPECT_GE(policy.bandit().rounds(), 1);
  EXPECT_GE(policy.bandit().num_active(), 1);
}

TEST(DynamicRr, RespectsKappaParameter) {
  DynamicRrParams params;
  params.kappa = 9;
  const OnlineSetup setup = make_setup(13, 50);
  DynamicRrPolicy policy(setup.topo, core::AlgorithmParams{}, params,
                         util::Rng(14));
  EXPECT_EQ(policy.grid().num_arms(), 9);
  EXPECT_DOUBLE_EQ(policy.grid().spacing(),
                   (params.threshold_max_mhz - params.threshold_min_mhz) / 8);
}

TEST(DynamicRr, RejectsNonPositiveAndNonFiniteThresholds) {
  // A zero threshold would make the per-station quota floor(C / C^th)
  // divide by zero; non-finite bounds would put inf/NaN arms on the grid.
  const mec::Topology topo = one_station();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
           {0.0, 1100.0}, {-5.0, 1100.0}, {nan, 1100.0}, {500.0, nan},
           {500.0, inf}, {-inf, 1100.0}}) {
    DynamicRrParams params;
    params.threshold_min_mhz = lo;
    params.threshold_max_mhz = hi;
    EXPECT_THROW(DynamicRrPolicy(topo, core::AlgorithmParams{}, params,
                                 util::Rng(1)),
                 std::invalid_argument)
        << "range [" << lo << ", " << hi << "]";
  }
  DynamicRrParams pinned;
  pinned.threshold_min_mhz = 1e-3;
  pinned.threshold_max_mhz = 1e-3;
  EXPECT_NO_THROW(DynamicRrPolicy(topo, core::AlgorithmParams{}, pinned,
                                  util::Rng(1)));
}

TEST(OnlineBaselines, GreedyReservesPeakSoRewardedEqualsCompleted) {
  const OnlineSetup setup = make_setup(17, 150);
  GreedyOnlinePolicy policy(setup.topo, core::AlgorithmParams{});
  OnlineSimulator sim(setup.topo, setup.requests, setup.realized,
                      setup.params);
  const auto m = sim.run(policy);
  // Peak reservation -> admitted streams run at full speed and complete
  // exactly duration slots after first service; all completions rewarded.
  EXPECT_GT(m.completed, 0);
  // The total is exactly the sum of the per-slot series.
  double per_slot_sum = 0.0;
  for (double r : m.per_slot_reward) per_slot_sum += r;
  EXPECT_DOUBLE_EQ(m.total_reward, per_slot_sum);
}

}  // namespace
}  // namespace mecar::sim
