// Tests for the online simulator: water-filling, lifecycle (arrival,
// scheduling, preemption, completion, starvation), latency accounting, the
// DynamicRR / online-baseline policies, and the slot-pass contract
// (decision order and multiplicity, pinned per-policy run hashes, refused
// activations counted by cause).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <limits>
#include <map>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/instance.h"
#include "exp/registry.h"
#include "mec/workload.h"
#include "obs/telemetry.h"
#include "online_fixtures.h"
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

/// The allocating water-fill the engine used before its scratch buffers,
/// kept here as the reference the shared routine must match bit for bit.
std::vector<double> reference_waterfill(double capacity,
                                        const std::vector<double>& demands) {
  std::vector<double> alloc(demands.size(), 0.0);
  if (demands.empty() || capacity <= 0.0) return alloc;
  std::vector<std::size_t> open(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) open[i] = i;
  double remaining = capacity;
  while (!open.empty() && remaining > 1e-12) {
    const double share = remaining / static_cast<double>(open.size());
    std::vector<std::size_t> still_open;
    bool saturated_any = false;
    for (std::size_t i : open) {
      const double need = demands[i] - alloc[i];
      if (need <= share + 1e-12) {
        alloc[i] += need;
        remaining -= need;
        saturated_any = true;
      } else {
        still_open.push_back(i);
      }
    }
    if (!saturated_any) {
      for (std::size_t i : still_open) alloc[i] += share;
      break;
    }
    open = std::move(still_open);
  }
  return alloc;
}

TEST(Waterfill, ScratchBuffersMatchFreshOnesBitForBit) {
  // The engine water-fills station after station through one pair of
  // buffers, so each call starts from what a larger or smaller station
  // left there. Seeded vectors of 0-40 demands, with single-stream
  // stations, zero demands and zero capacity mixed in.
  util::Rng rng(2024);
  std::vector<double> alloc;
  std::vector<std::size_t> open;
  int single = 0;
  int zero_capacity = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto n = static_cast<std::size_t>(
        trial % 5 == 0 ? 1 : rng.uniform_int(0, 40));
    std::vector<double> demands(n);
    for (double& d : demands) {
      d = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.0, 900.0);
    }
    const double capacity =
        trial % 13 == 0 ? 0.0 : rng.uniform(0.0, 3000.0);
    single += n == 1 ? 1 : 0;
    zero_capacity += capacity == 0.0 ? 1 : 0;
    waterfill_into(capacity, demands, alloc, open);
    const std::vector<double> fresh = waterfill(capacity, demands);
    const std::vector<double> want = reference_waterfill(capacity, demands);
    ASSERT_EQ(alloc.size(), n) << "trial " << trial;
    ASSERT_EQ(fresh.size(), n) << "trial " << trial;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(alloc[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "trial " << trial << " demand " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fresh[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "trial " << trial << " demand " << i;
    }
  }
  EXPECT_GT(single, 500);
  EXPECT_GT(zero_capacity, 100);
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

// The simulator borrows its workload, so a temporary one must not bind.
static_assert(std::is_constructible_v<
              OnlineSimulator, const mec::Topology&,
              const std::vector<mec::ARRequest>&, std::vector<std::size_t>,
              OnlineParams>);
static_assert(!std::is_constructible_v<
              OnlineSimulator, const mec::Topology&,
              std::vector<mec::ARRequest>&&, std::vector<std::size_t>,
              OnlineParams>);

TEST(OnlineSimulator, ReadsTheCallersWorkloadUnlessItRehomes) {
  const mec::Topology topo = one_station();
  const std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 2),
                                             stream(1, 50.0, 1, 2)};
  class Recorder final : public OnlinePolicy {
   public:
    SlotDecision decide(const SlotView& view) override {
      seen = view.requests;
      return {};
    }
    std::string name() const override { return "Recorder"; }
    const std::vector<mec::ARRequest>* seen = nullptr;
  };
  OnlineParams params;
  params.horizon_slots = 3;
  {
    OnlineSimulator sim(topo, requests, {0, 0}, params);
    Recorder policy;
    (void)sim.run(policy);
    EXPECT_EQ(policy.seen, &requests);
  }
  // A run with mobility works on its own copy of the workload.
  params.mobility.push_back({1, 1, 0});
  OnlineSimulator sim(topo, requests, {0, 0}, params);
  Recorder policy;
  (void)sim.run(policy);
  EXPECT_NE(policy.seen, &requests);
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

TEST(OnlineSimulator, ScaleRunConservesRequestsAndTimesEverySlot) {
  // 200 stations and 2x10^4 requests packed into the first 120 of 600
  // slots, so most of the run drains a large live set: every arrival must
  // end completed, dropped or unfinished, and every slot must be timed.
  exp::InstanceConfig config;
  config.num_stations = 200;
  config.num_requests = 20000;
  config.horizon_slots = 120;  // the arrival window
  const exp::Instance inst = exp::make_instance(1u, config);
  OnlineParams params;
  params.horizon_slots = 600;
  DynamicRrPolicy policy(inst.topo, core::AlgorithmParams{}, DynamicRrParams{},
                         util::Rng(1));
  OnlineSimulator sim(inst.topo, inst.requests, inst.realized, params);
  obs::registry().reset();
  const OnlineMetrics m = sim.run(policy);
  EXPECT_EQ(m.arrived, 20000);
  EXPECT_EQ(m.completed + m.dropped + m.unfinished, m.arrived);
#if MECAR_TELEMETRY_ENABLED
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  const obs::HistogramSnapshot* slots = snap.find_histogram("sim.slot_wall_ms");
  ASSERT_NE(slots, nullptr);
  EXPECT_EQ(slots->count, 600u);
#endif
}

TEST(OnlineSimulator, FaultFreeDynamicRrComputesNoDelayRow) {
  // Set-up, candidate lists and the engine's budget checks all come from
  // bounded searches and the run's candidate memo: a fault-free DynamicRR
  // run computes no full delay row.
  exp::InstanceConfig config;
  config.num_stations = 200;
  config.num_requests = 600;
  config.horizon_slots = 60;
  const exp::Instance inst = exp::make_instance(3u, config);
  OnlineParams params;
  params.horizon_slots = 400;
  obs::registry().reset();
  OnlineSimulator sim(inst.topo, inst.requests, inst.realized, params);
  DynamicRrPolicy policy(inst.topo, core::AlgorithmParams{}, DynamicRrParams{},
                         util::Rng(3));
  const OnlineMetrics m = sim.run(policy);
  EXPECT_GT(m.completed, 0);
#if MECAR_TELEMETRY_ENABLED
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  const obs::CounterSnapshot* rows = snap.find_counter("mec.delay_rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->value, 0.0);
  const obs::CounterSnapshot* admissions = snap.find_counter("sim.admissions");
  ASSERT_NE(admissions, nullptr);
  EXPECT_GT(admissions->value, 0.0);
#endif
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

TEST(DynamicRr, TinyThresholdsLeaveTheStationQuotaUnlimited) {
  // threshold_range 1e-9 1e-8 makes floor(C / C^th) ~ 1e12, far above any
  // int: the quota must saturate, not wrap to a single stream. Four
  // newcomers arrive at slot 0 (no starvation exemption yet) on a station
  // with room for all of them.
  const mec::Topology topo = one_station(3600.0);
  std::vector<mec::ARRequest> requests;
  for (int id = 0; id < 4; ++id) requests.push_back(stream(id, 20.0, 0, 6));
  DynamicRrParams rr;
  rr.threshold_min_mhz = 1e-9;
  rr.threshold_max_mhz = 1e-8;

  /// Counts the first-slot placements of the wrapped policy.
  class FirstSlotCount final : public OnlinePolicy {
   public:
    explicit FirstSlotCount(OnlinePolicy& inner) : inner_(inner) {}
    SlotDecision decide(const SlotView& view) override {
      SlotDecision d = inner_.decide(view);
      if (view.slot == 0) placed = static_cast<int>(d.active.size());
      return d;
    }
    void feedback(const SlotFeedback& fb) override { inner_.feedback(fb); }
    std::string name() const override { return inner_.name(); }
    int placed = -1;

   private:
    OnlinePolicy& inner_;
  };

  DynamicRrPolicy policy(topo, core::AlgorithmParams{}, rr, util::Rng(5));
  FirstSlotCount counted(policy);
  OnlineParams params;
  params.horizon_slots = 20;
  OnlineSimulator sim(topo, requests, {0, 0, 0, 0}, params);
  const OnlineMetrics m = sim.run(counted);
  EXPECT_EQ(counted.placed, 4);
  EXPECT_EQ(m.completed, 4);
}

// --- Slot-pass contract ----------------------------------------------------

/// Wraps a policy and scrambles each slot's decision in the ways the slot
/// pass must not care about: activations in reverse order, each one
/// repeated, and stale entries (a completed, a dropped and a not yet
/// arrived request, with an invalid station) appended.
class ScramblingPolicy final : public OnlinePolicy {
 public:
  explicit ScramblingPolicy(std::unique_ptr<OnlinePolicy> inner)
      : inner_(std::move(inner)) {}
  SlotDecision decide(const SlotView& view) override {
    SlotDecision d = inner_->decide(view);
    std::reverse(d.active.begin(), d.active.end());
    const std::size_t n = d.active.size();
    for (std::size_t k = 0; k < n; ++k) d.active.push_back(d.active[k]);
    int completed = -1;
    int dropped = -1;
    int future = -1;
    for (std::size_t j = 0; j < view.states->size(); ++j) {
      const int ji = static_cast<int>(j);
      const Phase phase = (*view.states)[j].phase;
      if (completed < 0 && phase == Phase::kCompleted) completed = ji;
      if (dropped < 0 && phase == Phase::kDropped) dropped = ji;
      if (future < 0 && (*view.requests)[j].arrival_slot > view.slot) {
        future = ji;
      }
    }
    for (const int j : {completed, dropped, future}) {
      if (j < 0) continue;
      d.active.push_back({j, -1});
      ++stale;
    }
    return d;
  }
  void feedback(const SlotFeedback& fb) override { inner_->feedback(fb); }
  std::string name() const override { return inner_->name(); }
  long long stale = 0;

 private:
  std::unique_ptr<OnlinePolicy> inner_;
};

TEST(SlotPass, ScrambledDecisionsGiveIdenticalMetrics) {
  // The engine's outcome depends on which activations a decision holds,
  // not on their order or multiplicity, and stale entries change nothing.
  const exp::Instance inst = busy_instance(11, 260);
  OnlineParams healthy;
  healthy.horizon_slots = 260;
  healthy.collect_detail = true;
  OnlineParams chaos = chaos_params(inst, 260);
  for (const OnlineParams* params : {&healthy, &chaos}) {
    const std::string tag = params == &chaos ? "/chaos" : "/healthy";
    for (const std::string& name :
         exp::PolicyRegistry::global().online_names()) {
      OnlineSimulator sim(inst.topo, inst.requests, inst.realized, *params);
      const auto plain = make_policy(name, inst.topo);
      const OnlineMetrics want = sim.run(*plain);
      ScramblingPolicy scrambled(make_policy(name, inst.topo));
      const OnlineMetrics got = sim.run(scrambled);
      EXPECT_GT(scrambled.stale, 0) << name << tag;
      expect_identical(want, got, name + tag);
    }
  }
}

/// FNV-1a over 64-bit words, byte by byte.
struct Fnv1a {
  std::uint64_t hash = 14695981039346656037ULL;
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xffU;
      hash *= 1099511628211ULL;
    }
  }
  void add_double(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add_int(long long v) { add(static_cast<std::uint64_t>(v)); }
};

TEST(SlotPass, RunHashesArePinned) {
  // A drift in any per-slot reward or final count of any online policy
  // fails here, under chaos and mobility, before it reaches the goldens.
  const exp::Instance inst = busy_instance(31, 600, 500, 20);
  const OnlineParams params = chaos_params(inst, 600);
  const std::map<std::string, std::uint64_t> pinned = {
      {"DynamicRR", 0x33fac8e3a5237ba9ULL},
      {"DynamicRR-epsilon", 0xcf6ba5127bf117c0ULL},
      {"DynamicRR-fixed-max", 0x7d5a41107fb6a58bULL},
      {"DynamicRR-fixed-min", 0x6be001fcf2ac77c6ULL},
      {"DynamicRR-thompson", 0xada68c2c6d40d67dULL},
      {"DynamicRR-ucb1", 0x22da874d1ec0e531ULL},
      {"DynamicRR-zooming", 0x1e9eada7e911e542ULL},
      {"Greedy", 0x1c1fb3a4c6114204ULL},
      {"HeuKKT", 0x0aa8ff39c5d9250bULL},
      {"OCORP", 0xa747e700c324de21ULL},
  };
  for (const std::string& name :
       exp::PolicyRegistry::global().online_names()) {
    OnlineSimulator sim(inst.topo, inst.requests, inst.realized, params);
    const auto policy = make_policy(name, inst.topo);
    const OnlineMetrics m = sim.run(*policy);
    Fnv1a fnv;
    for (const double r : m.per_slot_reward) fnv.add_double(r);
    fnv.add_double(m.total_reward);
    fnv.add_double(m.avg_latency_ms);
    for (const int count :
         {m.arrived, m.completed, m.dropped, m.unfinished, m.displaced,
          m.handovers, m.resilience.fault_epochs, m.resilience.recovered,
          m.resilience.unrecovered, m.resilience.dropped_starvation,
          m.resilience.dropped_fault, m.resilience.dropped_partition}) {
      fnv.add_int(count);
    }
    const auto it = pinned.find(name);
    if (it == pinned.end()) {
      ADD_FAILURE() << "no pinned hash for " << name << ": 0x" << std::hex
                    << fnv.hash;
      continue;
    }
    EXPECT_EQ(fnv.hash, it->second) << name << ": 0x" << std::hex << fnv.hash;
  }
}

/// Scripted policy over a 3-station line 0 - 1 - 2: station 2 is beyond
/// every latency budget from home station 0. The clean script places every
/// waiting request (except one it starves) and every displaced stream on
/// station 0, or on station 1 while 0 is down, and keeps residents active.
/// With `noisy`, every slot first adds activations the engine must refuse,
/// tallied by cause: waiting requests onto station 2 (over budget), waiting
/// and displaced ones onto a down station 0, displaced ones onto station 2
/// while the backhaul cuts it off, and completed, dropped and not yet
/// arrived requests (stale).
class RefusalScript final : public OnlinePolicy {
 public:
  static constexpr int kStarved = 2;
  explicit RefusalScript(bool noisy) : noisy_(noisy) {}
  SlotDecision decide(const SlotView& view) override {
    SlotDecision d;
    const auto& states = *view.states;
    const auto& requests = *view.requests;
    const int home = 0;
    if (noisy_) {
      const bool down = !view.is_up(0);
      const bool cut =
          !std::isfinite(view.topo->transmission_delay_ms(home, 2));
      for (const int j : view.pending) {
        const RequestState& st = states[static_cast<std::size_t>(j)];
        if (st.phase == Phase::kWaiting) {
          d.active.push_back({j, 2});
          ++over_budget;
        }
        const bool unplaced = st.phase == Phase::kWaiting || st.station < 0;
        if (down && unplaced) {
          d.active.push_back({j, 0});
          ++station_down;
        }
        if (cut && st.phase == Phase::kServed && st.station < 0) {
          d.active.push_back({j, 2});
          ++partition;
        }
      }
      for (std::size_t j = 0; j < states.size(); ++j) {
        const Phase phase = states[j].phase;
        if (phase == Phase::kCompleted || phase == Phase::kDropped ||
            requests[j].arrival_slot > view.slot) {
          d.active.push_back({static_cast<int>(j), 1});
          ++stale;
        }
      }
    }
    const int target = view.is_up(0) ? 0 : 1;
    for (const int j : view.pending) {
      if (j == kStarved) continue;
      const RequestState& st = states[static_cast<std::size_t>(j)];
      const bool resident = st.phase == Phase::kServed && st.station >= 0;
      d.active.push_back({j, resident ? st.station : target});
    }
    return d;
  }
  std::string name() const override { return "RefusalScript"; }
  long long station_down = 0;
  long long partition = 0;
  long long stale = 0;
  long long over_budget = 0;

 private:
  bool noisy_;
};

double counter_value(const char* name) {
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  const obs::CounterSnapshot* c = snap.find_counter(name);
  return c == nullptr ? -1.0 : c->value;
}

TEST(SlotPass, RefusedActivationsAreCountedByCause) {
  std::vector<mec::BaseStation> stations{
      {0, 2000.0, 1.0, 0.0, 0.0},
      {1, 2000.0, 1.0, 1.0, 0.0},
      {2, 2000.0, 1.0, 2.0, 0.0},
  };
  std::vector<mec::Link> links{{0, 1, 1.0}, {1, 2, 150.0}};
  const mec::Topology topo(std::move(stations), std::move(links));
  std::vector<mec::ARRequest> requests{
      stream(0, 20.0, 0, 40),  // displaced by station 0's outage
      stream(1, 20.0, 0, 2),   // completes early
      stream(2, 20.0, 0, 4),   // starved by the script
      stream(3, 20.0, 30, 5),  // arrives late
      stream(4, 20.0, 12, 5),  // arrives while station 0 is down
  };
  OnlineParams params;
  params.horizon_slots = 50;
  params.collect_detail = true;
  params.faults.station_outages.push_back({0, 10, 15});
  params.faults.link_outages.push_back({1, 10, 15});
  OnlineSimulator sim(topo, requests, {0, 0, 0, 0, 0}, params);

  const char* const names[] = {"sim.refused_activations.station_down",
                               "sim.refused_activations.partition",
                               "sim.refused_activations.stale",
                               "sim.refused_activations.over_budget"};
  RefusalScript clean(false);
  const OnlineMetrics want = sim.run(clean);
  double before[4];
  for (int k = 0; k < 4; ++k) before[k] = counter_value(names[k]);
  RefusalScript noisy(true);
  const OnlineMetrics got = sim.run(noisy);
  expect_identical(want, got, "refused entries");
  EXPECT_EQ(got.completed, 4);
  EXPECT_EQ(got.dropped, 1);
  EXPECT_EQ(got.resilience.recovered, 1);

  const long long tallies[] = {noisy.station_down, noisy.partition,
                               noisy.stale, noisy.over_budget};
  for (int k = 0; k < 4; ++k) {
    EXPECT_GT(tallies[k], 0) << names[k];
    ASSERT_GE(before[k], 0.0) << names[k] << " is not registered";
    const double counted = counter_value(names[k]) - before[k];
#if MECAR_TELEMETRY_ENABLED
    EXPECT_EQ(counted, static_cast<double>(tallies[k])) << names[k];
#else
    EXPECT_EQ(counted, 0.0) << names[k];
#endif
  }
}

}  // namespace
}  // namespace mecar::sim
