// Chaos-engine tests: fault plans project onto slots correctly, the
// topology overlay rebuilds only at fault-epoch boundaries, scripted link
// faults displace and re-place streams end to end, drops are attributed to
// their cause, and chaos generation is seed-deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "mec/topology_overlay.h"
#include "mec/workload.h"
#include "sim/fault_plan.h"
#include "sim/online_sim.h"
#include "util/rng.h"

namespace mecar::sim {
namespace {

mec::Topology two_stations() {
  std::vector<mec::BaseStation> stations{
      {0, 2000.0, 1.0, 0.0, 0.0},
      {1, 2000.0, 1.0, 0.2, 0.0},
  };
  std::vector<mec::Link> links{{0, 1, 2.0}};
  return mec::Topology(std::move(stations), std::move(links));
}

mec::Topology one_station(double capacity_mhz) {
  std::vector<mec::BaseStation> stations{{0, capacity_mhz, 1.0, 0.0, 0.0}};
  return mec::Topology(std::move(stations), {});
}

mec::ARRequest stream(int id, double rate, int arrival, int duration) {
  mec::ARRequest req;
  req.id = id;
  req.home_station = 0;
  req.tasks = mec::ar_pipeline(3);
  req.demand = mec::RateRewardDist({{rate, 1.0, 500.0}});
  req.latency_budget_ms = 200.0;
  req.arrival_slot = arrival;
  req.duration_slots = duration;
  return req;
}

// ---------------------------------------------------------------------------
// TopologyOverlay

TEST(TopologyOverlay, IdentityPerturbationNeverRebuilds) {
  const mec::Topology topo = two_stations();
  mec::TopologyOverlay overlay(topo);
  const mec::TopologyPerturbation none;
  EXPECT_TRUE(none.identity());
  EXPECT_FALSE(overlay.apply(none));
  EXPECT_FALSE(overlay.reset());
  EXPECT_EQ(overlay.epochs(), 0);
  EXPECT_DOUBLE_EQ(overlay.effective().transmission_delay_ms(0, 1), 2.0);
}

TEST(TopologyOverlay, BrownoutScalesCapacityAndRepeatIsFree) {
  const mec::Topology topo = two_stations();
  mec::TopologyOverlay overlay(topo);
  // Bind the stable reference BEFORE any fault: every epoch must be
  // observable through it (this is the contract the simulator relies on).
  const mec::Topology& eff = overlay.effective();

  mec::TopologyPerturbation pert;
  pert.capacity_scale = {1.0, 0.5};
  EXPECT_TRUE(overlay.apply(pert));
  EXPECT_EQ(overlay.epochs(), 1);
  EXPECT_DOUBLE_EQ(eff.station(0).capacity_mhz, 2000.0);
  EXPECT_DOUBLE_EQ(eff.station(1).capacity_mhz, 1000.0);

  // Same perturbation again: same epoch, no rebuild.
  EXPECT_FALSE(overlay.apply(pert));
  EXPECT_EQ(overlay.epochs(), 1);

  // Return to healthy is itself an epoch.
  EXPECT_TRUE(overlay.reset());
  EXPECT_EQ(overlay.epochs(), 2);
  EXPECT_DOUBLE_EQ(eff.station(1).capacity_mhz, 2000.0);
}

TEST(TopologyOverlay, LinkOutageDisconnectsButKeepsLinkIndex) {
  const mec::Topology topo = two_stations();
  mec::TopologyOverlay overlay(topo);
  mec::TopologyPerturbation pert;
  pert.link_down = {1};
  EXPECT_TRUE(overlay.apply(pert));
  const mec::Topology& eff = overlay.effective();
  EXPECT_FALSE(std::isfinite(eff.transmission_delay_ms(0, 1)));
  // The cut link keeps its index (modelled as an infinite-delay edge), so
  // base link ids remain valid across epochs.
  ASSERT_EQ(eff.links().size(), 1u);
  EXPECT_FALSE(std::isfinite(eff.links()[0].delay_ms));
  // The base topology is untouched.
  EXPECT_DOUBLE_EQ(overlay.base().transmission_delay_ms(0, 1), 2.0);
}

TEST(TopologyOverlay, LinkDegradationScalesDelay) {
  const mec::Topology topo = two_stations();
  mec::TopologyOverlay overlay(topo);
  mec::TopologyPerturbation pert;
  pert.link_delay_scale = {3.0};
  EXPECT_TRUE(overlay.apply(pert));
  EXPECT_DOUBLE_EQ(overlay.effective().transmission_delay_ms(0, 1), 6.0);
}

TEST(TopologyOverlay, RejectsMalformedPerturbations) {
  const mec::Topology topo = two_stations();
  mec::TopologyOverlay overlay(topo);
  mec::TopologyPerturbation wrong_size;
  wrong_size.capacity_scale = {0.5};  // 1 entry, 2 stations
  EXPECT_THROW(overlay.apply(wrong_size), std::invalid_argument);
  mec::TopologyPerturbation negative;
  negative.capacity_scale = {-0.1, 1.0};
  EXPECT_THROW(overlay.apply(negative), std::invalid_argument);
  mec::TopologyPerturbation shrink;
  shrink.link_delay_scale = {0.5};  // delay scales must be >= 1
  EXPECT_THROW(overlay.apply(shrink), std::invalid_argument);
  EXPECT_EQ(overlay.epochs(), 0);  // failed applies change nothing
}

// ---------------------------------------------------------------------------
// FaultPlan::snapshot

TEST(FaultPlan, WindowsAreHalfOpen) {
  const mec::Topology topo = two_stations();
  FaultPlan plan;
  plan.station_outages = {{0, 2, 5}};
  EXPECT_EQ(plan.snapshot(topo, 1).station_up[0], 1);
  EXPECT_FALSE(plan.snapshot(topo, 1).any_fault);
  EXPECT_EQ(plan.snapshot(topo, 2).station_up[0], 0);
  EXPECT_TRUE(plan.snapshot(topo, 2).any_fault);
  EXPECT_EQ(plan.snapshot(topo, 4).station_up[0], 0);
  EXPECT_EQ(plan.snapshot(topo, 5).station_up[0], 1);  // until is exclusive
}

TEST(FaultPlan, OverlappingBrownoutsCompoundMultiplicatively) {
  const mec::Topology topo = two_stations();
  FaultPlan plan;
  plan.brownouts = {{0, 0, 10, 0.5}, {0, 5, 10, 0.5}};
  const FaultSnapshot a = plan.snapshot(topo, 2);
  ASSERT_EQ(a.perturbation.capacity_scale.size(), 2u);
  EXPECT_DOUBLE_EQ(a.perturbation.capacity_scale[0], 0.5);
  const FaultSnapshot b = plan.snapshot(topo, 7);
  ASSERT_EQ(b.perturbation.capacity_scale.size(), 2u);
  EXPECT_DOUBLE_EQ(b.perturbation.capacity_scale[0], 0.25);
  EXPECT_EQ(b.station_up[0], 1);  // browned out, not dead
}

TEST(FaultPlan, ZeroFactorBrownoutIsAnOutage) {
  const mec::Topology topo = two_stations();
  FaultPlan plan;
  plan.brownouts = {{0, 0, 10, 0.0}};
  const FaultSnapshot snap = plan.snapshot(topo, 3);
  EXPECT_EQ(snap.station_up[0], 0);
  // The overlay never sees a zero scale — the availability map handles it,
  // so the effective topology stays constructible.
  EXPECT_TRUE(snap.perturbation.capacity_scale.empty());
  EXPECT_TRUE(snap.any_fault);
}

TEST(FaultPlan, ValidateRejectsBadEvents) {
  const mec::Topology topo = two_stations();
  {
    FaultPlan plan;
    plan.station_outages = {{9, 0, 5}};  // no station 9
    EXPECT_THROW(plan.validate(topo), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.brownouts = {{0, 0, 5, 1.5}};  // factor outside [0, 1]
    EXPECT_THROW(plan.validate(topo), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.link_degradations = {{0, 0, 5, 0.5}};  // delay factor < 1
    EXPECT_THROW(plan.validate(topo), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.link_outages = {{0, 7, 3}};  // until < from
    EXPECT_THROW(plan.validate(topo), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Chaos generator

TEST(ChaosGenerator, ZeroIntensityYieldsEmptyPlan) {
  util::Rng rng(5);
  const mec::Topology topo = two_stations();
  ChaosParams chaos;
  chaos.intensity = 0.0;
  const FaultPlan plan = generate_chaos(topo, chaos, 500, rng);
  EXPECT_TRUE(plan.empty());
}

TEST(ChaosGenerator, SeedDeterminesPlanExactly) {
  util::Rng rng(12);
  mec::TopologyParams tparams;
  tparams.num_stations = 12;
  const mec::Topology topo = mec::generate_topology(tparams, rng);
  ChaosParams chaos;
  chaos.intensity = 2.0;

  const auto render = [&](std::uint64_t seed) {
    util::Rng plan_rng(seed);
    const FaultPlan plan = generate_chaos(topo, chaos, 400, plan_rng);
    plan.validate(topo);  // every sampled event must be legal
    std::ostringstream os;
    write_fault_plan(plan, os);
    return os.str();
  };
  const std::string a = render(12345);
  EXPECT_EQ(a, render(12345));
  EXPECT_GT(a.size(), std::string("# mecar fault scenario\n").size())
      << "intensity 2.0 over 400 slots sampled no events";
}

// ---------------------------------------------------------------------------
// Scenario file round-trip and parse diagnostics

TEST(FaultPlanIo, RoundTripsThroughScenarioFormat) {
  FaultPlan plan;
  plan.station_outages = {{0, 2, 10}};
  plan.brownouts = {{1, 5, 25, 0.5}};
  plan.link_outages = {{0, 3, 9}};
  plan.link_degradations = {{0, 9, 14, 4.0}};

  std::ostringstream os;
  write_fault_plan(plan, os);
  std::istringstream is(os.str());
  const FaultPlan back = read_fault_plan(is);
  ASSERT_EQ(back.num_events(), plan.num_events());
  std::ostringstream os2;
  write_fault_plan(back, os2);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(FaultPlanIo, SkipsCommentsAndBlankLines) {
  std::istringstream is(
      "# a comment\n"
      "\n"
      "station_outage 0 2 10\n");
  const FaultPlan plan = read_fault_plan(is);
  ASSERT_EQ(plan.station_outages.size(), 1u);
  EXPECT_EQ(plan.station_outages[0].station, 0);
  EXPECT_EQ(plan.station_outages[0].from_slot, 2);
  EXPECT_EQ(plan.station_outages[0].until_slot, 10);
}

TEST(FaultPlanIo, ParseErrorsCarryLineNumbers) {
  const auto line_of = [](const std::string& text) {
    std::istringstream is(text);
    try {
      read_fault_plan(is);
    } catch (const FaultPlanParseError& e) {
      EXPECT_NE(std::string(e.what()).find("fault plan line"),
                std::string::npos);
      return e.line();
    }
    return -1;
  };
  EXPECT_EQ(line_of("station_outage 0 2\n"), 1);  // arity
  EXPECT_EQ(line_of("# ok\nbrownout 0 0 5 abc\n"), 2);  // bad factor
  EXPECT_EQ(line_of("station_outage 0 2 10\n\nbogus 1 2 3\n"), 3);
  EXPECT_EQ(line_of("link_outage 0 zero 5\n"), 1);  // bad from_slot
}

// ---------------------------------------------------------------------------
// End-to-end: link faults in the simulator

/// Places waiting requests at station 1; re-places displaced streams at
/// station 0 (the user's home, always reachable).
class PlaceAt1Policy final : public OnlinePolicy {
 public:
  SlotDecision decide(const SlotView& view) override {
    SlotDecision d;
    for (int j : view.pending) {
      const RequestState& st = (*view.states)[static_cast<std::size_t>(j)];
      if (st.phase == Phase::kServed && st.station < 0) {
        d.active.push_back({j, 0});
      } else if (st.phase == Phase::kServed) {
        d.active.push_back({j, st.station});
      } else {
        d.active.push_back({j, 1});
      }
    }
    return d;
  }
  std::string name() const override { return "PlaceAt1"; }
};

/// Anchors everything at station 0.
class AnchorPolicy final : public OnlinePolicy {
 public:
  SlotDecision decide(const SlotView& view) override {
    SlotDecision d;
    for (int j : view.pending) {
      const RequestState& st = (*view.states)[static_cast<std::size_t>(j)];
      d.active.push_back({j, st.phase == Phase::kServed ? st.station : 0});
    }
    return d;
  }
  std::string name() const override { return "Anchor"; }
};

/// Schedules nothing, ever.
class NullPolicy final : public OnlinePolicy {
 public:
  SlotDecision decide(const SlotView&) override { return {}; }
  std::string name() const override { return "Null"; }
};

TEST(LinkFaults, LinkCutDisplacesAndPolicyRecoversSameSlot) {
  const mec::Topology topo = two_stations();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 4)};
  OnlineParams params;
  params.horizon_slots = 20;
  params.faults.link_outages = {{0, 2, 10}};  // backhaul cut in [2, 10)
  OnlineSimulator sim(topo, requests, {0}, params);
  PlaceAt1Policy policy;
  const auto m = sim.run(policy);
  // Served remotely at station 1; the cut partitions the user from its
  // service instance, displacing the stream (not a station death).
  EXPECT_EQ(m.displaced, 1);
  EXPECT_EQ(m.resilience.displaced_partition, 1);
  EXPECT_EQ(m.resilience.displaced_outage, 0);
  // The policy re-placed it at home the same slot: zero-slot recovery.
  EXPECT_EQ(m.resilience.recovered, 1);
  EXPECT_EQ(m.resilience.unrecovered, 0);
  EXPECT_DOUBLE_EQ(m.resilience.mean_recovery_slots, 0.0);
  EXPECT_EQ(m.completed, 1);
  EXPECT_DOUBLE_EQ(m.total_reward, 500.0);
  // Two fault epochs: the cut at slot 2 and the return to healthy at 10.
  EXPECT_EQ(m.resilience.fault_epochs, 2);
}

TEST(LinkFaults, BrownoutStretchesCompletionTime) {
  // Demand exactly matches capacity: healthy, a 4-slot session finishes at
  // slot 3; at half capacity it needs 8 slots and finishes at slot 7 —
  // the brownout halves throughput without dropping anything.
  const mec::Topology topo = one_station(1000.0);
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 4)};  // 1000 MHz

  const auto completion_slot = [&](FaultPlan faults) {
    OnlineParams params;
    params.horizon_slots = 20;
    params.faults = std::move(faults);
    OnlineSimulator sim(topo, requests, {0}, params);
    AnchorPolicy policy;
    const auto m = sim.run(policy);
    EXPECT_EQ(m.completed, 1);
    for (std::size_t t = 0; t < m.per_slot_reward.size(); ++t) {
      if (m.per_slot_reward[t] > 0.0) return static_cast<int>(t);
    }
    return -1;
  };

  EXPECT_EQ(completion_slot({}), 3);
  FaultPlan brownout;
  brownout.brownouts = {{0, 0, 20, 0.5}};
  EXPECT_EQ(completion_slot(std::move(brownout)), 7);
}

TEST(DropAttribution, DegradedLatencyDropIsFaultCaused) {
  // Station 0 is dead the whole horizon and the only link is degraded so
  // hard that station 1 is out of budget (2 * 2ms * 50 + 2.4ms processing
  // = 202.4ms > 200ms). Only the faults stand between the request and a
  // feasible placement every slot, so its drop is fault-attributed.
  const mec::Topology topo = two_stations();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 4)};
  OnlineParams params;
  params.horizon_slots = 12;
  params.faults.station_outages = {{0, 0, 12}};
  params.faults.link_degradations = {{0, 0, 12, 50.0}};
  OnlineSimulator sim(topo, requests, {0}, params);
  NullPolicy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.dropped, 1);
  EXPECT_EQ(m.resilience.dropped_fault, 1);
  EXPECT_EQ(m.resilience.dropped_starvation, 0);
  EXPECT_EQ(m.resilience.dropped_partition, 0);
  EXPECT_DOUBLE_EQ(m.resilience.fault_dropped_expected_reward, 500.0);
}

TEST(DropAttribution, CutOffDropIsPartitionCaused) {
  // Station 0 dead, the only link cut: no live station is reachable at
  // all, so the drop is partition-attributed.
  const mec::Topology topo = two_stations();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 4)};
  OnlineParams params;
  params.horizon_slots = 12;
  params.faults.station_outages = {{0, 0, 12}};
  params.faults.link_outages = {{0, 0, 12}};
  OnlineSimulator sim(topo, requests, {0}, params);
  NullPolicy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.dropped, 1);
  EXPECT_EQ(m.resilience.dropped_partition, 1);
  EXPECT_EQ(m.resilience.dropped_fault, 0);
  EXPECT_EQ(m.resilience.dropped_starvation, 0);
}

TEST(DropAttribution, ContentionDropStaysStarvation) {
  // No faults at all: a never-scheduled request is plain starvation and
  // every fault counter stays zero.
  const mec::Topology topo = two_stations();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 4)};
  OnlineParams params;
  params.horizon_slots = 12;
  OnlineSimulator sim(topo, requests, {0}, params);
  NullPolicy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.dropped, 1);
  EXPECT_EQ(m.resilience.dropped_starvation, 1);
  EXPECT_EQ(m.resilience.dropped_fault, 0);
  EXPECT_EQ(m.resilience.dropped_partition, 0);
  EXPECT_DOUBLE_EQ(m.resilience.fault_dropped_expected_reward, 0.0);
}

}  // namespace
}  // namespace mecar::sim
