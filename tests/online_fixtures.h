// Fixtures shared by the online-engine suites (test_sim, test_checkpoint):
// a busy seeded instance, the chaos the slot loop must survive, policies
// built the way the scenario runner builds them, and a bit-for-bit
// comparison of two runs' metrics.
//
// Equality is EXPECT_EQ on doubles throughout: the engine's contracts
// (resume, decision order) are bit-identity, not tolerance-equality.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "exp/instance.h"
#include "exp/registry.h"
#include "sim/online_sim.h"
#include "util/rng.h"

namespace mecar::sim {

inline exp::Instance busy_instance(unsigned seed, int horizon,
                                   int num_requests = 200,
                                   int num_stations = 10) {
  exp::InstanceConfig config;
  config.num_requests = num_requests;
  config.num_stations = num_stations;
  config.horizon_slots = horizon;
  return exp::make_instance(seed, config);
}

/// Chaos the slot loop must survive: outages, a brownout, a link cut,
/// solver faults, and one-way mobility, spread over slots 30-150 (the
/// instance needs >= 10 stations and >= 31 requests).
inline OnlineParams chaos_params(const exp::Instance& inst, int horizon) {
  OnlineParams params;
  params.horizon_slots = horizon;
  params.collect_detail = true;
  params.faults.station_outages.push_back({2, 40, 90});
  params.faults.station_outages.push_back({7, 100, 150});
  params.faults.brownouts.push_back({4, 60, 140, 0.4});
  if (!inst.topo.links().empty()) {
    params.faults.link_outages.push_back({0, 80, 130});
  }
  params.faults.solver_budgets.push_back({30, 80, 6});
  params.faults.solver_jams.push_back({110, 140});
  params.mobility.push_back({5, 50, 9});
  params.mobility.push_back({12, 70, 0});
  params.mobility.push_back({30, 120, 8});
  return params;
}

/// A fresh policy by registry name, built the way the scenario runner
/// builds it (default parameters, policy seed 7).
inline std::unique_ptr<OnlinePolicy> make_policy(const std::string& name,
                                                 const mec::Topology& topo) {
  return exp::PolicyRegistry::global().make_online(
      name, topo, core::AlgorithmParams{}, DynamicRrParams{}, util::Rng(7));
}

inline void expect_identical(const OnlineMetrics& a, const OnlineMetrics& b,
                             const std::string& label) {
  EXPECT_EQ(a.total_reward, b.total_reward) << label;
  EXPECT_EQ(a.arrived, b.arrived) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.dropped, b.dropped) << label;
  EXPECT_EQ(a.unfinished, b.unfinished) << label;
  EXPECT_EQ(a.displaced, b.displaced) << label;
  EXPECT_EQ(a.handovers, b.handovers) << label;
  EXPECT_EQ(a.avg_latency_ms, b.avg_latency_ms) << label;
  EXPECT_EQ(a.per_slot_reward, b.per_slot_reward) << label;
  EXPECT_EQ(a.completed_latencies_ms, b.completed_latencies_ms) << label;
  EXPECT_EQ(a.per_slot_utilization, b.per_slot_utilization) << label;
  EXPECT_EQ(a.service_ratios, b.service_ratios) << label;
  const ResilienceReport& ra = a.resilience;
  const ResilienceReport& rb = b.resilience;
  EXPECT_EQ(ra.fault_epochs, rb.fault_epochs) << label;
  EXPECT_EQ(ra.displaced_outage, rb.displaced_outage) << label;
  EXPECT_EQ(ra.displaced_partition, rb.displaced_partition) << label;
  EXPECT_EQ(ra.recovered, rb.recovered) << label;
  EXPECT_EQ(ra.mean_recovery_slots, rb.mean_recovery_slots) << label;
  EXPECT_EQ(ra.unrecovered, rb.unrecovered) << label;
  EXPECT_EQ(ra.dropped_starvation, rb.dropped_starvation) << label;
  EXPECT_EQ(ra.dropped_fault, rb.dropped_fault) << label;
  EXPECT_EQ(ra.dropped_partition, rb.dropped_partition) << label;
  EXPECT_EQ(ra.fault_dropped_expected_reward, rb.fault_dropped_expected_reward)
      << label;
}

}  // namespace mecar::sim
