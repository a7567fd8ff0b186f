// Simulation-instance construction shared by the scenario runner, the CLI
// and the micro benches: network + workload + pre-drawn demand
// realizations (common random numbers across all algorithms under
// comparison), plus the canonical seed schedule and a trial's chaos plan.
// It lives in the library so they all build the same instances and plans.
#pragma once

#include <limits>
#include <vector>

#include "core/types.h"
#include "mec/topology.h"
#include "mec/workload.h"
#include "sim/fault_plan.h"
#include "util/rng.h"

namespace mecar::exp {

/// One simulation instance: network + workload + pre-drawn realizations
/// (common random numbers across all algorithms under comparison).
struct Instance {
  mec::Topology topo;
  std::vector<mec::ARRequest> requests;
  std::vector<std::size_t> realized;
};

/// Instance knobs with the paper's section VI-A defaults. Every field maps
/// onto mec::TopologyParams / mec::WorkloadParams; leaving a field at its
/// default consumes the generator RNG identically to the historical
/// bench_util construction, so seeds reproduce the same instances.
struct InstanceConfig {
  int num_requests = 150;
  int num_stations = 20;
  double rate_min = 30.0;
  double rate_max = 50.0;
  int horizon_slots = 0;  // 0 = offline
  mec::RewardModel reward_model = mec::RewardModel::kIndependent;
  mec::ArrivalProcess arrivals = mec::ArrivalProcess::kUniform;
  /// Zipf exponent of user attachment (1.0 = the paper's default skew).
  double home_skew = 1.0;
  /// Backhaul link bandwidth range; infinite reproduces the paper's
  /// unconstrained-backhaul model.
  double link_bandwidth_min_mbps = std::numeric_limits<double>::infinity();
  double link_bandwidth_max_mbps = std::numeric_limits<double>::infinity();
};

Instance make_instance(unsigned seed, const InstanceConfig& config);

/// Default seeds a sweep averages over (override with --seeds=N).
std::vector<unsigned> bench_seeds(int count);

/// The chaos plan a trial of `seed` faults `topo` with: sim::generate_chaos
/// at `intensity` over `horizon` slots, drawn from a stream derived from
/// the seed alone (offset so it is independent of the workload stream).
sim::FaultPlan chaos_plan(const mec::Topology& topo, double intensity,
                          int horizon, unsigned seed);

}  // namespace mecar::exp
