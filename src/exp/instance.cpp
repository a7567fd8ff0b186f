#include "exp/instance.h"

namespace mecar::exp {

Instance make_instance(unsigned seed, const InstanceConfig& config) {
  util::Rng rng(seed);
  mec::TopologyParams tparams;
  tparams.num_stations = config.num_stations;
  tparams.link_bandwidth_min_mbps = config.link_bandwidth_min_mbps;
  tparams.link_bandwidth_max_mbps = config.link_bandwidth_max_mbps;
  mec::Topology topo = mec::generate_topology(tparams, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = config.num_requests;
  wparams.rate_min = config.rate_min;
  wparams.rate_max = config.rate_max;
  wparams.horizon_slots = config.horizon_slots;
  wparams.reward_model = config.reward_model;
  wparams.arrivals = config.arrivals;
  wparams.home_skew = config.home_skew;
  auto requests = mec::generate_requests(wparams, topo, rng);
  auto realized = core::realize_demand_levels(requests, rng);
  return Instance{std::move(topo), std::move(requests), std::move(realized)};
}

std::vector<unsigned> bench_seeds(int count) {
  std::vector<unsigned> seeds;
  seeds.reserve(count > 0 ? static_cast<std::size_t>(count) : 0);
  for (int i = 0; i < count; ++i) {
    seeds.push_back(7u + 1000u * static_cast<unsigned>(i));
  }
  return seeds;
}

sim::FaultPlan chaos_plan(const mec::Topology& topo, double intensity,
                          int horizon, unsigned seed) {
  sim::ChaosParams chaos;
  chaos.intensity = intensity;
  util::Rng rng(seed * 2654435761u + 17u);
  return sim::generate_chaos(topo, chaos, horizon, rng);
}

}  // namespace mecar::exp
