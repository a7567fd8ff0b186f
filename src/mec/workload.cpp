#include "mec/workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mecar::mec {

std::vector<TaskSpec> ar_pipeline(int count) {
  if (count <= 0) {
    throw std::invalid_argument("ar_pipeline: non-positive task count");
  }
  // The AR processing pipeline of [5]: rendering dominates the computation
  // (the paper: "rendering ... is the most computing-intensive task").
  static const TaskSpec kTemplate[4] = {
      {"track_objects", 64.0, 0.8},
      {"update_world_model", 64.0, 0.6},
      {"recognize_objects", 64.0, 1.0},
      {"render_objects", 100.0, 1.6},
  };
  std::vector<TaskSpec> tasks;
  tasks.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    tasks.push_back(kTemplate[static_cast<std::size_t>(k % 4)]);
  }
  return tasks;
}

std::vector<ARRequest> generate_requests(const WorkloadParams& params,
                                         const Topology& topo,
                                         util::Rng& rng) {
  if (params.num_requests < 0) {
    throw std::invalid_argument("generate_requests: negative request count");
  }
  if (params.num_rate_levels < 1) {
    throw std::invalid_argument("generate_requests: need >= 1 rate level");
  }
  if (params.rate_min <= 0.0 || params.rate_max < params.rate_min) {
    throw std::invalid_argument("generate_requests: bad rate range");
  }
  if (params.tasks_min < 1 || params.tasks_max < params.tasks_min) {
    throw std::invalid_argument("generate_requests: bad task count range");
  }
  if (params.rate_prob_skew <= 0.0 || params.rate_prob_skew > 1.0) {
    throw std::invalid_argument("generate_requests: skew must be in (0, 1]");
  }

  if (params.home_skew < 0.0) {
    throw std::invalid_argument("generate_requests: negative home_skew");
  }

  std::vector<ARRequest> requests;
  requests.reserve(static_cast<std::size_t>(params.num_requests));
  const int levels = params.num_rate_levels;

  // Zipf-weighted attachment over a random permutation of stations (so the
  // hotspot location is itself random).
  std::vector<int> station_perm(static_cast<std::size_t>(topo.num_stations()));
  for (int i = 0; i < topo.num_stations(); ++i) {
    station_perm[static_cast<std::size_t>(i)] = i;
  }
  rng.shuffle(station_perm);
  std::vector<double> home_weights(station_perm.size());
  for (std::size_t i = 0; i < station_perm.size(); ++i) {
    home_weights[i] =
        1.0 / std::pow(static_cast<double>(i) + 1.0, params.home_skew);
  }
  const util::Categorical home_dist(home_weights);
  std::vector<double> skew_pow(static_cast<std::size_t>(levels));
  for (int k = 0; k < levels; ++k) {
    skew_pow[static_cast<std::size_t>(k)] = std::pow(params.rate_prob_skew, k);
  }
  std::vector<double> probs(static_cast<std::size_t>(levels));

  for (int j = 0; j < params.num_requests; ++j) {
    ARRequest req;
    req.id = j;
    req.home_station = station_perm[home_dist.sample(rng)];
    req.tasks = ar_pipeline(
        static_cast<int>(rng.uniform_int(params.tasks_min, params.tasks_max)));
    req.latency_budget_ms = params.latency_budget_ms;

    // Discrete rate support: evenly spaced levels across [rate_min, rate_max]
    // with a small per-request jitter, geometric probability skew toward
    // small rates ("the probability of requests with large data rates is
    // usually small" [10]), and an independent unit reward per level.
    std::vector<RateLevel> rate_levels;
    rate_levels.reserve(static_cast<std::size_t>(levels));
    double prob_total = 0.0;
    for (int k = 0; k < levels; ++k) {
      const double jitter = rng.uniform(0.8, 1.2);
      probs[static_cast<std::size_t>(k)] =
          skew_pow[static_cast<std::size_t>(k)] * jitter;
      prob_total += probs[static_cast<std::size_t>(k)];
    }
    const double step =
        levels == 1 ? 0.0
                    : (params.rate_max - params.rate_min) / (levels - 1);
    for (int k = 0; k < levels; ++k) {
      RateLevel lvl;
      const double nominal = params.rate_min + step * k;
      const double max_jitter = step > 0.0 ? step * 0.2 : 0.0;
      lvl.rate = nominal + rng.uniform(-max_jitter, max_jitter);
      lvl.prob = probs[static_cast<std::size_t>(k)] / prob_total;
      const double unit = rng.uniform(params.reward_per_unit_min,
                                      params.reward_per_unit_max);
      // Demand-independent rewards (the paper's challenge 2): the billed
      // volume is drawn from the rate support independently of the level's
      // actual rate. The proportional ablation uses the rate itself.
      const double billed_volume =
          params.reward_model == RewardModel::kIndependent
              ? rng.uniform(params.rate_min, params.rate_max)
              : lvl.rate;
      lvl.reward = unit * billed_volume;
      rate_levels.push_back(lvl);
    }
    // Normalize the tail so probabilities sum to exactly 1.
    double acc = 0.0;
    for (int k = 0; k + 1 < levels; ++k) {
      acc += rate_levels[static_cast<std::size_t>(k)].prob;
    }
    rate_levels.back().prob = 1.0 - acc;
    req.demand = RateRewardDist(std::move(rate_levels));

    if (params.horizon_slots > 0) {
      const int horizon = params.horizon_slots;
      switch (params.arrivals) {
        case ArrivalProcess::kUniform:
          req.arrival_slot =
              static_cast<int>(rng.uniform_int(0, horizon - 1));
          break;
        case ArrivalProcess::kPoisson: {
          // Memoryless arrivals at the configured mean intensity: a
          // uniform draw per request is the conditional distribution of a
          // Poisson process given its count, so jitter the uniform grid.
          const double pos = rng.uniform(0.0, static_cast<double>(horizon));
          req.arrival_slot = std::min(horizon - 1, static_cast<int>(pos));
          break;
        }
        case ArrivalProcess::kFlashCrowd: {
          // Half the arrivals land in the middle eighth of the horizon.
          if (rng.bernoulli(0.5)) {
            const int burst_start = horizon * 7 / 16;
            const int burst_len = std::max(1, horizon / 8);
            req.arrival_slot = burst_start + static_cast<int>(rng.uniform_int(
                                                 0, burst_len - 1));
          } else {
            req.arrival_slot =
                static_cast<int>(rng.uniform_int(0, horizon - 1));
          }
          break;
        }
      }
    }
    req.duration_slots = static_cast<int>(rng.uniform_int(
        params.duration_min_slots, params.duration_max_slots));
    requests.push_back(std::move(req));
  }

  std::sort(requests.begin(), requests.end(),
            [](const ARRequest& a, const ARRequest& b) {
              if (a.arrival_slot != b.arrival_slot) {
                return a.arrival_slot < b.arrival_slot;
              }
              return a.id < b.id;
            });
  return requests;
}

}  // namespace mecar::mec
