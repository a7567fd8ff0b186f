#include "mec/workload.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>

namespace mecar::mec {

Pipeline ar_pipeline(int count) {
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
  return Pipeline(tasks);
}

namespace {

/// Orders `requests`, generated in id order, by (arrival_slot, id) without
/// a second copy of the workload. A stable counting sort over the slots
/// [0, horizon) lists, for each position, the record that belongs there;
/// the permutation is then applied in place one cycle at a time, copying
/// each record once, straight into its final position.
void order_by_arrival(std::vector<ARRequest>& requests, int horizon) {
  std::vector<std::size_t> begin(static_cast<std::size_t>(horizon) + 1, 0);
  for (const ARRequest& req : requests) {
    ++begin[static_cast<std::size_t>(req.arrival_slot) + 1];
  }
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  std::vector<std::size_t> source(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    source[begin[static_cast<std::size_t>(requests[i].arrival_slot)]++] = i;
  }
  for (std::size_t k = 0; k < requests.size(); ++k) {
    if (source[k] == k) continue;
    const ARRequest first = requests[k];
    std::size_t j = k;
    while (source[j] != k) {
      const std::size_t from = source[j];
      requests[j] = requests[from];
      source[j] = j;
      j = from;
    }
    requests[j] = first;
    source[j] = j;
  }
}

}  // namespace

std::vector<ARRequest> generate_requests(const WorkloadParams& params,
                                         const Topology& topo,
                                         util::Rng& rng) {
  if (params.num_requests < 0) {
    throw std::invalid_argument("generate_requests: negative request count");
  }
  if (params.num_rate_levels < 1 ||
      params.num_rate_levels > static_cast<int>(kMaxRateLevels)) {
    throw std::invalid_argument(
        "generate_requests: num_rate_levels must be in [1, " +
        std::to_string(kMaxRateLevels) + "]");
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
  std::array<RateLevel, kMaxRateLevels> rate_levels;
  // One interned pipeline per drawn length, resolved on its first draw, so
  // a wide [tasks_min, tasks_max] interns only the lengths it uses.
  std::vector<Pipeline> pipelines(
      static_cast<std::size_t>(params.tasks_max - params.tasks_min) + 1);

  for (int j = 0; j < params.num_requests; ++j) {
    ARRequest& req = requests.emplace_back();
    req.id = j;
    req.home_station = station_perm[home_dist.sample(rng)];
    const int num_tasks =
        static_cast<int>(rng.uniform_int(params.tasks_min, params.tasks_max));
    Pipeline& pipeline =
        pipelines[static_cast<std::size_t>(num_tasks - params.tasks_min)];
    if (pipeline.empty()) pipeline = ar_pipeline(num_tasks);
    req.tasks = pipeline;
    req.latency_budget_ms = params.latency_budget_ms;

    // Discrete rate support: evenly spaced levels across [rate_min, rate_max]
    // with a small per-request jitter, geometric probability skew toward
    // small rates ("the probability of requests with large data rates is
    // usually small" [10]), and an independent unit reward per level.
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
      rate_levels[static_cast<std::size_t>(k)] = lvl;
    }
    // Normalize the tail so probabilities sum to exactly 1.
    double acc = 0.0;
    for (int k = 0; k + 1 < levels; ++k) {
      acc += rate_levels[static_cast<std::size_t>(k)].prob;
    }
    rate_levels[static_cast<std::size_t>(levels - 1)].prob = 1.0 - acc;
    req.demand = RateRewardDist(std::span<const RateLevel>(
        rate_levels.data(), static_cast<std::size_t>(levels)));

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
            // In 64 bits: 7 * horizon overflows an int from ~3.1e8 slots,
            // and order_by_arrival indexes by slot.
            const int burst_start =
                static_cast<int>(std::int64_t{horizon} * 7 / 16);
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
  }

  // Offline requests all arrive at slot 0, already in id order.
  if (params.horizon_slots > 0) {
    order_by_arrival(requests, params.horizon_slots);
  }
  return requests;
}

}  // namespace mecar::mec
