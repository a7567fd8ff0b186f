#include "mec/request.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace mecar::mec {

namespace {

std::uint64_t bits(double x) noexcept {
  return std::bit_cast<std::uint64_t>(x);
}

bool same_task(const TaskSpec& a, const TaskSpec& b) noexcept {
  return a.name == b.name && bits(a.output_kb) == bits(b.output_kb) &&
         bits(a.proc_weight) == bits(b.proc_weight);
}

/// FNV-1a over the names and the bits of the doubles, so equal task lists
/// (by same_task) hash equally.
std::size_t hash_tasks(std::span<const TaskSpec> tasks) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto add = [&hash](std::uint64_t word) {
    hash = (hash ^ word) * 0x100000001b3ULL;
  };
  for (const TaskSpec& task : tasks) {
    for (const char c : task.name) add(static_cast<unsigned char>(c));
    add(task.name.size());
    add(bits(task.output_kb));
    add(bits(task.proc_weight));
  }
  return static_cast<std::size_t>(hash);
}

}  // namespace

const Pipeline::Interned Pipeline::kEmpty{};

const Pipeline::Interned* Pipeline::intern(std::span<const TaskSpec> tasks) {
  if (tasks.empty()) return &kEmpty;
  double total = 0.0;
  for (const TaskSpec& task : tasks) total += task.proc_weight;
  const std::size_t hash = hash_tasks(tasks);
  // Nodes of an unordered container never move, so the pointers handed
  // out stay valid for the whole process.
  struct Pool {
    std::mutex mutex;
    std::unordered_multimap<std::size_t, Interned> by_hash;  // guarded
  };
  static Pool pool;
  const std::lock_guard lock(pool.mutex);
  const auto [first, last] = pool.by_hash.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    const std::vector<TaskSpec>& known = it->second.tasks;
    if (std::equal(known.begin(), known.end(), tasks.begin(), tasks.end(),
                   same_task)) {
      return &it->second;
    }
  }
  Interned fresh{std::vector<TaskSpec>(tasks.begin(), tasks.end()), total};
  return &pool.by_hash.emplace(hash, std::move(fresh))->second;
}

RateRewardDist::RateRewardDist(std::span<const RateLevel> levels)
    : size_(levels.size()) {
  if (levels.empty()) {
    throw std::invalid_argument("RateRewardDist: no levels");
  }
  if (levels.size() > kMaxRateLevels) {
    throw std::invalid_argument("RateRewardDist: more than " +
                                std::to_string(kMaxRateLevels) + " levels");
  }
  double total_prob = 0.0;
  double prev_rate = -1.0;
  for (std::size_t k = 0; k < levels.size(); ++k) {
    const RateLevel& lvl = levels[k];
    if (lvl.rate <= prev_rate) {
      throw std::invalid_argument(
          "RateRewardDist: rates must be strictly increasing");
    }
    if (lvl.prob < 0.0 || lvl.prob > 1.0) {
      throw std::invalid_argument("RateRewardDist: probability outside [0,1]");
    }
    if (lvl.reward < 0.0) {
      throw std::invalid_argument("RateRewardDist: negative reward");
    }
    prev_rate = lvl.rate;
    total_prob += lvl.prob;
    expected_rate_ += lvl.prob * lvl.rate;
    expected_reward_ += lvl.prob * lvl.reward;
    levels_[k] = lvl;
  }
  if (std::abs(total_prob - 1.0) > 1e-9) {
    throw std::invalid_argument("RateRewardDist: probabilities must sum to 1");
  }
}

double RateRewardDist::expected_truncated_rate(double cap) const noexcept {
  double e = 0.0;
  for (const RateLevel& lvl : levels()) {
    e += lvl.prob * std::min(lvl.rate, cap);
  }
  return e;
}

double RateRewardDist::expected_reward_within(double cap) const noexcept {
  double e = 0.0;
  for (const RateLevel& lvl : levels()) {
    if (lvl.rate <= cap) e += lvl.prob * lvl.reward;
  }
  return e;
}

std::size_t RateRewardDist::sample(util::Rng& rng) const {
  double target = rng.uniform();
  for (std::size_t k = 0; k < size_; ++k) {
    target -= levels_[k].prob;
    if (target < 0.0) return k;
  }
  return size_ - 1;
}

double placement_latency_ms(const Topology& topo, const ARRequest& req,
                            int bs) {
  return placement_latency_ms(topo.transmission_delay_ms(req.home_station, bs),
                              req.total_proc_weight(),
                              topo.station(bs).proc_ms_per_unit);
}

namespace {

/// The smallest placement latency from `home` at `weight` among the
/// stations `station_up` admits, or +infinity.
double min_latency(const Topology& topo, int home, double weight,
                   std::span<const char> station_up) {
  KeepRule keep;
  keep.station_up = station_up;
  const std::vector<StationLatency> best =
      topo.nearest_by_latency(home, weight, 1, keep);
  return best.empty() ? std::numeric_limits<double>::infinity()
                      : best.front().latency_ms;
}

}  // namespace

double min_placement_latency_ms(const Topology& topo, const ARRequest& req,
                                std::span<const char> station_up) {
  return min_latency(topo, req.home_station, req.total_proc_weight(),
                     station_up);
}

std::vector<double> min_placement_latencies(
    const Topology& topo, std::span<const ARRequest> requests) {
  // Keyed by the weight's bits, so a memo hit stands for a search over
  // exactly the same inputs.
  using Key = std::pair<int, std::uint64_t>;
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      return std::hash<std::uint64_t>{}(
          key.second ^ static_cast<std::uint64_t>(key.first) *
                           0x9e3779b97f4a7c15ULL);
    }
  };
  std::unordered_map<Key, double, KeyHash> memo;
  std::vector<double> latencies;
  latencies.reserve(requests.size());
  for (const ARRequest& req : requests) {
    const double weight = req.total_proc_weight();
    const Key key{req.home_station, std::bit_cast<std::uint64_t>(weight)};
    auto it = memo.find(key);
    if (it == memo.end()) {
      it = memo.emplace(key, min_latency(topo, req.home_station, weight, {}))
               .first;
    }
    latencies.push_back(it->second);
  }
  return latencies;
}

double split_placement_latency_ms(const Topology& topo, const ARRequest& req,
                                  const std::vector<int>& task_stations) {
  if (task_stations.size() != req.tasks.size()) {
    throw std::invalid_argument(
        "split_placement_latency_ms: one station per task required");
  }
  double latency = 0.0;
  int prev = req.home_station;
  for (std::size_t k = 0; k < req.tasks.size(); ++k) {
    const int bs = task_stations[k];
    latency += topo.transmission_delay_ms(prev, bs);
    latency += req.tasks[k].proc_weight * topo.station(bs).proc_ms_per_unit;
    prev = bs;
  }
  // Results return to the user device via its home station.
  latency += topo.transmission_delay_ms(prev, req.home_station);
  return latency;
}

}  // namespace mecar::mec
