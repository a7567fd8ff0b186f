// AR requests with uncertain demands: task pipelines and the discrete
// (data rate, reward) distribution of section III-B/C.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mec/topology.h"
#include "util/rng.h"

namespace mecar::mec {

/// One task of an AR processing pipeline (pose estimation, tracking, world
/// model, rendering, ...). `proc_weight` scales the per-station processing
/// delay; `output_kb` documents the inter-task matrix size of the pipeline.
struct TaskSpec {
  std::string name;
  double output_kb = 64.0;
  double proc_weight = 1.0;
};

/// An immutable task pipeline, shared by every request with the same task
/// list. Pipelines are interned by content (equal names, `output_kb` and
/// `proc_weight` compared by their bits) and live for the whole process, so
/// a Pipeline is one pointer: copying it touches no shared state, and equal
/// task lists have the same data(). Interning takes a lock, so pipelines
/// may be built on any thread.
class Pipeline {
 public:
  /// The empty pipeline.
  Pipeline() noexcept : data_(&kEmpty) {}
  /// Interns `tasks`.
  Pipeline(std::initializer_list<TaskSpec> tasks)
      : Pipeline(std::span<const TaskSpec>(tasks.begin(), tasks.size())) {}
  explicit Pipeline(std::span<const TaskSpec> tasks) : data_(intern(tasks)) {}

  std::size_t size() const noexcept { return data_->tasks.size(); }
  bool empty() const noexcept { return data_->tasks.empty(); }
  const TaskSpec* data() const noexcept { return data_->tasks.data(); }
  const TaskSpec* begin() const noexcept { return data(); }
  const TaskSpec* end() const noexcept { return data() + size(); }
  const TaskSpec& operator[](std::size_t k) const noexcept {
    return data_->tasks[k];
  }
  /// Sum of the tasks' proc_weight in task order from 0.0, computed once
  /// when the pipeline is interned.
  double total_proc_weight() const noexcept {
    return data_->total_proc_weight;
  }

 private:
  struct Interned {
    std::vector<TaskSpec> tasks;
    double total_proc_weight = 0.0;
  };
  static const Interned kEmpty;
  static const Interned* intern(std::span<const TaskSpec> tasks);

  const Interned* data_;
};

/// One support point of the joint (data rate, reward) distribution:
/// request r_j has rate `rate` (MB/s) with probability `prob`, collecting
/// reward `reward` dollars when served at that rate (Eq. (pi, RD) pairs).
struct RateLevel {
  double rate = 0.0;
  double prob = 0.0;
  double reward = 0.0;
};

/// Most levels a RateRewardDist holds. The levels live inline in every
/// request, so this cap sets the size of the request record.
inline constexpr std::size_t kMaxRateLevels = 8;

/// Discrete distribution over (rate, reward) pairs, stored inline (no heap
/// memory). Probabilities must sum to 1 (validated), rates must be strictly
/// increasing.
class RateRewardDist {
 public:
  /// Degenerate distribution: rate 0 with probability 1, reward 0.
  /// Lets ARRequest be default-constructed before its demand is filled in.
  RateRewardDist() noexcept : levels_{{RateLevel{0.0, 1.0, 0.0}}} {}

  explicit RateRewardDist(std::initializer_list<RateLevel> levels)
      : RateRewardDist(
            std::span<const RateLevel>(levels.begin(), levels.size())) {}
  /// Copies `levels`; throws std::invalid_argument on none, on more than
  /// kMaxRateLevels, or on levels that do not form a distribution.
  explicit RateRewardDist(std::span<const RateLevel> levels);

  std::span<const RateLevel> levels() const noexcept {
    return {levels_.data(), size_};
  }
  std::size_t size() const noexcept { return size_; }
  const RateLevel& level(std::size_t k) const {
    if (k >= size_) {
      throw std::out_of_range("RateRewardDist::level: index out of range");
    }
    return levels_[k];
  }

  /// E[rho_j].
  double expected_rate() const noexcept { return expected_rate_; }
  /// E[RD_j] = sum_k pi_k * RD_k.
  double expected_reward() const noexcept { return expected_reward_; }
  double max_rate() const noexcept { return levels_[size_ - 1].rate; }
  double min_rate() const noexcept { return levels_[0].rate; }

  /// E[min(rho_j, cap)] — the truncated expectation of constraints (10)/(23).
  double expected_truncated_rate(double cap) const noexcept;

  /// Expected reward restricted to levels with rate <= cap — the ER_jil of
  /// Eq. (8) with cap = (C(bs_i) - l*C_l) / C_unit.
  double expected_reward_within(double cap) const noexcept;

  /// Samples a level index according to the probabilities.
  std::size_t sample(util::Rng& rng) const;

 private:
  // The scalars lead and the level array trails: DynamicRR's density pass
  // reads both expectations of every queued request in every slot.
  std::size_t size_ = 1;
  double expected_rate_ = 0.0;
  double expected_reward_ = 0.0;
  std::array<RateLevel, kMaxRateLevels> levels_;
};

/// An AR request: home attachment point, task pipeline, uncertain demand,
/// latency budget, and (for the dynamic problem) arrival time and stream
/// duration. A flat record that owns no heap memory: the pipeline is
/// shared and the demand's levels are inline. The scalars come first and
/// the demand's level array last.
struct ARRequest {
  int id = 0;
  /// Base station the user device attaches to (requests enter here).
  int home_station = 0;
  Pipeline tasks;
  /// Experienced-latency requirement \hat{D}_j, ms.
  double latency_budget_ms = 200.0;
  /// Arrival time slot a_j (dynamic problem; 0 for the offline problem).
  int arrival_slot = 0;
  /// Stream duration tau_j in slots (dynamic problem work model).
  int duration_slots = 1;
  RateRewardDist demand;

  /// Total processing weight of the pipeline (sum of task weights).
  double total_proc_weight() const noexcept {
    return tasks.total_proc_weight();
  }
};

/// Transmission + processing latency (ms) of running all tasks of `req` in
/// station `bs`: 2 * d_trans(home, bs) + sum_k d^pro (Eq. (2) without the
/// waiting term). +infinity when the backhaul is disconnected. Reads the
/// home station's delay row.
double placement_latency_ms(const Topology& topo, const ARRequest& req,
                            int bs);

/// Smallest placement_latency_ms(topo, req, bs) over the stations whose
/// `station_up` entry is nonzero (every station when `station_up` is
/// empty); +infinity when none qualifies. One bounded search
/// (Topology::nearest_by_latency with a limit of 1); no delay row is
/// read. Throws std::out_of_range on a bad home station and
/// std::invalid_argument when a non-empty mask does not have one entry per
/// station.
double min_placement_latency_ms(const Topology& topo, const ARRequest& req,
                                std::span<const char> station_up = {});

/// min_placement_latency_ms(topo, requests[j]) for every request, over all
/// stations. The search runs once per distinct (home station,
/// total_proc_weight()) pair and is reused for repeats, so each value keeps
/// the bits of the single-request helper; generated workloads have at most
/// three weights per home station. Throws std::out_of_range on a bad home
/// station.
std::vector<double> min_placement_latencies(
    const Topology& topo, std::span<const ARRequest> requests);

/// Latency of `req` when its tasks are split across stations: each task k
/// at stations[k]; consecutive tasks at different stations pay the 2x
/// inter-station hop (the Heu migration model).
double split_placement_latency_ms(const Topology& topo, const ARRequest& req,
                                  const std::vector<int>& task_stations);

}  // namespace mecar::mec
