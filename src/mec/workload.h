// Workload generator reproducing the paper's section VI-A settings.
//
// The paper drives its simulations with the AR trace statistics of Braud et
// al. [5] (64 KB JPEG frames at 90-120 fps, a four-task pipeline of render /
// track / update-world-model / recognize with 100/64/64/64 KB outputs, data
// rates of 30-50 MB/s) and unit rewards of 12-15 dollars [24]. We do not
// have the trace itself, so this generator synthesizes requests matching
// exactly those published aggregates — the only properties the paper's
// algorithms consume (DESIGN.md, substitution table).
#pragma once

#include <vector>

#include "mec/request.h"
#include "mec/topology.h"
#include "util/rng.h"

namespace mecar::mec {

/// How the reward of a (request, rate) pair relates to the rate.
enum class RewardModel {
  /// Paper model (section III-C, challenge 2): "the rewards and data rates
  /// of requests are independent". The reward of level (j, rho) is
  /// unit * volume with unit ~ U[reward_per_unit] and volume drawn from the
  /// rate support INDEPENDENTLY of rho.
  kIndependent,
  /// Ablation: the proportional model the paper argues against —
  /// reward = unit * rho.
  kProportional,
};

/// Arrival process of the dynamic problem (horizon_slots > 0).
enum class ArrivalProcess {
  /// Uniform over the horizon (the base model).
  kUniform,
  /// Poisson: exponential inter-arrivals with rate num_requests/horizon.
  kPoisson,
  /// Flash crowd: a Poisson background plus a burst window in the middle
  /// of the horizon holding ~half of all arrivals (stadium kickoff).
  kFlashCrowd,
};

/// Generator parameters with the paper's defaults (section VI-A).
struct WorkloadParams {
  int num_requests = 150;
  /// Data-rate support [30, 50] MB/s; Fig. 6 sweeps rate_max.
  double rate_min = 30.0;
  double rate_max = 50.0;
  /// Number of discrete levels |DR| in the rate support, at most
  /// kMaxRateLevels.
  int num_rate_levels = 5;
  /// Larger rates are less likely [10]; probability of level k is
  /// proportional to skew^k (skew <= 1). 1.0 = uniform.
  double rate_prob_skew = 0.6;
  /// Reward per unit data rate, dollars in [12, 15] [24]; drawn
  /// independently per (request, rate) pair — rewards correlate with but are
  /// not proportional to demand (section III-C).
  double reward_per_unit_min = 12.0;
  double reward_per_unit_max = 15.0;
  RewardModel reward_model = RewardModel::kIndependent;
  /// Pipeline length 3..5 (paper: "each request has 3 to 5 tasks").
  int tasks_min = 3;
  int tasks_max = 5;
  /// Zipf exponent of the user-attachment distribution across stations:
  /// 0 = uniform, ~1 = realistic urban hotspots. AR users cluster (malls,
  /// stadiums, campuses); hotspot skew is what separates the paper's
  /// global algorithms from the "local strategy" baselines (section VI-B).
  double home_skew = 1.0;
  /// Latency requirement, ms [18].
  double latency_budget_ms = 200.0;
  /// Dynamic problem: arrivals uniform over [0, horizon_slots) and stream
  /// durations uniform in [duration_min, duration_max] slots (6-20 s AR
  /// sessions at the paper's 0.05 s slot length).
  int horizon_slots = 0;  // 0 = all arrive at slot 0 (offline problem)
  ArrivalProcess arrivals = ArrivalProcess::kUniform;
  int duration_min_slots = 120;
  int duration_max_slots = 400;
};

/// Computing resource consumed per unit data rate: 20 MHz per MB/s (VI-A).
inline constexpr double kCUnitMhzPerMbps = 20.0;

/// The interned four-task AR pipeline template of [5]; `count` tasks are
/// taken cyclically (3 -> render/track/update, 5 -> + recognize + render
/// pass). Every call with the same `count` returns the same pipeline.
Pipeline ar_pipeline(int count);

/// Generates `params.num_requests` AR requests attached to Zipf-weighted
/// home stations of `topo`, ordered by (arrival_slot, id). Throws
/// std::invalid_argument on bad parameters, before drawing anything.
std::vector<ARRequest> generate_requests(const WorkloadParams& params,
                                         const Topology& topo,
                                         util::Rng& rng);

}  // namespace mecar::mec
