// Deterministic pseudo-random number generation for reproducible simulations.
//
// Every stochastic component in mecar (topology generation, workloads,
// randomized rounding, rate realization, bandit exploration) draws from an
// explicitly passed Rng so that a single seed reproduces an entire
// experiment. The generator is xoshiro256**, seeded through SplitMix64, which
// is both fast and statistically strong for simulation purposes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace mecar::util {

/// Deterministic random number generator (xoshiro256**).
///
/// Satisfies the UniformRandomBitGenerator concept, so it can also be used
/// with <random> distributions, although the member helpers below are the
/// preferred interface inside mecar.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator from a 64-bit seed (expanded via SplitMix64).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in the inclusive range [lo, hi]. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p) noexcept;

  /// Samples an index in [0, weights.size()) with probability proportional
  /// to weights[i]. Weights must be non-negative and not all zero. Equal to
  /// Categorical(weights).sample(*this); repeated draws from one weight
  /// vector should build the Categorical once.
  std::size_t categorical(std::span<const double> weights);

  /// Samples an index in [0, weights.size()) proportional to weights, where
  /// weights may sum to less than `total`; with the residual probability
  /// (total - sum) / total, returns weights.size() ("no pick"). Used by the
  /// y/4 randomized rounding of algorithm Appro.
  std::size_t categorical_or_none(std::span<const double> weights,
                                  double total);

  /// Exponential variate with the given rate (> 0).
  double exponential(double rate);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Derives an independent child generator; useful for giving each
  /// subsystem its own stream while remaining reproducible.
  Rng split() noexcept;

  /// The raw xoshiro256** state, for checkpoint/restore. set_state with a
  /// captured state resumes the stream at exactly the next draw.
  std::array<std::uint64_t, 4> state() const noexcept {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    for (int i = 0; i < 4; ++i) {
      state_[i] = state[static_cast<std::size_t>(i)];
    }
  }

 private:
  std::uint64_t state_[4];
};

/// A categorical distribution over a span of weights, validated and summed
/// (in index order) once, so each draw costs one uniform and one
/// subtract-scan rather than a re-validation and re-sum of every weight.
/// A view: the weights must outlive it.
class Categorical {
 public:
  /// Throws std::invalid_argument on a negative weight or a zero total.
  explicit Categorical(std::span<const double> weights);

  /// Sum of the weights, accumulated in index order.
  double total() const noexcept { return total_; }

  /// Samples an index in [0, weights.size()) with probability proportional
  /// to its weight, from one rng.uniform() draw.
  std::size_t sample(Rng& rng) const noexcept;

 private:
  std::span<const double> weights_;
  double total_ = 0.0;
};

}  // namespace mecar::util
