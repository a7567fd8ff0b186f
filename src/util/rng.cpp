#include "util/rng.h"

#include <algorithm>
#include <cmath>

namespace mecar::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ULL) - (~0ULL) % span;
  std::uint64_t v = (*this)();
  while (v >= limit) v = (*this)();
  return lo + static_cast<std::int64_t>(v % span);
}

bool Rng::bernoulli(double p) noexcept {
  return uniform() < std::clamp(p, 0.0, 1.0);
}

std::size_t Rng::categorical(std::span<const double> weights) {
  return Categorical(weights).sample(*this);
}

std::size_t Rng::categorical_or_none(std::span<const double> weights,
                                     double total) {
  double sum = 0.0;
  for (double w : weights) {
    if (w < 0.0) {
      throw std::invalid_argument("Rng::categorical_or_none: negative weight");
    }
    sum += w;
  }
  if (total <= 0.0 || sum > total * (1.0 + 1e-9)) {
    throw std::invalid_argument(
        "Rng::categorical_or_none: weights exceed total");
  }
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size();  // residual mass -> "no pick"
}

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("Rng::exponential: rate <= 0");
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / rate;
}

Rng Rng::split() noexcept {
  return Rng((*this)());
}

Categorical::Categorical(std::span<const double> weights) : weights_(weights) {
  for (double w : weights_) {
    if (w < 0.0) throw std::invalid_argument("Categorical: negative weight");
    total_ += w;
  }
  if (total_ <= 0.0) {
    throw std::invalid_argument("Categorical: weights sum to zero");
  }
}

std::size_t Categorical::sample(Rng& rng) const noexcept {
  double target = rng.uniform() * total_;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    target -= weights_[i];
    if (target < 0.0) return i;
  }
  return weights_.size() - 1;  // numerical tail
}

}  // namespace mecar::util
