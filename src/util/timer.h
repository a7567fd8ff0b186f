// Wall-clock timing for the running-time series of Fig. 3(c).
#pragma once

#include <chrono>

namespace mecar::util {

/// Monotonic stopwatch. Started on construction; `restart()` resets it.
class Timer {
 public:
  Timer() noexcept : start_(clock::now()) {}

  void restart() noexcept { start_ = clock::now(); }

  /// Elapsed seconds since construction or the last restart.
  double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double elapsed_ms() const noexcept { return elapsed_seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace mecar::util
