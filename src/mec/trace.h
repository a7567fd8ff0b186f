// Frame-level AR traces and demand-distribution estimation.
//
// The paper assumes "historical information about such data rates can be
// obtained" (section III-B): the discrete support DR and the per-request
// probabilities come from observed traffic. This module closes that loop:
//  * `FrameTrace` holds a per-frame record of an AR session (timestamps,
//    frame sizes), as the Braud et al. [5] trace would provide;
//  * `synthesize_trace` generates traces matching the published statistics
//    of [5] (64 KB JPEG frames at 90-120 fps, rate bursts);
//  * `estimate_demand` windows a trace into data rates and builds the
//    RateRewardDist a request carries (the DR support + probabilities);
//  * CSV import/export so real traces can be dropped in.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "mec/request.h"
#include "util/rng.h"

namespace mecar::mec {

/// Structured CSV import failure: the 1-based line number of the offending
/// row plus a message naming the malformed field. Derives from
/// std::invalid_argument so pre-existing catch sites keep working.
class TraceParseError : public std::invalid_argument {
 public:
  TraceParseError(int line, const std::string& what_arg)
      : std::invalid_argument("FrameTrace: line " + std::to_string(line) +
                              ": " + what_arg),
        line_(line) {}
  int line() const noexcept { return line_; }

 private:
  int line_;
};

/// One captured video frame of an AR session.
struct FrameRecord {
  /// Capture time in milliseconds from session start.
  double timestamp_ms = 0.0;
  /// Encoded size in kilobytes.
  double size_kb = 0.0;
};

/// A frame-level AR session trace.
class FrameTrace {
 public:
  FrameTrace() = default;
  explicit FrameTrace(std::vector<FrameRecord> frames);

  const std::vector<FrameRecord>& frames() const noexcept { return frames_; }
  std::size_t size() const noexcept { return frames_.size(); }
  bool empty() const noexcept { return frames_.empty(); }
  /// Duration from first to last frame, ms (0 for < 2 frames).
  double duration_ms() const noexcept;
  /// Total payload, MB.
  double total_mb() const noexcept;
  /// Average data rate over the whole trace, MB/s (0 when degenerate).
  double average_rate_mbps() const noexcept;

  /// Writes `timestamp_ms,size_kb` lines with a header.
  void write_csv(std::ostream& os) const;
  /// Parses the CSV format produced by write_csv. Throws TraceParseError
  /// (with the offending 1-based line number and field name) on malformed
  /// rows, and std::invalid_argument on non-monotonic timestamps or
  /// negative sizes.
  static FrameTrace read_csv(std::istream& is);

 private:
  std::vector<FrameRecord> frames_;
};

/// Parameters of the synthetic trace generator, defaults from [5]:
/// 64 KB JPEG frames uploaded at 90-120 fps, with occasional motion bursts
/// that raise the frame size (more scene change = bigger JPEGs).
struct TraceParams {
  double duration_s = 10.0;
  double fps_min = 90.0;
  double fps_max = 120.0;
  double frame_kb_mean = 64.0;
  /// Relative frame-size jitter (lognormal-ish via clamped gaussian).
  double frame_kb_jitter = 0.15;
  /// Probability per second that a motion burst starts.
  double burst_rate_per_s = 0.3;
  /// Burst length and amplification of frame sizes during a burst.
  double burst_len_s = 0.8;
  double burst_scale = 1.6;
};

/// Generates a synthetic session trace matching [5]'s aggregates.
FrameTrace synthesize_trace(const TraceParams& params, util::Rng& rng);

/// Options for turning a trace into the discrete demand distribution of a
/// request (the paper's DR support and pi probabilities).
struct EstimateOptions {
  /// Rate-averaging window.
  double window_ms = 500.0;
  /// Number of levels |DR| in the estimated support, at most
  /// kMaxRateLevels.
  int num_levels = 5;
  /// Unit reward range [24]; rewards are drawn demand-independently
  /// (section III-C) using `rng`.
  double reward_per_unit_min = 12.0;
  double reward_per_unit_max = 15.0;
};

/// Windows the trace into data rates, quantizes them into
/// `options.num_levels` equal-width bins over the observed range, and
/// returns the empirical (rate, probability, reward) distribution.
/// Throws std::invalid_argument, before drawing from `rng`, when
/// `options.num_levels` is outside [1, kMaxRateLevels] or the trace is
/// shorter than one window.
RateRewardDist estimate_demand(const FrameTrace& trace,
                               const EstimateOptions& options,
                               util::Rng& rng);

/// Per-window observed rates (MB/s) — the estimation intermediate, exposed
/// for tests and analysis tools.
std::vector<double> window_rates_mbps(const FrameTrace& trace,
                                      double window_ms);

}  // namespace mecar::mec
