#include "mec/trace.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/parse.h"

namespace mecar::mec {

FrameTrace::FrameTrace(std::vector<FrameRecord> frames)
    : frames_(std::move(frames)) {
  double prev = -1.0;
  for (const FrameRecord& f : frames_) {
    if (f.timestamp_ms < prev) {
      throw std::invalid_argument("FrameTrace: timestamps must not decrease");
    }
    if (f.size_kb < 0.0) {
      throw std::invalid_argument("FrameTrace: negative frame size");
    }
    prev = f.timestamp_ms;
  }
}

double FrameTrace::duration_ms() const noexcept {
  if (frames_.size() < 2) return 0.0;
  return frames_.back().timestamp_ms - frames_.front().timestamp_ms;
}

double FrameTrace::total_mb() const noexcept {
  double kb = 0.0;
  for (const FrameRecord& f : frames_) kb += f.size_kb;
  return kb / 1024.0;
}

double FrameTrace::average_rate_mbps() const noexcept {
  const double dur = duration_ms();
  if (dur <= 0.0) return 0.0;
  return total_mb() / (dur / 1000.0);
}

void FrameTrace::write_csv(std::ostream& os) const {
  os << "timestamp_ms,size_kb\n";
  for (const FrameRecord& f : frames_) {
    os << f.timestamp_ms << ',' << f.size_kb << '\n';
  }
}

FrameTrace FrameTrace::read_csv(std::istream& is) {
  std::vector<FrameRecord> frames;
  std::string line;
  bool first = true;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (line.rfind("timestamp_ms", 0) == 0) continue;  // header
    }
    const auto comma = line.find(',');
    if (comma == std::string::npos) {
      throw TraceParseError(line_no, "expected 'timestamp_ms,size_kb', got '" +
                                         line + "'");
    }
    if (line.find(',', comma + 1) != std::string::npos) {
      throw TraceParseError(line_no,
                            "expected exactly 2 fields, got '" + line + "'");
    }
    FrameRecord record;
    const std::string ts_tok = line.substr(0, comma);
    const std::string kb_tok = line.substr(comma + 1);
    if (const auto ts = util::parse_double(ts_tok)) {
      record.timestamp_ms = *ts;
    } else {
      throw TraceParseError(line_no,
                            "bad timestamp_ms value '" + ts_tok + "'");
    }
    if (const auto kb = util::parse_double(kb_tok)) {
      record.size_kb = *kb;
    } else {
      throw TraceParseError(line_no, "bad size_kb value '" + kb_tok + "'");
    }
    frames.push_back(record);
  }
  return FrameTrace(std::move(frames));
}

FrameTrace synthesize_trace(const TraceParams& params, util::Rng& rng) {
  if (params.duration_s <= 0.0 || params.fps_min <= 0.0 ||
      params.fps_max < params.fps_min) {
    throw std::invalid_argument("synthesize_trace: bad parameters");
  }
  std::vector<FrameRecord> frames;
  double t_ms = 0.0;
  double burst_until_ms = -1.0;
  const double end_ms = params.duration_s * 1000.0;
  while (t_ms < end_ms) {
    // Frame cadence wanders within the fps band.
    const double fps = rng.uniform(params.fps_min, params.fps_max);
    t_ms += 1000.0 / fps;

    // Motion bursts inflate frame sizes for a stretch.
    if (t_ms > burst_until_ms &&
        rng.bernoulli(params.burst_rate_per_s / fps)) {
      burst_until_ms = t_ms + params.burst_len_s * 1000.0;
    }
    const bool bursting = t_ms <= burst_until_ms;

    // Clamped gaussian-ish jitter via average of uniforms.
    const double jitter =
        1.0 + params.frame_kb_jitter *
                  (rng.uniform() + rng.uniform() + rng.uniform() - 1.5);
    double size = params.frame_kb_mean * std::max(0.2, jitter);
    if (bursting) size *= params.burst_scale;
    frames.push_back(FrameRecord{t_ms, size});
  }
  return FrameTrace(std::move(frames));
}

std::vector<double> window_rates_mbps(const FrameTrace& trace,
                                      double window_ms) {
  if (window_ms <= 0.0) {
    throw std::invalid_argument("window_rates_mbps: non-positive window");
  }
  std::vector<double> rates;
  if (trace.empty()) return rates;
  const double start = trace.frames().front().timestamp_ms;
  const double end = trace.frames().back().timestamp_ms;
  if (end - start < window_ms) return rates;

  std::size_t i = 0;
  for (double w = start; w + window_ms <= end + 1e-9; w += window_ms) {
    double kb = 0.0;
    while (i < trace.size() &&
           trace.frames()[i].timestamp_ms < w + window_ms) {
      kb += trace.frames()[i].size_kb;
      ++i;
    }
    rates.push_back((kb / 1024.0) / (window_ms / 1000.0));
  }
  return rates;
}

RateRewardDist estimate_demand(const FrameTrace& trace,
                               const EstimateOptions& options,
                               util::Rng& rng) {
  if (options.num_levels < 1 ||
      options.num_levels > static_cast<int>(kMaxRateLevels)) {
    throw std::invalid_argument("estimate_demand: num_levels must be in [1, " +
                                std::to_string(kMaxRateLevels) + "]");
  }
  const auto rates = window_rates_mbps(trace, options.window_ms);
  if (rates.empty()) {
    throw std::invalid_argument(
        "estimate_demand: trace shorter than one window");
  }
  const auto [lo_it, hi_it] = std::minmax_element(rates.begin(), rates.end());
  const double lo = *lo_it;
  const double hi = *hi_it;

  // Quantize into equal-width bins; collapse to a single level when the
  // trace is rate-stable.
  const int levels = hi - lo < 1e-9 ? 1 : options.num_levels;
  std::vector<int> counts(static_cast<std::size_t>(levels), 0);
  const double width = levels == 1 ? 1.0 : (hi - lo) / levels;
  for (double r : rates) {
    auto bin = levels == 1
                   ? 0
                   : static_cast<int>(std::min<double>(
                         levels - 1, std::floor((r - lo) / width)));
    ++counts[static_cast<std::size_t>(bin)];
  }

  std::vector<RateLevel> out;
  const double n = static_cast<double>(rates.size());
  for (int k = 0; k < levels; ++k) {
    if (counts[static_cast<std::size_t>(k)] == 0) continue;
    RateLevel lvl;
    lvl.rate = levels == 1 ? lo : lo + width * (k + 0.5);  // bin centre
    lvl.prob = counts[static_cast<std::size_t>(k)] / n;
    // Demand-independent rewards (section III-C): billed volume drawn from
    // the observed range independently of the level's rate.
    lvl.reward = rng.uniform(options.reward_per_unit_min,
                             options.reward_per_unit_max) *
                 rng.uniform(lo, std::max(hi, lo + 1e-9));
    out.push_back(lvl);
  }
  // Exact normalization of the tail.
  double acc = 0.0;
  for (std::size_t k = 0; k + 1 < out.size(); ++k) acc += out[k].prob;
  out.back().prob = 1.0 - acc;
  return RateRewardDist(out);
}

}  // namespace mecar::mec
