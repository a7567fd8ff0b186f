#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <stdexcept>

namespace perfbench {

namespace sim = mecar::sim;

double now_ms() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - origin)
      .count();
}

// ---- slot records ----------------------------------------------------

void SlotSummary::add(const std::vector<SlotRecord>& records, double end_ms,
                      double slot_limit_ms) {
  if (records.empty()) return;
  for (std::size_t t = 0; t < records.size(); ++t) {
    const SlotRecord& r = records[t];
    const double next =
        t + 1 < records.size() ? records[t + 1].entry_ms : end_ms;
    const double slot_ms = next - r.entry_ms;
    ++slots;
    decide_ms += r.decide_ms;
    feedback_ms += r.feedback_ms;
    if (!r.busy) continue;
    ++busy_slots;
    busy_slot_ms.push_back(slot_ms);
    busy_decide_ms += r.decide_ms;
    awaiting_sum += r.awaiting;
    if (slot_ms > slot_limit_ms) ++overruns;
  }
  span_ms += end_ms - records.front().entry_ms;
}

void SlotSummary::merge(const SlotSummary& other) {
  busy_slot_ms.insert(busy_slot_ms.end(), other.busy_slot_ms.begin(),
                      other.busy_slot_ms.end());
  slots += other.slots;
  busy_slots += other.busy_slots;
  overruns += other.overruns;
  decide_ms += other.decide_ms;
  busy_decide_ms += other.busy_decide_ms;
  feedback_ms += other.feedback_ms;
  awaiting_sum += other.awaiting_sum;
  span_ms += other.span_ms;
}

// ---- TimedPolicy -----------------------------------------------------

TimedPolicy::TimedPolicy(std::unique_ptr<sim::OnlinePolicy> inner,
                         bool traced, SlotSink* sink)
    : inner_(std::move(inner)), traced_(traced), sink_(sink) {
  if (!inner_) throw std::invalid_argument("TimedPolicy: null policy");
}

TimedPolicy::~TimedPolicy() {
  if (sink_ == nullptr) return;
  try {
    sink_->add(*this);
  } catch (...) {
    sink_->mark_lost();
  }
}

sim::SlotDecision TimedPolicy::decide(const sim::SlotView& view) {
  SlotRecord rec;
  rec.entry_ms = now_ms();
  slot_limit_ms_ = view.slot_ms;
  const std::vector<sim::RequestState>& states = *view.states;
  for (const int j : view.pending) {
    if (states[static_cast<std::size_t>(j)].station >= 0) continue;
    rec.busy = true;
    ++rec.awaiting;
    if (!traced_) break;  // untraced: the busy flag is all slot_ms needs
  }
  sim::SlotDecision decision = inner_->decide(view);
  if (traced_) rec.decide_ms = now_ms() - rec.entry_ms;
  records_.push_back(rec);
  return decision;
}

void TimedPolicy::feedback(const sim::SlotFeedback& fb) {
  const double start = traced_ ? now_ms() : 0.0;
  inner_->feedback(fb);
  end_ms_ = now_ms();
  if (traced_ && !records_.empty()) {
    records_.back().feedback_ms = end_ms_ - start;
    records_.back().feedback_end_ms = end_ms_;
  }
}

// ---- SlotSink / timed_registry ---------------------------------------

void SlotSink::add(const TimedPolicy& policy) {
  SlotSummary one;
  one.add(policy.records(), policy.end_ms(), policy.slot_limit_ms());
  const std::lock_guard<std::mutex> lock(mu_);
  summary_.merge(one);
  const long long run = runs_++;
  if (spans_ != nullptr && !policy.records().empty()) {
    spans_->add({"online_run", policy.records().front().entry_ms,
                 policy.end_ms(), span_parent_, run});
  }
}

void SlotSink::attach(SpanLog* spans, int parent) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_ = spans;
  span_parent_ = parent;
}

SlotSummary SlotSink::take() {
  const std::lock_guard<std::mutex> lock(mu_);
  SlotSummary out = std::move(summary_);
  summary_ = SlotSummary{};
  return out;
}

long long SlotSink::lost() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return lost_;
}

void SlotSink::mark_lost() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++lost_;
}

mecar::exp::PolicyRegistry timed_registry(SlotSink& sink, bool traced) {
  const mecar::exp::PolicyRegistry& global =
      mecar::exp::PolicyRegistry::global();
  mecar::exp::PolicyRegistry wrapped = global;
  for (const std::string& name : global.online_names()) {
    wrapped.register_online(
        name, [&global, &sink, name, traced](
                  const mecar::mec::Topology& topo,
                  const mecar::core::AlgorithmParams& params,
                  const sim::DynamicRrParams& rr, mecar::util::Rng rng) {
          return std::unique_ptr<sim::OnlinePolicy>(std::make_unique<TimedPolicy>(
              global.make_online(name, topo, params, rr, std::move(rng)),
              traced, &sink));
        });
  }
  return wrapped;
}

// ---- SpanLog ---------------------------------------------------------

int SpanLog::open(std::string name, int parent, long long id) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.start_ms = now_ms();
  s.end_ms = s.start_ms;
  s.parent = parent;
  s.id = id;
  return add(std::move(s));
}

void SpanLog::close(int index) {
  if (index < 0) return;
  const double t = now_ms();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(index)).end_ms = t;
}

int SpanLog::add(Span span) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::add_slots(const std::vector<SlotRecord>& records, double end_ms,
                        int parent) {
  if (!enabled_) return;
  for (std::size_t t = 0; t < records.size(); ++t) {
    const SlotRecord& r = records[t];
    const double next =
        t + 1 < records.size() ? records[t + 1].entry_ms : end_ms;
    const long long id = static_cast<long long>(t);
    const int slot = add({"slot", r.entry_ms, next, parent, id});
    add({"decide", r.entry_ms, r.entry_ms + r.decide_ms, slot, id});
    add({"feedback", r.feedback_end_ms - r.feedback_ms, r.feedback_end_ms,
         slot, id});
  }
}

void SpanLog::write_json(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  os << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"name\": \"" << s.name << "\", \"start_ms\": "
       << std::setprecision(12) << s.start_ms << ", \"end_ms\": " << s.end_ms
       << ", \"parent\": " << s.parent << ", \"id\": " << s.id << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

// ---- statistics ------------------------------------------------------

bool same_outcome(const sim::OnlineMetrics& a, const sim::OnlineMetrics& b) {
  return a.total_reward == b.total_reward && a.arrived == b.arrived &&
         a.completed == b.completed && a.dropped == b.dropped &&
         a.unfinished == b.unfinished && a.displaced == b.displaced &&
         a.handovers == b.handovers && a.avg_latency_ms == b.avg_latency_ms &&
         a.per_slot_reward == b.per_slot_reward;
}

double exact_percentile(std::vector<double> samples, double pct) {
  if (samples.empty() || !(pct >= 0.0 && pct <= 100.0)) {
    throw std::invalid_argument("exact_percentile: empty sample or bad pct");
  }
  std::sort(samples.begin(), samples.end());
  const double pos = pct / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double median(std::vector<double> samples) {
  return exact_percentile(std::move(samples), 50.0);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- output ----------------------------------------------------------

void Outcome::add(std::string name, double value, std::string unit,
                  long long samples, bool listed) {
  metrics.push_back(
      {std::move(name), value, std::move(unit), samples, listed});
}

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

bool print_outcome(std::ostream& os, const Outcome& out) {
  bool correct = out.failures.empty();
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) correct = false;
  }
  for (const std::string& note : out.notes) os << note << '\n';
  char line[256];
  std::snprintf(line, sizeof line, "%-34s %16s  %-8s %s\n", "metric", "value",
                "unit", "samples");
  os << line;
  for (const Metric& m : out.metrics) {
    std::snprintf(line, sizeof line, "%-34s %16.6g  %-8s %lld%s\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples,
                  m.listed ? "" : "  (table only)");
    os << line;
  }
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : out.metrics) {
    if (!m.listed) continue;
    os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": ";
    first = false;
    if (std::isfinite(m.value)) {
      std::snprintf(line, sizeof line, "%.17g", m.value);
      os << line;
    } else {
      os << "null";
    }
    os << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}" << std::endl;
  return correct;
}

}  // namespace perfbench
