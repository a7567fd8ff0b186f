// Probes the benchmark wraps around mecar's public API, plus the raw-sample
// statistics and the output format every workload shares.
//
//   * TimedPolicy wraps any sim::OnlinePolicy. Untraced, it records one
//     clock read per slot (decide() entry) and whether a request awaits
//     placement; traced, it also times decide() and feedback() and counts
//     the awaiting queue. A busy slot's host time is the interval between
//     consecutive decide() entries (the last slot closes at its feedback()
//     exit).
//   * timed_registry() copies the global policy registry and wraps every
//     online policy exp::Runner builds, folding each run into a SlotSink.
//   * SpanLog keeps spans (name, start, end, parent, slot/trial id) in
//     memory and writes them out once the run is over.
//
// Nothing here changes what the library decides: the wrapper forwards
// every call untouched, which the self-test and the traced-vs-untraced
// comparison both check.
#pragma once

#include <chrono>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exp/registry.h"
#include "sim/online_sim.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds since the process-wide origin (fixed at the first call).
double now_ms();

/// One simulated slot as the wrapper saw it. Durations and the exact
/// queue length are only recorded when traced.
struct SlotRecord {
  double entry_ms = 0.0;     // decide() entry, now_ms() time base
  double decide_ms = 0.0;    // time inside decide()
  double feedback_ms = 0.0;  // time inside feedback()
  double feedback_end_ms = 0.0;
  int awaiting = 0;          // requests awaiting placement (station < 0)
  bool busy = false;         // at least one request awaits placement
};

/// Per-slot figures of one or more wrapped runs.
struct SlotSummary {
  std::vector<double> busy_slot_ms;  // host time per busy slot, raw
  long long slots = 0;
  long long busy_slots = 0;
  long long overruns = 0;  // busy slots slower than the simulated slot
  double decide_ms = 0.0;
  double busy_decide_ms = 0.0;
  double feedback_ms = 0.0;
  double awaiting_sum = 0.0;  // summed over busy slots
  /// First decide() entry to last feedback() exit, summed over runs.
  double span_ms = 0.0;

  /// Folds one run's records in. `end_ms` closes the final slot;
  /// `slot_limit_ms` is the simulated slot length (the real-time limit).
  void add(const std::vector<SlotRecord>& records, double end_ms,
           double slot_limit_ms);
  void merge(const SlotSummary& other);
};

class SlotSink;
class SpanLog;

/// Forwards every call to `inner`, timing it from outside.
class TimedPolicy final : public mecar::sim::OnlinePolicy {
 public:
  /// `sink` (optional) receives this run's summary when the wrapper is
  /// destroyed; exp::Runner owns the policies it builds, so that is the
  /// only point where a run is known to be over.
  TimedPolicy(std::unique_ptr<mecar::sim::OnlinePolicy> inner, bool traced,
              SlotSink* sink = nullptr);
  ~TimedPolicy() override;
  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;

  mecar::sim::SlotDecision decide(const mecar::sim::SlotView& view) override;
  void feedback(const mecar::sim::SlotFeedback& fb) override;
  std::string name() const override { return inner_->name(); }
  void save_state(mecar::util::SnapshotWriter& w) const override {
    inner_->save_state(w);
  }
  void load_state(mecar::util::SnapshotReader& r) override {
    inner_->load_state(r);
  }

  const std::vector<SlotRecord>& records() const noexcept { return records_; }
  /// Exit of the last feedback() call (closes the final slot).
  double end_ms() const noexcept { return end_ms_; }
  double slot_limit_ms() const noexcept { return slot_limit_ms_; }

 private:
  std::unique_ptr<mecar::sim::OnlinePolicy> inner_;
  bool traced_;
  SlotSink* sink_;
  std::vector<SlotRecord> records_;
  double end_ms_ = 0.0;
  double slot_limit_ms_ = 50.0;
};

/// Thread-safe collector for the wrapped policies exp::Runner builds on
/// its pool threads.
class SlotSink {
 public:
  void add(const TimedPolicy& policy);
  /// While attached, every closed run also lands in `spans` as an
  /// "online_run" span under `parent` (id = run number).
  void attach(SpanLog* spans, int parent);
  /// Returns everything collected so far and starts over.
  SlotSummary take();
  /// Runs whose summary could not be folded in (allocation failure in a
  /// destructor); a non-zero count fails the benchmark.
  long long lost() const;

 private:
  friend class TimedPolicy;
  void mark_lost();

  mutable std::mutex mu_;
  SlotSummary summary_;
  long long lost_ = 0;
  SpanLog* spans_ = nullptr;
  int span_parent_ = -1;
  long long runs_ = 0;
};

/// A copy of the global registry whose online factories wrap every policy
/// in a TimedPolicy reporting to `sink` (which must outlive the copy).
mecar::exp::PolicyRegistry timed_registry(SlotSink& sink, bool traced);

/// In-memory span log, written out after the measured phases. A disabled
/// log records nothing: open() and add() return -1 and close(-1) is a
/// no-op, so untraced code paths can share the traced ones.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = true) : enabled_(enabled) {}

  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;    // index of the enclosing span, -1 = root
    long long id = -1;  // slot or trial id, -1 = none
  };

  /// Opens a span starting now; returns its index.
  int open(std::string name, int parent = -1, long long id = -1);
  void close(int index);
  /// Adds a finished span; returns its index.
  int add(Span span);
  /// Adds one "slot" span per record (id = slot index) with "decide" and
  /// "feedback" children, under `parent`.
  void add_slots(const std::vector<SlotRecord>& records, double end_ms,
                 int parent);
  void write_json(std::ostream& os) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// True when two runs reached the same simulated outcome, bit for bit.
bool same_outcome(const mecar::sim::OnlineMetrics& a,
                  const mecar::sim::OnlineMetrics& b);

/// Exact percentile (pct in [0, 100]) of raw samples, by linear
/// interpolation between order statistics — util::percentile's rule.
double exact_percentile(std::vector<double> samples, double pct);
double median(std::vector<double> samples);

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// One printed metric: the contract's value and unit, plus the number of
/// raw samples it was computed from (printed in the human-readable table).
/// An unlisted metric is printed in the table only, not in the JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long long samples = 1;
  bool listed = true;
};

/// What a workload run hands back to main().
struct Outcome {
  std::vector<Metric> metrics;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  // failed output checks
  std::vector<std::string> notes;     // printed above the metric table

  void add(std::string name, double value, std::string unit,
           long long samples = 1, bool listed = true);
  /// Records a failed check (and keeps going, so every failure prints).
  void check(bool ok, const std::string& what);
};

/// Prints the notes, the table (name, value, unit, samples) and then, as
/// the last line, the contract's JSON object. Returns false when a check failed or
/// a metric is not finite.
bool print_outcome(std::ostream& os, const Outcome& out);

}  // namespace perfbench
