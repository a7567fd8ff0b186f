// Tests for checkpoint orchestration (sim/checkpoint.h): mid-run
// SimSnapshot capture via SlotHook and bit-identical resume of every
// registered online policy (and repeat runs of one simulator), including
// a snapshot that crosses between a fresh simulator and one that already
// ran, the rejection of snapshots that do not fit the resuming simulator
// or its policy, plus byte-stable serialization of SimSnapshot itself,
// the CheckpointStore generation ledger (atomic writes, newest-first
// listing, prune-to-two retention), and the corrupted-newest-generation
// fallback the resume ladder performs. The exp::Runner cases run a small
// sweep and a small regret scenario pooled and checkpointed, kill
// checkpointed runs with SIGKILL at unit boundaries and inside
// simulations, resume them, and feed the resume ladder CRC-valid
// generations that do not fit the run.
//
// Equality is EXPECT_EQ on doubles throughout: the checkpoint contract is
// bit-identity, not tolerance-equality.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/instance.h"
#include "exp/registry.h"
#include "exp/runner.h"
#include "obs/telemetry.h"
#include "online_fixtures.h"
#include "sim/checkpoint.h"
#include "sim/dynamic_rr.h"
#include "sim/online_sim.h"
#include "util/rng.h"
#include "util/snapshot.h"

namespace mecar::sim {
namespace {

constexpr std::uint32_t kMagic = 0x54504b43u;  // "CKPT" (test-local frame)
constexpr std::uint32_t kVersion = 1;

struct CaptureHook final : SlotHook {
  int at_slot;
  std::optional<SimSnapshot> snap;
  explicit CaptureHook(int slot) : at_slot(slot) {}
  bool want_snapshot(int slot) override { return slot == at_slot; }
  void on_snapshot(int, SimSnapshot s) override { snap = std::move(s); }
};

TEST(OnlineSimulator, RepeatRunsAreIdentical) {
  // One simulator, run twice under faults and one-way mobility. A re-home
  // leaking from the first run into the simulator's workload would make
  // the second run's moves no-ops and change its handovers.
  const exp::Instance inst = busy_instance(11, 260);
  OnlineSimulator sim(inst.topo, inst.requests, inst.realized,
                      chaos_params(inst, 260));
  const auto run = [&] {
    const auto policy = make_policy("DynamicRR", inst.topo);
    return sim.run(*policy);
  };
  const OnlineMetrics first = run();
  const OnlineMetrics second = run();
  EXPECT_GT(first.handovers, 0);
  expect_identical(first, second, "DynamicRR/repeat");
}

/// What a crashed process reads back: the snapshot after a round trip
/// through the binary frame.
SimSnapshot disk_round_trip(const SimSnapshot& snap) {
  util::SnapshotWriter w;
  save_sim_snapshot(w, snap);
  const std::vector<std::uint8_t> framed = w.finish(kMagic, kVersion);
  util::SnapshotReader r(framed, kMagic, kVersion);
  SimSnapshot decoded = load_sim_snapshot(r);
  r.expect_end();
  return decoded;
}

/// Runs uninterrupted; then runs again with a snapshot captured at
/// `capture_slot`, round-trips the snapshot through the binary frame, and
/// resumes a THIRD simulator from the decoded copy. Both must match.
void expect_resume_identical(const exp::Instance& inst,
                             const OnlineParams& params,
                             const std::string& name, int capture_slot,
                             const std::string& label) {
  OnlineSimulator full(inst.topo, inst.requests, inst.realized, params);
  auto full_policy = make_policy(name, inst.topo);
  const OnlineMetrics uninterrupted = full.run(*full_policy);

  OnlineSimulator first(inst.topo, inst.requests, inst.realized, params);
  auto first_policy = make_policy(name, inst.topo);
  CaptureHook hook(capture_slot);
  const OnlineMetrics first_metrics = first.run(*first_policy, &hook);
  expect_identical(uninterrupted, first_metrics, label);
  ASSERT_TRUE(hook.snap.has_value()) << label;
  EXPECT_EQ(hook.snap->next_slot, capture_slot) << label;

  // The resumed run sees only what a crashed process would: the snapshot
  // after a disk round trip, and a freshly constructed policy.
  const SimSnapshot decoded = disk_round_trip(*hook.snap);
  OnlineSimulator resumed(inst.topo, inst.requests, inst.realized, params);
  auto resumed_policy = make_policy(name, inst.topo);
  const OnlineMetrics metrics = resumed.run(*resumed_policy, nullptr, &decoded);
  expect_identical(uninterrupted, metrics, label);

  // Both policies end in the same state: a field the snapshot lost (the
  // warm basis, a degradation counter) shows here even when the decisions
  // it fed happened to coincide.
  util::SnapshotWriter want;
  util::SnapshotWriter got;
  full_policy->save_state(want);
  resumed_policy->save_state(got);
  EXPECT_EQ(want.payload(), got.payload()) << label;
}

// The next three tests keep the names they had when mecar had two slot
// engines; each still runs the instance it ran then, now on the one loop.

TEST(CheckpointResume, LegacyEngineUnderChaos) {
  const exp::Instance inst = busy_instance(11, 260);
  expect_resume_identical(inst, chaos_params(inst, 260), "DynamicRR", 115,
                          "DynamicRR/seed 11");
  expect_resume_identical(inst, chaos_params(inst, 260), "Greedy", 115,
                          "Greedy/seed 11");
}

TEST(CheckpointResume, ShardedEngineUnderChaos) {
  const exp::Instance inst = busy_instance(13, 260);
  expect_resume_identical(inst, chaos_params(inst, 260), "DynamicRR", 115,
                          "DynamicRR/seed 13");
}

TEST(CheckpointResume, CrossEngineBothDirections) {
  // A snapshot is canonical state, not a view of the simulator that wrote
  // it: one written by a simulator that already finished a run resumes on
  // a fresh simulator, and one written by a fresh simulator resumes on the
  // simulator that already ran. Under mobility, a run that leaked its
  // re-homes or any other per-run state into the simulator would diverge.
  const exp::Instance inst = busy_instance(17, 260);
  const OnlineParams params = chaos_params(inst, 260);
  const auto run = [&](OnlineSimulator& sim, SlotHook* hook,
                       const SimSnapshot* resume) {
    const auto policy = make_policy("DynamicRR", inst.topo);
    return sim.run(*policy, hook, resume);
  };

  OnlineSimulator ran(inst.topo, inst.requests, inst.realized, params);
  const OnlineMetrics uninterrupted = run(ran, nullptr, nullptr);
  EXPECT_GT(uninterrupted.handovers, 0);

  CaptureHook from_ran(115);
  expect_identical(uninterrupted, run(ran, &from_ran, nullptr),
                   "DynamicRR/capture after a run");
  ASSERT_TRUE(from_ran.snap.has_value());
  const SimSnapshot ran_snap = disk_round_trip(*from_ran.snap);
  OnlineSimulator fresh(inst.topo, inst.requests, inst.realized, params);
  expect_identical(uninterrupted, run(fresh, nullptr, &ran_snap),
                   "DynamicRR/ran->fresh");

  OnlineSimulator writer(inst.topo, inst.requests, inst.realized, params);
  CaptureHook from_fresh(115);
  expect_identical(uninterrupted, run(writer, &from_fresh, nullptr),
                   "DynamicRR/capture on a fresh simulator");
  ASSERT_TRUE(from_fresh.snap.has_value());
  const SimSnapshot fresh_snap = disk_round_trip(*from_fresh.snap);
  expect_identical(uninterrupted, run(ran, nullptr, &fresh_snap),
                   "DynamicRR/fresh->ran");
}

TEST(CheckpointResume, CaptureSlotBoundaries) {
  // Slot 0 (nothing has happened yet) and the final slot (everything
  // already happened) are the degenerate snapshots most likely to trip
  // off-by-ones in the restore path.
  const exp::Instance inst = busy_instance(19, 120);
  OnlineParams params;
  params.horizon_slots = 120;
  expect_resume_identical(inst, params, "DynamicRR", 0, "DynamicRR/slot0");
  expect_resume_identical(inst, params, "DynamicRR", 119,
                          "DynamicRR/last-slot");
}

TEST(CheckpointResume, EveryOnlinePolicyResumesBitIdentical) {
  // Each registered policy's save_state/load_state pair must carry every
  // field a later decision reads, under the same chaos as the tests above.
  const exp::Instance inst = busy_instance(11, 260);
  for (const std::string& name :
       exp::PolicyRegistry::global().online_names()) {
    expect_resume_identical(inst, chaos_params(inst, 260), name, 115, name);
  }
}

TEST(CheckpointResume, SnapshotRejectsForeignPolicyState) {
  // A policy blob must be consumed exactly: one written by another policy,
  // or carrying trailing bytes, is a schema mismatch, not a prefix to
  // resume from.
  const exp::Instance inst = busy_instance(23, 120);
  OnlineParams params;
  params.horizon_slots = 120;
  OnlineSimulator sim(inst.topo, inst.requests, inst.realized, params);
  auto policy = make_policy("DynamicRR", inst.topo);
  CaptureHook hook(60);
  sim.run(*policy, &hook);
  ASSERT_TRUE(hook.snap.has_value());
  ASSERT_FALSE(hook.snap->policy_state.empty());

  auto greedy = make_policy("Greedy", inst.topo);
  EXPECT_THROW(sim.run(*greedy, nullptr, &*hook.snap),
               util::SnapshotParseError);

  SimSnapshot padded = *hook.snap;
  padded.policy_state.push_back(0);
  padded.policy_state.push_back(0);
  auto dynamic_rr = make_policy("DynamicRR", inst.topo);
  EXPECT_THROW(sim.run(*dynamic_rr, nullptr, &padded),
               util::SnapshotParseError);
}

TEST(CheckpointResume, SnapshotRejectsMismatchedWorkload) {
  const exp::Instance inst = busy_instance(23, 80);
  OnlineParams params;
  params.horizon_slots = 80;
  OnlineSimulator sim(inst.topo, inst.requests, inst.realized, params);
  auto policy = make_policy("Greedy", inst.topo);
  CaptureHook hook(40);
  sim.run(*policy, &hook);
  ASSERT_TRUE(hook.snap.has_value());

  const exp::Instance other = busy_instance(23, 80);
  OnlineParams small = params;
  std::vector<mec::ARRequest> fewer(other.requests.begin(),
                                    other.requests.end() - 5);
  std::vector<std::size_t> fewer_realized(other.realized.begin(),
                                          other.realized.end() - 5);
  OnlineSimulator mismatched(other.topo, fewer, fewer_realized, small);
  auto fresh = make_policy("Greedy", other.topo);
  EXPECT_THROW(mismatched.run(*fresh, nullptr, &*hook.snap),
               std::invalid_argument);
}

/// Captures Greedy's snapshot at the top of `slot`.
SimSnapshot capture_greedy(const exp::Instance& inst,
                           const OnlineParams& params, int slot) {
  OnlineSimulator sim(inst.topo, inst.requests, inst.realized, params);
  auto policy = make_policy("Greedy", inst.topo);
  CaptureHook hook(slot);
  sim.run(*policy, &hook);
  EXPECT_TRUE(hook.snap.has_value());
  return hook.snap.value_or(SimSnapshot{});
}

OnlineMetrics resume_greedy(const exp::Instance& inst,
                            const OnlineParams& params,
                            const SimSnapshot& snap) {
  OnlineSimulator sim(inst.topo, inst.requests, inst.realized, params);
  auto policy = make_policy("Greedy", inst.topo);
  return sim.run(*policy, nullptr, &snap);
}

TEST(CheckpointResume, SnapshotRejectsMismatchedTopologyOrHorizon) {
  OnlineParams params;
  params.horizon_slots = 120;
  const exp::Instance wide = busy_instance(31, 120);

  // Same request count, half the stations: the snapshot's station
  // availability covers 5 stations, the resuming topology has 10.
  exp::InstanceConfig narrow_config;
  narrow_config.num_requests = 200;
  narrow_config.num_stations = 5;
  narrow_config.horizon_slots = 120;
  const exp::Instance narrow = exp::make_instance(31, narrow_config);
  ASSERT_EQ(narrow.requests.size(), wide.requests.size());
  const SimSnapshot narrow_snap = capture_greedy(narrow, params, 60);
  EXPECT_THROW(resume_greedy(wide, params, narrow_snap),
               std::invalid_argument);

  // A 60-slot run's snapshot carries a 60-entry reward series; a 120-slot
  // simulator would write past it.
  OnlineParams short_params = params;
  short_params.horizon_slots = 60;
  const SimSnapshot short_snap = capture_greedy(wide, short_params, 30);
  EXPECT_THROW(resume_greedy(wide, params, short_snap),
               std::invalid_argument);

  // Out-of-range slot and station indices are refused as well.
  const SimSnapshot good = capture_greedy(wide, params, 60);
  EXPECT_NO_THROW(resume_greedy(wide, params, good));
  SimSnapshot bad = good;
  bad.next_slot = params.horizon_slots + 1;
  EXPECT_THROW(resume_greedy(wide, params, bad), std::invalid_argument);
  bad = good;
  bad.home_station[0] = wide.topo.num_stations();
  EXPECT_THROW(resume_greedy(wide, params, bad), std::invalid_argument);
  bad = good;
  bad.states[0].station = wide.topo.num_stations();
  EXPECT_THROW(resume_greedy(wide, params, bad), std::invalid_argument);
  bad = good;
  bad.prev_up.assign(3, 1);
  EXPECT_THROW(resume_greedy(wide, params, bad), std::invalid_argument);
}

TEST(CheckpointSerialization, SimSnapshotReencodesByteStable) {
  // encode -> decode -> encode must reproduce the exact payload: any
  // field the decoder normalizes or drops would diverge here and break
  // resumed-run determinism.
  const exp::Instance inst = busy_instance(29, 200);
  OnlineParams params = chaos_params(inst, 200);
  OnlineSimulator sim(inst.topo, inst.requests, inst.realized, params);
  auto policy = make_policy("DynamicRR", inst.topo);
  CaptureHook hook(95);
  sim.run(*policy, &hook);
  ASSERT_TRUE(hook.snap.has_value());

  util::SnapshotWriter first;
  save_sim_snapshot(first, *hook.snap);
  util::SnapshotReader r = util::SnapshotReader::unframed(first.payload());
  const SimSnapshot decoded = load_sim_snapshot(r);
  r.expect_end();
  util::SnapshotWriter second;
  save_sim_snapshot(second, decoded);
  EXPECT_EQ(first.payload(), second.payload());
}

/// TempDir() persists across test runs; start every store test from an
/// empty generation ledger.
void wipe_generations(CheckpointStore& store) {
  for (const std::string& path : store.generations()) {
    std::remove(path.c_str());
  }
}

TEST(CheckpointStore, GenerationsNewestFirstAndPrunedToTwo) {
  const std::string dir = ::testing::TempDir() + "ckpt_store_prune_test";
  CheckpointStore store(dir);
  wipe_generations(store);
  EXPECT_TRUE(store.generations().empty());

  util::SnapshotWriter w1;
  w1.u32(1);
  const std::string p1 = store.write(w1.finish(kMagic, kVersion));
  util::SnapshotWriter w2;
  w2.u32(2);
  const std::string p2 = store.write(w2.finish(kMagic, kVersion));
  util::SnapshotWriter w3;
  w3.u32(3);
  const std::string p3 = store.write(w3.finish(kMagic, kVersion));

  const std::vector<std::string> gens = store.generations();
  ASSERT_EQ(gens.size(), 2u);  // oldest generation pruned
  EXPECT_EQ(gens[0], p3);
  EXPECT_EQ(gens[1], p2);
  EXPECT_THROW(CheckpointStore::read_file(p1), std::runtime_error);

  const std::vector<std::uint8_t> newest = CheckpointStore::read_file(p3);
  util::SnapshotReader r(newest, kMagic, kVersion);
  EXPECT_EQ(r.u32(), 3u);
  r.expect_end();
}

TEST(CheckpointStore, CorruptedNewestFallsBackToPrevious) {
  // The resume ladder walks generations newest-first and drops to the
  // next on SnapshotParseError; emulate it against a truncated newest.
  const std::string dir = ::testing::TempDir() + "ckpt_store_fallback_test";
  CheckpointStore store(dir);
  wipe_generations(store);
  util::SnapshotWriter good;
  good.str("previous generation");
  store.write(good.finish(kMagic, kVersion));
  util::SnapshotWriter newest;
  newest.str("newest generation");
  std::vector<std::uint8_t> framed = newest.finish(kMagic, kVersion);
  framed.resize(framed.size() - 5);  // torn tail
  const std::string newest_path = store.write(framed);

  std::string recovered;
  std::size_t rejected_at = 0;
  for (const std::string& path : store.generations()) {
    try {
      const std::vector<std::uint8_t> bytes = CheckpointStore::read_file(path);
      util::SnapshotReader r(bytes, kMagic, kVersion);
      recovered = r.str();
      r.expect_end();
      break;
    } catch (const util::SnapshotParseError& e) {
      EXPECT_EQ(path, newest_path);
      rejected_at = e.offset();
    }
  }
  EXPECT_EQ(recovered, "previous generation");
  EXPECT_GT(rejected_at, 0u);  // structured offset, not a blind failure
}

TEST(CheckpointCrashInjection, DisarmedPointsAreInert) {
  // The armed variants SIGKILL the process, so a unit test can only pin
  // the negative space: disarmed crash points must do nothing even when a
  // scripted plan-crash flag is raised (the --resume semantics).
  disarm_crashes();
  crash_point(150, true);
  unit_crash_point(1000);
  SUCCEED();
}

// ---- exp::Runner: pooled and checkpointed runs, kill and resume ------

constexpr int kEverySlots = 25;  // mid-simulation generation interval

/// One offline policy, DynamicRR and online Greedy under chaos, 2 points
/// x 2 seeds: every online unit runs a reference and a faulted leg.
exp::ScenarioSpec small_sweep() {
  exp::ScenarioSpec spec;
  spec.name = "ckpt_sweep";
  spec.axis = exp::SweepAxis::kRequests;
  spec.points = {30, 45};
  spec.seeds = 2;
  spec.horizon = 100;
  spec.chaos_intensity = 0.5;
  spec.policies = {{"offline:Greedy", "Greedy offline"},
                   {"DynamicRR", ""},
                   {"online:Greedy", "Greedy online"}};
  spec.metrics = {"reward", "latency", "drops", "retention"};
  return spec;
}

/// Theorem 3's protocol at 2 kappa points x 2 seeds: 6 and 8 tasks.
exp::ScenarioSpec small_regret() {
  exp::ScenarioSpec spec;
  spec.name = "ckpt_regret";
  spec.kind = exp::ScenarioKind::kRegret;
  spec.axis = exp::SweepAxis::kKappa;
  spec.points = {2, 3};
  spec.seeds = 2;
  spec.horizon = 100;
  spec.base.num_requests = 40;
  return spec;
}

/// What a run hands out: its Report's bytes, each observation with every
/// metric but the wall-clock runtime_ms, and the obs counters (work
/// counts such as exp.trials and sim.slots, which a resume must neither
/// lose nor count twice).
struct RunTrace {
  std::vector<std::uint8_t> report;
  std::vector<std::string> observations;
  int faulted = 0;  // observations whose run saw a fault epoch
  std::map<std::string, double> counters;
};

/// Runs `spec` pooled, or checkpointed into `dir` when it is non-empty.
RunTrace run_traced(const exp::ScenarioSpec& spec, const std::string& dir = "",
                    bool resume = false) {
  obs::registry().reset();
  exp::Runner runner(spec);
  if (!dir.empty()) runner.set_checkpoint({dir, kEverySlots, resume});
  RunTrace trace;
  runner.set_observer([&](const exp::TrialObservation& o) {
    std::string line = std::to_string(o.point_index) + "/" +
                       std::to_string(o.seed) + "/" + *o.policy;
    for (const auto& [name, value] : *o.metrics) {
      if (name == "runtime_ms") continue;
      char field[96];
      std::snprintf(field, sizeof field, " %s=%a", name.c_str(), value);
      line += field;
    }
    const auto epochs = o.metrics->find("fault_epochs");
    if (epochs != o.metrics->end() && epochs->second > 0) ++trace.faulted;
    trace.observations.push_back(line);
  });
  util::SnapshotWriter w;
  runner.run().save(w);
  trace.report = w.payload();
  for (const obs::CounterSnapshot& c : obs::registry().snapshot().counters) {
    trace.counters[c.name] = c.value;
  }
  return trace;
}

/// An empty generation ledger named `name` under TempDir().
std::string fresh_ledger(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  CheckpointStore store(dir);
  wipe_generations(store);
  return dir;
}

TEST(RunnerCheckpoint, SweepCheckpointedMatchesPooled) {
  const exp::ScenarioSpec spec = small_sweep();
  const RunTrace pooled = run_traced(spec);
  const RunTrace serial = run_traced(spec, fresh_ledger("runner_sweep"));
  ASSERT_EQ(pooled.observations.size(), 2u * 2u * 3u);
  EXPECT_GT(pooled.faulted, 0);  // the faulted leg ran
  EXPECT_EQ(pooled.report, serial.report);
  EXPECT_EQ(pooled.observations, serial.observations);
  EXPECT_EQ(pooled.counters, serial.counters);
}

TEST(RunnerCheckpoint, RegretCheckpointedMatchesPooled) {
  const exp::ScenarioSpec spec = small_regret();
  const RunTrace pooled = run_traced(spec);
  const RunTrace serial = run_traced(spec, fresh_ledger("runner_regret"));
  EXPECT_TRUE(pooled.observations.empty());  // sweep units only
  EXPECT_TRUE(serial.observations.empty());
  EXPECT_EQ(pooled.report, serial.report);
  EXPECT_EQ(pooled.counters, serial.counters);
}

/// Runs `spec` checkpointed into `dir` after `arm` set a crash, starting
/// afresh or resuming; an armed crash kills the process with SIGKILL.
void run_until_killed(const exp::ScenarioSpec& spec, const std::string& dir,
                      bool resume, const std::function<void()>& arm) {
  CheckpointStore store(dir);
  if (!resume) wipe_generations(store);
  obs::registry().reset();
  exp::Runner runner(spec);
  runner.set_checkpoint({dir, kEverySlots, resume});
  arm();
  (void)runner.run();
}

// A resumed run must reproduce the uninterrupted Report and counters.
void expect_resumes_uninterrupted(const exp::ScenarioSpec& spec,
                                  const std::string& dir) {
  const RunTrace resumed = run_traced(spec, dir, true);
  const RunTrace pooled = run_traced(spec);
  EXPECT_EQ(resumed.report, pooled.report);
  EXPECT_EQ(resumed.counters, pooled.counters);
}

/// A runner generation decoded section by section (layout: DESIGN.md
/// §14), so a test can re-frame it with one field changed and a valid
/// CRC.
struct RunnerGeneration {
  static constexpr std::uint32_t kMagic = 0x4b43524dU;  // "MRCK"
  static constexpr std::uint32_t kVersion = 4;
  std::string name;
  std::uint8_t kind = 0;
  std::int32_t seeds = 0;
  std::int32_t horizon = 0;
  std::int32_t lp_budget = 0;
  std::vector<double> points;
  std::vector<std::string> metrics;
  std::vector<std::string> policies;
  exp::Report report;
  std::uint64_t point = 0;
  std::uint64_t unit = 0;
  std::uint64_t policy = 0;
  std::uint8_t stage = 0;
  std::vector<double> rewards;
  std::optional<OnlineMetrics> ref;
  std::optional<SimSnapshot> snap;
  obs::MetricsSnapshot registry;

  explicit RunnerGeneration(const std::vector<std::uint8_t>& framed) {
    util::SnapshotReader r(framed, kMagic, kVersion);
    const auto strings = [&] {
      return r.vec<std::string>([&] { return r.str(); });
    };
    const auto doubles = [&] { return r.vec<double>([&] { return r.f64(); }); };
    name = r.str();
    kind = r.u8();
    seeds = r.i32();
    horizon = r.i32();
    lp_budget = r.i32();
    points = doubles();
    metrics = strings();
    policies = strings();
    report.load(r);
    point = r.u64();
    unit = r.u64();
    policy = r.u64();
    stage = r.u8();
    rewards = doubles();
    if (r.boolean()) ref = load_online_metrics(r);
    if (r.boolean()) snap = load_sim_snapshot(r);
    registry = obs::load_metrics_snapshot(r);
    r.expect_end();
  }

  std::vector<std::uint8_t> framed() const {
    util::SnapshotWriter w;
    const auto strings = [&](const std::vector<std::string>& v) {
      w.vec(v, [&](const std::string& s) { w.str(s); });
    };
    const auto doubles = [&](const std::vector<double>& v) {
      w.vec(v, [&](double x) { w.f64(x); });
    };
    w.str(name);
    w.u8(kind);
    w.i32(seeds);
    w.i32(horizon);
    w.i32(lp_budget);
    doubles(points);
    strings(metrics);
    strings(policies);
    report.save(w);
    w.u64(point);
    w.u64(unit);
    w.u64(policy);
    w.u8(stage);
    doubles(rewards);
    w.boolean(ref.has_value());
    if (ref) save_online_metrics(w, *ref);
    w.boolean(snap.has_value());
    if (snap) save_sim_snapshot(w, *snap);
    obs::save_metrics_snapshot(registry, w);
    return w.finish(kMagic, kVersion);
  }
};

/// One way to make a CRC-valid generation that does not fit its run.
struct Misfit {
  const char* what;
  std::function<void(RunnerGeneration&)> apply;
};

/// Kills `spec`'s checkpointed run after `units` units, then, for each
/// misfit, rebuilds the two-generation ladder with the misfit applied to
/// the newest one and resumes: the ladder must reject it, fall back to
/// the previous generation and reproduce the uninterrupted run.
void expect_misfits_fall_back(const exp::ScenarioSpec& spec,
                              const std::string& name, int units,
                              const std::vector<Misfit>& misfits) {
  const std::string dir = ::testing::TempDir() + name;
  EXPECT_EXIT(run_until_killed(spec, dir, false,
                               [&] { arm_crash_after_units(units); }),
              ::testing::KilledBySignal(SIGKILL), "injected crash");
  const std::vector<std::string> ladder = CheckpointStore(dir).generations();
  ASSERT_EQ(ladder.size(), 2u);
  const std::vector<std::uint8_t> newest =
      CheckpointStore::read_file(ladder[0]);
  const std::vector<std::uint8_t> previous =
      CheckpointStore::read_file(ladder[1]);
  ASSERT_EQ(RunnerGeneration(newest).framed(), newest);  // codec is exact
  const RunTrace pooled = run_traced(spec);
  for (const Misfit& misfit : misfits) {
    RunnerGeneration bad(newest);
    misfit.apply(bad);
    CheckpointStore store(dir);
    wipe_generations(store);
    util::atomic_write_file(ladder[1], previous);
    util::atomic_write_file(ladder[0], bad.framed());
    ::testing::internal::CaptureStderr();
    const RunTrace resumed = run_traced(spec, dir, true);
    const std::string diagnostics = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(diagnostics.find(ladder[0] + " rejected at byte"),
              std::string::npos)
        << misfit.what << ": " << diagnostics;
    EXPECT_NE(diagnostics.find("resuming from " + ladder[1]),
              std::string::npos)
        << misfit.what << ": " << diagnostics;
    EXPECT_EQ(resumed.report, pooled.report) << misfit.what;
    EXPECT_EQ(resumed.counters, pooled.counters) << misfit.what;
  }
}

/// A report with the run's header and one point of value `point`.
exp::Report one_point_report(const RunnerGeneration& g, double point,
                             std::vector<std::string> policies) {
  exp::Report report(g.report.scenario_name(), g.report.axis_label(),
                     g.report.metrics(), std::move(policies));
  report.start_point(point, std::to_string(static_cast<int>(point)));
  return report;
}

TEST(RunnerCheckpointDeathTest, RegretResumeRejectsGenerationsThatDoNotFit) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Killed after 3 tasks of point 0: the newest generation's cursor is
  // (point 0, task 3) with 3 task rewards.
  expect_misfits_fall_back(
      small_regret(), "runner_regret_misfits", 3,
      {{"rewards emptied", [](auto& g) { g.rewards.clear(); }},
       {"task past the point", [](auto& g) { g.unit = 1000; }},
       {"point past the run", [](auto& g) { g.point = 3; }},
       {"policy on a regret task", [](auto& g) { g.policy = 1; }},
       {"stage out of range", [](auto& g) { g.stage = 3; }},
       {"stage without its snapshot", [](auto& g) { g.stage = 1; }},
       {"cursor before the report's point",
        [](auto& g) {
          g.unit = 0;
          g.rewards.clear();
        }},
       {"report policies",
        [](auto& g) {
          g.report = one_point_report(g, 2, {"best fixed", "learned"});
        }},
       {"report points",
        [](auto& g) {
          g.report = one_point_report(g, 9, g.report.policies());
        }}});
}

TEST(RunnerCheckpointDeathTest, SweepResumeRejectsGenerationsThatDoNotFit) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Killed after 2 units: the newest generation's cursor is (point 0,
  // seed 0, policy 2); the previous one is inside DynamicRR's run.
  expect_misfits_fall_back(
      small_sweep(), "runner_sweep_misfits", 2,
      {{"seed out of range", [](auto& g) { g.unit = 2; }},
       {"policy out of range", [](auto& g) { g.policy = 3; }},
       {"task rewards on a sweep", [](auto& g) { g.rewards = {1.0}; }},
       {"reference outside the faulted leg",
        [](auto& g) { g.ref = OnlineMetrics{}; }},
       {"report metrics",
        [](auto& g) {
          exp::Report report(g.report.scenario_name(), g.report.axis_label(),
                             {"reward"}, g.report.policies());
          report.start_point(30, "30");
          g.report = report;
        }}});
}

TEST(RunnerCheckpointDeathTest, SweepKilledAtUnitBoundaryResumes) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const exp::ScenarioSpec spec = small_sweep();
  const std::string dir = ::testing::TempDir() + "runner_sweep_units";
  EXPECT_EXIT(
      run_until_killed(spec, dir, false, [] { arm_crash_after_units(5); }),
      ::testing::KilledBySignal(SIGKILL), "injected crash");
  expect_resumes_uninterrupted(spec, dir);
}

TEST(RunnerCheckpointDeathTest, SweepKilledInsideBothLegsResumes) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const exp::ScenarioSpec spec = small_sweep();
  const std::string dir = ::testing::TempDir() + "runner_sweep_legs";
  // Slot 60 of DynamicRR's reference leg: the newest generation is that
  // leg at slot 50 (stage 1).
  EXPECT_EXIT(
      run_until_killed(spec, dir, false, [] { arm_crash_at_slot(60); }),
      ::testing::KilledBySignal(SIGKILL), "injected crash");
  // The resumed reference leg starts at slot 50 and never sees slot 30;
  // the faulted leg does: the newest generation is stage 2 at slot 25.
  EXPECT_EXIT(
      run_until_killed(spec, dir, true, [] { arm_crash_at_slot(30); }),
      ::testing::KilledBySignal(SIGKILL), "injected crash");
  const RunnerGeneration newest(
      CheckpointStore::read_file(CheckpointStore(dir).generations()[0]));
  EXPECT_EQ(newest.stage, 2);
  EXPECT_TRUE(newest.ref.has_value());
  expect_resumes_uninterrupted(spec, dir);
}

TEST(RunnerCheckpointDeathTest, RegretKilledAtUnitBoundaryResumes) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const exp::ScenarioSpec spec = small_regret();
  const std::string dir = ::testing::TempDir() + "runner_regret_units";
  // Point 0 has 6 tasks, so the 7th unit is point 1's first task and the
  // generation holds point 0's reduction.
  EXPECT_EXIT(
      run_until_killed(spec, dir, false, [] { arm_crash_after_units(7); }),
      ::testing::KilledBySignal(SIGKILL), "injected crash");
  expect_resumes_uninterrupted(spec, dir);
}

TEST(RunnerCheckpointDeathTest, RegretKilledInsideATaskResumes) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const exp::ScenarioSpec spec = small_regret();
  const std::string dir = ::testing::TempDir() + "runner_regret_slot";
  EXPECT_EXIT(
      run_until_killed(spec, dir, false, [] { arm_crash_at_slot(60); }),
      ::testing::KilledBySignal(SIGKILL), "injected crash");
  const RunnerGeneration newest(
      CheckpointStore::read_file(CheckpointStore(dir).generations()[0]));
  EXPECT_EQ(newest.stage, 1);
  expect_resumes_uninterrupted(spec, dir);
}

}  // namespace
}  // namespace mecar::sim
