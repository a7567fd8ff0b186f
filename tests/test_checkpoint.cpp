// Tests for checkpoint orchestration (sim/checkpoint.h): mid-run
// SimSnapshot capture via SlotHook and bit-identical resume of every
// registered online policy (and repeat runs of one simulator), including
// a snapshot that crosses between a fresh simulator and one that already
// ran, the rejection of snapshots that do not fit the resuming simulator
// or its policy, plus byte-stable serialization of SimSnapshot itself,
// the CheckpointStore generation ledger (atomic writes, newest-first
// listing, prune-to-two retention), and the corrupted-newest-generation
// fallback the resume ladder performs.
//
// Equality is EXPECT_EQ on doubles throughout: the checkpoint contract is
// bit-identity, not tolerance-equality.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/instance.h"
#include "exp/registry.h"
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

}  // namespace
}  // namespace mecar::sim
