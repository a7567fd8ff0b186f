// Checkpoint orchestration: canonical-state (de)serialization, the on-disk
// generation store, and crash injection.
//
// util/snapshot.h owns the byte-level framing (magic/version/CRC32, tagged
// primitives, atomic writes); this header owns the simulator-shaped layers
// above it:
//
//  * save_sim_snapshot / load_sim_snapshot — the canonical SimSnapshot
//    (sim/online_sim.h) as a tagged payload section, nested by
//    the experiment runner inside its checkpoint frame;
//  * save_online_metrics / load_online_metrics — a standalone OnlineMetrics
//    (the runner checkpoints reference-run results this way);
//  * CheckpointStore — a directory of numbered checkpoint generations
//    (ckpt-<gen>.snap). write() atomically lands the next generation and
//    prunes all but the newest two, so a crash DURING a checkpoint write —
//    or a corrupted latest generation — always leaves a previous good one
//    to fall back to. Readers walk generations() newest-first, treating a
//    SnapshotParseError as "try the next generation" and an empty ladder
//    as "start fresh";
//  * crash injection — arm_crash_at_slot / arm_crash_after_units raise
//    SIGKILL (no cleanup, no atexit — a real crash) at the chosen slot top
//    or completed-unit count, the kill-anywhere leg of tests/check_resume.sh.
//    FaultPlan `crash` lines route through the same crash_point(); --resume
//    runs call disarm_crashes() so a restored run replays past its scripted
//    death.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/online_sim.h"

namespace mecar::util {
class SnapshotWriter;
class SnapshotReader;
}  // namespace mecar::util

namespace mecar::sim {

/// Serializes `s` as a tagged payload section of `w` (no framing; the
/// enclosing checkpoint owns magic/version/CRC).
void save_sim_snapshot(util::SnapshotWriter& w, const SimSnapshot& s);

/// Reads a SimSnapshot section. Throws util::SnapshotParseError (with the
/// byte offset) on any tag/enum/bounds violation.
SimSnapshot load_sim_snapshot(util::SnapshotReader& r);

/// Serializes a standalone OnlineMetrics as a tagged payload section.
void save_online_metrics(util::SnapshotWriter& w, const OnlineMetrics& m);
OnlineMetrics load_online_metrics(util::SnapshotReader& r);

/// A directory of checkpoint generations (`ckpt-<gen>.snap`, gen ascending
/// over the run's lifetime). Not thread-safe; one writer per directory.
class CheckpointStore {
 public:
  /// Creates `dir` (one level) if it does not exist yet.
  explicit CheckpointStore(std::string dir);

  /// Atomically writes `framed` as the next generation and prunes every
  /// generation but the newest two. Returns the path written.
  std::string write(const std::vector<std::uint8_t>& framed);

  /// Existing checkpoint paths, newest generation first.
  std::vector<std::string> generations() const;

  const std::string& dir() const noexcept { return dir_; }

  /// Reads a checkpoint file's bytes (throws std::runtime_error on I/O
  /// failure; parse validation is the caller's SnapshotReader).
  static std::vector<std::uint8_t> read_file(const std::string& path);

 private:
  std::string dir_;
};

/// Arms a SIGKILL at the top of `slot` (any policy). CLI flag
/// --crash-at. Negative disarms.
void arm_crash_at_slot(int slot);

/// Arms a SIGKILL after `units` completed checkpoint units — the per-trial
/// granularity the runner checkpoints offline scenarios at (CLI flag
/// --crash-after-units). Non-positive disarms.
void arm_crash_after_units(int units);

/// Disarms both armed crashes AND scripted FaultPlan crash points
/// (crash_point ignores plan_crash after this). Called on --resume so a
/// restored run sails past the slot that killed it.
void disarm_crashes();

/// Crash gate at the top of slot `slot`: raises SIGKILL when an armed
/// --crash-at matches or when `plan_crash` is set (and crashes are not
/// disarmed). Writes one stderr line first so harnesses can assert the
/// death was the scripted one.
void crash_point(int slot, bool plan_crash);

/// Crash gate after a completed checkpoint unit: raises SIGKILL when an
/// armed --crash-after-units count is reached.
void unit_crash_point(int completed_units);

}  // namespace mecar::sim
