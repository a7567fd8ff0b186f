// Fault-epoch view over an immutable Topology.
//
// A `Topology` is immutable, and its delays are wrong once backhaul links
// fail mid-horizon. TopologyOverlay bridges the two: it owns a mutable
// *effective* copy of a base topology and rebuilds it (sorting each
// station's links again; no delay row is computed) only when the applied
// perturbation set actually changes — a fault-epoch boundary. The
// effective topology is a stable reference: callers bind `const
// Topology&` once and observe every epoch through it, so all consumers of
// the `candidate_stations` / `placement_latency_ms` interface (core/,
// baselines/, sim/) see capacity brownouts, link outages, and link latency
// inflation uniformly, with no interface change.
//
// A removed link keeps its index — it is modelled as an infinite-delay edge
// — so link ids stay valid across epochs for anything that cross-references
// base links (e.g. core/backhaul path accounting). Cutting enough links
// partitions the network: transmission_delay_ms returns +infinity between
// the components and latency-feasibility filters exclude the far side.
#pragma once

#include <vector>

#include "mec/topology.h"

namespace mecar::mec {

/// The active perturbation set of one fault epoch. Empty vectors mean "no
/// perturbation of that kind" (healthy); otherwise sizes must match the
/// base topology's station/link counts.
struct TopologyPerturbation {
  /// Per-station multiplicative capacity scale in (0, 1]; 1 = healthy.
  /// Full outages are the simulator availability map's job, not a zero
  /// scale — the effective topology always stays constructible.
  std::vector<double> capacity_scale;
  /// Per-link removal flags (fiber cut, backhaul switch failure).
  std::vector<char> link_down;
  /// Per-link delay multipliers >= 1 (congestion, reroute over a slower
  /// physical path).
  std::vector<double> link_delay_scale;

  /// True when the perturbation leaves the topology unchanged.
  bool identity() const noexcept;

  friend bool operator==(const TopologyPerturbation&,
                         const TopologyPerturbation&) = default;
};

class TopologyOverlay {
 public:
  explicit TopologyOverlay(const Topology& base);

  /// The perturbed topology. The reference stays valid (and is updated in
  /// place) across apply() calls.
  const Topology& effective() const noexcept { return effective_; }
  const Topology& base() const noexcept { return base_; }

  /// Applies a perturbation, rebuilding the effective topology only when
  /// it differs from the active one. Returns true when a rebuild happened.
  /// Throws std::invalid_argument on size mismatches or negative scales.
  bool apply(const TopologyPerturbation& pert);

  /// Reverts to the unperturbed base. Returns true when a rebuild happened.
  bool reset();

  /// Number of rebuilds so far — fault epochs entered, including the
  /// return-to-healthy epoch after a fault clears.
  int epochs() const noexcept { return epochs_; }

  /// Overwrites the epoch count. Checkpoint restore primes the overlay by
  /// replaying the pre-resume perturbation (one rebuild), then stamps the
  /// counter a mid-run snapshot recorded so fault_epochs reporting stays
  /// bit-identical to an uninterrupted run.
  void set_epochs(int epochs) noexcept { epochs_ = epochs; }

 private:
  void rebuild();

  const Topology& base_;
  TopologyPerturbation active_;
  Topology effective_;
  int epochs_ = 0;
};

}  // namespace mecar::mec
