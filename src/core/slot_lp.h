// Builder for the paper's resource-slot-indexed relaxation (section IV-A).
//
//   LP:    max sum y_jil * ER_jil
//          (9)  sum_{i,l} y_jil <= 1                          per request
//          (10) sum_{j, l'<l} y_jil' * E[min(rho_j, lC_l/C_unit)]
//                 <= 2 l C_l / C_unit                          per (i, l>=1)
//          (11) latency: enforced exactly by excluding variables whose
//               placement latency exceeds the request budget
//          (12) 0 <= y <= 1 (the <=1 side is implied by (9))
//
//   LP-PT (section V): identical except the truncation of (23) additionally
//   caps by the round-robin share C(bs_i)/|R_t|.
//
// The same builder emits the ILP-RM of section IV-A when `integral` is set
// (one binary x_ji per feasible pair, expected-demand capacity rows).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "lp/model.h"
#include "mec/request.h"
#include "mec/topology.h"

namespace mecar::core {

/// One feasible placement for a request, with the placement latency that
/// proved it feasible. Returning the latency alongside the station id lets
/// callers (the LP builders, the rounding passes, every baseline) reuse it
/// instead of recomputing placement_latency_ms per (request, station).
using CandidateStation = mec::StationLatency;

/// Metadata of one LP column y_jil (or ILP column x_ji with slot = 0).
struct SlotVar {
  int request_index = 0;  // index into the requests vector
  int station = 0;
  int slot = 0;
  /// Expected reward ER_jil of Eq. (8).
  double expected_reward = 0.0;
  /// Placement latency (no waiting term), ms.
  double latency_ms = 0.0;
};

/// A built model plus the column metadata needed to interpret solutions.
struct SlotLpInstance {
  lp::Model model;
  std::vector<SlotVar> vars;               // per model column
  std::vector<std::vector<int>> request_columns;  // request -> column ids
  /// request -> its candidate_stations() list at the request's waiting
  /// time. The columns are drawn from it, and DynamicRR's greedy fallback
  /// reads it instead of scanning the stations a second time.
  std::vector<std::vector<CandidateStation>> request_candidates;
  /// Number of resource slots per station.
  std::vector<int> slots_per_station;
};

class CandidateMemo;

/// Options for `build_slot_lp`.
struct SlotLpOptions {
  /// Extra per-request share cap of LP-PT constraint (23):
  /// E[min(share_cap_mhz(bs)/C_unit, rho, l C_l/C_unit)]. Disabled when
  /// empty. The value is the per-request capacity share C(bs_i)/|R_t|.
  std::optional<double> share_cap_mhz;
  /// Per-request waiting delay already incurred (online problem), in the
  /// order of the requests vector; counts against the latency budget when
  /// filtering placements. Empty = no request has waited.
  std::vector<double> waiting_ms_per_request;
  /// Residual station capacities in MHz (online problem: capacity already
  /// occupied by resident streams is unavailable). Empty = full capacity.
  std::vector<double> capacity_override_mhz;
  /// Memo the candidate lists are read through. It must serve the
  /// topology passed to `build_slot_lp` (see CandidateMemo). Null = a
  /// memo local to the call.
  CandidateMemo* candidate_memo = nullptr;
};

/// Builds the slot-indexed LP over `requests`.
SlotLpInstance build_slot_lp(const mec::Topology& topo,
                             const std::vector<mec::ARRequest>& requests,
                             const AlgorithmParams& params,
                             const SlotLpOptions& options = {});

/// Builds the ILP-RM of section IV-A: binary x_ji, objective E[RD_j],
/// expected-demand capacity rows (4), latency filter (5).
SlotLpInstance build_ilp_rm(const mec::Topology& topo,
                            const std::vector<mec::ARRequest>& requests,
                            const AlgorithmParams& params);

/// Candidate stations for a request: the stations whose placement latency
/// (plus `waiting_ms`) meets the budget, in (latency, id) order. When
/// `params.max_candidate_stations` is positive only that many nearest are
/// kept. One bounded search from the home station
/// (mec::Topology::nearest_by_latency), which reads no delay row. Throws
/// std::out_of_range on a bad home station.
std::vector<CandidateStation> candidate_stations(const mec::Topology& topo,
                                                 const mec::ARRequest& req,
                                                 const AlgorithmParams& params,
                                                 double waiting_ms = 0.0);

/// candidate_stations() lists memoized for one topology. A list depends
/// on the request only through its home station, its total_proc_weight()
/// and its budget test, so the memo keeps, per (home station, bits of the
/// weight, candidate limit), the limit nearest stations in (latency, id)
/// order at zero wait with no budget filter. A lookup returns the prefix
/// of that list whose entries pass `waiting_ms + latency <=
/// latency_budget_ms`, the search's own test.
///
/// Exact: fl(w + x) is monotone in x, so for any finite wait and any
/// budget the stations that pass form a prefix of the (latency, id) order
/// of all stations (a NaN latency passes no test and is never kept), and
/// the first k of that prefix are the cut of the first k of all stations.
/// The budget is therefore not part of the key: requests with different
/// budgets, negative waits or DynamicRR's displaced entries (budget 1e9)
/// share one list.
///
/// The memo serves one topology at a time and never looks at it again
/// for a cached key: its owner calls clear() whenever the delays or
/// `proc_ms_per_unit` of that topology change. Station availability and
/// capacity are not read. Not thread-safe.
class CandidateMemo {
 public:
  /// Equals candidate_stations(topo, req, params, waiting_ms): the same
  /// stations with the same latency bits. The span stays valid until
  /// clear(). Throws std::out_of_range on a bad home station, and then
  /// caches nothing.
  std::span<const CandidateStation> lookup(const mec::Topology& topo,
                                           const mec::ARRequest& req,
                                           const AlgorithmParams& params,
                                           double waiting_ms = 0.0);

  /// The latency a list held for `req`'s (home station, weight) gives
  /// `station`, whatever its limit: placement_latency_ms(topo, req,
  /// station) with the same bits, for the topology the memo serves. Null
  /// when no list holds the station. Computes nothing.
  const double* latency_of(const mec::ARRequest& req, int station) const;

  /// Forgets every list.
  void clear() noexcept {
    lists_.clear();
    limits_.clear();
  }

  /// Number of lists held.
  std::size_t size() const noexcept { return lists_.size(); }

 private:
  struct Key {
    int home = 0;
    std::uint64_t weight_bits = 0;
    std::size_t limit = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };
  std::unordered_map<Key, std::vector<CandidateStation>, KeyHash> lists_;
  /// Each limit a held list was computed for, once: latency_of looks the
  /// request up under each (callers use one or two).
  std::vector<std::size_t> limits_;
};

}  // namespace mecar::core
