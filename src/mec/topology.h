// MEC network substrate: base stations, backhaul links, transmission delays.
//
// The paper evaluates on topologies "generated using GT-ITM" [13]; GT-ITM's
// flat random model is the Waxman model, which `TopologyGenerator` implements
// (uniform node placement, edge probability beta * exp(-d / (alpha * L)),
// plus patch edges to guarantee connectivity). Each base station carries a
// computing capacity in MHz and a per-unit processing speed; each link a
// per-unit transmission delay. Shortest transmission delays come from
// Dijkstra searches: a bounded one per nearest-station query, and a whole
// row, computed on its first read, for callers that read every station.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "util/rng.h"

namespace mecar::mec {

/// A 5G base station of the MEC network.
struct BaseStation {
  int id = 0;
  /// Computing capacity C(bs_i) in MHz.
  double capacity_mhz = 0.0;
  /// Delay of processing one rho_unit of data per unit of task weight, ms.
  /// (d^pro_{jki} = task.proc_weight * proc_ms_per_unit of the station.)
  double proc_ms_per_unit = 1.0;
  /// Planar position (arbitrary units) used by the Waxman generator.
  double x = 0.0;
  double y = 0.0;
};

/// An undirected backhaul link between two base stations.
struct Link {
  int a = 0;
  int b = 0;
  /// Delay d^trans of shipping one rho_unit of data across the link, ms.
  double delay_ms = 0.0;
  /// Carrying capacity in MB/s (infinite = unconstrained backhaul, the
  /// paper's base model; finite values enable the bandwidth extension —
  /// the paper criticizes prior work for "ignoring the backhaul wired
  /// bandwidth consumption").
  double bandwidth_mbps = std::numeric_limits<double>::infinity();
};

/// Transmission + processing latency (ms) of a placement, from its parts:
/// the home-to-station transmission delay, the pipeline's total processing
/// weight and the station's per-unit processing delay: 2 * d_trans +
/// sum_k d^pro (Eq. (2) without the waiting term). Every latency the
/// library computes comes from this one expression, so two computations
/// from the same delay keep the same bits.
inline double placement_latency_ms(double trans_ms, double proc_weight,
                                   double proc_ms_per_unit) noexcept {
  return 2.0 * trans_ms + proc_weight * proc_ms_per_unit;
}

/// A station and its placement latency from some home station.
struct StationLatency {
  int station = 0;
  double latency_ms = 0.0;
};

/// Which stations Topology::nearest_by_latency may keep: those whose
/// `station_up` entry is nonzero (every station when it is empty) and
/// whose placement latency passes `waiting_ms + latency <= budget_ms`. The
/// defaults keep every station whose latency is not NaN.
struct KeepRule {
  double waiting_ms = 0.0;
  double budget_ms = std::numeric_limits<double>::infinity();
  std::span<const char> station_up;
};

/// Immutable network: stations, links and shortest transmission delays
/// (ms per rho_unit). Safe to read from several threads at once.
class Topology {
 public:
  /// Validates the network, orders each station's links by (delay, link
  /// index) and labels the components of its finite-delay links; no delay
  /// row is computed. Throws std::invalid_argument on an empty station
  /// list, station ids other than 0..n-1 in order, a capacity that is not
  /// positive, a proc_ms_per_unit that is negative or not finite, bad link
  /// endpoints, a negative or NaN link delay, or a bandwidth that is not
  /// positive. +infinity is a valid link delay (a cut link) and a valid
  /// bandwidth (unconstrained backhaul).
  Topology(std::vector<BaseStation> stations, std::vector<Link> links);

  /// A copy has the same network and starts without rows: it computes
  /// none on copying, and the rows one copy computes are not another's.
  Topology(const Topology& other);
  Topology& operator=(const Topology& other);
  Topology(Topology&&) noexcept;
  Topology& operator=(Topology&&) noexcept;
  ~Topology();

  int num_stations() const noexcept {
    return static_cast<int>(stations_.size());
  }
  const BaseStation& station(int id) const { return stations_.at(id); }
  const std::vector<BaseStation>& stations() const noexcept {
    return stations_;
  }
  const std::vector<Link>& links() const noexcept { return links_; }

  /// Shortest transmission delay between two stations (0 when equal);
  /// +infinity when disconnected. Reads row `from` (see delays_from)
  /// unless the stations are equal.
  double transmission_delay_ms(int from, int to) const;

  /// transmission_delay_ms(from, to), the same bits, from one Dijkstra
  /// search that stops once `to` settles; it reads and keeps no row. For
  /// one-off queries of a run, whose work must not depend on what other
  /// runs left cached.
  double delay_between(int from, int to) const;

  /// Row `from` of the shortest-delay table: element `to` equals
  /// transmission_delay_ms(from, to). The row is computed by one full
  /// Dijkstra search on its first read from any thread (counted by the
  /// `mec.delay_rows` metric) and kept by this object. Throws
  /// std::out_of_range when `from` is not a station id.
  std::span<const double> delays_from(int from) const;

  /// True when every station can reach every other.
  bool connected() const;

  /// True when the transmission delay between the two stations is finite.
  /// Answered from the component labels, without a row, unless a path sum
  /// could overflow to +infinity. Throws std::out_of_range on a bad id.
  bool reachable(int from, int to) const;

  /// Total computing capacity of the network, MHz.
  double total_capacity_mhz() const noexcept;

  /// Stations ordered by transmission delay from `from` (nearest first,
  /// starting with `from` itself). Runs its own full Dijkstra search and
  /// neither reads nor keeps a row, so what it costs a run does not depend
  /// on what other runs left.
  std::vector<int> stations_by_distance(int from) const;

  /// Link indices along the delay-shortest path from `from` to `to`
  /// (empty when from == to), found by a Dijkstra run from `from` that
  /// stops once `to` is settled. Throws std::out_of_range on a bad station
  /// id and std::runtime_error when disconnected.
  std::vector<int> shortest_path_links(int from, int to) const;

  /// The first `limit` stations in (latency, id) order among those `keep`
  /// admits, where a station's latency is placement_latency_ms(
  /// transmission_delay_ms(home, bs), weight, its proc_ms_per_unit); the
  /// latencies keep those bits. One Dijkstra search from `home` that stops,
  /// and prunes each station's delay-ordered links, once 2 * delay plus a
  /// lower bound of weight * proc_ms_per_unit is strictly above the
  /// limit-th kept latency; it reads no row. Stations it never reaches are
  /// offered at +infinity delay, in id order. Throws std::out_of_range on a
  /// bad home station and std::invalid_argument when a non-empty
  /// `keep.station_up` does not have one entry per station.
  std::vector<StationLatency> nearest_by_latency(int home, double weight,
                                                 std::size_t limit,
                                                 const KeepRule& keep = {})
      const;

 private:
  /// One direction of a link in the adjacency.
  struct Edge {
    double delay_ms = 0.0;
    int to = 0;
    int link = 0;
  };
  struct DelayRows;

  std::span<const Edge> edges_of(int station) const {
    const auto u = static_cast<std::size_t>(station);
    return std::span<const Edge>(edges_).subspan(
        static_cast<std::size_t>(adj_start_[u]),
        static_cast<std::size_t>(adj_start_[u + 1] - adj_start_[u]));
  }

  /// Dijkstra from `src` into `row` (|BS| entries, all +infinity on
  /// entry). When `parent_link` is non-empty it receives the link that
  /// last improved each station's label; the search stops once `stop_at`
  /// is settled (-1 = settle every reachable station).
  void dijkstra_row(int src, std::span<double> row,
                    std::span<int> parent_link, int stop_at) const;

  std::vector<BaseStation> stations_;
  std::vector<Link> links_;
  /// CSR adjacency: station u's edges are edges_[adj_start_[u] ..
  /// adj_start_[u + 1] - 1], ordered by (delay, link index).
  std::vector<int> adj_start_;
  std::vector<Edge> edges_;
  /// Delay of each station's shortest link (+infinity without links).
  std::vector<double> min_link_delay_;
  /// Component of each station over the finite-delay links.
  std::vector<int> component_;
  /// True when no shortest-path sum can overflow to +infinity, so equal
  /// components mean a finite delay.
  bool components_exact_ = true;
  /// Smallest and largest proc_ms_per_unit, the search's bounds of w * p.
  double min_proc_ms_ = 0.0;
  double max_proc_ms_ = 0.0;
  std::unique_ptr<DelayRows> rows_;
};

/// Parameters of the Waxman/GT-ITM-style generator with the paper's
/// section VI-A defaults.
struct TopologyParams {
  int num_stations = 20;
  /// Capacity range [3000, 3600] MHz [28].
  double capacity_min_mhz = 3000.0;
  double capacity_max_mhz = 3600.0;
  /// Per-unit processing speed range (ms per rho_unit per task weight).
  double proc_ms_min = 1.0;
  double proc_ms_max = 3.0;
  /// Waxman parameters; GT-ITM flat random defaults.
  double waxman_alpha = 0.4;
  double waxman_beta = 0.6;
  /// Link transmission delay range (ms per rho_unit per hop).
  double link_delay_min_ms = 2.0;
  double link_delay_max_ms = 8.0;
  /// Backhaul link bandwidth range in MB/s; infinite (the default)
  /// reproduces the paper's unconstrained-backhaul model.
  double link_bandwidth_min_mbps = std::numeric_limits<double>::infinity();
  double link_bandwidth_max_mbps = std::numeric_limits<double>::infinity();
};

/// Generates a connected Waxman topology. Throws on non-positive sizes.
Topology generate_topology(const TopologyParams& params, util::Rng& rng);

}  // namespace mecar::mec
