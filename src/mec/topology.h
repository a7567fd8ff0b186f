// MEC network substrate: base stations, backhaul links, transmission delays.
//
// The paper evaluates on topologies "generated using GT-ITM" [13]; GT-ITM's
// flat random model is the Waxman model, which `TopologyGenerator` implements
// (uniform node placement, edge probability beta * exp(-d / (alpha * L)),
// plus patch edges to guarantee connectivity). Each base station carries a
// computing capacity in MHz and a per-unit processing speed; each link a
// per-unit transmission delay. All-pairs shortest transmission delays are
// precomputed with Dijkstra; shortest paths are recomputed on demand.
#pragma once

#include <cstdint>
#include <limits>
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

/// Immutable network: stations, links, and all-pairs shortest-path
/// transmission delays (ms per rho_unit).
class Topology {
 public:
  /// Topologies with at least this many stations compute their delay rows
  /// on util::default_pool(); smaller ones (every paper topology) compute
  /// them inline, where a dispatch would cost more than it saves.
  static constexpr int kPooledRowsMinStations = 128;

  /// Validates the network and computes the all-pairs delay table. Throws
  /// std::invalid_argument on an empty station list, station ids other
  /// than 0..n-1 in order, a capacity that is not positive, a
  /// proc_ms_per_unit that is negative or not finite, bad link endpoints,
  /// a negative or NaN link delay, or a bandwidth that is not positive.
  /// +infinity is a valid link delay (a cut link) and a valid bandwidth
  /// (unconstrained backhaul).
  Topology(std::vector<BaseStation> stations, std::vector<Link> links);

  int num_stations() const noexcept {
    return static_cast<int>(stations_.size());
  }
  const BaseStation& station(int id) const { return stations_.at(id); }
  const std::vector<BaseStation>& stations() const noexcept {
    return stations_;
  }
  const std::vector<Link>& links() const noexcept { return links_; }

  /// Shortest transmission delay between two stations (0 when equal);
  /// +infinity when disconnected.
  double transmission_delay_ms(int from, int to) const;

  /// Row `from` of the all-pairs delay table: element `to` equals
  /// transmission_delay_ms(from, to). Per-station scans read it once
  /// instead of range-checking every pair. Throws std::out_of_range when
  /// `from` is not a station id.
  std::span<const double> delays_from(int from) const;

  /// True when every station can reach every other.
  bool connected() const noexcept;

  /// Total computing capacity of the network, MHz.
  double total_capacity_mhz() const noexcept;

  /// Stations ordered by transmission delay from `from` (nearest first,
  /// starting with `from` itself).
  std::vector<int> stations_by_distance(int from) const;

  /// Link indices along the delay-shortest path from `from` to `to`
  /// (empty when from == to), found by a Dijkstra run from `from` that
  /// stops once `to` is settled. Throws std::out_of_range on a bad station
  /// id and std::runtime_error when disconnected.
  std::vector<int> shortest_path_links(int from, int to) const;

 private:
  /// Dijkstra from `src` into `row` (|BS| entries, all +infinity on
  /// entry). When `parent_link` is non-empty it receives the link that
  /// last improved each station's label; the search stops once `stop_at`
  /// is settled (-1 = settle every reachable station).
  void dijkstra_row(int src, std::span<double> row,
                    std::span<int> parent_link, int stop_at) const;

  std::vector<BaseStation> stations_;
  std::vector<Link> links_;
  /// CSR adjacency, each station's edges in link order: station u's edges
  /// are adj_start_[u] .. adj_start_[u + 1] - 1 of the three edge arrays
  /// (neighbour, per-unit delay, link index).
  std::vector<int> adj_start_;
  std::vector<int> adj_to_;
  std::vector<double> adj_delay_;
  std::vector<int> adj_link_;
  std::vector<double> dist_;  // row-major |BS| x |BS|
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
