// Tests for the MEC substrate: topology construction and generation,
// shortest paths, request distributions, pipeline latency, workloads.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/types.h"
#include "mec/request.h"
#include "mec/topology.h"
#include "mec/trace.h"
#include "mec/workload.h"
#include "obs/catalog.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace mecar::mec {
namespace {

Topology line_topology() {
  // 0 --1ms-- 1 --2ms-- 2, capacities 3000/3200/3400.
  std::vector<BaseStation> stations{
      {0, 3000.0, 1.0, 0.0, 0.0},
      {1, 3200.0, 2.0, 0.5, 0.0},
      {2, 3400.0, 3.0, 1.0, 0.0},
  };
  std::vector<Link> links{{0, 1, 1.0}, {1, 2, 2.0}};
  return Topology(std::move(stations), std::move(links));
}

TEST(Topology, ShortestPathsOnLine) {
  const Topology topo = line_topology();
  EXPECT_DOUBLE_EQ(topo.transmission_delay_ms(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(topo.transmission_delay_ms(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(topo.transmission_delay_ms(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(topo.transmission_delay_ms(2, 0), 3.0);
  EXPECT_TRUE(topo.connected());
}

TEST(Topology, ShortcutBeatsLongPath) {
  std::vector<BaseStation> stations{
      {0, 3000.0, 1.0, 0.0, 0.0},
      {1, 3000.0, 1.0, 0.5, 0.0},
      {2, 3000.0, 1.0, 1.0, 0.0},
  };
  std::vector<Link> links{{0, 1, 5.0}, {1, 2, 5.0}, {0, 2, 3.0}};
  const Topology topo(std::move(stations), std::move(links));
  EXPECT_DOUBLE_EQ(topo.transmission_delay_ms(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(topo.transmission_delay_ms(0, 1), 5.0);
}

TEST(Topology, DisconnectedReportsInfinity) {
  std::vector<BaseStation> stations{
      {0, 3000.0, 1.0, 0.0, 0.0},
      {1, 3000.0, 1.0, 1.0, 0.0},
  };
  const Topology topo(std::move(stations), {});
  EXPECT_FALSE(topo.connected());
  EXPECT_TRUE(std::isinf(topo.transmission_delay_ms(0, 1)));
}

TEST(Topology, ValidationRejectsBadInput) {
  std::vector<BaseStation> ok{{0, 3000.0, 1.0, 0.0, 0.0}};
  EXPECT_THROW(Topology({}, {}), std::invalid_argument);
  std::vector<BaseStation> bad_id{{1, 3000.0, 1.0, 0.0, 0.0}};
  EXPECT_THROW(Topology(std::move(bad_id), {}), std::invalid_argument);
  std::vector<BaseStation> bad_cap{{0, 0.0, 1.0, 0.0, 0.0}};
  EXPECT_THROW(Topology(std::move(bad_cap), {}), std::invalid_argument);
  std::vector<BaseStation> two{{0, 1.0, 1.0, 0.0, 0.0},
                               {1, 1.0, 1.0, 0.0, 0.0}};
  EXPECT_THROW(Topology(two, {{0, 5, 1.0}}), std::invalid_argument);
  EXPECT_THROW(Topology(two, {{0, 0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(Topology(two, {{0, 1, -1.0}}), std::invalid_argument);
}

TEST(Topology, ValidationRejectsNonFiniteInput) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto two = [](double capacity, double proc_ms_per_unit) {
    return std::vector<BaseStation>{{0, capacity, proc_ms_per_unit, 0.0, 0.0},
                                    {1, 3000.0, 1.0, 1.0, 0.0}};
  };
  EXPECT_THROW(Topology(two(kNaN, 1.0), {}), std::invalid_argument);
  EXPECT_THROW(Topology(two(3000.0, -5.0), {}), std::invalid_argument);
  EXPECT_THROW(Topology(two(3000.0, kNaN), {}), std::invalid_argument);
  EXPECT_THROW(Topology(two(3000.0, kInf), {}), std::invalid_argument);
  EXPECT_THROW(Topology(two(3000.0, 1.0), {{0, 1, kNaN}}),
               std::invalid_argument);
  EXPECT_THROW(Topology(two(3000.0, 1.0), {{0, 1, 1.0, kNaN}}),
               std::invalid_argument);
  // +inf stays valid: a cut link's delay and unconstrained bandwidth.
  const Topology cut(two(3000.0, 1.0), {{0, 1, kInf}});
  EXPECT_TRUE(std::isinf(cut.transmission_delay_ms(0, 1)));
  const Topology unconstrained(two(3000.0, 0.0), {{0, 1, 1.0, kInf}});
  EXPECT_EQ(unconstrained.transmission_delay_ms(0, 1), 1.0);
}

TEST(Topology, StationsByDistanceStartsWithSelf) {
  const Topology topo = line_topology();
  const auto order = topo.stations_by_distance(1);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 0);  // 1ms beats 2ms
  EXPECT_EQ(order[2], 2);
}

TEST(Topology, TotalCapacitySumsStations) {
  EXPECT_DOUBLE_EQ(line_topology().total_capacity_mhz(), 9600.0);
}

TEST(Topology, DelayQueriesValidateIds) {
  const Topology topo = line_topology();
  EXPECT_THROW(topo.transmission_delay_ms(-1, 0), std::out_of_range);
  EXPECT_THROW(topo.transmission_delay_ms(0, 3), std::out_of_range);
}

/// Reference all-pairs Dijkstra, independent of the library's: a lazy
/// binary heap over per-station adjacency lists in link order. Every
/// distance bit of a Topology must match it.
std::vector<double> reference_delay_table(const Topology& topo) {
  struct Edge {
    int to;
    double delay;
  };
  const auto n = static_cast<std::size_t>(topo.num_stations());
  std::vector<std::vector<Edge>> adjacency(n);
  for (const Link& link : topo.links()) {
    adjacency[static_cast<std::size_t>(link.a)].push_back(
        {link.b, link.delay_ms});
    adjacency[static_cast<std::size_t>(link.b)].push_back(
        {link.a, link.delay_ms});
  }
  std::vector<double> dist(n * n, std::numeric_limits<double>::infinity());
  using Entry = std::pair<double, int>;
  for (std::size_t src = 0; src < n; ++src) {
    double* row = &dist[src * n];
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    row[src] = 0.0;
    heap.emplace(0.0, static_cast<int>(src));
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > row[u]) continue;
      for (const Edge& edge : adjacency[static_cast<std::size_t>(u)]) {
        const double nd = d + edge.delay;
        if (nd < row[edge.to]) {
          row[edge.to] = nd;
          heap.emplace(nd, edge.to);
        }
      }
    }
  }
  return dist;
}

std::vector<double> delay_table(const Topology& topo) {
  std::vector<double> table;
  for (int from = 0; from < topo.num_stations(); ++from) {
    const auto row = topo.delays_from(from);
    table.insert(table.end(), row.begin(), row.end());
  }
  return table;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Every pair: the path is a walk of links from `from` to `to`, and its
/// delays summed from `from` onward give the table entry bit for bit.
/// Disconnected pairs throw.
void expect_paths_reproduce_delays(const Topology& topo) {
  for (int from = 0; from < topo.num_stations(); ++from) {
    for (int to = 0; to < topo.num_stations(); ++to) {
      const double delay = topo.transmission_delay_ms(from, to);
      if (std::isinf(delay)) {
        EXPECT_THROW((void)topo.shortest_path_links(from, to),
                     std::runtime_error);
        continue;
      }
      int at = from;
      double sum = 0.0;
      for (int link_id : topo.shortest_path_links(from, to)) {
        const Link& link = topo.links().at(static_cast<std::size_t>(link_id));
        ASSERT_TRUE(link.a == at || link.b == at)
            << "path " << from << "->" << to << " breaks at link " << link_id;
        at = link.a == at ? link.b : link.a;
        sum += link.delay_ms;
      }
      EXPECT_EQ(at, to);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sum),
                std::bit_cast<std::uint64_t>(delay))
          << "path " << from << "->" << to;
    }
  }
}

Topology hand_built(std::vector<Link> links, int num_stations) {
  std::vector<BaseStation> stations;
  for (int i = 0; i < num_stations; ++i) {
    stations.push_back({i, 3000.0, 1.0, 0.0, 0.0});
  }
  return Topology(std::move(stations), std::move(links));
}

TEST(Topology, AllPairsMatchReferenceOnWaxmanTopologies) {
  // Both sides of kPooledRowsMinStations.
  for (const int n : {1, 2, 3, 5, 8, 13, 21, 34, 50, 89, 127, 128, 129, 200,
                      300}) {
    util::Rng rng(static_cast<std::uint64_t>(n));
    TopologyParams params;
    params.num_stations = n;
    const Topology topo = generate_topology(params, rng);
    EXPECT_TRUE(same_bits(delay_table(topo), reference_delay_table(topo)))
        << n << " stations";
  }
}

TEST(Topology, AllPairsMatchReferenceOnHandBuiltGraphs) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Topology> graphs{
      // Zero-delay link: 0 and 1 are one point of the network.
      hand_built({{0, 1, 0.0}, {1, 2, 2.5}, {0, 2, 2.5}, {2, 3, 0.0}}, 4),
      // Cut (+inf) link: 0-1 only through 2; 3 only through a cut link.
      hand_built({{0, 1, kInf}, {0, 2, 5.0}, {2, 1, 1.0}, {1, 3, kInf}}, 4),
      // Two components.
      hand_built({{0, 1, 1.0}, {2, 3, 2.0}, {3, 4, 0.5}}, 5),
      // Exact ties: 0->3 costs 3 through 1 and through 2. Rounding: 0->5
      // direct (0.3) beats 0.1 + 0.2, which rounds above 0.3.
      hand_built({{0, 1, 1.0},
                  {1, 3, 2.0},
                  {0, 2, 2.0},
                  {2, 3, 1.0},
                  {3, 5, 10.0},
                  {0, 4, 0.1},
                  {4, 5, 0.2},
                  {0, 5, 0.3}},
                 6),
  };
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    EXPECT_TRUE(same_bits(delay_table(graphs[g]),
                          reference_delay_table(graphs[g])))
        << "graph " << g;
    expect_paths_reproduce_delays(graphs[g]);
  }
  EXPECT_EQ(graphs[0].transmission_delay_ms(1, 3), 2.5);
  EXPECT_EQ(graphs[1].transmission_delay_ms(0, 1), 6.0);
  EXPECT_TRUE(std::isinf(graphs[1].transmission_delay_ms(0, 3)));
  EXPECT_FALSE(graphs[2].connected());
  EXPECT_EQ(graphs[3].transmission_delay_ms(0, 3), 3.0);
  EXPECT_EQ(graphs[3].transmission_delay_ms(0, 5), 0.3);
}

TEST(Topology, ConcurrentRowReadsAreByteEqual) {
  util::Rng rng(1);
  TopologyParams params;
  params.num_stations = 300;
  const Topology serial = generate_topology(params, rng);
  const Topology shared(serial.stations(), serial.links());
  const auto n = static_cast<std::size_t>(shared.num_stations());
  // Four workers read every row of one topology, each from its own
  // starting row and in its own direction, so first reads race.
  constexpr std::size_t kWorkers = 4;
  std::vector<std::vector<double>> seen(kWorkers, std::vector<double>(n * n));
  util::ThreadPool pool(static_cast<int>(kWorkers));
  pool.parallel_for(kWorkers, [&](std::size_t w) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t from =
          w % 2 == 0 ? (w * n / kWorkers + k) % n : n - 1 - (w * 37 + k) % n;
      const auto row = shared.delays_from(static_cast<int>(from));
      std::copy(row.begin(), row.end(), seen[w].begin() + from * n);
    }
  });
  const std::vector<double> want = delay_table(serial);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_TRUE(same_bits(seen[w], want)) << "worker " << w;
  }
  EXPECT_TRUE(same_bits(delay_table(shared), want));
}

TEST(Topology, ShortestPathsReproduceDelaysOnWaxmanTopologies) {
  for (const int n : {2, 7, 20, 45}) {
    util::Rng rng(static_cast<std::uint64_t>(100 + n));
    TopologyParams params;
    params.num_stations = n;
    expect_paths_reproduce_delays(generate_topology(params, rng));
  }
}

/// FNV-1a over the little-endian bytes of 64-bit words.
struct Fnv1a {
  std::uint64_t hash = 14695981039346656037ULL;
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xffU;
      hash *= 1099511628211ULL;
    }
  }
  void add_double(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

TEST(Topology, DelayTableHashIsPinned) {
  // A drift in any distance bit fails here before it reaches the goldens.
  util::Rng rng(1);
  TopologyParams params;
  params.num_stations = 300;
  const Topology topo = generate_topology(params, rng);
  Fnv1a fnv;
  for (const double d : delay_table(topo)) fnv.add_double(d);
  EXPECT_EQ(fnv.hash, 0x0ee0b361c2c89e01ULL);
}

/// Delay rows computed so far in this process (0 with telemetry compiled
/// out).
double delay_rows_computed() {
  (void)obs::metrics();  // registers mec.delay_rows
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  const obs::CounterSnapshot* rows = snap.find_counter("mec.delay_rows");
  return rows == nullptr ? 0.0 : rows->value;
}

TEST(Topology, ReachabilityReadsLabelsUnlessSumsCanOverflow) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Topology> graphs{
      // Cut (+inf) links: 0-1 only through 2; 3 only through a cut link.
      hand_built({{0, 1, kInf}, {0, 2, 5.0}, {2, 1, 1.0}, {1, 3, kInf}}, 4),
      // Two components.
      hand_built({{0, 1, 1.0}, {2, 3, 2.0}, {3, 4, 0.5}}, 5),
      // One component, with a zero-delay link.
      hand_built({{0, 1, 0.0}, {1, 2, 2.0}}, 3),
  };
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const Topology& topo = graphs[g];
    const int n = topo.num_stations();
    const double rows_before = delay_rows_computed();
    std::vector<char> reach;
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) reach.push_back(topo.reachable(a, b));
    }
    const bool connected = topo.connected();
    // The component labels answer; no row is computed.
    EXPECT_EQ(delay_rows_computed(), rows_before) << "graph " << g;
    bool all_finite = true;
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        const bool finite = std::isfinite(topo.transmission_delay_ms(a, b));
        all_finite = all_finite && finite;
        EXPECT_EQ(reach[static_cast<std::size_t>(a * n + b)] != 0, finite)
            << "graph " << g << " " << a << "->" << b;
      }
    }
    EXPECT_EQ(connected, all_finite) << "graph " << g;
  }
  EXPECT_THROW((void)graphs[0].reachable(0, 4), std::out_of_range);
  EXPECT_THROW((void)graphs[0].reachable(-1, 0), std::out_of_range);

  // One component whose 0 -> 2 path sums past DBL_MAX: the labels would
  // call 0 and 2 connected, so reachability reads the row.
  const Topology huge = hand_built({{0, 1, 1e308}, {1, 2, 1e308}}, 3);
  EXPECT_TRUE(huge.reachable(0, 1));
  EXPECT_TRUE(huge.reachable(2, 1));
  EXPECT_FALSE(huge.reachable(0, 2));
  EXPECT_FALSE(huge.reachable(2, 0));
  EXPECT_FALSE(huge.connected());
  EXPECT_THROW((void)huge.shortest_path_links(0, 2), std::runtime_error);
  EXPECT_EQ(huge.shortest_path_links(0, 1), std::vector<int>{0});
}

/// Reference for Topology::nearest_by_latency: every station's latency
/// from the home station's full delay row, filtered by `keep`, sorted by
/// (latency, id) and truncated.
std::vector<StationLatency> reference_nearest(const Topology& topo, int home,
                                              double weight, std::size_t limit,
                                              const KeepRule& keep) {
  const std::span<const double> row = topo.delays_from(home);
  std::vector<StationLatency> all;
  for (int bs = 0; bs < topo.num_stations(); ++bs) {
    const auto i = static_cast<std::size_t>(bs);
    const double lat = placement_latency_ms(row[i], weight,
                                            topo.station(bs).proc_ms_per_unit);
    if ((keep.station_up.empty() || keep.station_up[i] != 0) &&
        keep.waiting_ms + lat <= keep.budget_ms) {
      all.push_back({bs, lat});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const StationLatency& a, const StationLatency& b) {
              if (a.latency_ms != b.latency_ms) {
                return a.latency_ms < b.latency_ms;
              }
              return a.station < b.station;
            });
  if (all.size() > limit) all.resize(limit);
  return all;
}

void expect_nearest_matches(const Topology& topo, int home, double weight,
                            std::size_t limit, const KeepRule& keep,
                            const std::string& where) {
  const auto got = topo.nearest_by_latency(home, weight, limit, keep);
  const auto want = reference_nearest(topo, home, weight, limit, keep);
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].station, want[k].station) << where << " rank " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k].latency_ms),
              std::bit_cast<std::uint64_t>(want[k].latency_ms))
        << where << " rank " << k;
  }
}

/// The limits the contract names, including none kept (0) and more than
/// the station count.
std::vector<std::size_t> search_limits(const Topology& topo) {
  return {0, 1, 3, 10, static_cast<std::size_t>(topo.num_stations()) + 5};
}

/// Weights of every sign class: zero, negative zero, positive, negative,
/// NaN and both infinities.
std::vector<double> search_weights() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {0.0, -0.0, 0.7, 3.25, 11.0, -2.5,
          std::numeric_limits<double>::quiet_NaN(), kInf, -kInf};
}

/// Every (home, weight, limit) of `topo` against the row scan, with the
/// default keep rule and with a finite wait and budget. `home_stride`
/// thins the homes of large topologies.
void expect_search_matches_everywhere(const Topology& topo,
                                      const std::string& name,
                                      int home_stride = 1) {
  std::vector<KeepRule> keeps(2);
  keeps[1].waiting_ms = 7.5;
  keeps[1].budget_ms = 40.0;
  for (int home = 0; home < topo.num_stations(); home += home_stride) {
    for (const double weight : search_weights()) {
      for (const std::size_t limit : search_limits(topo)) {
        for (std::size_t k = 0; k < keeps.size(); ++k) {
          expect_nearest_matches(topo, home, weight, limit, keeps[k],
                                 name + " home " + std::to_string(home) +
                                     " weight " + std::to_string(weight) +
                                     " limit " + std::to_string(limit) +
                                     " keep " + std::to_string(k));
        }
      }
    }
  }
}

TEST(NearestByLatency, MatchesRowScansOnWaxmanTopologies) {
  for (const int n : {1, 2, 5, 13, 50, 120, 300}) {
    util::Rng rng(static_cast<std::uint64_t>(500 + n));
    TopologyParams params;
    params.num_stations = n;
    expect_search_matches_everywhere(generate_topology(params, rng),
                                     std::to_string(n) + " stations",
                                     n > 50 ? 7 : 1);
  }
}

TEST(NearestByLatency, MatchesRowScansOnThePerfbenchNetwork) {
  // perfbench's online workloads all run on this network: 1000 Waxman
  // stations drawn from seed 1.
  util::Rng rng(1);
  TopologyParams params;
  params.num_stations = 1000;
  const Topology topo = generate_topology(params, rng);
  std::vector<double> weights;
  for (const std::size_t tasks : {3u, 4u, 5u}) {
    weights.push_back(ar_pipeline(tasks).total_proc_weight());
  }
  std::vector<std::vector<StationLatency>> lists;
  const double rows_before = delay_rows_computed();
  for (int home = 0; home < topo.num_stations(); home += 10) {
    for (const double weight : weights) {
      for (const std::size_t limit : {1u, 10u}) {
        lists.push_back(topo.nearest_by_latency(home, weight, limit));
      }
    }
  }
  // The searches read no row.
  EXPECT_EQ(delay_rows_computed(), rows_before);
  std::size_t at = 0;
  for (int home = 0; home < topo.num_stations(); home += 10) {
    for (const double weight : weights) {
      for (const std::size_t limit : {1u, 10u}) {
        const auto want = reference_nearest(topo, home, weight, limit, {});
        const auto& got = lists[at++];
        ASSERT_EQ(got.size(), want.size()) << "home " << home;
        for (std::size_t k = 0; k < want.size(); ++k) {
          EXPECT_EQ(got[k].station, want[k].station) << "home " << home;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k].latency_ms),
                    std::bit_cast<std::uint64_t>(want[k].latency_ms))
              << "home " << home;
        }
      }
    }
  }
}

TEST(NearestByLatency, MatchesRowScansOnHandBuiltGraphs) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // A star whose twelve spokes all cost 4 and whose leaves alternate
  // between two speeds, with links listed in descending leaf id: from the
  // hub, only ids order the ties, and the last settled tie must still
  // displace a kept one.
  std::vector<BaseStation> star_stations{{0, 3000.0, 1.0, 0.0, 0.0}};
  std::vector<Link> star_links;
  for (int i = 1; i <= 12; ++i) {
    star_stations.push_back({i, 3000.0, i % 2 == 0 ? 1.0 : 1.5, 0.0, 0.0});
  }
  for (int i = 12; i >= 1; --i) star_links.push_back({0, i, 4.0});
  // Stations 1 and 3 process for free (proc_ms_per_unit 0).
  std::vector<BaseStation> free_stations;
  for (int i = 0; i < 6; ++i) {
    free_stations.push_back(
        {i, 3000.0, i == 1 || i == 3 ? 0.0 : 0.5 + 0.5 * i, 0.0, 0.0});
  }
  const std::vector<Topology> graphs{
      // Zero-delay links: 0 and 1 are one point of the network.
      hand_built({{0, 1, 0.0}, {1, 2, 2.5}, {0, 2, 2.5}, {2, 3, 0.0}}, 4),
      // Cut (+inf) links: 0-1 only through 2; 3 only through a cut link.
      hand_built({{0, 1, kInf}, {0, 2, 5.0}, {2, 1, 1.0}, {1, 3, kInf}}, 4),
      // Two components.
      hand_built({{0, 1, 1.0}, {2, 3, 2.0}, {3, 4, 0.5}}, 5),
      // Exact ties and a direct link that beats its two-hop detour.
      hand_built({{0, 1, 1.0},
                  {1, 3, 2.0},
                  {0, 2, 2.0},
                  {2, 3, 1.0},
                  {3, 5, 10.0},
                  {0, 4, 0.1},
                  {4, 5, 0.2},
                  {0, 5, 0.3}},
                 6),
      // Parallel links, the longer one first.
      hand_built({{0, 1, 3.0}, {0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 2.5}}, 3),
      // A two-hop path beats every direct link.
      hand_built({{0, 1, 0.5}, {1, 2, 0.5}, {0, 2, 5.0}, {0, 3, 6.0},
                  {2, 3, 0.5}},
                 4),
      Topology(std::move(star_stations), std::move(star_links)),
      Topology(std::move(free_stations),
               {{0, 1, 3.0}, {1, 2, 1.0}, {2, 3, 4.0}, {0, 4, 0.5},
                {4, 5, 0.5}}),
      // Delays near DBL_MAX: two hops overflow to +inf.
      hand_built({{0, 1, 1e308}, {1, 2, 1e308}, {2, 3, 1.0}}, 4),
  };
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    expect_search_matches_everywhere(graphs[g], "graph " + std::to_string(g));
  }
}

TEST(NearestByLatency, UpMasksMatchTheMinimumScan) {
  for (const int n : {1, 4, 30, 120}) {
    util::Rng rng(static_cast<std::uint64_t>(900 + n));
    TopologyParams params;
    params.num_stations = n;
    const Topology topo = generate_topology(params, rng);
    const auto stations = static_cast<std::size_t>(n);
    std::vector<std::vector<char>> masks{std::vector<char>(stations, 0),
                                         std::vector<char>(stations, 1)};
    for (int m = 0; m < 6; ++m) {
      std::vector<char> mask(stations);
      for (char& up : mask) up = rng.bernoulli(0.3 * (m % 3 + 1)) ? 1 : 0;
      masks.push_back(std::move(mask));
    }
    for (int home = 0; home < n; home += n > 30 ? 11 : 1) {
      for (const double weight : search_weights()) {
        ARRequest req;
        req.home_station = home;
        req.tasks = {TaskSpec{"a", 64.0, weight}};
        for (std::size_t m = 0; m < masks.size(); ++m) {
          double want = std::numeric_limits<double>::infinity();
          for (int bs = 0; bs < n; ++bs) {
            if (masks[m][static_cast<std::size_t>(bs)] != 0) {
              want = std::min(want, placement_latency_ms(topo, req, bs));
            }
          }
          EXPECT_EQ(std::bit_cast<std::uint64_t>(
                        min_placement_latency_ms(topo, req, masks[m])),
                    std::bit_cast<std::uint64_t>(want))
              << n << " stations, home " << home << " weight " << weight
              << " mask " << m;
          KeepRule keep;
          keep.station_up = masks[m];
          expect_nearest_matches(topo, home, weight, 1, keep,
                                 std::to_string(n) + " stations, mask " +
                                     std::to_string(m));
        }
      }
    }
  }
}

TEST(NearestByLatency, ValidatesItsInputs) {
  const Topology topo = line_topology();
  EXPECT_THROW((void)topo.nearest_by_latency(3, 1.0, 1), std::out_of_range);
  EXPECT_THROW((void)topo.nearest_by_latency(-1, 1.0, 1), std::out_of_range);
  const std::vector<char> short_mask(2, 1);
  KeepRule keep;
  keep.station_up = short_mask;
  EXPECT_THROW((void)topo.nearest_by_latency(0, 1.0, 1, keep),
               std::invalid_argument);
  EXPECT_TRUE(topo.nearest_by_latency(0, 1.0, 0).empty());
}

class GeneratorSeeds : public ::testing::TestWithParam<unsigned> {};

TEST_P(GeneratorSeeds, GeneratedTopologyIsConnectedAndInRange) {
  util::Rng rng(GetParam());
  TopologyParams params;
  params.num_stations = 20;
  const Topology topo = generate_topology(params, rng);
  EXPECT_EQ(topo.num_stations(), 20);
  EXPECT_TRUE(topo.connected());
  for (const BaseStation& bs : topo.stations()) {
    EXPECT_GE(bs.capacity_mhz, params.capacity_min_mhz);
    EXPECT_LE(bs.capacity_mhz, params.capacity_max_mhz);
    EXPECT_GE(bs.proc_ms_per_unit, params.proc_ms_min);
    EXPECT_LE(bs.proc_ms_per_unit, params.proc_ms_max);
  }
  for (const Link& link : topo.links()) {
    EXPECT_GE(link.delay_ms, params.link_delay_min_ms);
    EXPECT_LE(link.delay_ms, params.link_delay_max_ms);
  }
}

TEST_P(GeneratorSeeds, GeneratedWorkloadMatchesSectionVIA) {
  util::Rng rng(100 + GetParam());
  TopologyParams tparams;
  const Topology topo = generate_topology(tparams, rng);
  WorkloadParams wparams;
  wparams.num_requests = 60;
  const auto requests = generate_requests(wparams, topo, rng);
  ASSERT_EQ(requests.size(), 60u);
  for (const ARRequest& req : requests) {
    EXPECT_GE(req.home_station, 0);
    EXPECT_LT(req.home_station, topo.num_stations());
    EXPECT_GE(static_cast<int>(req.tasks.size()), wparams.tasks_min);
    EXPECT_LE(static_cast<int>(req.tasks.size()), wparams.tasks_max);
    EXPECT_DOUBLE_EQ(req.latency_budget_ms, 200.0);
    EXPECT_EQ(static_cast<int>(req.demand.size()), wparams.num_rate_levels);
    // Rates within (jittered) section VI-A support and increasing.
    double prob = 0.0;
    double prev = 0.0;
    for (const RateLevel& lvl : req.demand.levels()) {
      EXPECT_GT(lvl.rate, prev);
      EXPECT_GE(lvl.rate, wparams.rate_min - 2.0);
      EXPECT_LE(lvl.rate, wparams.rate_max + 2.0);
      // Independent reward model: reward = unit * volume with
      // unit in [12, 15] and volume in the rate support.
      EXPECT_GE(lvl.reward,
                wparams.rate_min * wparams.reward_per_unit_min - 1e-9);
      EXPECT_LE(lvl.reward,
                wparams.rate_max * wparams.reward_per_unit_max + 1e-9);
      prev = lvl.rate;
      prob += lvl.prob;
    }
    EXPECT_NEAR(prob, 1.0, 1e-9);
  }
}

TEST_P(GeneratorSeeds, SmallRatesAreMoreLikely) {
  util::Rng rng(200 + GetParam());
  const Topology topo = generate_topology(TopologyParams{}, rng);
  WorkloadParams wparams;
  wparams.num_requests = 50;
  const auto requests = generate_requests(wparams, topo, rng);
  double low = 0.0, high = 0.0;
  for (const ARRequest& req : requests) {
    low += req.demand.levels().front().prob;
    high += req.demand.levels().back().prob;
  }
  EXPECT_GT(low, high);  // skewed toward small rates on aggregate
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeeds, ::testing::Range(1u, 9u));

TEST(RateRewardDist, MomentsOfKnownDistribution) {
  RateRewardDist dist({{30.0, 0.5, 300.0}, {50.0, 0.5, 700.0}});
  EXPECT_DOUBLE_EQ(dist.expected_rate(), 40.0);
  EXPECT_DOUBLE_EQ(dist.expected_reward(), 500.0);
  EXPECT_DOUBLE_EQ(dist.min_rate(), 30.0);
  EXPECT_DOUBLE_EQ(dist.max_rate(), 50.0);
}

TEST(RateRewardDist, TruncatedExpectation) {
  RateRewardDist dist({{30.0, 0.5, 300.0}, {50.0, 0.5, 700.0}});
  EXPECT_DOUBLE_EQ(dist.expected_truncated_rate(40.0), 35.0);
  EXPECT_DOUBLE_EQ(dist.expected_truncated_rate(100.0), 40.0);
  EXPECT_DOUBLE_EQ(dist.expected_truncated_rate(0.0), 0.0);
}

TEST(RateRewardDist, RewardWithinCapImplementsEq8) {
  RateRewardDist dist({{30.0, 0.5, 300.0}, {50.0, 0.5, 700.0}});
  EXPECT_DOUBLE_EQ(dist.expected_reward_within(29.0), 0.0);
  EXPECT_DOUBLE_EQ(dist.expected_reward_within(30.0), 150.0);
  EXPECT_DOUBLE_EQ(dist.expected_reward_within(50.0), 500.0);
}

TEST(RateRewardDist, SampleFollowsProbabilities) {
  RateRewardDist dist({{30.0, 0.25, 300.0}, {50.0, 0.75, 700.0}});
  util::Rng rng(5);
  int high = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) high += (dist.sample(rng) == 1);
  EXPECT_NEAR(static_cast<double>(high) / n, 0.75, 0.02);
}

TEST(RateRewardDist, ValidatesInput) {
  EXPECT_THROW(RateRewardDist(std::vector<RateLevel>{}),
               std::invalid_argument);
  EXPECT_THROW(RateRewardDist({{30.0, 0.5, 1.0}, {30.0, 0.5, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(RateRewardDist({{30.0, 0.5, 1.0}, {50.0, 0.2, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(RateRewardDist({{30.0, 1.0, -1.0}}), std::invalid_argument);
  EXPECT_THROW(RateRewardDist({{30.0, 1.5, 1.0}}), std::invalid_argument);
}

TEST(RateRewardDist, DefaultIsDegenerate) {
  const RateRewardDist dist;
  EXPECT_EQ(dist.size(), 1u);
  EXPECT_DOUBLE_EQ(dist.expected_rate(), 0.0);
  EXPECT_DOUBLE_EQ(dist.expected_reward(), 0.0);
}

TEST(RateRewardDist, HoldsAtMostEightLevelsInline) {
  std::vector<RateLevel> levels;
  for (std::size_t k = 0; k < kMaxRateLevels; ++k) {
    levels.push_back({30.0 + static_cast<double>(k), 0.125, 100.0});
  }
  const RateRewardDist eight(levels);
  EXPECT_EQ(eight.size(), kMaxRateLevels);
  EXPECT_EQ(eight.levels().data(), &eight.level(0));
  EXPECT_DOUBLE_EQ(eight.max_rate(), 37.0);
  EXPECT_THROW((void)eight.level(kMaxRateLevels), std::out_of_range);
  levels.push_back({40.0, 0.0, 100.0});
  EXPECT_THROW(RateRewardDist{levels}, std::invalid_argument);
}

TEST(FlatRequest, IsTriviallyCopyableAndFitsIn256Bytes) {
  // A request owns no heap memory: copying one is a memcpy that touches
  // no shared counter, and a workload of them is one allocation.
  static_assert(std::is_trivially_copyable_v<ARRequest>);
  static_assert(sizeof(ARRequest) <= 256);
  ARRequest req;
  req.tasks = ar_pipeline(3);
  req.demand = RateRewardDist({{30.0, 0.5, 300.0}, {50.0, 0.5, 700.0}});
  ARRequest copy;
  std::memcpy(static_cast<void*>(&copy), &req, sizeof(ARRequest));
  EXPECT_EQ(copy.tasks.data(), req.tasks.data());
  EXPECT_EQ(copy.total_proc_weight(), req.total_proc_weight());
  EXPECT_DOUBLE_EQ(copy.demand.expected_reward(), 500.0);
  EXPECT_DOUBLE_EQ(copy.demand.level(1).rate, 50.0);
}

TEST(ARPipeline, EachLengthIsInternedOnce) {
  EXPECT_EQ(ar_pipeline(3).data(), ar_pipeline(3).data());
  EXPECT_NE(ar_pipeline(3).data(), ar_pipeline(4).data());
  // Lengths no other call in this process has interned yet, so the pool
  // threads race to intern each one.
  util::ThreadPool pool(4);
  const auto addresses = pool.parallel_map(64, [](std::size_t i) {
    return ar_pipeline(20 + static_cast<int>(i % 4)).data();
  });
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    EXPECT_EQ(addresses[i], ar_pipeline(20 + static_cast<int>(i % 4)).data())
        << "call " << i;
  }
}

TEST(ARPipeline, EqualHandBuiltListsShareOnePipeline) {
  const Pipeline a = {TaskSpec{"a", 64.0, 0.5}, TaskSpec{"b", 64.0, 0.3}};
  ARRequest req;
  req.tasks = {TaskSpec{"a", 64.0, 0.5}, TaskSpec{"b", 64.0, 0.3}};
  EXPECT_EQ(req.tasks.data(), a.data());
  // Doubles are compared by their bits, names by their characters.
  const Pipeline negative_zero = {TaskSpec{"a", 64.0, 0.5},
                                  TaskSpec{"b", -0.0, 0.3}};
  const Pipeline positive_zero = {TaskSpec{"a", 64.0, 0.5},
                                  TaskSpec{"b", 0.0, 0.3}};
  EXPECT_NE(negative_zero.data(), positive_zero.data());
  EXPECT_NE(Pipeline({TaskSpec{"c", 64.0, 0.5}}).data(),
            Pipeline({TaskSpec{"a", 64.0, 0.5}}).data());
  // A hand-built copy of the template is the template's pipeline.
  const Pipeline braud = ar_pipeline(4);
  const std::vector<TaskSpec> copy(braud.begin(), braud.end());
  EXPECT_EQ(Pipeline(copy).data(), braud.data());
  EXPECT_TRUE(ARRequest{}.tasks.empty());
  EXPECT_EQ(Pipeline(std::span<const TaskSpec>{}).data(), Pipeline{}.data());
}

TEST(ARPipeline, TotalProcWeightKeepsTheInOrderSumBits) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto loop_sum = [](const Pipeline& tasks) {
    double total = 0.0;
    for (const TaskSpec& task : tasks) total += task.proc_weight;
    return total;
  };
  std::vector<TaskSpec> all;
  for (const double w : {0.0, 0.1, 1e-300, 7.25, 1e300, kInf}) {
    const Pipeline pair = {TaskSpec{"a", 64.0, w}, TaskSpec{"b", 64.0, 0.3}};
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pair.total_proc_weight()),
              std::bit_cast<std::uint64_t>(loop_sum(pair)))
        << "weight " << w;
    all.push_back(TaskSpec{"t" + std::to_string(all.size()), 64.0, w});
  }
  const Pipeline chain(all);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(chain.total_proc_weight()),
            std::bit_cast<std::uint64_t>(loop_sum(chain)));
  for (int k = 1; k <= 6; ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ar_pipeline(k).total_proc_weight()),
              std::bit_cast<std::uint64_t>(loop_sum(ar_pipeline(k))))
        << k << " tasks";
  }
}

TEST(ARPipeline, TemplateMatchesBraudTrace) {
  const auto tasks = ar_pipeline(4);
  ASSERT_EQ(tasks.size(), 4u);
  EXPECT_EQ(tasks[3].name, "render_objects");
  EXPECT_DOUBLE_EQ(tasks[3].output_kb, 100.0);  // render object 100 Kb
  EXPECT_DOUBLE_EQ(tasks[0].output_kb, 64.0);
  // Rendering is the most computing-intensive task.
  for (std::size_t k = 0; k + 1 < tasks.size(); ++k) {
    EXPECT_LE(tasks[k].proc_weight, tasks[3].proc_weight);
  }
}

TEST(ARPipeline, CyclicExtension) {
  const auto tasks = ar_pipeline(6);
  ASSERT_EQ(tasks.size(), 6u);
  EXPECT_EQ(tasks[4].name, tasks[0].name);
  EXPECT_THROW(ar_pipeline(0), std::invalid_argument);
}

TEST(PlacementLatency, HomeStationSkipsTransmission) {
  const Topology topo = line_topology();
  ARRequest req;
  req.home_station = 0;
  req.tasks = ar_pipeline(4);  // total weight 0.8+0.6+1.0+1.6 = 4.0
  EXPECT_DOUBLE_EQ(placement_latency_ms(topo, req, 0), 4.0 * 1.0);
  // Station 1: 2*1ms transit + 4.0 * 2ms processing.
  EXPECT_DOUBLE_EQ(placement_latency_ms(topo, req, 1), 2.0 + 8.0);
  // Station 2: 2*3ms + 4.0*3ms.
  EXPECT_DOUBLE_EQ(placement_latency_ms(topo, req, 2), 6.0 + 12.0);
}

TEST(PlacementLatency, SplitPlacementChainsHops) {
  const Topology topo = line_topology();
  ARRequest req;
  req.home_station = 0;
  req.tasks = ar_pipeline(3);  // weights 0.8, 0.6, 1.0
  // All tasks at home: same as consolidated placement.
  EXPECT_DOUBLE_EQ(split_placement_latency_ms(topo, req, {0, 0, 0}),
                   placement_latency_ms(topo, req, 0));
  // Last task moved to station 1: pay 0->1 hop and the return hop.
  const double split = split_placement_latency_ms(topo, req, {0, 0, 1});
  EXPECT_DOUBLE_EQ(split, 0.8 * 1.0 + 0.6 * 1.0 + 1.0 + 1.0 * 2.0 + 1.0);
  EXPECT_THROW(split_placement_latency_ms(topo, req, {0, 0}),
               std::invalid_argument);
}

TEST(MinPlacementLatencies, MatchSingleRequestHelperBitForBit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Stations 3 and 4 cannot be reached from 0-2 (+inf latency there).
  std::vector<BaseStation> stations{
      {0, 3000.0, 2.0, 0.0, 0.0}, {1, 3000.0, 1.0, 0.0, 0.0},
      {2, 3000.0, 0.5, 0.0, 0.0}, {3, 3000.0, 0.1, 0.0, 0.0},
      {4, 3000.0, 3.0, 0.0, 0.0}};
  const Topology topo(std::move(stations),
                      {{0, 1, 1.5}, {1, 2, 0.7}, {3, 4, 2.0}});
  std::vector<ARRequest> requests;
  for (int j = 0; j < 60; ++j) {
    ARRequest req;
    req.id = j;
    req.home_station = j % 5;
    req.tasks = ar_pipeline(3 + j % 3);  // repeated (home, weight) keys
    requests.push_back(req);
  }
  // Hand-set weights, including one whose every latency is +inf.
  for (const double w : {0.0, 0.1, 1e-300, 7.25, 1e300, kInf}) {
    ARRequest req;
    req.id = static_cast<int>(requests.size());
    req.home_station = 1;
    req.tasks = {TaskSpec{"a", 64.0, w}, TaskSpec{"b", 64.0, 0.3}};
    requests.push_back(req);
  }
  const std::vector<double> batch = min_placement_latencies(topo, requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (std::size_t j = 0; j < requests.size(); ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[j]),
              std::bit_cast<std::uint64_t>(
                  min_placement_latency_ms(topo, requests[j])))
        << "request " << j;
  }
  EXPECT_TRUE(std::isinf(batch.back()));
  EXPECT_TRUE(min_placement_latencies(topo, {}).empty());

  requests[7].home_station = 5;
  EXPECT_THROW((void)min_placement_latencies(topo, requests),
               std::out_of_range);
}

TEST(Workload, OfflineRequestsArriveAtSlotZero) {
  util::Rng rng(3);
  const Topology topo = generate_topology(TopologyParams{}, rng);
  WorkloadParams params;
  params.num_requests = 20;
  params.horizon_slots = 0;
  for (const auto& req : generate_requests(params, topo, rng)) {
    EXPECT_EQ(req.arrival_slot, 0);
    EXPECT_GE(req.duration_slots, params.duration_min_slots);
    EXPECT_LE(req.duration_slots, params.duration_max_slots);
  }
}

TEST(Workload, OnlineArrivalsAreSortedWithinHorizon) {
  util::Rng rng(4);
  const Topology topo = generate_topology(TopologyParams{}, rng);
  WorkloadParams params;
  params.num_requests = 50;
  params.horizon_slots = 100;
  const auto requests = generate_requests(params, topo, rng);
  int prev = 0;
  std::set<int> distinct;
  for (const auto& req : requests) {
    EXPECT_GE(req.arrival_slot, prev);
    EXPECT_LT(req.arrival_slot, 100);
    prev = req.arrival_slot;
    distinct.insert(req.arrival_slot);
  }
  EXPECT_GT(distinct.size(), 5u);  // genuinely spread over the horizon
}

TEST(Workload, ValidatesParameters) {
  util::Rng rng(5);
  const Topology topo = line_topology();
  WorkloadParams params;
  params.num_requests = -1;
  EXPECT_THROW(generate_requests(params, topo, rng), std::invalid_argument);
  params = {};
  params.num_rate_levels = 0;
  EXPECT_THROW(generate_requests(params, topo, rng), std::invalid_argument);
  params = {};
  params.rate_min = 50;
  params.rate_max = 30;
  EXPECT_THROW(generate_requests(params, topo, rng), std::invalid_argument);
  params = {};
  params.tasks_min = 0;
  EXPECT_THROW(generate_requests(params, topo, rng), std::invalid_argument);
  params = {};
  params.rate_prob_skew = 0.0;
  EXPECT_THROW(generate_requests(params, topo, rng), std::invalid_argument);
}

TEST(Workload, MoreRateLevelsThanFitInlineAreRejectedBeforeAnyDraw) {
  const Topology topo = line_topology();
  util::Rng rng(8);
  WorkloadParams params;
  params.num_requests = 4;
  params.num_rate_levels = static_cast<int>(kMaxRateLevels);
  for (const ARRequest& req : generate_requests(params, topo, rng)) {
    EXPECT_EQ(req.demand.size(), kMaxRateLevels);
  }
  params.num_rate_levels = static_cast<int>(kMaxRateLevels) + 1;
  util::Rng untouched = rng;
  EXPECT_THROW((void)generate_requests(params, topo, rng),
               std::invalid_argument);
  EXPECT_EQ(rng(), untouched());

  const FrameTrace trace = synthesize_trace(TraceParams{}, rng);
  EstimateOptions options;
  options.num_levels = static_cast<int>(kMaxRateLevels);
  EXPECT_LE(estimate_demand(trace, options, rng).size(), kMaxRateLevels);
  options.num_levels = static_cast<int>(kMaxRateLevels) + 1;
  untouched = rng;
  EXPECT_THROW((void)estimate_demand(trace, options, rng),
               std::invalid_argument);
  EXPECT_EQ(rng(), untouched());
}

TEST(Workload, RequestsAreOrderedByArrivalThenId) {
  // Many requests per slot, so the in-place ordering must keep id order
  // within each slot under every arrival process.
  util::Rng rng(9);
  const Topology topo = line_topology();
  for (const ArrivalProcess arrivals :
       {ArrivalProcess::kUniform, ArrivalProcess::kPoisson,
        ArrivalProcess::kFlashCrowd}) {
    for (const int horizon : {1, 7, 50}) {
      WorkloadParams params;
      params.num_requests = 1000;
      params.horizon_slots = horizon;
      params.arrivals = arrivals;
      const auto requests = generate_requests(params, topo, rng);
      std::vector<char> seen(requests.size(), 0);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const ARRequest& req = requests[i];
        ASSERT_GE(req.id, 0);
        ASSERT_LT(req.id, params.num_requests);
        EXPECT_EQ(seen[static_cast<std::size_t>(req.id)]++, 0);
        if (i > 0) {
          const ARRequest& prev = requests[i - 1];
          EXPECT_TRUE(prev.arrival_slot < req.arrival_slot ||
                      (prev.arrival_slot == req.arrival_slot &&
                       prev.id < req.id))
              << "position " << i << ", horizon " << horizon;
        }
      }
    }
  }
  WorkloadParams none;
  none.num_requests = 0;
  none.horizon_slots = 10;
  EXPECT_TRUE(generate_requests(none, topo, rng).empty());
}

TEST(Workload, GeneratorRejectsBadTopologyParams) {
  util::Rng rng(6);
  TopologyParams params;
  params.num_stations = 0;
  EXPECT_THROW(generate_topology(params, rng), std::invalid_argument);
}

TEST(Workload, GeneratedRequestsHashIsPinned) {
  // A change to any draw or any field of a generated request fails here
  // before it reaches the goldens.
  util::Rng rng(7);
  TopologyParams tparams;
  tparams.num_stations = 100;
  const Topology topo = generate_topology(tparams, rng);
  WorkloadParams wparams;
  wparams.num_requests = 5000;
  wparams.horizon_slots = 400;
  wparams.arrivals = ArrivalProcess::kFlashCrowd;
  const auto requests = generate_requests(wparams, topo, rng);
  const auto realized = core::realize_demand_levels(requests, rng);
  Fnv1a fnv;
  for (const ARRequest& req : requests) {
    fnv.add(static_cast<std::uint64_t>(req.id));
    fnv.add(static_cast<std::uint64_t>(req.home_station));
    fnv.add(req.tasks.size());
    for (const TaskSpec& task : req.tasks) {
      fnv.add_double(task.output_kb);
      fnv.add_double(task.proc_weight);
      for (const char c : task.name) {
        fnv.add(static_cast<unsigned char>(c));
      }
    }
    fnv.add(req.demand.size());
    for (const RateLevel& level : req.demand.levels()) {
      fnv.add_double(level.rate);
      fnv.add_double(level.prob);
      fnv.add_double(level.reward);
    }
    fnv.add_double(req.latency_budget_ms);
    fnv.add(static_cast<std::uint64_t>(req.arrival_slot));
    fnv.add(static_cast<std::uint64_t>(req.duration_slots));
  }
  for (const std::size_t level : realized) fnv.add(level);
  EXPECT_EQ(fnv.hash, 0xa4be1591685144e6ULL);
}

TEST(Workload, SingleRateLevelIsDegenerate) {
  util::Rng rng(7);
  const Topology topo = line_topology();
  WorkloadParams params;
  params.num_requests = 5;
  params.num_rate_levels = 1;
  for (const auto& req : generate_requests(params, topo, rng)) {
    ASSERT_EQ(req.demand.size(), 1u);
    EXPECT_NEAR(req.demand.level(0).prob, 1.0, 1e-12);
  }
}

}  // namespace
}  // namespace mecar::mec
