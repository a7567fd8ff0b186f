#include "mec/topology.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

namespace mecar::mec {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

Topology::Topology(std::vector<BaseStation> stations, std::vector<Link> links)
    : stations_(std::move(stations)), links_(std::move(links)) {
  if (stations_.empty()) {
    throw std::invalid_argument("Topology: no stations");
  }
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (stations_[i].id != static_cast<int>(i)) {
      throw std::invalid_argument("Topology: station ids must be 0..n-1");
    }
    if (stations_[i].capacity_mhz <= 0.0) {
      throw std::invalid_argument("Topology: non-positive capacity");
    }
  }
  adjacency_.assign(stations_.size(), {});
  for (std::size_t li = 0; li < links_.size(); ++li) {
    const Link& link = links_[li];
    if (link.a < 0 || link.b < 0 || link.a >= num_stations() ||
        link.b >= num_stations() || link.a == link.b) {
      throw std::invalid_argument("Topology: bad link endpoints");
    }
    if (link.delay_ms < 0.0) {
      throw std::invalid_argument("Topology: negative link delay");
    }
    if (link.bandwidth_mbps <= 0.0) {
      throw std::invalid_argument("Topology: non-positive link bandwidth");
    }
    adjacency_[static_cast<std::size_t>(link.a)].push_back(
        Edge{link.b, link.delay_ms, static_cast<int>(li)});
    adjacency_[static_cast<std::size_t>(link.b)].push_back(
        Edge{link.a, link.delay_ms, static_cast<int>(li)});
  }
  compute_shortest_paths();
}

void Topology::compute_shortest_paths() {
  const auto n = stations_.size();
  dist_.assign(n * n, kInf);
  parent_link_.assign(n * n, -1);
  using Entry = std::pair<double, int>;  // (distance, node)
  for (std::size_t src = 0; src < n; ++src) {
    auto* row = &dist_[src * n];
    auto* parents = &parent_link_[src * n];
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    row[src] = 0.0;
    heap.emplace(0.0, static_cast<int>(src));
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > row[u]) continue;
      for (const Edge& edge : adjacency_[static_cast<std::size_t>(u)]) {
        const double nd = d + edge.delay;
        if (nd < row[edge.to]) {
          row[edge.to] = nd;
          parents[edge.to] = edge.link;
          heap.emplace(nd, edge.to);
        }
      }
    }
  }
}

std::vector<int> Topology::shortest_path_links(int from, int to) const {
  if (from < 0 || to < 0 || from >= num_stations() || to >= num_stations()) {
    throw std::out_of_range("Topology::shortest_path_links: bad station id");
  }
  std::vector<int> path;
  if (from == to) return path;
  const auto n = static_cast<std::size_t>(num_stations());
  if (dist_[static_cast<std::size_t>(from) * n + static_cast<std::size_t>(to)] ==
      kInf) {
    throw std::runtime_error(
        "Topology::shortest_path_links: stations are disconnected");
  }
  int cur = to;
  while (cur != from) {
    const int link_id = parent_link_[static_cast<std::size_t>(from) * n +
                                     static_cast<std::size_t>(cur)];
    path.push_back(link_id);
    const Link& link = links_[static_cast<std::size_t>(link_id)];
    cur = (link.a == cur) ? link.b : link.a;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

double Topology::transmission_delay_ms(int from, int to) const {
  if (from < 0 || to < 0 || from >= num_stations() || to >= num_stations()) {
    throw std::out_of_range("Topology::transmission_delay_ms: bad station id");
  }
  return dist_[static_cast<std::size_t>(from) *
                   static_cast<std::size_t>(num_stations()) +
               static_cast<std::size_t>(to)];
}

std::span<const double> Topology::delays_from(int from) const {
  if (from < 0 || from >= num_stations()) {
    throw std::out_of_range("Topology::delays_from: bad station id");
  }
  const auto n = static_cast<std::size_t>(num_stations());
  return {dist_.data() + static_cast<std::size_t>(from) * n, n};
}

bool Topology::connected() const noexcept {
  const auto n = static_cast<std::size_t>(num_stations());
  for (std::size_t j = 0; j < n; ++j) {
    if (dist_[j] == kInf) return false;
  }
  return true;
}

double Topology::total_capacity_mhz() const noexcept {
  double total = 0.0;
  for (const BaseStation& bs : stations_) total += bs.capacity_mhz;
  return total;
}

std::vector<int> Topology::stations_by_distance(int from) const {
  std::vector<int> order(static_cast<std::size_t>(num_stations()));
  for (int i = 0; i < num_stations(); ++i) {
    order[static_cast<std::size_t>(i)] = i;
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double da = transmission_delay_ms(from, a);
    const double db = transmission_delay_ms(from, b);
    if (da != db) return da < db;
    return a < b;
  });
  return order;
}

Topology generate_topology(const TopologyParams& params, util::Rng& rng) {
  if (params.num_stations <= 0) {
    throw std::invalid_argument("generate_topology: num_stations <= 0");
  }
  const int n = params.num_stations;
  std::vector<BaseStation> stations;
  stations.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    BaseStation bs;
    bs.id = i;
    bs.capacity_mhz = rng.uniform(params.capacity_min_mhz,
                                  params.capacity_max_mhz);
    bs.proc_ms_per_unit = rng.uniform(params.proc_ms_min, params.proc_ms_max);
    bs.x = rng.uniform();
    bs.y = rng.uniform();
    stations.push_back(bs);
  }

  const double max_dist = std::sqrt(2.0);  // unit square diagonal
  auto euclid = [&](int a, int b) {
    const double dx = stations[static_cast<std::size_t>(a)].x -
                      stations[static_cast<std::size_t>(b)].x;
    const double dy = stations[static_cast<std::size_t>(a)].y -
                      stations[static_cast<std::size_t>(b)].y;
    return std::sqrt(dx * dx + dy * dy);
  };
  auto link_delay = [&](double dist) {
    // Longer links have proportionally larger transmission delay.
    const double frac = dist / max_dist;
    return params.link_delay_min_ms +
           frac * (params.link_delay_max_ms - params.link_delay_min_ms);
  };
  auto link_bandwidth = [&] {
    if (!std::isfinite(params.link_bandwidth_min_mbps)) {
      return std::numeric_limits<double>::infinity();
    }
    return rng.uniform(params.link_bandwidth_min_mbps,
                       params.link_bandwidth_max_mbps);
  };

  std::vector<Link> links;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const double d = euclid(a, b);
      const double p =
          params.waxman_beta * std::exp(-d / (params.waxman_alpha * max_dist));
      if (rng.bernoulli(p)) {
        links.push_back(Link{a, b, link_delay(d), link_bandwidth()});
      }
    }
  }

  // Patch connectivity: union-find over Waxman edges, then join components
  // through their geometrically closest station pair (what an ISP would do).
  std::vector<int> parent(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) parent[static_cast<std::size_t>(i)] = i;
  auto find = [&](int v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      parent[static_cast<std::size_t>(v)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
      v = parent[static_cast<std::size_t>(v)];
    }
    return v;
  };
  auto unite = [&](int a, int b) { parent[static_cast<std::size_t>(find(a))] = find(b); };
  for (const Link& l : links) unite(l.a, l.b);
  while (true) {
    int best_a = -1, best_b = -1;
    double best_d = kInf;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (find(a) == find(b)) continue;
        const double d = euclid(a, b);
        if (d < best_d) {
          best_d = d;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best_a < 0) break;  // single component
    links.push_back(Link{best_a, best_b, link_delay(best_d),
                         link_bandwidth()});
    unite(best_a, best_b);
  }

  return Topology(std::move(stations), std::move(links));
}

}  // namespace mecar::mec
