#include "mec/topology.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/parallel.h"

namespace mecar::mec {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Indexed 4-ary min-heap of station ids keyed by their labels in a
/// Dijkstra row. A station is queued at most once: a shorter label moves
/// its entry up (decrease-key) instead of pushing a second entry, so the
/// heap never holds more than |BS| entries and never pops a stale one.
/// The heap holds ids only and reads each key from the row, which keeps
/// its entries small; callers lower row[node] before push_or_decrease.
class IndexedHeap {
 public:
  explicit IndexedHeap(std::span<const double> row)
      : row_(row), pos_(row.size(), kNotQueued) {
    heap_.reserve(row.size());
  }

  bool empty() const noexcept { return heap_.empty(); }

  /// Queues `node`, or restores heap order after its label decreased.
  void push_or_decrease(int node) {
    const int at = pos_[static_cast<std::size_t>(node)];
    std::size_t i = heap_.size();
    if (at == kNotQueued) {
      heap_.push_back(node);
    } else {
      i = static_cast<std::size_t>(at);
    }
    const double key = key_of(node);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!(key < key_of(heap_[parent]))) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, node);
  }

  /// Removes and returns the queued station with the smallest label.
  int pop() {
    const int top = heap_.front();
    pos_[static_cast<std::size_t>(top)] = kNotQueued;
    const int last = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return top;
    const double key = key_of(last);
    const std::size_t size = heap_.size();
    std::size_t i = 0;
    while (true) {
      const std::size_t first = kArity * i + 1;
      if (first >= size) break;
      const std::size_t end = std::min(first + kArity, size);
      std::size_t best = first;
      double best_key = key_of(heap_[first]);
      for (std::size_t c = first + 1; c < end; ++c) {
        const double c_key = key_of(heap_[c]);
        if (c_key < best_key) {
          best = c;
          best_key = c_key;
        }
      }
      if (!(best_key < key)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, last);
    return top;
  }

 private:
  static constexpr int kNotQueued = -1;
  static constexpr std::size_t kArity = 4;

  double key_of(int node) const {
    return row_[static_cast<std::size_t>(node)];
  }

  void place(std::size_t i, int node) {
    heap_[i] = node;
    pos_[static_cast<std::size_t>(node)] = static_cast<int>(i);
  }

  std::span<const double> row_;
  std::vector<int> heap_;
  std::vector<int> pos_;  // heap index of each queued station
};

}  // namespace

Topology::Topology(std::vector<BaseStation> stations, std::vector<Link> links)
    : stations_(std::move(stations)), links_(std::move(links)) {
  if (stations_.empty()) {
    throw std::invalid_argument("Topology: no stations");
  }
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    const BaseStation& bs = stations_[i];
    if (bs.id != static_cast<int>(i)) {
      throw std::invalid_argument("Topology: station ids must be 0..n-1");
    }
    if (!(bs.capacity_mhz > 0.0)) {
      throw std::invalid_argument("Topology: non-positive or NaN capacity");
    }
    if (!std::isfinite(bs.proc_ms_per_unit) || bs.proc_ms_per_unit < 0.0) {
      throw std::invalid_argument(
          "Topology: negative or non-finite proc_ms_per_unit");
    }
  }
  const auto n = stations_.size();
  adj_start_.assign(n + 1, 0);
  for (const Link& link : links_) {
    if (link.a < 0 || link.b < 0 || link.a >= num_stations() ||
        link.b >= num_stations() || link.a == link.b) {
      throw std::invalid_argument("Topology: bad link endpoints");
    }
    if (!(link.delay_ms >= 0.0)) {
      throw std::invalid_argument("Topology: negative or NaN link delay");
    }
    if (!(link.bandwidth_mbps > 0.0)) {
      throw std::invalid_argument(
          "Topology: non-positive or NaN link bandwidth");
    }
    ++adj_start_[static_cast<std::size_t>(link.a) + 1];
    ++adj_start_[static_cast<std::size_t>(link.b) + 1];
  }
  for (std::size_t u = 0; u < n; ++u) adj_start_[u + 1] += adj_start_[u];
  const auto num_edges = static_cast<std::size_t>(adj_start_[n]);
  adj_to_.resize(num_edges);
  adj_delay_.resize(num_edges);
  adj_link_.resize(num_edges);
  std::vector<int> fill(adj_start_.begin(), adj_start_.end() - 1);
  auto add_edge = [&](int from, int to, std::size_t li) {
    const auto e =
        static_cast<std::size_t>(fill[static_cast<std::size_t>(from)]++);
    adj_to_[e] = to;
    adj_delay_[e] = links_[li].delay_ms;
    adj_link_[e] = static_cast<int>(li);
  };
  for (std::size_t li = 0; li < links_.size(); ++li) {
    add_edge(links_[li].a, links_[li].b, li);
    add_edge(links_[li].b, links_[li].a, li);
  }

  // Rows are independent, so the pooled and the inline sweep compute the
  // same bits; inside a pool task the region runs inline anyway.
  dist_.assign(n * n, kInf);
  auto compute_row = [&](std::size_t src) {
    dijkstra_row(static_cast<int>(src), {dist_.data() + src * n, n}, {}, -1);
  };
  if (num_stations() >= kPooledRowsMinStations) {
    util::parallel_for(n, compute_row);
  } else {
    for (std::size_t src = 0; src < n; ++src) compute_row(src);
  }
}

void Topology::dijkstra_row(int src, std::span<double> row,
                            std::span<int> parent_link, int stop_at) const {
  IndexedHeap heap(row);
  row[static_cast<std::size_t>(src)] = 0.0;
  heap.push_or_decrease(src);
  while (!heap.empty()) {
    const int u = heap.pop();
    if (u == stop_at) return;
    const double d = row[static_cast<std::size_t>(u)];
    const auto end = static_cast<std::size_t>(
        adj_start_[static_cast<std::size_t>(u) + 1]);
    for (auto e = static_cast<std::size_t>(
             adj_start_[static_cast<std::size_t>(u)]);
         e < end; ++e) {
      const double nd = d + adj_delay_[e];
      const int v = adj_to_[e];
      if (nd < row[static_cast<std::size_t>(v)]) {
        row[static_cast<std::size_t>(v)] = nd;
        if (!parent_link.empty()) {
          parent_link[static_cast<std::size_t>(v)] = adj_link_[e];
        }
        heap.push_or_decrease(v);
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
  std::vector<double> row(n, kInf);
  std::vector<int> parent_link(n, -1);
  dijkstra_row(from, row, parent_link, to);
  int cur = to;
  while (cur != from) {
    const int link_id = parent_link[static_cast<std::size_t>(cur)];
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
