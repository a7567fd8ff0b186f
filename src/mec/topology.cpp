#include "mec/topology.h"

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "obs/catalog.h"

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

/// The strict (latency, id) order of nearest-station lists.
bool nearer(const StationLatency& a, const StationLatency& b) {
  if (a.latency_ms != b.latency_ms) return a.latency_ms < b.latency_ms;
  return a.station < b.station;
}

/// Offers `value` to `heap`, which keeps the `limit` smallest values
/// offered under `less` as a max-heap: its front is the largest kept, and
/// a value enters a full heap only when it is smaller.
template <typename T, typename Less>
void keep_smallest(std::vector<T>& heap, std::size_t limit, const T& value,
                   Less less) {
  if (heap.size() < limit) {
    heap.push_back(value);
    std::push_heap(heap.begin(), heap.end(), less);
  } else if (less(value, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), less);
    heap.back() = value;
    std::push_heap(heap.begin(), heap.end(), less);
  }
}

/// A station and its tentative delay from the searching home.
struct Label {
  double delay_ms = 0.0;
  int station = 0;
};

/// Heap order of the search's queue: the smallest delay on top.
bool later(const Label& a, const Label& b) { return a.delay_ms > b.delay_ms; }

/// Per-thread working memory of Topology::nearest_by_latency, sized to the
/// largest topology the thread searched. A search starts by resetting the
/// delays the previous one wrote (`touched`) to +infinity, so it never
/// clears all |BS| entries.
struct SearchScratch {
  std::vector<double> dist;
  std::vector<int> touched;
  std::vector<double> upper;  // max-heap of latency upper bounds
  std::vector<Label> direct;  // the home's neighbours, by delay
  std::vector<Label> queue;   // min-heap under later(), with stale entries
};

}  // namespace

/// Rows computed so far. A row is written once, under the mutex, and then
/// published by a release store, so a reader that sees the pointer sees
/// the whole row.
struct Topology::DelayRows {
  explicit DelayRows(std::size_t n) : owned(n), published(n) {}
  std::mutex mutex;
  std::vector<std::unique_ptr<double[]>> owned;  // guarded by mutex
  std::vector<std::atomic<const double*>> published;
};

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
  double max_finite_delay = 0.0;
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
    if (link.delay_ms != kInf) {
      max_finite_delay = std::max(max_finite_delay, link.delay_ms);
    }
    ++adj_start_[static_cast<std::size_t>(link.a) + 1];
    ++adj_start_[static_cast<std::size_t>(link.b) + 1];
  }
  for (std::size_t u = 0; u < n; ++u) adj_start_[u + 1] += adj_start_[u];
  edges_.resize(static_cast<std::size_t>(adj_start_[n]));
  std::vector<int> fill(adj_start_.begin(), adj_start_.end() - 1);
  auto add_edge = [&](int from, int to, std::size_t li) {
    const auto e =
        static_cast<std::size_t>(fill[static_cast<std::size_t>(from)]++);
    edges_[e] = Edge{links_[li].delay_ms, to, static_cast<int>(li)};
  };
  for (std::size_t li = 0; li < links_.size(); ++li) {
    add_edge(links_[li].a, links_[li].b, li);
    add_edge(links_[li].b, links_[li].a, li);
  }
  min_link_delay_.assign(n, kInf);
  for (std::size_t u = 0; u < n; ++u) {
    const auto first = edges_.begin() + adj_start_[u];
    const auto last = edges_.begin() + adj_start_[u + 1];
    std::sort(first, last, [](const Edge& x, const Edge& y) {
      if (x.delay_ms != y.delay_ms) return x.delay_ms < y.delay_ms;
      return x.link < y.link;
    });
    if (first != last) min_link_delay_[u] = first->delay_ms;
  }

  // Components of the finite-delay links (union-find, then one label per
  // root). A path of at most n - 1 such links sums to at most
  // (n - 1) * max_finite_delay, so below DBL_MAX / 2 no sum overflows and a
  // shared component means a finite delay.
  component_.resize(n);
  std::iota(component_.begin(), component_.end(), 0);
  const auto find = [&](int v) {
    while (component_[static_cast<std::size_t>(v)] != v) {
      int& up = component_[static_cast<std::size_t>(v)];
      up = component_[static_cast<std::size_t>(up)];
      v = up;
    }
    return v;
  };
  for (const Link& link : links_) {
    if (link.delay_ms == kInf) continue;
    const int ra = find(link.a);
    const int rb = find(link.b);
    component_[static_cast<std::size_t>(std::max(ra, rb))] = std::min(ra, rb);
  }
  for (std::size_t v = 0; v < n; ++v) {
    component_[v] = find(static_cast<int>(v));
  }
  components_exact_ =
      static_cast<double>(n - 1) * max_finite_delay <= DBL_MAX / 2.0;

  const auto [min_proc, max_proc] = std::minmax_element(
      stations_.begin(), stations_.end(),
      [](const BaseStation& x, const BaseStation& y) {
        return x.proc_ms_per_unit < y.proc_ms_per_unit;
      });
  min_proc_ms_ = min_proc->proc_ms_per_unit;
  max_proc_ms_ = max_proc->proc_ms_per_unit;
  rows_ = std::make_unique<DelayRows>(n);
}

Topology::Topology(const Topology& other)
    : stations_(other.stations_),
      links_(other.links_),
      adj_start_(other.adj_start_),
      edges_(other.edges_),
      min_link_delay_(other.min_link_delay_),
      component_(other.component_),
      components_exact_(other.components_exact_),
      min_proc_ms_(other.min_proc_ms_),
      max_proc_ms_(other.max_proc_ms_),
      rows_(std::make_unique<DelayRows>(other.stations_.size())) {}

Topology& Topology::operator=(const Topology& other) {
  if (this != &other) *this = Topology(other);
  return *this;
}

Topology::Topology(Topology&&) noexcept = default;
Topology& Topology::operator=(Topology&&) noexcept = default;
Topology::~Topology() = default;

void Topology::dijkstra_row(int src, std::span<double> row,
                            std::span<int> parent_link, int stop_at) const {
  IndexedHeap heap(row);
  row[static_cast<std::size_t>(src)] = 0.0;
  heap.push_or_decrease(src);
  while (!heap.empty()) {
    const int u = heap.pop();
    if (u == stop_at) return;
    const double d = row[static_cast<std::size_t>(u)];
    for (const Edge& e : edges_of(u)) {
      const double nd = d + e.delay_ms;
      const auto v = static_cast<std::size_t>(e.to);
      if (nd < row[v]) {
        row[v] = nd;
        if (!parent_link.empty()) parent_link[v] = e.link;
        heap.push_or_decrease(e.to);
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
  if (!reachable(from, to)) {
    throw std::runtime_error(
        "Topology::shortest_path_links: stations are disconnected");
  }
  const auto n = static_cast<std::size_t>(num_stations());
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
  if (from == to) return 0.0;  // a row's own entry, without the row
  return delays_from(from)[static_cast<std::size_t>(to)];
}

double Topology::delay_between(int from, int to) const {
  if (from < 0 || to < 0 || from >= num_stations() || to >= num_stations()) {
    throw std::out_of_range("Topology::delay_between: bad station id");
  }
  std::vector<double> row(static_cast<std::size_t>(num_stations()), kInf);
  dijkstra_row(from, row, {}, to);
  return row[static_cast<std::size_t>(to)];
}

std::span<const double> Topology::delays_from(int from) const {
  if (from < 0 || from >= num_stations()) {
    throw std::out_of_range("Topology::delays_from: bad station id");
  }
  const auto n = static_cast<std::size_t>(num_stations());
  const auto src = static_cast<std::size_t>(from);
  std::atomic<const double*>& slot = rows_->published[src];
  const double* row = slot.load(std::memory_order_acquire);
  if (row == nullptr) {
    const std::lock_guard<std::mutex> lock(rows_->mutex);
    row = slot.load(std::memory_order_relaxed);
    if (row == nullptr) {
      auto computed = std::make_unique<double[]>(n);
      std::fill_n(computed.get(), n, kInf);
      dijkstra_row(from, {computed.get(), n}, {}, -1);
      obs::metrics().mec_delay_rows.add();
      row = computed.get();
      rows_->owned[src] = std::move(computed);
      slot.store(row, std::memory_order_release);
    }
  }
  return {row, n};
}

bool Topology::connected() const {
  if (!components_exact_) {
    const std::span<const double> row = delays_from(0);
    return std::none_of(row.begin(), row.end(),
                        [](double d) { return d == kInf; });
  }
  return std::all_of(component_.begin(), component_.end(),
                     [&](int c) { return c == component_.front(); });
}

bool Topology::reachable(int from, int to) const {
  if (from < 0 || to < 0 || from >= num_stations() || to >= num_stations()) {
    throw std::out_of_range("Topology::reachable: bad station id");
  }
  if (!components_exact_) return transmission_delay_ms(from, to) != kInf;
  return component_[static_cast<std::size_t>(from)] ==
         component_[static_cast<std::size_t>(to)];
}

double Topology::total_capacity_mhz() const noexcept {
  double total = 0.0;
  for (const BaseStation& bs : stations_) total += bs.capacity_mhz;
  return total;
}

std::vector<int> Topology::stations_by_distance(int from) const {
  if (from < 0 || from >= num_stations()) {
    throw std::out_of_range("Topology::stations_by_distance: bad station id");
  }
  const auto n = static_cast<std::size_t>(num_stations());
  std::vector<double> delay(n, kInf);
  dijkstra_row(from, delay, {}, -1);
  std::vector<int> order(static_cast<std::size_t>(num_stations()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double da = delay[static_cast<std::size_t>(a)];
    const double db = delay[static_cast<std::size_t>(b)];
    if (da != db) return da < db;
    return a < b;
  });
  return order;
}

std::vector<StationLatency> Topology::nearest_by_latency(
    int home, double weight, std::size_t limit, const KeepRule& keep) const {
  if (home < 0 || home >= num_stations()) {
    throw std::out_of_range("Topology::nearest_by_latency: bad home station");
  }
  const auto n = static_cast<std::size_t>(num_stations());
  if (!keep.station_up.empty() && keep.station_up.size() != n) {
    throw std::invalid_argument(
        "Topology::nearest_by_latency: station_up size mismatch");
  }
  limit = std::min(limit, n);
  std::vector<StationLatency> kept;
  if (limit == 0) return kept;
  kept.reserve(limit);

  // Every station's weight * proc_ms_per_unit is at least weight times the
  // smallest (weight >= 0) or the largest (weight < 0) speed, so bound(d)
  // is at most the latency of any station at delay d or more. A NaN bound
  // (a NaN weight, or inf * 0) compares false and prunes nothing.
  const double proc_bound = weight >= 0.0 ? min_proc_ms_ : max_proc_ms_;
  const auto bound = [&](double d) {
    return placement_latency_ms(d, weight, proc_bound);
  };
  const auto latency_of = [&](int v, double d) {
    return placement_latency_ms(
        d, weight, stations_[static_cast<std::size_t>(v)].proc_ms_per_unit);
  };
  const auto admits = [&](int v, double latency) {
    return (keep.station_up.empty() ||
            keep.station_up[static_cast<std::size_t>(v)] != 0) &&
           keep.waiting_ms + latency <= keep.budget_ms;
  };
  // `kept` is a max-heap under nearer(): its front is the worst station
  // kept so far.
  const auto offer = [&](int v, double latency) {
    if (admits(v, latency)) keep_smallest(kept, limit, {v, latency}, nearer);
  };

  // Labels the previous search on this thread wrote are reset first.
  thread_local SearchScratch scratch;
  std::vector<int>& touched = scratch.touched;
  for (const int v : touched) scratch.dist[static_cast<std::size_t>(v)] = kInf;
  touched.clear();
  if (scratch.dist.size() < n) scratch.dist.resize(n, kInf);
  const std::span<double> dist(scratch.dist.data(), n);
  const auto label = [&](int v, double d) {
    double& slot = dist[static_cast<std::size_t>(v)];
    if (slot == kInf) touched.push_back(v);
    slot = d;
  };

  // Settle the home, then label its neighbours from its links in (delay,
  // link) order. A neighbour's latency at its link delay bounds its true
  // latency from above, so the limit-th smallest of these upper bounds
  // over distinct admitted stations (home included) bounds the limit-th
  // kept latency; with fewer than `limit` such stations there is none. The
  // pass stops once no later link can lower that bound. `direct` keeps the
  // first link to each neighbour, ascending.
  std::vector<double>& upper = scratch.upper;
  upper.clear();
  const auto offer_upper = [&](int v, double latency) {
    if (admits(v, latency)) keep_smallest(upper, limit, latency, std::less<>());
  };
  std::vector<Label>& direct = scratch.direct;
  direct.clear();
  const double home_d = 0.0;
  label(home, home_d);
  offer(home, latency_of(home, home_d));
  offer_upper(home, latency_of(home, home_d));
  const std::span<const Edge> home_edges = edges_of(home);
  const bool can_bound = home_edges.size() + 1 >= limit;
  for (const Edge& e : home_edges) {
    const double nd = home_d + e.delay_ms;
    if (upper.size() == limit && bound(nd) > upper.front()) break;
    if (!(nd < dist[static_cast<std::size_t>(e.to)])) continue;  // parallel
    label(e.to, nd);
    direct.push_back({nd, e.to});
    if (can_bound) offer_upper(e.to, latency_of(e.to, nd));
  }
  // Neighbours beyond the bound are never queued: one is settled only if
  // a shorter path reaches it, and otherwise its latency is above the
  // bound.
  const double upper_bound = upper.size() == limit ? upper.front() : kInf;
  std::size_t direct_end = 0;
  while (direct_end < direct.size() &&
         !(bound(direct[direct_end].delay_ms) > upper_bound)) {
    ++direct_end;
  }
  // A station whose bound is strictly above the threshold cannot be among
  // the first `limit`, and neither can any station beyond it.
  const auto threshold = [&] {
    return kept.size() == limit ? std::min(upper_bound, kept.front().latency_ms)
                                : upper_bound;
  };

  // Dijkstra over two queues: the ascending `direct` list, and a heap for
  // stations a path of two or more links reached first. Labels only ever
  // drop, so an entry whose delay is no longer its station's label is
  // stale and skipped: a direct entry whose station a shorter path
  // reached, or a heap entry a later one superseded. Most stations of a
  // Waxman network settle from `direct` (each of its links is its own
  // shortest path) and never touch the heap.
  std::vector<Label>& queue = scratch.queue;
  queue.clear();
  const auto stale = [&](const Label& at) {
    return dist[static_cast<std::size_t>(at.station)] != at.delay_ms;
  };
  const auto pop_queue = [&] {
    std::pop_heap(queue.begin(), queue.end(), later);
    queue.pop_back();
  };
  std::size_t next = 0;
  while (true) {
    while (next < direct_end && stale(direct[next])) ++next;
    while (!queue.empty() && stale(queue.front())) pop_queue();
    const bool from_direct =
        next < direct_end &&
        (queue.empty() || !(queue.front().delay_ms < direct[next].delay_ms));
    if (!from_direct && queue.empty()) break;
    const Label at = from_direct ? direct[next] : queue.front();
    if (bound(at.delay_ms) > threshold()) break;
    if (from_direct) {
      ++next;
    } else {
      pop_queue();
    }
    const int u = at.station;
    const double d = at.delay_ms;
    offer(u, latency_of(u, d));
    const double cut = threshold();
    // Most settled stations have no link short enough to relax: the
    // shortest one, read from a dense array, rules their edges out
    // without touching them.
    if (bound(d + min_link_delay_[static_cast<std::size_t>(u)]) > cut) continue;
    for (const Edge& e : edges_of(u)) {
      const double nd = d + e.delay_ms;
      if (bound(nd) > cut) break;
      if (nd < dist[static_cast<std::size_t>(e.to)]) {
        label(e.to, nd);
        queue.push_back({nd, e.to});
        std::push_heap(queue.begin(), queue.end(), later);
      }
    }
  }
  // A station the search never labelled has latency +infinity or NaN at
  // +infinity delay, so it can only enter a list with room or one whose
  // worst latency is +infinity. Then nothing was pruned (every threshold
  // was +infinity), every labelled station is settled and the rest are
  // unreachable: they are offered in id order, as a scan of the row would.
  if (kept.size() < limit || kept.front().latency_ms == kInf) {
    for (std::size_t v = 0; v < n; ++v) {
      if (dist[v] == kInf) {
        offer(static_cast<int>(v), latency_of(static_cast<int>(v), kInf));
      }
    }
  }
  std::sort_heap(kept.begin(), kept.end(), nearer);
  return kept;
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
