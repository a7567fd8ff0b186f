#include "sim/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/parse.h"

namespace mecar::sim {

namespace {

/// Brownout factors at or below this are full outages for the window.
constexpr double kOutageFactor = 1e-6;

bool active(int from_slot, int until_slot, int slot) {
  return slot >= from_slot && slot < until_slot;
}

void check_window(const char* kind, int from_slot, int until_slot) {
  if (from_slot < 0 || until_slot < from_slot) {
    throw std::invalid_argument(std::string("FaultPlan: ") + kind +
                                " has a bad slot window [" +
                                std::to_string(from_slot) + ", " +
                                std::to_string(until_slot) + ")");
  }
}

void check_station(const mec::Topology& topo, const char* kind, int station) {
  if (station < 0 || station >= topo.num_stations()) {
    throw std::invalid_argument(std::string("FaultPlan: ") + kind +
                                " names station " + std::to_string(station) +
                                " outside [0, " +
                                std::to_string(topo.num_stations()) + ")");
  }
}

void check_link(const mec::Topology& topo, const char* kind, int link) {
  if (link < 0 || static_cast<std::size_t>(link) >= topo.links().size()) {
    throw std::invalid_argument(std::string("FaultPlan: ") + kind +
                                " names link " + std::to_string(link) +
                                " outside [0, " +
                                std::to_string(topo.links().size()) + ")");
  }
}

}  // namespace

bool FaultPlan::empty() const noexcept { return num_events() == 0; }

std::size_t FaultPlan::num_events() const noexcept {
  return station_outages.size() + brownouts.size() + link_outages.size() +
         link_degradations.size() + solver_budgets.size() + solver_jams.size();
}

bool FaultPlan::crash_at(int slot) const noexcept {
  for (const CrashPoint& c : crashes) {
    if (c.slot == slot) return true;
  }
  return false;
}

void FaultPlan::validate(const mec::Topology& topo) const {
  for (const StationOutage& e : station_outages) {
    check_station(topo, "station_outage", e.station);
    check_window("station_outage", e.from_slot, e.until_slot);
  }
  for (const CapacityBrownout& e : brownouts) {
    check_station(topo, "brownout", e.station);
    check_window("brownout", e.from_slot, e.until_slot);
    if (e.factor < 0.0 || e.factor > 1.0) {
      throw std::invalid_argument(
          "FaultPlan: brownout factor outside [0, 1]: " +
          std::to_string(e.factor));
    }
  }
  for (const LinkOutage& e : link_outages) {
    check_link(topo, "link_outage", e.link);
    check_window("link_outage", e.from_slot, e.until_slot);
  }
  for (const LinkDegradation& e : link_degradations) {
    check_link(topo, "link_degradation", e.link);
    check_window("link_degradation", e.from_slot, e.until_slot);
    if (e.delay_factor < 1.0) {
      throw std::invalid_argument(
          "FaultPlan: link degradation factor < 1: " +
          std::to_string(e.delay_factor));
    }
  }
  for (const SolverBudgetSqueeze& e : solver_budgets) {
    check_window("solver_budget", e.from_slot, e.until_slot);
    if (e.max_pivots < 1) {
      throw std::invalid_argument(
          "FaultPlan: solver_budget max_pivots < 1: " +
          std::to_string(e.max_pivots));
    }
  }
  for (const SolverJam& e : solver_jams) {
    check_window("solver_jam", e.from_slot, e.until_slot);
  }
  for (const CrashPoint& e : crashes) {
    if (e.slot < 0) {
      throw std::invalid_argument("FaultPlan: crash at negative slot " +
                                  std::to_string(e.slot));
    }
  }
}

FaultSnapshot FaultPlan::snapshot(const mec::Topology& topo, int slot) const {
  FaultSnapshot snap;
  const auto stations = static_cast<std::size_t>(topo.num_stations());
  const auto links = topo.links().size();
  snap.station_up.assign(stations, 1);

  for (const StationOutage& e : station_outages) {
    if (active(e.from_slot, e.until_slot, slot)) {
      snap.station_up[static_cast<std::size_t>(e.station)] = 0;
      snap.any_fault = true;
    }
  }
  std::vector<double> capacity_scale(stations, 1.0);
  bool any_brownout = false;
  for (const CapacityBrownout& e : brownouts) {
    if (!active(e.from_slot, e.until_slot, slot)) continue;
    capacity_scale[static_cast<std::size_t>(e.station)] *= e.factor;
    any_brownout = true;
    snap.any_fault = true;
  }
  if (any_brownout) {
    // A brownout to (effectively) zero is an outage: gate the station off
    // via the availability map and keep the overlay scale harmless so the
    // effective topology stays constructible.
    for (std::size_t i = 0; i < stations; ++i) {
      if (capacity_scale[i] <= kOutageFactor) {
        snap.station_up[i] = 0;
        capacity_scale[i] = 1.0;
      }
    }
    if (std::any_of(capacity_scale.begin(), capacity_scale.end(),
                    [](double s) { return s != 1.0; })) {
      snap.perturbation.capacity_scale = std::move(capacity_scale);
    }
  }

  std::vector<char> link_down(links, 0);
  bool any_link_down = false;
  for (const LinkOutage& e : link_outages) {
    if (!active(e.from_slot, e.until_slot, slot)) continue;
    link_down[static_cast<std::size_t>(e.link)] = 1;
    any_link_down = true;
    snap.any_fault = true;
  }
  if (any_link_down) snap.perturbation.link_down = std::move(link_down);

  std::vector<double> delay_scale(links, 1.0);
  bool any_degraded = false;
  for (const LinkDegradation& e : link_degradations) {
    if (!active(e.from_slot, e.until_slot, slot)) continue;
    delay_scale[static_cast<std::size_t>(e.link)] *= e.delay_factor;
    any_degraded = true;
    snap.any_fault = true;
  }
  if (any_degraded) snap.perturbation.link_delay_scale = std::move(delay_scale);

  for (const SolverBudgetSqueeze& e : solver_budgets) {
    if (!active(e.from_slot, e.until_slot, slot)) continue;
    // Overlapping squeezes take the tightest budget.
    if (snap.solver_max_pivots == 0 ||
        e.max_pivots < snap.solver_max_pivots) {
      snap.solver_max_pivots = e.max_pivots;
    }
    snap.any_fault = true;
  }
  for (const SolverJam& e : solver_jams) {
    if (!active(e.from_slot, e.until_slot, slot)) continue;
    snap.solver_jam = true;
    snap.any_fault = true;
  }

  return snap;
}

FaultPlan generate_chaos(const mec::Topology& topo, const ChaosParams& params,
                         int horizon_slots, util::Rng& rng) {
  if (horizon_slots <= 0) {
    throw std::invalid_argument("generate_chaos: horizon_slots <= 0");
  }
  if (!std::isfinite(params.intensity) ||
      !std::isfinite(params.bursts_per_100_slots)) {
    throw std::invalid_argument("generate_chaos: non-finite rate");
  }
  if (params.intensity < 0.0 || params.bursts_per_100_slots < 0.0) {
    throw std::invalid_argument("generate_chaos: negative rate");
  }
  if (params.burst_min_slots < 1 ||
      params.burst_max_slots < params.burst_min_slots) {
    throw std::invalid_argument("generate_chaos: bad burst length range");
  }
  const double expected = params.intensity * params.bursts_per_100_slots *
                          horizon_slots / 100.0;
  // More bursts than (slot, station) pairs cannot fault anything new; the
  // bound also keeps the count a small integer before any draw.
  if (!(expected <= static_cast<double>(horizon_slots) * topo.num_stations())) {
    throw std::invalid_argument(
        "generate_chaos: more expected bursts than slots x stations");
  }
  FaultPlan plan;
  auto bursts = static_cast<long long>(std::floor(expected));
  if (rng.bernoulli(expected - std::floor(expected))) ++bursts;

  for (long long b = 0; b < bursts; ++b) {
    const int from = static_cast<int>(
        rng.uniform_int(0, std::max(0, horizon_slots - 1)));
    const int len = static_cast<int>(rng.uniform_int(
        params.burst_min_slots, params.burst_max_slots));
    const int until = std::min(horizon_slots, from + len);
    const int epicentre = static_cast<int>(
        rng.uniform_int(0, topo.num_stations() - 1));

    // The blast hits the epicentre and its nearest neighbours together —
    // faults in one rack row / power domain are spatially correlated.
    const std::vector<int> order = topo.stations_by_distance(epicentre);
    const int radius =
        std::min<int>(std::max(1, params.blast_radius),
                      static_cast<int>(order.size()));
    std::vector<char> hit(static_cast<std::size_t>(topo.num_stations()), 0);
    for (int k = 0; k < radius; ++k) {
      const int bs = order[static_cast<std::size_t>(k)];
      hit[static_cast<std::size_t>(bs)] = 1;
      if (rng.bernoulli(params.p_station_outage)) {
        plan.station_outages.push_back({bs, from, until});
      } else {
        const double factor =
            rng.uniform(params.brownout_min, params.brownout_max);
        plan.brownouts.push_back({bs, from, until, factor});
      }
    }
    for (std::size_t li = 0; li < topo.links().size(); ++li) {
      const mec::Link& link = topo.links()[li];
      if (hit[static_cast<std::size_t>(link.a)] == 0 &&
          hit[static_cast<std::size_t>(link.b)] == 0) {
        continue;
      }
      if (!rng.bernoulli(params.p_link_affected)) continue;
      if (rng.bernoulli(params.p_link_outage)) {
        plan.link_outages.push_back({static_cast<int>(li), from, until});
      } else {
        const double scale =
            rng.uniform(params.delay_scale_min, params.delay_scale_max);
        plan.link_degradations.push_back(
            {static_cast<int>(li), from, until, scale});
      }
    }
    // Solver faults ride along with a burst: the orchestrator shares the
    // failing infrastructure. Gated on p_solver_fault > 0 so plans from
    // existing seeds are reproduced draw-for-draw.
    if (params.p_solver_fault > 0.0 &&
        rng.bernoulli(params.p_solver_fault)) {
      if (rng.bernoulli(params.p_solver_jam)) {
        plan.solver_jams.push_back({from, until});
      } else {
        const int pivots = static_cast<int>(rng.uniform_int(
            params.squeeze_min_pivots, params.squeeze_max_pivots));
        plan.solver_budgets.push_back({from, until, pivots});
      }
    }
  }
  return plan;
}

FaultPlan read_fault_plan(std::istream& is) {
  FaultPlan plan;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream tokens(line);
    std::string kind;
    if (!(tokens >> kind) || kind[0] == '#') continue;

    std::vector<std::string> args;
    std::string tok;
    while (tokens >> tok) args.push_back(tok);

    const auto want_args = [&](std::size_t n) {
      if (args.size() != n) {
        throw FaultPlanParseError(
            lineno, "fault plan line " + std::to_string(lineno) + ": '" +
                        kind + "' expects " + std::to_string(n) +
                        " fields, got " + std::to_string(args.size()));
      }
    };
    const auto int_arg = [&](std::size_t k, const char* field) {
      const auto v = util::parse_int(args[k]);
      if (!v) {
        throw FaultPlanParseError(
            lineno, "fault plan line " + std::to_string(lineno) + ": " +
                        field + " is not an integer: '" + args[k] + "'");
      }
      return static_cast<int>(*v);
    };
    const auto double_arg = [&](std::size_t k, const char* field) {
      const auto v = util::parse_double(args[k]);
      if (!v) {
        throw FaultPlanParseError(
            lineno, "fault plan line " + std::to_string(lineno) + ": " +
                        field + " is not a number: '" + args[k] + "'");
      }
      return *v;
    };

    if (kind == "station_outage") {
      want_args(3);
      plan.station_outages.push_back({int_arg(0, "station"),
                                      int_arg(1, "from_slot"),
                                      int_arg(2, "until_slot")});
    } else if (kind == "brownout") {
      want_args(4);
      plan.brownouts.push_back({int_arg(0, "station"), int_arg(1, "from_slot"),
                                int_arg(2, "until_slot"),
                                double_arg(3, "factor")});
    } else if (kind == "link_outage") {
      want_args(3);
      plan.link_outages.push_back({int_arg(0, "link"), int_arg(1, "from_slot"),
                                   int_arg(2, "until_slot")});
    } else if (kind == "link_degradation") {
      want_args(4);
      plan.link_degradations.push_back(
          {int_arg(0, "link"), int_arg(1, "from_slot"),
           int_arg(2, "until_slot"), double_arg(3, "delay_factor")});
    } else if (kind == "solver_budget") {
      want_args(3);
      plan.solver_budgets.push_back({int_arg(0, "from_slot"),
                                     int_arg(1, "until_slot"),
                                     int_arg(2, "max_pivots")});
    } else if (kind == "solver_jam") {
      want_args(2);
      plan.solver_jams.push_back(
          {int_arg(0, "from_slot"), int_arg(1, "until_slot")});
    } else if (kind == "crash") {
      want_args(1);
      plan.crashes.push_back({int_arg(0, "slot")});
    } else {
      throw FaultPlanParseError(
          lineno, "fault plan line " + std::to_string(lineno) +
                      ": unknown fault kind '" + kind + "'");
    }
  }
  return plan;
}

void write_fault_plan(const FaultPlan& plan, std::ostream& os) {
  os << "# mecar fault scenario\n";
  for (const StationOutage& e : plan.station_outages) {
    os << "station_outage " << e.station << ' ' << e.from_slot << ' '
       << e.until_slot << '\n';
  }
  for (const CapacityBrownout& e : plan.brownouts) {
    os << "brownout " << e.station << ' ' << e.from_slot << ' '
       << e.until_slot << ' ' << e.factor << '\n';
  }
  for (const LinkOutage& e : plan.link_outages) {
    os << "link_outage " << e.link << ' ' << e.from_slot << ' '
       << e.until_slot << '\n';
  }
  for (const LinkDegradation& e : plan.link_degradations) {
    os << "link_degradation " << e.link << ' ' << e.from_slot << ' '
       << e.until_slot << ' ' << e.delay_factor << '\n';
  }
  for (const SolverBudgetSqueeze& e : plan.solver_budgets) {
    os << "solver_budget " << e.from_slot << ' ' << e.until_slot << ' '
       << e.max_pivots << '\n';
  }
  for (const SolverJam& e : plan.solver_jams) {
    os << "solver_jam " << e.from_slot << ' ' << e.until_slot << '\n';
  }
  for (const CrashPoint& e : plan.crashes) {
    os << "crash " << e.slot << '\n';
  }
}

}  // namespace mecar::sim
