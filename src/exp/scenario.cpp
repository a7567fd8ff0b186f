#include "exp/scenario.h"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/json_writer.h"
#include "util/parse.h"
#include "util/table.h"

namespace mecar::exp {

namespace {

/// Shortest decimal that round-trips; "inf" for unbounded quantities
/// (util::parse_double reads both back).
std::string format_value(double value) {
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  return util::json_number(value);
}

std::string kind_token(ScenarioKind kind) {
  return kind == ScenarioKind::kRegret ? "regret" : "sweep";
}

std::string bool_token(bool value) { return value ? "true" : "false"; }

std::string reward_model_token(mec::RewardModel model) {
  return model == mec::RewardModel::kProportional ? "proportional"
                                                  : "independent";
}

std::string arrivals_token(mec::ArrivalProcess arrivals) {
  switch (arrivals) {
    case mec::ArrivalProcess::kPoisson:
      return "poisson";
    case mec::ArrivalProcess::kFlashCrowd:
      return "flash_crowd";
    case mec::ArrivalProcess::kUniform:
    default:
      return "uniform";
  }
}

}  // namespace

std::string axis_token(SweepAxis axis) {
  switch (axis) {
    case SweepAxis::kRequests:
      return "requests";
    case SweepAxis::kStations:
      return "stations";
    case SweepAxis::kRateMax:
      return "rate_max";
    case SweepAxis::kChaosIntensity:
      return "chaos";
    case SweepAxis::kHorizon:
      return "horizon";
    case SweepAxis::kKappa:
      return "kappa";
    case SweepAxis::kNone:
    default:
      return "none";
  }
}

std::string axis_label(SweepAxis axis) {
  switch (axis) {
    case SweepAxis::kRequests:
      return "|R|";
    case SweepAxis::kStations:
      return "|BS|";
    case SweepAxis::kRateMax:
      return "max rate (MB/s)";
    case SweepAxis::kChaosIntensity:
      return "intensity";
    case SweepAxis::kHorizon:
      return "T (slots)";
    case SweepAxis::kKappa:
      return "kappa";
    case SweepAxis::kNone:
    default:
      return "point";
  }
}

std::string point_label(SweepAxis axis, double value) {
  switch (axis) {
    case SweepAxis::kRequests:
    case SweepAxis::kStations:
    case SweepAxis::kHorizon:
    case SweepAxis::kKappa:
      return std::to_string(static_cast<int>(value));
    case SweepAxis::kRateMax:
      return util::format_double(value, 0);
    case SweepAxis::kChaosIntensity:
      return util::format_double(value, 2);
    case SweepAxis::kNone:
    default:
      return "-";
  }
}

ScenarioSpec read_scenario(std::istream& is) {
  ScenarioSpec spec;
  spec.seeds = 3;
  std::string line;
  int lineno = 0;
  bool any_key = false;

  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream tokens(line);
    std::string key;
    if (!(tokens >> key) || key[0] == '#') continue;
    any_key = true;

    std::vector<std::string> args;
    std::string tok;
    while (tokens >> tok) args.push_back(tok);

    const auto fail = [&](const std::string& why) -> ScenarioParseError {
      return ScenarioParseError(lineno, "scenario line " +
                                            std::to_string(lineno) + ": " +
                                            why);
    };
    const auto want_args = [&](std::size_t n) {
      if (args.size() != n) {
        throw fail("'" + key + "' expects " + std::to_string(n) +
                   " field(s), got " + std::to_string(args.size()));
      }
    };
    const auto int_arg = [&](std::size_t k, const char* field) {
      const auto v = util::parse_int(args[k]);
      if (!v) {
        throw fail(std::string(field) + " is not an integer: '" + args[k] +
                   "'");
      }
      if (*v < std::numeric_limits<int>::min() ||
          *v > std::numeric_limits<int>::max()) {
        throw fail(std::string(field) + " is out of range: '" + args[k] +
                   "'");
      }
      return static_cast<int>(*v);
    };
    const auto double_arg = [&](std::size_t k, const char* field) {
      const auto v = util::parse_double(args[k]);
      if (!v) {
        throw fail(std::string(field) + " is not a number: '" + args[k] + "'");
      }
      return *v;
    };
    const auto bool_arg = [&](std::size_t k, const char* field) {
      const std::string& v = args[k];
      if (v == "true" || v == "on" || v == "1") return true;
      if (v == "false" || v == "off" || v == "0") return false;
      throw fail(std::string(field) + " is not a boolean: '" + v + "'");
    };

    if (key == "name") {
      want_args(1);
      spec.name = args[0];
    } else if (key == "kind") {
      want_args(1);
      if (args[0] == "sweep") {
        spec.kind = ScenarioKind::kSweep;
      } else if (args[0] == "regret") {
        spec.kind = ScenarioKind::kRegret;
      } else {
        throw fail("unknown kind '" + args[0] + "' (sweep|regret)");
      }
    } else if (key == "axis") {
      want_args(1);
      bool known = false;
      for (const SweepAxis axis :
           {SweepAxis::kNone, SweepAxis::kRequests, SweepAxis::kStations,
            SweepAxis::kRateMax, SweepAxis::kChaosIntensity,
            SweepAxis::kHorizon, SweepAxis::kKappa}) {
        if (args[0] == axis_token(axis)) {
          spec.axis = axis;
          known = true;
          break;
        }
      }
      if (!known) {
        throw fail(
            "unknown axis '" + args[0] +
            "' (none|requests|stations|rate_max|chaos|horizon|kappa)");
      }
    } else if (key == "points") {
      if (args.empty()) throw fail("'points' expects at least one value");
      spec.points.clear();
      for (std::size_t k = 0; k < args.size(); ++k) {
        spec.points.push_back(double_arg(k, "point"));
      }
    } else if (key == "seeds") {
      want_args(1);
      spec.seeds = int_arg(0, "seeds");
      if (spec.seeds < 1) throw fail("seeds must be >= 1");
    } else if (key == "horizon") {
      want_args(1);
      spec.horizon = int_arg(0, "horizon");
      if (spec.horizon < 0) throw fail("horizon must be >= 0");
    } else if (key == "requests") {
      want_args(1);
      spec.base.num_requests = int_arg(0, "requests");
    } else if (key == "stations") {
      want_args(1);
      spec.base.num_stations = int_arg(0, "stations");
    } else if (key == "rate_min") {
      want_args(1);
      spec.base.rate_min = double_arg(0, "rate_min");
    } else if (key == "rate_max") {
      want_args(1);
      spec.base.rate_max = double_arg(0, "rate_max");
    } else if (key == "reward_model") {
      want_args(1);
      if (args[0] == "independent") {
        spec.base.reward_model = mec::RewardModel::kIndependent;
      } else if (args[0] == "proportional") {
        spec.base.reward_model = mec::RewardModel::kProportional;
      } else {
        throw fail("unknown reward_model '" + args[0] +
                   "' (independent|proportional)");
      }
    } else if (key == "arrivals") {
      want_args(1);
      if (args[0] == "uniform") {
        spec.base.arrivals = mec::ArrivalProcess::kUniform;
      } else if (args[0] == "poisson") {
        spec.base.arrivals = mec::ArrivalProcess::kPoisson;
      } else if (args[0] == "flash_crowd") {
        spec.base.arrivals = mec::ArrivalProcess::kFlashCrowd;
      } else {
        throw fail("unknown arrivals '" + args[0] +
                   "' (uniform|poisson|flash_crowd)");
      }
    } else if (key == "home_skew") {
      want_args(1);
      spec.base.home_skew = double_arg(0, "home_skew");
    } else if (key == "link_bandwidth") {
      want_args(2);
      spec.base.link_bandwidth_min_mbps = double_arg(0, "link bandwidth min");
      spec.base.link_bandwidth_max_mbps = double_arg(1, "link bandwidth max");
    } else if (key == "policy") {
      if (args.empty()) throw fail("'policy' expects a registry name");
      PolicyRef ref;
      ref.name = args[0];
      if (args.size() > 1) {
        for (std::size_t k = 1; k < args.size(); ++k) {
          if (k > 1) ref.label += ' ';
          ref.label += args[k];
        }
      } else {
        // Default label: the name without an offline:/online: qualifier.
        const auto colon = ref.name.find(':');
        ref.label = colon == std::string::npos ? ref.name
                                               : ref.name.substr(colon + 1);
      }
      spec.policies.push_back(std::move(ref));
    } else if (key == "metric") {
      want_args(1);
      spec.metrics.push_back(args[0]);
    } else if (key == "policy_seed_offset") {
      want_args(1);
      const int offset = int_arg(0, "policy_seed_offset");
      if (offset < 0) throw fail("policy_seed_offset must be >= 0");
      spec.policy_seed_offset = static_cast<unsigned>(offset);
    } else if (key == "chaos") {
      want_args(1);
      spec.chaos_intensity = double_arg(0, "chaos intensity");
      if (!std::isfinite(spec.chaos_intensity)) {
        throw fail("chaos intensity is not finite: '" + args[0] + "'");
      }
      if (spec.chaos_intensity < 0.0) throw fail("chaos intensity < 0");
    } else if (key == "fault_plan") {
      want_args(1);
      spec.fault_plan_path = args[0];
    } else if (key == "mobility") {
      want_args(3);
      spec.mobility.push_back({int_arg(0, "request"), int_arg(1, "slot"),
                               int_arg(2, "new_home")});
    } else if (key == "threshold_range") {
      want_args(2);
      spec.rr.threshold_min_mhz = double_arg(0, "threshold min");
      spec.rr.threshold_max_mhz = double_arg(1, "threshold max");
      if (!std::isfinite(spec.rr.threshold_min_mhz) ||
          !std::isfinite(spec.rr.threshold_max_mhz)) {
        throw fail("threshold range must be finite");
      }
      if (spec.rr.threshold_min_mhz <= 0.0) {
        throw fail("threshold min must be > 0");
      }
    } else if (key == "kappa") {
      want_args(1);
      spec.rr.kappa = int_arg(0, "kappa");
      if (spec.rr.kappa < 1) throw fail("kappa must be >= 1");
    } else if (key == "scale_thresholds") {
      want_args(1);
      spec.scale_thresholds = bool_arg(0, "scale_thresholds");
    } else if (key == "threshold_headroom") {
      want_args(1);
      spec.threshold_headroom = double_arg(0, "threshold_headroom");
    } else if (key == "rounding_divisor") {
      want_args(1);
      spec.alg.rounding_divisor = double_arg(0, "rounding_divisor");
    } else if (key == "backfill") {
      want_args(1);
      spec.alg.backfill = bool_arg(0, "backfill");
    } else if (key == "enforce_backhaul") {
      want_args(1);
      spec.alg.enforce_backhaul = bool_arg(0, "enforce_backhaul");
    } else if (key == "backhaul_audit") {
      want_args(1);
      spec.backhaul_audit = bool_arg(0, "backhaul_audit");
    } else if (key == "collect_detail") {
      want_args(1);
      spec.collect_detail = bool_arg(0, "collect_detail");
    } else if (key == "requests_per_slot") {
      want_args(1);
      spec.requests_per_slot = double_arg(0, "requests_per_slot");
      if (spec.requests_per_slot < 0.0) throw fail("requests_per_slot < 0");
    } else if (key == "lp_max_iterations") {
      want_args(1);
      spec.rr.lp_max_iterations = int_arg(0, "lp_max_iterations");
      if (spec.rr.lp_max_iterations < 0) {
        throw fail("lp_max_iterations must be >= 0");
      }
    } else if (key == "lp_budget") {
      // lp_budget PIVOTS [DEADLINE_MS] — the anytime solve budget.
      if (args.size() != 1 && args.size() != 2) {
        throw fail("'lp_budget' expects PIVOTS [DEADLINE_MS], got " +
                   std::to_string(args.size()) + " field(s)");
      }
      spec.rr.lp_pivot_budget = int_arg(0, "lp_budget pivots");
      if (spec.rr.lp_pivot_budget < 1) {
        throw fail("lp_budget pivots must be >= 1");
      }
      if (args.size() == 2) {
        spec.rr.lp_deadline_ms = double_arg(1, "lp_budget deadline_ms");
        if (!(spec.rr.lp_deadline_ms > 0.0)) {
          throw fail("lp_budget deadline_ms must be > 0");
        }
      }
    } else {
      throw fail("unknown key '" + key + "'");
    }
  }

  if (!any_key) {
    throw ScenarioParseError(lineno, "scenario file holds no directives");
  }
  if (!spec.fault_plan_path.empty() && spec.chaos_intensity > 0.0) {
    throw ScenarioParseError(
        lineno, "scenario: fault_plan and chaos are mutually exclusive");
  }
  return spec;
}

void write_scenario(const ScenarioSpec& spec, std::ostream& os) {
  const ScenarioSpec defaults;
  os << "# mecar scenario\n";
  os << "name " << spec.name << '\n';
  os << "kind " << kind_token(spec.kind) << '\n';
  os << "axis " << axis_token(spec.axis) << '\n';
  if (!spec.points.empty()) {
    os << "points";
    for (const double p : spec.points) os << ' ' << format_value(p);
    os << '\n';
  }
  os << "seeds " << spec.seeds << '\n';
  os << "horizon " << spec.horizon << '\n';
  os << "requests " << spec.base.num_requests << '\n';
  os << "stations " << spec.base.num_stations << '\n';
  os << "rate_min " << format_value(spec.base.rate_min) << '\n';
  os << "rate_max " << format_value(spec.base.rate_max) << '\n';
  if (spec.base.reward_model != defaults.base.reward_model) {
    os << "reward_model " << reward_model_token(spec.base.reward_model)
       << '\n';
  }
  if (spec.base.arrivals != defaults.base.arrivals) {
    os << "arrivals " << arrivals_token(spec.base.arrivals) << '\n';
  }
  if (spec.base.home_skew != defaults.base.home_skew) {
    os << "home_skew " << format_value(spec.base.home_skew) << '\n';
  }
  if (!std::isinf(spec.base.link_bandwidth_min_mbps) ||
      !std::isinf(spec.base.link_bandwidth_max_mbps)) {
    os << "link_bandwidth " << format_value(spec.base.link_bandwidth_min_mbps)
       << ' ' << format_value(spec.base.link_bandwidth_max_mbps) << '\n';
  }
  for (const PolicyRef& ref : spec.policies) {
    os << "policy " << ref.name;
    const auto colon = ref.name.find(':');
    const std::string default_label =
        colon == std::string::npos ? ref.name : ref.name.substr(colon + 1);
    if (!ref.label.empty() && ref.label != default_label) {
      os << ' ' << ref.label;
    }
    os << '\n';
  }
  for (const std::string& metric : spec.metrics) {
    os << "metric " << metric << '\n';
  }
  if (spec.policy_seed_offset != defaults.policy_seed_offset) {
    os << "policy_seed_offset " << spec.policy_seed_offset << '\n';
  }
  if (spec.chaos_intensity != 0.0) {
    os << "chaos " << format_value(spec.chaos_intensity) << '\n';
  }
  if (!spec.fault_plan_path.empty()) {
    os << "fault_plan " << spec.fault_plan_path << '\n';
  }
  for (const sim::MobilityEvent& event : spec.mobility) {
    os << "mobility " << event.request_index << ' ' << event.slot << ' '
       << event.new_home << '\n';
  }
  if (spec.rr.threshold_min_mhz != defaults.rr.threshold_min_mhz ||
      spec.rr.threshold_max_mhz != defaults.rr.threshold_max_mhz) {
    os << "threshold_range " << format_value(spec.rr.threshold_min_mhz) << ' '
       << format_value(spec.rr.threshold_max_mhz) << '\n';
  }
  if (spec.rr.kappa != defaults.rr.kappa) {
    os << "kappa " << spec.rr.kappa << '\n';
  }
  if (spec.scale_thresholds) {
    os << "scale_thresholds true\n";
    os << "threshold_headroom " << format_value(spec.threshold_headroom)
       << '\n';
  }
  if (spec.alg.rounding_divisor != defaults.alg.rounding_divisor) {
    os << "rounding_divisor " << format_value(spec.alg.rounding_divisor)
       << '\n';
  }
  if (spec.alg.backfill != defaults.alg.backfill) {
    os << "backfill " << bool_token(spec.alg.backfill) << '\n';
  }
  if (spec.alg.enforce_backhaul != defaults.alg.enforce_backhaul) {
    os << "enforce_backhaul " << bool_token(spec.alg.enforce_backhaul) << '\n';
  }
  if (spec.backhaul_audit) os << "backhaul_audit true\n";
  if (spec.collect_detail) os << "collect_detail true\n";
  if (spec.requests_per_slot != 0.0) {
    os << "requests_per_slot " << format_value(spec.requests_per_slot) << '\n';
  }
  if (spec.rr.lp_max_iterations != defaults.rr.lp_max_iterations) {
    os << "lp_max_iterations " << spec.rr.lp_max_iterations << '\n';
  }
  if (spec.rr.lp_pivot_budget != defaults.rr.lp_pivot_budget) {
    os << "lp_budget " << spec.rr.lp_pivot_budget;
    if (spec.rr.lp_deadline_ms != defaults.rr.lp_deadline_ms) {
      os << ' ' << format_value(spec.rr.lp_deadline_ms);
    }
    os << '\n';
  }
}

}  // namespace mecar::exp
