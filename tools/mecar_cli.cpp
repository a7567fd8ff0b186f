// mecar command-line front-end.
//
// Subcommands:
//   resilience  run the online policies under an injected fault scenario
//               (scripted --plan=FILE or seeded --chaos=INTENSITY) and
//               print the resilience metrics per policy
//   experiment  run a declarative scenario file through the scenario
//               engine (see scenarios/*.scenario) and print its tables;
//               --metrics-out/--trace-out export telemetry;
//               --checkpoint-dir/--checkpoint-every/--resume run the
//               serial checkpointed path (kill-anywhere, resume
//               bit-identical); --crash-at/--crash-after-units inject a
//               SIGKILL for the crash/restore harness
//   metrics     list every registered telemetry metric (the inventory)
//   list        print the policy registry and the scenario-file keys
//   topology    generate a topology and print its stations/links as CSV
//   trace       synthesize a frame-level AR session trace as CSV
//   lp          dump the slot-indexed LP of an instance in MPS format
//
// Common flags: --seed=N --requests=N --stations=N. Subcommand-specific
// flags are listed by `mecar_cli <subcommand> --help`.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/registry.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/telemetry.h"
#include "obs/catalog.h"
#include "obs/telemetry.h"
#include "core/slot_lp.h"
#include "lp/mps.h"
#include "lp/revised_simplex.h"
#include "mec/topology.h"
#include "mec/trace.h"
#include "mec/workload.h"
#include "sim/checkpoint.h"
#include "sim/dynamic_rr.h"
#include "sim/fault_plan.h"
#include "sim/online_baselines.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/snapshot.h"
#include "util/table.h"

namespace {

using namespace mecar;

struct Common {
  std::uint64_t seed;
  int requests;
  int stations;
};

Common common_flags(const util::Cli& cli) {
  return Common{
      static_cast<std::uint64_t>(cli.get_int_or("seed", 42)),
      util::int_flag(cli, "requests", 150),
      util::int_flag(cli, "stations", 20),
  };
}

mec::Topology make_topology(const Common& common, util::Rng& rng) {
  mec::TopologyParams params;
  params.num_stations = common.stations;
  return mec::generate_topology(params, rng);
}

int cmd_resilience(const util::Cli& cli) {
  const Common common = common_flags(cli);
  const int horizon = util::int_flag(cli, "horizon", 600);
  util::Rng rng(common.seed);
  const mec::Topology topo = make_topology(common, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = common.requests;
  wparams.horizon_slots = horizon;
  const auto requests = mec::generate_requests(wparams, topo, rng);
  const auto realized = core::realize_demand_levels(requests, rng);

  // Fault scenario: a versioned script (--plan=FILE) or a seeded chaos
  // draw (--chaos=INTENSITY). --emit-plan prints the active plan in the
  // scenario format so a chaos draw can be saved and replayed.
  sim::FaultPlan plan;
  if (const auto path = cli.get("plan"); path && !path->empty()) {
    std::ifstream file(*path);
    if (!file) {
      std::cerr << "mecar_cli: cannot open fault plan '" << *path << "'\n";
      return 1;
    }
    plan = sim::read_fault_plan(file);
  } else {
    sim::ChaosParams chaos;
    chaos.intensity = cli.get_double_or("chaos", 0.5);
    util::Rng chaos_rng(static_cast<unsigned>(common.seed) * 2654435761u +
                        17u);
    plan = sim::generate_chaos(topo, chaos, horizon, chaos_rng);
  }
  plan.validate(topo);
  if (cli.has("emit-plan")) {
    sim::write_fault_plan(plan, std::cout);
    std::cout << '\n';
  }

  sim::OnlineParams params;
  params.horizon_slots = horizon;
  util::Table table({"policy", "reward ($)", "retention", "displaced",
                     "recovered", "mean rec (slots)", "drop starve",
                     "drop fault", "drop cut"});
  auto run = [&](sim::OnlinePolicy& healthy, sim::OnlinePolicy& policy) {
    sim::OnlineSimulator ref_sim(topo, requests, realized, params);
    const auto ref = ref_sim.run(healthy);
    sim::OnlineParams faulted = params;
    faulted.faults = plan;
    sim::OnlineSimulator simulator(topo, requests, realized, faulted);
    const auto m = simulator.run(policy);
    const auto& rs = m.resilience;
    table.add_row(
        {policy.name(), util::format_double(m.total_reward, 1),
         util::format_double(ref.total_reward > 0.0
                                 ? m.total_reward / ref.total_reward
                                 : 1.0,
                             3),
         std::to_string(m.displaced), std::to_string(rs.recovered),
         util::format_double(rs.mean_recovery_slots, 2),
         std::to_string(rs.dropped_starvation),
         std::to_string(rs.dropped_fault),
         std::to_string(rs.dropped_partition)});
  };
  {
    sim::DynamicRrPolicy healthy(topo, core::AlgorithmParams{},
                                 sim::DynamicRrParams{},
                                 util::Rng(common.seed + 1));
    sim::DynamicRrPolicy policy(topo, core::AlgorithmParams{},
                                sim::DynamicRrParams{},
                                util::Rng(common.seed + 1));
    run(healthy, policy);
  }
  {
    sim::GreedyOnlinePolicy healthy(topo, core::AlgorithmParams{});
    sim::GreedyOnlinePolicy policy(topo, core::AlgorithmParams{});
    run(healthy, policy);
  }
  {
    sim::OcorpOnlinePolicy healthy(topo, core::AlgorithmParams{});
    sim::OcorpOnlinePolicy policy(topo, core::AlgorithmParams{});
    run(healthy, policy);
  }
  {
    sim::HeuKktOnlinePolicy healthy(topo, core::AlgorithmParams{});
    sim::HeuKktOnlinePolicy policy(topo, core::AlgorithmParams{});
    run(healthy, policy);
  }
  table.print(std::cout, "resilience, " + std::to_string(plan.num_events()) +
                             " fault events, horizon " +
                             std::to_string(horizon) + " slots, seed " +
                             std::to_string(common.seed));
  return 0;
}

int cmd_topology(const util::Cli& cli) {
  const Common common = common_flags(cli);
  util::Rng rng(common.seed);
  const mec::Topology topo = make_topology(common, rng);
  std::cout << "station_id,capacity_mhz,proc_ms_per_unit,x,y\n";
  for (const mec::BaseStation& bs : topo.stations()) {
    std::cout << bs.id << ',' << bs.capacity_mhz << ','
              << bs.proc_ms_per_unit << ',' << bs.x << ',' << bs.y << '\n';
  }
  std::cout << "\nlink_a,link_b,delay_ms,bandwidth_mbps\n";
  for (const mec::Link& link : topo.links()) {
    std::cout << link.a << ',' << link.b << ',' << link.delay_ms << ','
              << link.bandwidth_mbps << '\n';
  }
  return 0;
}

int cmd_trace(const util::Cli& cli) {
  const Common common = common_flags(cli);
  util::Rng rng(common.seed);
  mec::TraceParams params;
  params.duration_s = cli.get_double_or("duration", 10.0);
  params.frame_kb_mean = cli.get_double_or("frame-kb", 64.0);
  const auto trace = mec::synthesize_trace(params, rng);
  trace.write_csv(std::cout);
  std::cerr << "# " << trace.size() << " frames, "
            << util::format_double(trace.average_rate_mbps(), 2)
            << " MB/s average\n";
  return 0;
}

int cmd_lp(const util::Cli& cli) {
  const Common common = common_flags(cli);
  util::Rng rng(common.seed);
  const mec::Topology topo = make_topology(common, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = common.requests;
  const auto requests = mec::generate_requests(wparams, topo, rng);
  const auto inst =
      core::build_slot_lp(topo, requests, core::AlgorithmParams{});
  lp::write_mps(inst.model, std::cout, "mecar_slot_lp");
  std::cerr << "# " << inst.model.num_variables() << " columns, "
            << inst.model.num_constraints() << " rows\n";
  return 0;
}

// ---- fuzz-lp: differential fuzzer for the LP engines ---------------------

/// One randomized slot-sized LP. Families by seed % 4: 0 — random bounded
/// LP; 1 — degenerate (duplicate + zero-rhs rows); 2 — near-singular
/// (nearly dependent rows); 3 — a real slot LP from a random instance.
/// Every family is feasible (x = 0) and bounded (a global sum cap), so
/// both engines must agree on kOptimal and its objective.
lp::Model fuzz_model(std::uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1234567ull);
  const int family = static_cast<int>(seed % 4);
  if (family == 3) {
    mec::TopologyParams tparams;
    tparams.num_stations = 3 + static_cast<int>(rng.uniform_int(0, 4));
    const mec::Topology topo = mec::generate_topology(tparams, rng);
    mec::WorkloadParams wparams;
    wparams.num_requests = 4 + static_cast<int>(rng.uniform_int(0, 12));
    const auto requests = mec::generate_requests(wparams, topo, rng);
    return core::build_slot_lp(topo, requests, core::AlgorithmParams{}).model;
  }

  lp::Model model;
  const int n = 3 + static_cast<int>(rng.uniform_int(0, 9));
  const int m = 2 + static_cast<int>(rng.uniform_int(0, 6));
  for (int j = 0; j < n; ++j) {
    const double upper =
        rng.bernoulli(0.4) ? rng.uniform(0.5, 10.0) : lp::kInf;
    model.add_variable("x" + std::to_string(j), rng.uniform(-1.0, 5.0),
                       upper);
  }
  std::vector<std::vector<lp::Term>> rows;
  for (int r = 0; r < m; ++r) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.6)) terms.push_back({j, rng.uniform(0.1, 4.0)});
    }
    if (terms.empty()) {
      terms.push_back(
          {static_cast<int>(rng.uniform_int(0, n - 1)), 1.0});
    }
    rows.push_back(std::move(terms));
  }
  if (family == 1) {
    // Degenerate: a duplicate constraint plus a zero-rhs row pinning its
    // variables at 0 — ties everywhere, Bland territory.
    rows.push_back(rows.front());
    rows.push_back({{static_cast<int>(rng.uniform_int(0, n - 1)), 1.0}});
  } else if (family == 2) {
    // Near-singular: an almost linearly dependent copy of the first row,
    // the classic factorization stressor.
    std::vector<lp::Term> dep = rows.front();
    for (lp::Term& t : dep) {
      t.coeff = 2.0 * t.coeff + rng.uniform(-1e-9, 1e-9);
    }
    rows.push_back(std::move(dep));
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    double rhs = rng.uniform(1.0, 20.0);
    if (family == 1 && r + 1 == rows.size()) rhs = 0.0;
    std::vector<lp::Term> terms = rows[r];
    // Structured mutation: blow a row up by 1e5 (same polytope, ugly
    // conditioning) every fourth instance or so.
    if (rng.bernoulli(0.25)) {
      for (lp::Term& t : terms) t.coeff *= 1e5;
      rhs *= 1e5;
    }
    model.add_constraint("r" + std::to_string(r), lp::Sense::kLe, rhs,
                         terms);
  }
  // Global cap: keeps unbounded rays out even for columns no row touches.
  std::vector<lp::Term> cap;
  for (int j = 0; j < n; ++j) cap.push_back({j, 1.0});
  model.add_constraint("cap", lp::Sense::kLe, rng.uniform(10.0, 50.0), cap);
  return model;
}

/// Differential + recovery-invariant checks for one seed. Returns false
/// and fills `why` on the first violated invariant.
bool fuzz_one(std::uint64_t seed, std::string& why) {
  const lp::Model model = fuzz_model(seed);
  const lp::SolveResult dense = lp::SimplexSolver().solve(model);
  const lp::SolveResult sparse = lp::RevisedSimplexSolver().solve(model);

  const auto close = [&](double a, double b) {
    return std::abs(a - b) <= 1e-8 * (1.0 + std::abs(a));
  };
  if (dense.status != sparse.status) {
    why = std::string("status mismatch: dense=") +
          lp::to_string(dense.status) +
          " sparse=" + lp::to_string(sparse.status);
    return false;
  }
  if (dense.optimal()) {
    if (!close(dense.objective, sparse.objective)) {
      why = "objective mismatch: dense=" + std::to_string(dense.objective) +
            " sparse=" + std::to_string(sparse.objective);
      return false;
    }
    if (model.max_violation(sparse.x) > 1e-7) {
      why = "sparse solution violates constraints by " +
            std::to_string(model.max_violation(sparse.x));
      return false;
    }
  }

  // Recovery invariant 1 — transient fault: one poisoned FTRAN must be
  // absorbed by the in-place recovery and change nothing.
  {
    lp::RevisedSimplexOptions opt;
    opt.inject_nan_at_pivot = 1;
    const lp::SolveResult res = lp::RevisedSimplexSolver(opt).solve(model);
    if (res.status != dense.status ||
        (dense.optimal() && !close(dense.objective, res.objective))) {
      why = std::string("transient-NaN run diverged: status=") +
            lp::to_string(res.status) +
            " objective=" + std::to_string(res.objective);
      return false;
    }
  }
  // Recovery invariant 2 — persistent fault: every FTRAN poisoned; the
  // ladder must escalate to the dense cross-solve and still answer.
  {
    lp::RevisedSimplexOptions opt;
    opt.inject_nan_every_pivot = true;
    const lp::SolveResult res = lp::RevisedSimplexSolver(opt).solve(model);
    if (res.status != dense.status ||
        (dense.optimal() && !close(dense.objective, res.objective))) {
      why = std::string("persistent-NaN run diverged: status=") +
            lp::to_string(res.status) +
            " objective=" + std::to_string(res.objective);
      return false;
    }
  }
  // Recovery invariant 3 — anytime budget: a tiny pivot budget yields
  // kOptimal or a feasible best-so-far iterate under the optimum.
  {
    lp::RevisedSimplexOptions opt;
    opt.budget.max_pivots = 3;
    const lp::SolveResult res = lp::RevisedSimplexSolver(opt).solve(model);
    if (res.status != lp::SolveStatus::kOptimal &&
        res.status != lp::SolveStatus::kDeadline) {
      why = std::string("budgeted run status: ") + lp::to_string(res.status);
      return false;
    }
    if (!res.x.empty()) {
      if (model.max_violation(res.x) > 1e-7) {
        why = "budgeted iterate violates constraints by " +
              std::to_string(model.max_violation(res.x));
        return false;
      }
      if (dense.optimal() &&
          res.objective >
              dense.objective + 1e-8 * (1.0 + std::abs(dense.objective))) {
        why = "budgeted iterate beats the optimum: " +
              std::to_string(res.objective) + " > " +
              std::to_string(dense.objective);
        return false;
      }
    }
  }
  return true;
}

int cmd_fuzz_lp(const util::Cli& cli) {
  if (cli.has("seed")) {
    const auto seed =
        static_cast<std::uint64_t>(cli.get_int_or("seed", 0));
    std::string why;
    if (fuzz_one(seed, why)) {
      std::cout << "fuzz-lp: seed " << seed << " ok\n";
      return 0;
    }
    std::cerr << "FAIL seed " << seed << ": " << why << '\n';
    return 1;
  }
  const int seeds = util::int_flag(cli, "seeds", 200);
  int failures = 0;
  for (int s = 0; s < seeds; ++s) {
    std::string why;
    if (fuzz_one(static_cast<std::uint64_t>(s), why)) continue;
    std::cerr << "FAIL seed " << s << ": " << why
              << "\n  replay: mecar_cli fuzz-lp --seed=" << s << '\n';
    ++failures;
  }
  std::cout << "fuzz-lp: " << seeds << " seeds, " << failures
            << " failure(s)\n";
  return failures == 0 ? 0 : 1;
}

// ---- fuzz-ckpt: snapshot framing round-trip/corruption fuzzer ------------

constexpr std::uint32_t kFuzzCkptMagic = 0x5a554643U;  // "CFUZ"
constexpr std::uint32_t kFuzzCkptVersion = 3;

/// Doubles that must round-trip bit-exactly: signed zeros, infinities,
/// NaN, the smallest denormal, plus ordinary magnitudes.
double fuzz_ckpt_double(util::Rng& rng) {
  switch (rng.uniform_int(0, 6)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return std::numeric_limits<double>::infinity();
    case 3: return -std::numeric_limits<double>::infinity();
    case 4: return std::numeric_limits<double>::quiet_NaN();
    case 5: return std::numeric_limits<double>::denorm_min();
    default: return rng.uniform(-1e12, 1e12);
  }
}

std::uint64_t fuzz_ckpt_u64(util::Rng& rng) {
  const auto hi = static_cast<std::uint64_t>(rng.uniform_int(0, 0xffffffffll));
  const auto lo = static_cast<std::uint64_t>(rng.uniform_int(0, 0xffffffffll));
  return hi << 32 | lo;
}

bool same_bits(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

/// One random tagged value of any wire type, embedded NULs and high bytes
/// included for the variable-length kinds.
struct FuzzCkptValue {
  int type = 0;
  std::uint64_t u = 0;
  std::int64_t i = 0;
  double f = 0.0;
  bool b = false;
  std::string s;
  std::vector<std::uint8_t> raw;
};

FuzzCkptValue make_fuzz_ckpt_value(util::Rng& rng) {
  FuzzCkptValue v;
  v.type = static_cast<int>(rng.uniform_int(0, 8));
  switch (v.type) {
    case 0:
      v.u = static_cast<std::uint64_t>(rng.uniform_int(0, 255));
      break;
    case 1:
      v.u = static_cast<std::uint64_t>(rng.uniform_int(0, 0xffffffffll));
      break;
    case 2:
      v.u = fuzz_ckpt_u64(rng);
      break;
    case 3:
      v.i = rng.uniform_int(std::numeric_limits<std::int32_t>::min(),
                            std::numeric_limits<std::int32_t>::max());
      break;
    case 4:
      v.i = static_cast<std::int64_t>(fuzz_ckpt_u64(rng));
      break;
    case 5:
      v.f = fuzz_ckpt_double(rng);
      break;
    case 6:
      v.b = rng.bernoulli(0.5);
      break;
    case 7: {
      const int len = static_cast<int>(rng.uniform_int(0, 24));
      for (int j = 0; j < len; ++j) {
        v.s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
      }
      break;
    }
    default: {
      const int len = static_cast<int>(rng.uniform_int(0, 24));
      for (int j = 0; j < len; ++j) {
        v.raw.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      }
      break;
    }
  }
  return v;
}

/// Properties checked per seed (the checkpoint analogue of fuzz_one):
///  1. a random tagged-value sequence reads back bit-identically and
///     consumes the payload exactly;
///  2. truncating the framed buffer at any prefix length is a structured
///     SnapshotParseError, never a crash or a silent short read;
///  3. flipping any single bit is a SnapshotParseError — CRC32 is linear,
///     so a one-bit payload error cannot collide, and header flips hit
///     the magic/version/length checks.
bool fuzz_ckpt_one(std::uint64_t seed, std::string& why) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 99991ull);
  const int n = 1 + static_cast<int>(rng.uniform_int(0, 63));
  std::vector<FuzzCkptValue> values;
  values.reserve(static_cast<std::size_t>(n));
  util::SnapshotWriter w;
  for (int i = 0; i < n; ++i) {
    values.push_back(make_fuzz_ckpt_value(rng));
    const FuzzCkptValue& v = values.back();
    switch (v.type) {
      case 0: w.u8(static_cast<std::uint8_t>(v.u)); break;
      case 1: w.u32(static_cast<std::uint32_t>(v.u)); break;
      case 2: w.u64(v.u); break;
      case 3: w.i32(static_cast<std::int32_t>(v.i)); break;
      case 4: w.i64(v.i); break;
      case 5: w.f64(v.f); break;
      case 6: w.boolean(v.b); break;
      case 7: w.str(v.s); break;
      default: w.bytes(v.raw); break;
    }
  }
  const std::vector<std::uint8_t> framed =
      w.finish(kFuzzCkptMagic, kFuzzCkptVersion);

  try {
    util::SnapshotReader r(framed, kFuzzCkptMagic, kFuzzCkptVersion);
    for (int i = 0; i < n; ++i) {
      const FuzzCkptValue& v = values[static_cast<std::size_t>(i)];
      bool ok = true;
      switch (v.type) {
        case 0: ok = r.u8() == static_cast<std::uint8_t>(v.u); break;
        case 1: ok = r.u32() == static_cast<std::uint32_t>(v.u); break;
        case 2: ok = r.u64() == v.u; break;
        case 3: ok = r.i32() == static_cast<std::int32_t>(v.i); break;
        case 4: ok = r.i64() == v.i; break;
        case 5: ok = same_bits(r.f64(), v.f); break;
        case 6: ok = r.boolean() == v.b; break;
        case 7: ok = r.str() == v.s; break;
        default: ok = r.bytes() == v.raw; break;
      }
      if (!ok) {
        why = "round-trip mismatch at value " + std::to_string(i) +
              " (type " + std::to_string(v.type) + ")";
        return false;
      }
    }
    r.expect_end();
  } catch (const util::SnapshotParseError& e) {
    why = std::string("clean buffer rejected: ") + e.what();
    return false;
  }

  {
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(framed.size()) - 1));
    const std::vector<std::uint8_t> truncated(
        framed.begin(), framed.begin() + static_cast<std::ptrdiff_t>(cut));
    try {
      util::SnapshotReader r(truncated, kFuzzCkptMagic, kFuzzCkptVersion);
      why = "truncation to " + std::to_string(cut) + " bytes was accepted";
      return false;
    } catch (const util::SnapshotParseError&) {
    }
  }

  {
    std::vector<std::uint8_t> flipped = framed;
    const auto bit = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(framed.size()) * 8 - 1));
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    try {
      util::SnapshotReader r(flipped, kFuzzCkptMagic, kFuzzCkptVersion);
      why = "bit flip at bit " + std::to_string(bit) + " was accepted";
      return false;
    } catch (const util::SnapshotParseError&) {
    }
  }
  return true;
}

int cmd_fuzz_ckpt(const util::Cli& cli) {
  if (cli.has("seed")) {
    const auto seed =
        static_cast<std::uint64_t>(cli.get_int_or("seed", 0));
    std::string why;
    if (fuzz_ckpt_one(seed, why)) {
      std::cout << "fuzz-ckpt: seed " << seed << " ok\n";
      return 0;
    }
    std::cerr << "FAIL seed " << seed << ": " << why << '\n';
    return 1;
  }
  const int seeds = util::int_flag(cli, "seeds", 200);
  int failures = 0;
  for (int s = 0; s < seeds; ++s) {
    std::string why;
    if (fuzz_ckpt_one(static_cast<std::uint64_t>(s), why)) continue;
    std::cerr << "FAIL seed " << s << ": " << why
              << "\n  replay: mecar_cli fuzz-ckpt --seed=" << s << '\n';
    ++failures;
  }
  std::cout << "fuzz-ckpt: " << seeds << " seeds, " << failures
            << " failure(s)\n";
  return failures == 0 ? 0 : 1;
}

/// Table precision of a metric in `experiment`'s tables (and hence in the
/// goldens under tests/golden/).
int metric_precision(const std::string& metric) {
  if (metric == "reward" || metric == "lp_bound" ||
      metric == "baseline_reward") {
    return 1;
  }
  if (metric == "latency") return 2;
  if (metric == "retention" || metric == "fairness" ||
      metric == "mean_util" || metric == "peak_util") {
    return 3;
  }
  return 2;
}

int cmd_experiment(const util::Cli& cli) {
  const std::string path = cli.get_or("spec", "");
  if (path.empty()) {
    std::cerr << "mecar_cli: experiment needs --spec=FILE\n";
    return 1;
  }
  std::ifstream file(path);
  if (!file) {
    std::cerr << "mecar_cli: cannot open scenario '" << path << "'\n";
    return 1;
  }
  exp::ScenarioSpec spec = exp::read_scenario(file);
  // A relative fault_plan references a sibling of the scenario file, not
  // of the process cwd — checked-in scenarios must run from anywhere.
  if (!spec.fault_plan_path.empty() && spec.fault_plan_path.front() != '/' &&
      !std::ifstream(spec.fault_plan_path)) {
    const std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos) {
      spec.fault_plan_path = path.substr(0, slash + 1) + spec.fault_plan_path;
    }
  }
  exp::Runner runner(std::move(spec));
  if (cli.has("seeds")) runner.set_seeds(util::int_flag(cli, "seeds"));
  if (cli.has("horizon")) runner.set_horizon(util::int_flag(cli, "horizon"));
  if (cli.has("lp-budget")) {
    const int pivots = util::int_flag(cli, "lp-budget");
    if (pivots < 1) {
      std::cerr << "mecar_cli: --lp-budget must be >= 1\n";
      return 1;
    }
    runner.set_lp_budget(pivots);
  }
  exp::CheckpointOptions checkpoint;
  checkpoint.dir = cli.get_or("checkpoint-dir", "");
  checkpoint.every_slots = util::int_flag(cli, "checkpoint-every");
  checkpoint.resume = cli.has("resume");
  if (checkpoint.every_slots < 0) {
    std::cerr << "mecar_cli: --checkpoint-every must be >= 0\n";
    return 1;
  }
  if ((checkpoint.resume || checkpoint.every_slots > 0) &&
      checkpoint.dir.empty()) {
    std::cerr << "mecar_cli: --resume/--checkpoint-every need "
                 "--checkpoint-dir=DIR\n";
    return 1;
  }
  if (!checkpoint.dir.empty()) runner.set_checkpoint(checkpoint);
  if (cli.has("crash-at")) {
    sim::arm_crash_at_slot(util::int_flag(cli, "crash-at", -1));
  }
  if (cli.has("crash-after-units")) {
    sim::arm_crash_after_units(util::int_flag(cli, "crash-after-units"));
  }
  // A resumed run must sail past whatever killed it — scripted FaultPlan
  // crash slots included (they already fired in the crashed run).
  if (checkpoint.resume) sim::disarm_crashes();
  exp::TelemetryExportOptions telemetry;
  telemetry.metrics_path = cli.get_or("metrics-out", "");
  telemetry.trace_path = cli.get_or("trace-out", "");
  if (cli.has("trace-capacity")) {
    const std::int64_t capacity = cli.get_int_or("trace-capacity", 0);
    if (capacity <= 0) {
      std::cerr << "mecar_cli: --trace-capacity must be positive\n";
      return 1;
    }
    telemetry.trace_capacity = static_cast<std::size_t>(capacity);
  }
  const exp::Report report = telemetry.any()
                                 ? exp::run_with_telemetry(runner, telemetry)
                                 : runner.run();
  for (const std::string& metric : report.metrics()) {
    report.print_metric_table(std::cout,
                              report.scenario_name() + ": " + metric, metric,
                              metric_precision(metric));
  }
  if (cli.has("json")) {
    const std::string json_path = cli.get_or("json", "").empty()
                                      ? report.scenario_name() + ".json"
                                      : cli.get_or("json", "");
    std::ofstream os(json_path);
    report.write_json(os);
    if (!os.good()) {
      std::cerr << "mecar_cli: cannot write '" << json_path << "'\n";
      return 1;
    }
    std::cout << "json: " << json_path << '\n';
  }
  if (!telemetry.metrics_path.empty()) {
    std::cout << "metrics: " << telemetry.metrics_path << '\n';
  }
  if (!telemetry.trace_path.empty()) {
    std::cout << "trace: " << telemetry.trace_path << '\n';
  }
  return 0;
}

int cmd_metrics(const util::Cli&) {
  // Touching the catalog registers every well-known metric, so the
  // inventory is complete without running anything.
  obs::metrics();
  util::Table table({"metric", "kind", "help"});
  for (const obs::MetricDescriptor& d : obs::registry().descriptors()) {
    table.add_row({d.name, std::string(obs::to_string(d.kind)), d.help});
  }
  table.print(std::cout,
              std::string("telemetry metrics (recording ") +
                  (MECAR_TELEMETRY_ENABLED ? "enabled" : "compiled out") +
                  ")");
  return 0;
}

int cmd_list(const util::Cli&) {
  const exp::PolicyRegistry& registry = exp::PolicyRegistry::global();
  std::cout << "offline algorithms (policy NAME | policy offline:NAME):\n";
  for (const std::string& name : registry.offline_names()) {
    std::cout << "  " << name << '\n';
  }
  std::cout << "online policies (policy NAME | policy online:NAME):\n";
  for (const std::string& name : registry.online_names()) {
    std::cout << "  " << name << '\n';
  }
  std::cout <<
      "scenario keys (one per line; # comments; see scenarios/*.scenario):\n"
      "  name kind axis points seeds horizon requests stations rate_min\n"
      "  rate_max reward_model arrivals home_skew link_bandwidth policy\n"
      "  metric policy_seed_offset chaos fault_plan mobility\n"
      "  threshold_range kappa scale_thresholds threshold_headroom\n"
      "  rounding_divisor backfill enforce_backhaul backhaul_audit\n"
      "  collect_detail requests_per_slot lp_max_iterations lp_budget\n";
  return 0;
}

void usage() {
  std::cout <<
      "usage: mecar_cli "
      "<resilience|experiment|metrics|list|topology|trace"
      "|lp|fuzz-lp|fuzz-ckpt> [flags]\n"
      "  common flags: --seed=N --requests=N --stations=N\n"
      "  resilience:   --horizon=N --plan=FILE | --chaos=INTENSITY "
      "[--emit-plan]\n"
      "  experiment:   --spec=FILE [--seeds=N] [--horizon=N] "
      "[--lp-budget=N]\n"
      "                [--json[=PATH]]\n"
      "                [--metrics-out=FILE(.prom|.json)] "
      "[--trace-out=FILE]\n"
      "                [--trace-capacity=N]\n"
      "                [--checkpoint-dir=DIR [--checkpoint-every=SLOTS] "
      "[--resume]]\n"
      "                [--crash-at=SLOT] [--crash-after-units=N]  "
      "(SIGKILL injection)\n"
      "  metrics:      (no flags) telemetry metric inventory\n"
      "  list:         (no flags) policy registry + scenario keys\n"
      "  trace:        --duration=SECONDS --frame-kb=KB\n"
      "  fuzz-lp:      [--seeds=N] | --seed=K  differential LP fuzzer\n"
      "  fuzz-ckpt:    [--seeds=N] | --seed=K  snapshot framing fuzzer\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.positional().empty() || cli.has("help")) {
    usage();
    return cli.positional().empty() && !cli.has("help") ? 1 : 0;
  }
  const std::string& command = cli.positional().front();
  try {
    if (command == "resilience") return cmd_resilience(cli);
    if (command == "experiment") return cmd_experiment(cli);
    if (command == "metrics") return cmd_metrics(cli);
    if (command == "list") return cmd_list(cli);
    if (command == "topology") return cmd_topology(cli);
    if (command == "trace") return cmd_trace(cli);
    if (command == "lp") return cmd_lp(cli);
    if (command == "fuzz-lp") return cmd_fuzz_lp(cli);
    if (command == "fuzz-ckpt") return cmd_fuzz_ckpt(cli);
  } catch (const std::exception& error) {
    std::cerr << "mecar_cli: " << error.what() << '\n';
    return 1;
  }
  std::cerr << "mecar_cli: unknown command '" << command << "'\n";
  usage();
  return 1;
}
