#include "exp/runner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bandit/lipschitz.h"
#include "core/backhaul.h"
#include "obs/catalog.h"
#include "obs/telemetry.h"
#include "sim/checkpoint.h"
#include "sim/fault_plan.h"
#include "sim/metrics.h"
#include "util/parallel.h"
#include "util/snapshot.h"
#include "util/timer.h"

namespace mecar::exp {

namespace {

using MetricMap = std::map<std::string, double>;

/// `value` as an int. Throws std::invalid_argument naming the sweep point
/// when it is not finite, not integral or outside int.
int integer_at(double point, const char* what, double value,
               const std::string& context) {
  if (!(std::trunc(value) == value &&
        value >= std::numeric_limits<int>::min() &&
        value <= std::numeric_limits<int>::max())) {
    char detail[128];
    std::snprintf(detail, sizeof detail, "point %g: %s %g is not an int",
                  point, what, value);
    throw std::invalid_argument(context + detail);
  }
  return static_cast<int>(value);
}

/// Everything one sweep point fixes for its trials.
struct PointSetup {
  InstanceConfig offline_config;  // horizon 0
  InstanceConfig online_config;   // horizon = effective horizon
  int horizon = 0;
  sim::DynamicRrParams rr;
  double chaos_intensity = 0.0;
};

PointSetup make_point_setup(const ScenarioSpec& spec, double point,
                            int base_horizon, int lp_budget_override,
                            const std::string& context) {
  const auto integer = [&](const char* what, double value) {
    return integer_at(point, what, value, context);
  };
  PointSetup setup;
  setup.horizon = spec.axis == SweepAxis::kHorizon ? integer("horizon", point)
                                                   : base_horizon;
  setup.offline_config = spec.base;
  setup.offline_config.horizon_slots = 0;
  setup.rr = spec.rr;
  if (lp_budget_override > 0) setup.rr.lp_pivot_budget = lp_budget_override;
  setup.chaos_intensity = spec.axis == SweepAxis::kChaosIntensity
                              ? point
                              : spec.chaos_intensity;
  switch (spec.axis) {
    case SweepAxis::kRequests:
      setup.offline_config.num_requests = integer("requests", point);
      break;
    case SweepAxis::kStations:
      setup.offline_config.num_stations = integer("stations", point);
      break;
    case SweepAxis::kRateMax:
      setup.offline_config.rate_max = point;
      break;
    case SweepAxis::kHorizon:
      // |R| = T x requests_per_slot, truncated: a rate, not a count.
      if (spec.requests_per_slot > 0.0) {
        setup.offline_config.num_requests =
            integer("requests", std::trunc(point * spec.requests_per_slot));
      }
      break;
    case SweepAxis::kKappa:
      setup.rr.kappa = integer("kappa", point);
      break;
    case SweepAxis::kNone:
    case SweepAxis::kChaosIntensity:
      break;
  }
  setup.online_config = setup.offline_config;
  setup.online_config.horizon_slots = setup.horizon;
  if (spec.scale_thresholds) {
    // Fig. 6 coupling: the provider knows the demand support, so the
    // threshold range brackets it per sweep point.
    setup.rr.threshold_min_mhz =
        setup.online_config.rate_min * spec.alg.c_unit;
    setup.rr.threshold_max_mhz =
        (setup.online_config.rate_max + spec.threshold_headroom) *
        spec.alg.c_unit;
  }
  return setup;
}

/// Everything one regret point fixes for its tasks: the sweep point's
/// setup (its online instance and the learned run's knobs) plus the fixed
/// arms' thresholds, the grid over the setup's threshold range.
struct RegretPoint {
  PointSetup setup;
  std::vector<double> arms;
};

RegretPoint make_regret_point(const ScenarioSpec& spec, double point,
                              int base_horizon, int lp_budget_override,
                              const std::string& context) {
  RegretPoint rp{make_point_setup(spec, point, base_horizon,
                                  lp_budget_override, context),
                 {}};
  if (rp.setup.horizon <= 0) {
    throw std::invalid_argument(context +
                                "regret scenarios need a horizon > 0");
  }
  const sim::DynamicRrParams& rr = rp.setup.rr;
  rp.arms = bandit::LipschitzGrid(rr.threshold_min_mhz, rr.threshold_max_mhz,
                                  rr.kappa)
                .values();
  return rp;
}

/// One offline policy's metric map.
MetricMap offline_trial_metrics(const PolicyRegistry& registry,
                                const ScenarioSpec& spec,
                                const std::string& policy_name,
                                const Instance& inst, unsigned seed) {
  MetricMap m;
  util::Rng rng(seed + spec.policy_seed_offset);
  util::Timer timer;
  core::OffloadResult res =
      registry.run_offline(policy_name, inst, spec.alg, rng);
  m["runtime_ms"] = timer.elapsed_ms();
  if (spec.backhaul_audit) {
    const core::BackhaulAudit audit =
        core::apply_backhaul_audit(inst.topo, inst.requests, res);
    m["voided"] = audit.voided;
    m["reward_lost"] = audit.reward_lost;
    m["peak_link_util"] = audit.peak_link_utilization;
  }
  m["reward"] = res.total_reward();
  m["latency"] = res.average_latency_ms();
  m["admitted"] = res.num_admitted();
  m["rewarded"] = res.num_rewarded();
  m["lp_bound"] = res.lp_bound;
  return m;
}

/// One online policy's metric map from its faulted metrics and fault-free
/// reference.
MetricMap online_trial_metrics(const ScenarioSpec& spec,
                               const sim::OnlineMetrics& metrics,
                               const sim::OnlineMetrics& ref) {
  MetricMap m;
  m["reward"] = metrics.total_reward;
  m["latency"] = metrics.avg_latency_ms;
  m["drops"] = metrics.dropped;
  m["completed"] = metrics.completed;
  m["arrived"] = metrics.arrived;
  m["unfinished"] = metrics.unfinished;
  m["displaced"] = metrics.displaced;
  m["handovers"] = metrics.handovers;
  m["baseline_reward"] = ref.total_reward;
  m["retention"] = ref.total_reward > 0.0
                       ? metrics.total_reward / ref.total_reward
                       : 1.0;
  const sim::ResilienceReport& rs = metrics.resilience;
  m["fault_epochs"] = rs.fault_epochs;
  m["displaced_outage"] = rs.displaced_outage;
  m["displaced_partition"] = rs.displaced_partition;
  m["recovered"] = rs.recovered;
  m["unrecovered"] = rs.unrecovered;
  m["mean_recovery_slots"] = rs.mean_recovery_slots;
  m["dropped_starvation"] = rs.dropped_starvation;
  m["dropped_fault"] = rs.dropped_fault;
  m["dropped_partition"] = rs.dropped_partition;
  m["fault_dropped_expected_reward"] = rs.fault_dropped_expected_reward;
  if (spec.collect_detail) {
    const sim::DetailedSummary s = sim::summarize(metrics);
    m["latency_p50"] = s.latency_p50_ms;
    m["latency_p95"] = s.latency_p95_ms;
    m["latency_max"] = s.latency_max_ms;
    m["fairness"] = s.service_fairness;
    m["mean_util"] = s.mean_utilization;
    m["peak_util"] = s.peak_utilization;
  }
  return m;
}

// ---- Runner checkpoint frame -----------------------------------------
//
// [fingerprint][Report][cursor][obs MetricsSnapshot], framed with
// kCkptMagic/kCkptVersion (DESIGN.md §14). The fingerprint pins the run
// configuration; resuming under a different one is a user error
// (std::invalid_argument), unlike a corrupt generation or one that does
// not fit the run, which falls back down the ladder. Both scenario kinds
// share one cursor layout: (point, unit, policy, stage), the cursor
// point's completed regret task rewards, an optional reference
// OnlineMetrics and an optional mid-sim SimSnapshot.

constexpr std::uint32_t kCkptMagic = 0x4b43524dU;  // "MRCK"
constexpr std::uint32_t kCkptVersion = 4;

/// Engine hook that checkpoints the in-flight simulation every
/// `every` slots (slot 0 is the initial state; nothing to save yet).
struct MidSimHook final : sim::SlotHook {
  int every = 0;
  std::function<void(sim::SimSnapshot)> sink;

  bool want_snapshot(int slot) override {
    return every > 0 && slot > 0 && slot % every == 0;
  }
  void on_snapshot(int /*slot*/, sim::SimSnapshot snapshot) override {
    sink(std::move(snapshot));
  }
};

/// A position in a run. A sweep unit is one seed and runs every policy;
/// a regret unit is one task (seed-major: a seed's fixed arms in grid
/// order, then its learned run) and keeps policy 0. stage 0 = at the
/// boundary before (unit, policy), 1 = inside the fault-free reference
/// run (regret: the task's run), 2 = inside the faulted run.
struct Cursor {
  std::size_t point = 0;
  std::size_t unit = 0;
  std::size_t policy = 0;
  std::uint8_t stage = 0;
  bool operator==(const Cursor&) const = default;
};

/// The boundary after `at` in a point of `units` units of `policies`
/// policies each.
Cursor next_boundary(Cursor at, std::size_t units, std::size_t policies) {
  at.stage = 0;
  if (++at.policy < policies) return at;
  at.policy = 0;
  if (++at.unit < units) return at;
  at.unit = 0;
  ++at.point;
  return at;
}

/// A loaded generation's cursor and in-flight state.
struct Resume {
  Cursor at;
  std::vector<double> rewards;            // regret: tasks before at.unit
  std::optional<sim::OnlineMetrics> ref;  // stage 2: the finished reference
  std::optional<sim::SimSnapshot> snap;   // stage 1 or 2: the leg in flight
};

const std::set<std::string>& known_metrics() {
  static const std::set<std::string> metrics{
      // offline
      "reward", "latency", "runtime_ms", "admitted", "rewarded", "lp_bound",
      "voided", "reward_lost", "peak_link_util",
      // online
      "drops", "completed", "arrived", "unfinished", "displaced",
      "handovers", "baseline_reward", "retention", "fault_epochs",
      "displaced_outage", "displaced_partition", "recovered", "unrecovered",
      "mean_recovery_slots", "dropped_starvation", "dropped_fault",
      "dropped_partition", "fault_dropped_expected_reward",
      // detail
      "latency_p50", "latency_p95", "latency_max", "fairness", "mean_util",
      "peak_util"};
  return metrics;
}

}  // namespace

// ---- One execution path ----------------------------------------------
//
// Every point is derived and checked before any trial runs; then one loop
// walks the points and their units. Without a checkpoint directory a
// point's units run on the pool and are recorded in unit order after it;
// with one they run one at a time, each recorded as it finishes and
// followed by a generation (DESIGN.md §14). Both ways add the same values
// to the report in the same order, so their reports are bit-identical.

class Runner::Execution {
 public:
  explicit Execution(const Runner& runner);
  Report run();

 private:
  /// Called concurrently in pooled runs, where they only read members.
  void sweep_seed(std::size_t p, std::size_t s,
                  const std::function<void(std::size_t, MetricMap)>& done);
  double regret_task(std::size_t p, std::size_t task);
  sim::OnlineMetrics simulate(sim::OnlineSimulator& simulator,
                              sim::OnlinePolicy& policy, const Cursor& at,
                              const sim::OnlineMetrics* ref);
  bool resumes(std::size_t p, std::size_t unit) const {
    return resume_ && resume_->at.point == p && resume_->at.unit == unit;
  }
  void count_trial(std::size_t p, std::size_t unit) const;

  void record(std::size_t p, std::size_t s, std::size_t i, const MetricMap& m);
  void reduce_regret(std::size_t p);

  bool regret() const { return spec_.kind == ScenarioKind::kRegret; }
  std::size_t units(std::size_t p) const {
    return regret() ? seeds_.size() * (regret_points_[p].arms.size() + 1)
                    : seeds_.size();
  }
  void boundary(const Cursor& next);
  void save(const Cursor& at, const sim::OnlineMetrics* ref,
            const sim::SimSnapshot* snap);
  void load();
  void check_fingerprint(util::SnapshotReader& r) const;
  const char* misfit(const Report& report, const Resume& c) const;

  const Runner& runner_;
  const ScenarioSpec& spec_;
  const std::string context_;
  int base_horizon_ = 0;
  std::vector<unsigned> seeds_;
  std::vector<double> points_;
  std::vector<PointSetup> setups_;  // sweep
  std::vector<ResolvedPolicy> resolved_;
  bool any_offline_ = false;
  bool any_online_ = false;
  sim::FaultPlan file_plan_;
  std::vector<RegretPoint> regret_points_;  // regret
  std::vector<double> rewards_;  // regret: the current point's tasks
  Report report_;

  std::optional<sim::CheckpointStore> store_;  // set when checkpointing
  std::optional<Resume> resume_;
  int done_units_ = 0;
};

Runner::Execution::Execution(const Runner& runner)
    : runner_(runner),
      spec_(runner.spec_),
      context_("scenario '" + spec_.name + "': ") {
  const int num_seeds =
      runner.seeds_override_ > 0 ? runner.seeds_override_ : spec_.seeds;
  if (num_seeds < 1) {
    throw std::invalid_argument(context_ + "seeds must be >= 1");
  }
  base_horizon_ =
      runner.horizon_override_ >= 0 ? runner.horizon_override_ : spec_.horizon;
  const int lp_budget = runner.lp_budget_override_;

  points_ = spec_.points;
  if (spec_.axis == SweepAxis::kNone) {
    if (points_.size() > 1) {
      throw std::invalid_argument(context_ +
                                  "axis 'none' admits at most one point");
    }
    if (points_.empty()) points_.push_back(0.0);
  } else if (points_.empty()) {
    throw std::invalid_argument(context_ + "sweep axis set but no points");
  }
  seeds_ = bench_seeds(num_seeds);

  std::vector<std::string> labels;
  if (regret()) {
    // Every regret task runs its instance fault-free and unmoved.
    if (spec_.axis == SweepAxis::kChaosIntensity ||
        spec_.chaos_intensity != 0.0 || !spec_.fault_plan_path.empty() ||
        !spec_.mobility.empty()) {
      throw std::invalid_argument(
          context_ + "regret scenarios take no chaos, fault_plan or mobility");
    }
    labels = {"best fixed", "DynamicRR"};
  } else {
    if (spec_.policies.empty()) {
      throw std::invalid_argument(context_ + "no policies to compare");
    }
    if (spec_.metrics.empty()) {
      throw std::invalid_argument(context_ + "no metrics to collect");
    }
    for (const std::string& metric : spec_.metrics) {
      if (known_metrics().count(metric) == 0) {
        std::string known;
        for (const std::string& name : known_metrics()) {
          known += (known.empty() ? "" : ", ") + name;
        }
        throw std::invalid_argument(context_ + "unknown metric '" + metric +
                                    "' (known: " + known + ")");
      }
    }
    for (const PolicyRef& ref : spec_.policies) {
      resolved_.push_back(
          resolve_policy(*runner.registry_, ref.name, base_horizon_));
      (resolved_.back().online ? any_online_ : any_offline_) = true;
      const std::string label =
          ref.label.empty() ? resolved_.back().name : ref.label;
      if (std::find(labels.begin(), labels.end(), label) != labels.end()) {
        throw std::invalid_argument(context_ + "duplicate policy label '" +
                                    label + "'");
      }
      labels.push_back(label);
    }
    if (any_online_ && base_horizon_ <= 0 &&
        spec_.axis != SweepAxis::kHorizon) {
      throw std::invalid_argument(context_ +
                                  "online policies need a horizon > 0");
    }
    if (!spec_.fault_plan_path.empty()) {
      std::ifstream file(spec_.fault_plan_path);
      if (!file) {
        throw std::invalid_argument(context_ + "cannot open fault plan '" +
                                    spec_.fault_plan_path + "'");
      }
      file_plan_ = sim::read_fault_plan(file);
    }
  }
  for (const double point : points_) {
    if (!std::isfinite(point)) {
      throw std::invalid_argument(context_ + "point " +
                                  std::to_string(point) + " is not finite");
    }
    if (regret()) {
      regret_points_.push_back(make_regret_point(spec_, point, base_horizon_,
                                                 lp_budget, context_));
    } else {
      setups_.push_back(make_point_setup(spec_, point, base_horizon_,
                                         lp_budget, context_));
    }
  }
  report_ = Report(spec_.name, axis_label(spec_.axis),
                   regret() ? std::vector<std::string>{"reward"}
                            : spec_.metrics,
                   std::move(labels));

  if (runner.checkpoint_.dir.empty()) return;
  store_.emplace(runner.checkpoint_.dir);
  if (runner.checkpoint_.resume) load();
}

Report Runner::Execution::run() {
  for (std::size_t p = resume_ ? resume_->at.point : 0; p < points_.size();
       ++p) {
    if (report_.num_points() == p) {
      report_.start_point(points_[p], point_label(spec_.axis, points_[p]));
    }
    const std::size_t first = resume_ && resume_->at.point == p
                                  ? resume_->at.unit
                                  : 0;
    const std::size_t n = units(p);
    if (!store_ && regret()) {
      rewards_ = util::parallel_map(
          n, [&](std::size_t task) { return regret_task(p, task); });
      reduce_regret(p);
    } else if (!store_) {
      const auto samples = util::parallel_map(n, [&](std::size_t s) {
        std::vector<MetricMap> out;
        sweep_seed(p, s, [&](std::size_t, MetricMap m) {
          out.push_back(std::move(m));
        });
        return out;
      });
      for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t i = 0; i < samples[s].size(); ++i) {
          record(p, s, i, samples[s][i]);
        }
      }
    } else if (regret()) {
      for (std::size_t task = first; task < n; ++task) {
        rewards_.push_back(regret_task(p, task));
        if (task + 1 == n) reduce_regret(p);
        boundary(next_boundary({p, task, 0, 0}, n, 1));
      }
    } else {
      for (std::size_t s = first; s < n; ++s) {
        sweep_seed(p, s, [&](std::size_t i, MetricMap m) {
          record(p, s, i, m);
          boundary(next_boundary({p, s, i, 0}, n, resolved_.size()));
        });
      }
    }
  }
  return std::move(report_);
}

/// One sweep seed: its instances and chaos plan, then every policy from
/// the cursor's on, each handed to `done` as it finishes. An online
/// policy runs fault-free first; under faults a fresh policy then runs
/// the same instance faulted (common random numbers).
void Runner::Execution::sweep_seed(
    std::size_t p, std::size_t s,
    const std::function<void(std::size_t, MetricMap)>& done) {
  const PointSetup& setup = setups_[p];
  const unsigned seed = seeds_[s];
  count_trial(p, s);
  std::optional<Instance> offline_inst;
  std::optional<Instance> online_inst;
  if (any_offline_) {
    offline_inst.emplace(make_instance(seed, setup.offline_config));
  }
  if (any_online_) {
    online_inst.emplace(make_instance(seed, setup.online_config));
  }

  sim::FaultPlan plan = file_plan_;
  if (setup.chaos_intensity > 0.0 && online_inst) {
    plan = chaos_plan(online_inst->topo, setup.chaos_intensity, setup.horizon,
                      seed);
  }

  for (std::size_t i = resumes(p, s) ? resume_->at.policy : 0;
       i < resolved_.size(); ++i) {
    const std::string& name = resolved_[i].name;
    if (!resolved_[i].online) {
      // Each offline unit reads its own copy: the delay rows one unit
      // computes are not another's, so a resume at a unit boundary
      // computes (and counts) exactly the rows the uninterrupted run did.
      const Instance unit = *offline_inst;
      done(i, offline_trial_metrics(*runner_.registry_, spec_, name, unit,
                                    seed));
      continue;
    }
    sim::OnlineParams params;
    params.horizon_slots = setup.horizon;
    params.alg = spec_.alg;
    params.mobility = spec_.mobility;
    params.collect_detail = spec_.collect_detail;
    const auto leg = [&](std::uint8_t stage, const sim::OnlineMetrics* ref) {
      auto policy = runner_.registry_->make_online(
          name, online_inst->topo, spec_.alg, setup.rr,
          util::Rng(seed + spec_.policy_seed_offset));
      sim::OnlineSimulator simulator(online_inst->topo, online_inst->requests,
                                     online_inst->realized, params);
      return simulate(simulator, *policy, {p, s, i, stage}, ref);
    };
    const bool ref_done = resume_ && resume_->at == Cursor{p, s, i, 2};
    const sim::OnlineMetrics ref = ref_done ? *resume_->ref : leg(1, nullptr);
    sim::OnlineMetrics metrics = ref;
    if (!plan.empty()) {
      params.faults = plan;
      metrics = leg(2, &ref);
    }
    done(i, online_trial_metrics(spec_, metrics, ref));
  }
}

/// One regret task: DynamicRR pinned to one fixed arm, or learning.
double Runner::Execution::regret_task(std::size_t p, std::size_t task) {
  const RegretPoint& rp = regret_points_[p];
  const std::size_t per_seed = rp.arms.size() + 1;
  const unsigned seed = seeds_[task / per_seed];
  const std::size_t k = task % per_seed;
  count_trial(p, task);
  const Instance inst = make_instance(seed, rp.setup.online_config);
  sim::OnlineParams params;
  params.horizon_slots = rp.setup.horizon;
  sim::DynamicRrParams dparams = rp.setup.rr;
  if (k < rp.arms.size()) {
    dparams.kappa = 1;
    dparams.threshold_min_mhz = rp.arms[k];
    dparams.threshold_max_mhz = rp.arms[k];
  }
  auto policy = runner_.registry_->make_online(
      "DynamicRR", inst.topo, spec_.alg, dparams,
      util::Rng(seed + spec_.policy_seed_offset));
  sim::OnlineSimulator simulator(inst.topo, inst.requests, inst.realized,
                                 params);
  return simulate(simulator, *policy, {p, task, 0, 1}, nullptr).total_reward;
}

/// Runs one simulation leg at cursor `at`. A checkpointed run saves a
/// generation every `every_slots` slots and restarts the cursor's leg
/// from its snapshot.
sim::OnlineMetrics Runner::Execution::simulate(
    sim::OnlineSimulator& simulator, sim::OnlinePolicy& policy,
    const Cursor& at, const sim::OnlineMetrics* ref) {
  if (!store_) return simulator.run(policy);
  MidSimHook hook;
  hook.every = runner_.checkpoint_.every_slots;
  hook.sink = [&](sim::SimSnapshot snap) { save(at, ref, &snap); };
  const bool in_flight = resume_ && resume_->at == at;
  return simulator.run(policy, &hook, in_flight ? &*resume_->snap : nullptr);
}

/// Counts one exp trial per unit, as it starts. A restored registry has
/// already counted the unit the cursor sits inside.
void Runner::Execution::count_trial(std::size_t p, std::size_t unit) const {
  if (!resumes(p, unit) || resume_->at == Cursor{p, unit, 0, 0}) {
    obs::metrics().exp_trials.add();
  }
}

void Runner::Execution::record(std::size_t p, std::size_t s, std::size_t i,
                               const MetricMap& m) {
  const std::string& label = report_.policies()[i];
  if (runner_.observer_) {
    runner_.observer_({.point_index = p,
                       .point_value = points_[p],
                       .seed = seeds_[s],
                       .policy = &label,
                       .metrics = &m});
  }
  for (const std::string& metric : spec_.metrics) {
    const auto it = m.find(metric);
    if (it != m.end()) report_.add(metric, label, it->second);
  }
}

/// Theorem 3's reduction of a finished point: per seed, the best fixed
/// arm in hindsight and the learned run.
void Runner::Execution::reduce_regret(std::size_t p) {
  const std::size_t arms = regret_points_[p].arms.size();
  for (std::size_t s = 0; s < seeds_.size(); ++s) {
    double best = 0.0;
    for (std::size_t k = 0; k < arms; ++k) {
      best = std::max(best, rewards_[s * (arms + 1) + k]);
    }
    report_.add("reward", "best fixed", best);
    report_.add("reward", "DynamicRR", rewards_[s * (arms + 1) + arms]);
  }
  rewards_.clear();
}

/// Persists the boundary `next` after a completed unit (checkpointed runs
/// only), then passes the --crash-after-units gate.
void Runner::Execution::boundary(const Cursor& next) {
  if (!store_) return;
  save(next, nullptr, nullptr);
  sim::unit_crash_point(++done_units_);
}

void Runner::Execution::save(const Cursor& at, const sim::OnlineMetrics* ref,
                             const sim::SimSnapshot* snap) {
  util::SnapshotWriter w;
  w.str(spec_.name);  // the fingerprint check_fingerprint reads
  w.u8(regret() ? 1 : 0);
  w.i32(static_cast<std::int32_t>(seeds_.size()));
  w.i32(base_horizon_);
  w.i32(runner_.lp_budget_override_);
  w.vec(points_, [&](double v) { w.f64(v); });
  w.vec(report_.metrics(), [&](const std::string& v) { w.str(v); });
  w.vec(report_.policies(), [&](const std::string& v) { w.str(v); });
  report_.save(w);
  w.u64(at.point);
  w.u64(at.unit);
  w.u64(at.policy);
  w.u8(at.stage);
  w.vec(rewards_, [&](double v) { w.f64(v); });
  w.boolean(ref != nullptr);
  if (ref != nullptr) sim::save_online_metrics(w, *ref);
  w.boolean(snap != nullptr);
  if (snap != nullptr) sim::save_sim_snapshot(w, *snap);
  obs::save_metrics_snapshot(obs::registry().snapshot(), w);
  store_->write(w.finish(kCkptMagic, kCkptVersion));
}

/// Throws std::invalid_argument when the checkpoint's fingerprint differs
/// from the current run configuration in `field` terms a user can act on.
void Runner::Execution::check_fingerprint(util::SnapshotReader& r) const {
  const auto mismatch = [&](const char* field) {
    throw std::invalid_argument(
        context_ + "checkpoint was written by a different run configuration (" +
        field + " differs); pass a fresh --checkpoint-dir or matching flags");
  };
  const auto strings = [&] {
    return r.vec<std::string>([&] { return r.str(); });
  };
  if (r.str() != spec_.name) mismatch("scenario name");
  if (r.u8() != (regret() ? 1 : 0)) mismatch("scenario kind");
  if (r.i32() != static_cast<std::int32_t>(seeds_.size())) mismatch("seeds");
  if (r.i32() != base_horizon_) mismatch("horizon");
  if (r.i32() != runner_.lp_budget_override_) mismatch("lp budget");
  if (r.vec<double>([&] { return r.f64(); }) != points_) mismatch("points");
  if (strings() != report_.metrics()) mismatch("metrics");
  if (strings() != report_.policies()) mismatch("policies");
}

/// Walks the generation ladder newest-first and resumes from the first
/// generation that parses and fits this run, restoring the obs registry
/// as a side effect. A generation failing CRC, parse or fit validation
/// logs a structured diagnostic and falls back to the previous one; an
/// empty or fully rejected ladder starts fresh. A fingerprint mismatch is
/// a user error and propagates as std::invalid_argument instead.
void Runner::Execution::load() {
  for (const std::string& path : store_->generations()) {
    try {
      const std::vector<std::uint8_t> bytes =
          sim::CheckpointStore::read_file(path);
      util::SnapshotReader r(bytes, kCkptMagic, kCkptVersion);
      check_fingerprint(r);
      Report report;
      report.load(r);
      Resume c;
      c.at.point = static_cast<std::size_t>(r.u64());
      c.at.unit = static_cast<std::size_t>(r.u64());
      c.at.policy = static_cast<std::size_t>(r.u64());
      c.at.stage = r.u8();
      c.rewards = r.vec<double>([&] { return r.f64(); });
      if (r.boolean()) c.ref = sim::load_online_metrics(r);
      if (r.boolean()) c.snap = sim::load_sim_snapshot(r);
      const obs::MetricsSnapshot ms = obs::load_metrics_snapshot(r);
      r.expect_end();
      if (const char* why = misfit(report, c)) {
        throw util::SnapshotParseError(r.offset(), why);
      }
      report_ = std::move(report);
      rewards_ = std::move(c.rewards);
      resume_ = std::move(c);
      obs::metrics();  // restore() only fills metrics already registered
      obs::registry().restore(ms);
      std::fprintf(stderr, "mecar: resuming from %s\n", path.c_str());
      return;
    } catch (const util::SnapshotParseError& e) {
      std::fprintf(stderr,
                   "mecar: checkpoint %s rejected at byte %zu (%s); "
                   "falling back to the previous generation\n",
                   path.c_str(), e.offset(), e.what());
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr,
                   "mecar: checkpoint %s unreadable (%s); "
                   "falling back to the previous generation\n",
                   path.c_str(), e.what());
    }
  }
  std::fprintf(stderr, "mecar: no usable checkpoint in %s; starting fresh\n",
               store_->dir().c_str());
}

/// Why a parsed generation cannot be this run's state, or nullptr when it
/// fits: the cursor must lie in the run, carry exactly its stage's
/// in-flight state, and agree with the report's points.
const char* Runner::Execution::misfit(const Report& report,
                                      const Resume& c) const {
  const Cursor& at = c.at;
  const bool inside = at.unit > 0 || at.policy > 0 || at.stage > 0;
  if (at.point > points_.size() ||
      (at.point == points_.size()
           ? inside
           : at.unit >= units(at.point) ||
                 at.policy >= (regret() ? 1 : resolved_.size()) ||
                 at.stage > (regret() ? 1 : 2))) {
    return "cursor out of range";
  }
  if (c.rewards.size() != (regret() ? at.unit : 0)) {
    return "completed task rewards do not match the cursor";
  }
  if (c.ref.has_value() != (at.stage == 2) ||
      c.snap.has_value() != (at.stage > 0)) {
    return "in-flight state does not match the cursor stage";
  }
  if (report.scenario_name() != report_.scenario_name() ||
      report.axis_label() != report_.axis_label() ||
      report.metrics() != report_.metrics() ||
      report.policies() != report_.policies()) {
    return "report metrics or policies differ from the run's";
  }
  const std::size_t started = at.point + (inside ? 1 : 0);
  if (report.num_points() != started) {
    return "report point count does not match the cursor";
  }
  for (std::size_t q = 0; q < started; ++q) {
    if (report.points()[q] != points_[q] ||
        report.point_labels()[q] != point_label(spec_.axis, points_[q])) {
      return "report points differ from the run's";
    }
  }
  return nullptr;
}

Runner::Runner(ScenarioSpec spec, const PolicyRegistry& registry)
    : spec_(std::move(spec)), registry_(&registry) {}

void Runner::set_seeds(int seeds) { seeds_override_ = seeds; }

void Runner::set_horizon(int horizon) { horizon_override_ = horizon; }

void Runner::set_lp_budget(int pivots) { lp_budget_override_ = pivots; }

void Runner::set_observer(
    std::function<void(const TrialObservation&)> observer) {
  observer_ = std::move(observer);
}

void Runner::set_checkpoint(CheckpointOptions options) {
  checkpoint_ = std::move(options);
}

Report Runner::run() const { return Execution(*this).run(); }

}  // namespace mecar::exp
