#include "sim/dynamic_rr.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "bandit/epsilon_greedy.h"
#include "bandit/thompson.h"
#include "bandit/ucb1.h"
#include "core/slot_lp.h"
#include "lp/revised_simplex.h"
#include "lp/serialize.h"
#include "obs/catalog.h"
#include "obs/event_trace.h"
#include "util/log.h"
#include "util/snapshot.h"

namespace mecar::sim {

namespace {

lp::RevisedSimplexOptions slot_lp_options(const DynamicRrParams& params) {
  lp::RevisedSimplexOptions opt;
  opt.max_iterations = params.lp_max_iterations;
  return opt;
}

/// Rejects threshold ranges no arm can be played from: a zero threshold
/// makes the per-station quota floor(C / C^th) divide by zero, and
/// non-finite bounds put infinite or NaN arms on the grid.
DynamicRrParams checked(const DynamicRrParams& params) {
  if (!std::isfinite(params.threshold_min_mhz) ||
      !std::isfinite(params.threshold_max_mhz)) {
    throw std::invalid_argument(
        "DynamicRrPolicy: threshold range must be finite");
  }
  if (params.threshold_min_mhz <= 0.0) {
    throw std::invalid_argument(
        "DynamicRrPolicy: threshold_min_mhz must be > 0");
  }
  return params;
}

}  // namespace

DynamicRrPolicy::DynamicRrPolicy(const mec::Topology& topo,
                                 core::AlgorithmParams alg,
                                 DynamicRrParams params, util::Rng rng)
    : topo_(topo),
      alg_(alg),
      params_(checked(params)),
      rng_(rng),
      grid_(params.threshold_min_mhz, params.threshold_max_mhz,
            params.kappa) {
  switch (params_.learner) {
    case ThresholdLearner::kSuccessiveElimination:
      discrete_ = std::make_unique<bandit::SuccessiveElimination>(
          grid_.num_arms(), params_.confidence_range);
      break;
    case ThresholdLearner::kUcb1:
      discrete_ = std::make_unique<bandit::Ucb1>(grid_.num_arms(),
                                                 params_.confidence_range);
      break;
    case ThresholdLearner::kEpsilonGreedy:
      discrete_ = std::make_unique<bandit::EpsilonGreedy>(grid_.num_arms(),
                                                          rng_.split());
      break;
    case ThresholdLearner::kThompson:
      discrete_ = std::make_unique<bandit::ThompsonSampling>(
          grid_.num_arms(), rng_.split(), params_.confidence_range);
      break;
    case ThresholdLearner::kZooming:
      zoom_ = std::make_unique<bandit::ZoomingBandit>(
          params_.threshold_min_mhz, params_.threshold_max_mhz, rng_.split(),
          params_.confidence_range);
      break;
  }
}

DynamicRrPolicy::~DynamicRrPolicy() = default;

const bandit::SuccessiveElimination& DynamicRrPolicy::bandit() const {
  const auto* se =
      dynamic_cast<const bandit::SuccessiveElimination*>(discrete_.get());
  if (se == nullptr) {
    throw std::logic_error(
        "DynamicRrPolicy::bandit(): learner is not successive elimination");
  }
  return *se;
}

double DynamicRrPolicy::next_threshold() {
  if (zoom_) return zoom_->select_point();
  if (auto* se =
          dynamic_cast<bandit::SuccessiveElimination*>(discrete_.get())) {
    played_arm_ = se->num_active() > 1 ? se->select_arm()
                                       : se->best_active_arm();
  } else {
    played_arm_ = discrete_->select_arm();
  }
  return grid_.value(played_arm_);
}

void DynamicRrPolicy::learn(double normalized_reward) {
  if (zoom_) {
    zoom_->update(normalized_reward);
  } else {
    discrete_->update(played_arm_, normalized_reward);
  }
}

SlotDecision DynamicRrPolicy::decide(const SlotView& view) {
  SlotDecision decision;

  // 1. Arm selection, held for window_slots slots (Alg. 3 steps 5-9):
  // successive elimination explores active arms round-robin; once a single
  // arm survives it is exploited.
  if (!window_open_ || window_pos_ >= params_.window_slots) {
    if (window_open_) {
      // Close the previous window.
      const double mean_reward =
          window_reward_ / std::max(1, params_.window_slots);
      const double scale = params_.reward_scale > 0.0
                               ? params_.reward_scale
                               : std::max({adaptive_scale_, mean_reward, 1e-9});
      adaptive_scale_ = scale;
      learn(mean_reward / scale);
    }
    last_threshold_ = next_threshold();
    obs::EventTrace& tr = obs::trace();
    if (tr.enabled()) {
      tr.emit(obs::EventKind::kArmPull, played_arm_, last_threshold_);
    }
    window_open_ = true;
    window_pos_ = 0;
    window_reward_ = 0.0;
  }
  ++window_pos_;

  if (view.pending.empty()) return decision;

  // Under faults the simulator publishes the degraded (overlay) topology
  // through the view; fault-free runs pass the construction-time topology
  // (same object), so behaviour is bit-identical.
  const mec::Topology& topo = view.topo != nullptr ? *view.topo : topo_;

  // 2. Per-station round-robin floor: with threshold C^th, a station of
  // capacity C holds at most floor(C / C^th) concurrent streams so that
  // every stream's share stays >= C^th. Older residents have priority;
  // the newest are preempted (paused) when the realized mix overflows.
  // Brownout-scaled capacities shrink the quota automatically.
  std::vector<int>& allowed = scratch_allowed_;
  allowed.assign(static_cast<std::size_t>(topo.num_stations()), 0);
  for (int bs = 0; bs < topo.num_stations(); ++bs) {
    allowed[static_cast<std::size_t>(bs)] = std::max(
        1, static_cast<int>(std::floor(topo.station(bs).capacity_mhz /
                                       last_threshold_)));
  }

  std::vector<std::vector<int>>& residents = scratch_residents_;
  residents.resize(static_cast<std::size_t>(topo.num_stations()));
  for (std::vector<int>& r : residents) r.clear();
  std::vector<int>& waiting = scratch_waiting_;
  std::vector<int>& displaced = scratch_displaced_;  // needing re-placement
  waiting.clear();
  displaced.clear();
  for (int j : view.pending) {
    const RequestState& st = (*view.states)[static_cast<std::size_t>(j)];
    if (st.phase == Phase::kServed) {
      if (st.station >= 0) {
        residents[static_cast<std::size_t>(st.station)].push_back(j);
      } else {
        displaced.push_back(j);
      }
    } else {
      waiting.push_back(j);
    }
  }
  // The threshold gates ADMISSION: a station holds at most `allowed`
  // in-flight sessions, so every stream's round-robin share stays above
  // C^th. Resident streams always receive service (no systematic
  // preemption — pausing in-progress sessions only strands partial work);
  // newcomers take the quota slots residents left free.
  std::vector<int>& slots_left = scratch_slots_left_;
  slots_left = allowed;
  std::vector<double>& residual_mhz = scratch_residual_mhz_;
  residual_mhz.assign(static_cast<std::size_t>(topo.num_stations()), 0.0);
  for (int bs = 0; bs < topo.num_stations(); ++bs) {
    const auto& ids = residents[static_cast<std::size_t>(bs)];
    double used = 0.0;
    for (int j : ids) {
      decision.active.push_back({j, bs});
      used += (*view.states)[static_cast<std::size_t>(j)].demand_mhz;
    }
    slots_left[static_cast<std::size_t>(bs)] = std::max(
        0, allowed[static_cast<std::size_t>(bs)] -
               static_cast<int>(ids.size()));
    residual_mhz[static_cast<std::size_t>(bs)] =
        std::max(0.0, topo.station(bs).capacity_mhz - used);
    if (!view.is_up(bs)) {
      slots_left[static_cast<std::size_t>(bs)] = 0;
      residual_mhz[static_cast<std::size_t>(bs)] = 0.0;
    }
  }

  // 3. New admissions: the waiting queue enters the LP-PT batch highest
  // expected-reward density first — under saturation the LP cannot see the
  // whole queue, so the batch pre-selection must already favour the
  // requests the reward-maximizing LP would pick. Displaced streams (their
  // serving station died or the backhaul to it partitioned) join the same
  // batch ahead of newcomers: their demand is realized, their reward is
  // already partially earned, and re-placing them through the LP lets the
  // batch trade them off against admissions coherently.
  auto density = [&](int j) {
    const auto& demand = (*view.requests)[static_cast<std::size_t>(j)].demand;
    return demand.expected_reward() / std::max(1e-9, demand.expected_rate());
  };
  std::sort(waiting.begin(), waiting.end(), [&](int a, int b) {
    const double da = density(a);
    const double db = density(b);
    if (da != db) return da > db;
    return a < b;
  });
  const int waiting_cap =
      std::max(0, params_.max_batch - static_cast<int>(displaced.size()));
  if (static_cast<int>(waiting.size()) > waiting_cap) {
    waiting.resize(static_cast<std::size_t>(waiting_cap));
  }
  if (!waiting.empty() || !displaced.empty()) {
    admit_new(topo, view, waiting, displaced, slots_left, residual_mhz,
              decision);
  }
  return decision;
}

void DynamicRrPolicy::admit_new(const mec::Topology& topo,
                                const SlotView& view,
                                const std::vector<int>& waiting,
                                const std::vector<int>& displaced,
                                std::vector<int>& slots_left,
                                std::vector<double>& residual_mhz,
                                SlotDecision& decision) {
  // Batch layout: displaced streams first (re-placement has priority over
  // admission — their reward is partially sunk), then the waiting queue.
  const std::size_t num_displaced = displaced.size();
  std::vector<int>& ids = scratch_ids_;
  ids.assign(displaced.begin(), displaced.end());
  ids.insert(ids.end(), waiting.begin(), waiting.end());

  std::vector<mec::ARRequest>& batch = scratch_batch_;
  batch.clear();
  batch.reserve(ids.size());
  core::SlotLpOptions options;
  options.share_cap_mhz = last_threshold_;
  options.capacity_override_mhz = residual_mhz;
  options.waiting_ms_per_request.reserve(ids.size());
  for (std::size_t b = 0; b < ids.size(); ++b) {
    const int j = ids[b];
    const mec::ARRequest& req = (*view.requests)[static_cast<std::size_t>(j)];
    if (b < num_displaced) {
      // A displaced stream's rate realized at first service, so the LP sees
      // a degenerate single-level distribution at the known demand.
      // Re-placement is not re-admission: the experienced latency locked in
      // at b_j, so the budget constraint must not re-apply — an effectively
      // unbounded budget keeps every reachable station a candidate while
      // partitioned stations stay excluded by their infinite delay.
      const RequestState& st = (*view.states)[static_cast<std::size_t>(j)];
      mec::ARRequest ghost = req;
      ghost.demand = mec::RateRewardDist(
          {{st.demand_mhz / std::max(1e-12, alg_.c_unit), 1.0,
            req.demand.level(st.realized_level).reward}});
      ghost.latency_budget_ms = 1e9;
      batch.push_back(std::move(ghost));
      options.waiting_ms_per_request.push_back(0.0);
      ++degradation_.displaced_seen;
    } else {
      batch.push_back(req);
      options.waiting_ms_per_request.push_back(view.waiting_ms(j));
    }
  }

  std::vector<int>& placement = scratch_placement_;
  placement.assign(ids.size(), -1);
  std::vector<double>& placement_lat = scratch_placement_lat_;
  placement_lat.assign(ids.size(), 0.0);
  const core::SlotLpInstance inst =
      core::build_slot_lp(topo, batch, alg_, options);
  // Degradation-ladder rung of this decision; greedy until an LP solution
  // actually lands.
  int level = 3;
  if (inst.model.num_variables() > 0) {
    // Warm start: consecutive slots under a saturated queue rebuild the
    // same-shaped LP, so the previous slot's optimal basis is a few pivots
    // from this slot's optimum. On a shape change the solver cold-starts.
    ++degradation_.lp_solves;
    // Effective anytime budget: the tighter of the configured pivot
    // budget and a scripted per-slot solver squeeze (sim/fault_plan.h).
    lp::RevisedSimplexOptions ropt = slot_lp_options(params_);
    ropt.budget.max_pivots = params_.lp_pivot_budget;
    if (view.lp_pivot_budget > 0 &&
        (ropt.budget.max_pivots == 0 ||
         view.lp_pivot_budget < ropt.budget.max_pivots)) {
      ropt.budget.max_pivots = view.lp_pivot_budget;
    }
    ropt.budget.deadline_ms = params_.lp_deadline_ms;
    if (view.lp_fault) ropt.inject_nan_at_pivot = 1;

    const lp::SolveResult res =
        lp::RevisedSimplexSolver(ropt).solve(inst.model, warm_basis_);
    // kDeadline with a non-empty x is the anytime contract: the budget ran
    // out but the iterate is primal feasible — good enough to round.
    const bool deadline_usable =
        res.status == lp::SolveStatus::kDeadline && !res.x.empty();
    degradation_.lp_recovery_actions += res.stats.recoveries();
    if (res.status == lp::SolveStatus::kNumericalError) {
      ++degradation_.lp_numerical_errors;
      obs::metrics().lp_numerical_errors.add();
      // The solver already walked its own recovery ladder (refactorize ->
      // cold reset -> dense cross-solve) before reporting this; a stale
      // basis must not leak into the next slot.
      warm_basis_.clear();
    }
    if (res.optimal() || deadline_usable) {
      if (deadline_usable) ++degradation_.lp_deadline_used;
      if (res.warm_started) {
        level = 0;
      } else if (res.stats.recovery_dense_solves > 0) {
        level = 2;  // the dense cross-solve rung produced this solution
      } else {
        level = 1;
      }
      // Deterministic rounding: request -> station with the largest
      // fractional mass sum_l y_jil; among stations within 50% of the best
      // mass (the LP is often indifferent, ER_jil varies little across
      // stations) prefer the lowest (placement latency, id). Mass is summed
      // per station over the entry's own columns, in column order; a column
      // at zero adds no mass, so only the LP's support is visited.
      // Latencies come from the column metadata the builder already
      // computed.
      std::vector<StationMass>& support = scratch_support_;
      for (std::size_t b = 0; b < ids.size(); ++b) {
        support.clear();
        for (int col : inst.request_columns[b]) {
          const double x = res.x[static_cast<std::size_t>(col)];
          if (x == 0.0) continue;
          const core::SlotVar& var = inst.vars[static_cast<std::size_t>(col)];
          auto it = std::find_if(
              support.begin(), support.end(),
              [&](const StationMass& s) { return s.station == var.station; });
          if (it == support.end()) {
            support.push_back(StationMass{var.station, 0.0, var.latency_ms});
            it = support.end() - 1;
          }
          it->mass += x;
        }
        double best_mass = 0.0;
        for (const StationMass& s : support) {
          best_mass = std::max(best_mass, s.mass);
        }
        if (best_mass < 0.25) continue;  // no meaningful LP support
        int best_bs = -1;
        double best_lat = 0.0;
        for (const StationMass& s : support) {
          if (s.mass < 0.5 * best_mass || s.mass < 0.25) continue;
          if (best_bs < 0 || s.latency_ms < best_lat ||
              (s.latency_ms == best_lat && s.station < best_bs)) {
            best_bs = s.station;
            best_lat = s.latency_ms;
          }
        }
        placement[b] = best_bs;
        placement_lat[b] = best_lat;
      }
    } else {
      // Graceful-degradation contract: a non-optimal LP (infeasible model
      // under post-fault capacities, iteration limit, numerical error the
      // recovery ladder could not contain, ...) must never turn into an
      // empty assignment — every batch entry falls through to the
      // per-request greedy path below.
      ++degradation_.lp_fallbacks;
      obs::metrics().sim_lp_fallbacks.add();
      util::log_debug() << "DynamicRR: LP-PT not optimal ("
                        << lp::to_string(res.status) << "), greedy fallback";
    }
  }

  bool placed_any = false;
  for (std::size_t b = 0; b < ids.size(); ++b) {
    const int j = ids[b];
    const bool is_displaced = b < num_displaced;
    const mec::ARRequest& req = (*view.requests)[static_cast<std::size_t>(j)];
    const RequestState& st = (*view.states)[static_cast<std::size_t>(j)];
    const double need_mhz = is_displaced
                                ? st.demand_mhz
                                : req.demand.expected_rate() * alg_.c_unit;
    const double wait = is_displaced ? 0.0 : view.waiting_ms(j);
    // Starvation rescue (the point of the MAB threshold per section VI-B:
    // "avoid the starvation of AR requests"): a request that has already
    // waited a slot is heading toward its deadline (the budget leaves only
    // ~3 slots of slack) and may exceed the round-robin quota — its share
    // dips below C^th briefly — as long as real capacity holds. Displaced
    // streams always get the exemption: their session is in flight and its
    // quota slot was consumed at admission.
    const bool last_chance = is_displaced || wait >= view.slot_ms;
    auto admissible = [&](int bs, double latency_ms) {
      return bs >= 0 && view.is_up(bs) &&
             (slots_left[static_cast<std::size_t>(bs)] > 0 || last_chance) &&
             residual_mhz[static_cast<std::size_t>(bs)] >= need_mhz &&
             (is_displaced || wait + latency_ms <= req.latency_budget_ms);
    };
    int bs = placement[b];
    bool via_lp = bs >= 0;
    if (!admissible(bs, placement_lat[b])) {
      via_lp = false;
      bs = -1;
      if (is_displaced) {
        // Greedy nearest-fit failover over the effective topology; stations
        // the user can no longer reach (partition => infinite delay) are
        // skipped.
        for (int cand : topo.stations_by_distance(req.home_station)) {
          if (!std::isfinite(
                  topo.transmission_delay_ms(req.home_station, cand))) {
            continue;
          }
          if (admissible(cand, 0.0)) {
            bs = cand;
            break;
          }
        }
      } else {
        // The slot LP's stored candidate list for this entry: it was built
        // for the same request at the same wait, so a second station scan
        // would return it again.
        for (const core::CandidateStation& cand : inst.request_candidates[b]) {
          if (admissible(cand.station, cand.latency_ms)) {
            bs = cand.station;
            break;
          }
        }
      }
    }
    if (bs < 0) continue;  // stays pending; may be admitted a later slot
    placed_any = true;
    --slots_left[static_cast<std::size_t>(bs)];
    residual_mhz[static_cast<std::size_t>(bs)] -= need_mhz;
    decision.active.push_back({j, bs});
    if (is_displaced) {
      if (via_lp) {
        ++degradation_.displaced_replaced_lp;
      } else {
        ++degradation_.displaced_replaced_greedy;
      }
    }
  }

  // Rung 4 — carry: even the greedy pass placed nothing, so this slot's
  // decision is the residents alone (already in `decision`). A batch the
  // usable LP declined to place (no capacity anywhere) is rung 0-2 "no
  // room", not a degradation.
  if (level == 3 && !placed_any) level = 4;
  degradation_.last_level = level;
  switch (level) {
    case 0: ++degradation_.slots_warm_lp; break;
    case 1: ++degradation_.slots_cold_lp; break;
    case 2: ++degradation_.slots_dense_lp; break;
    case 3: ++degradation_.slots_greedy; break;
    default: ++degradation_.slots_carry; break;
  }
  obs::metrics().sim_degradation_level.set(level);
}

void DynamicRrPolicy::feedback(const SlotFeedback& fb) {
  // Net value of the slot: collected reward minus the opportunity cost of
  // requests the current threshold starved past their deadline.
  window_reward_ += fb.completed_reward - fb.dropped_expected_reward;
}

void DynamicRrPolicy::save_state(util::SnapshotWriter& w) const {
  for (std::uint64_t s : rng_.state()) w.u64(s);
  w.i32(played_arm_);
  w.boolean(window_open_);
  w.f64(last_threshold_);
  w.f64(adaptive_scale_);
  w.i32(window_pos_);
  w.f64(window_reward_);
  w.i64(degradation_.lp_solves);
  w.i64(degradation_.lp_fallbacks);
  w.i64(degradation_.displaced_seen);
  w.i64(degradation_.displaced_replaced_lp);
  w.i64(degradation_.displaced_replaced_greedy);
  w.i64(degradation_.slots_warm_lp);
  w.i64(degradation_.slots_cold_lp);
  w.i64(degradation_.slots_dense_lp);
  w.i64(degradation_.slots_greedy);
  w.i64(degradation_.slots_carry);
  w.i64(degradation_.lp_deadline_used);
  w.i64(degradation_.lp_recovery_actions);
  w.i64(degradation_.lp_numerical_errors);
  w.i32(degradation_.last_level);
  if (discrete_) {
    discrete_->save(w);
  } else {
    zoom_->save(w);
  }
  lp::save_basis(warm_basis_, w);
}

void DynamicRrPolicy::load_state(util::SnapshotReader& r) {
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& s : state) s = r.u64();
  rng_.set_state(state);
  played_arm_ = r.i32();
  window_open_ = r.boolean();
  last_threshold_ = r.f64();
  adaptive_scale_ = r.f64();
  window_pos_ = r.i32();
  window_reward_ = r.f64();
  degradation_.lp_solves = r.i64();
  degradation_.lp_fallbacks = r.i64();
  degradation_.displaced_seen = r.i64();
  degradation_.displaced_replaced_lp = r.i64();
  degradation_.displaced_replaced_greedy = r.i64();
  degradation_.slots_warm_lp = r.i64();
  degradation_.slots_cold_lp = r.i64();
  degradation_.slots_dense_lp = r.i64();
  degradation_.slots_greedy = r.i64();
  degradation_.slots_carry = r.i64();
  degradation_.lp_deadline_used = r.i64();
  degradation_.lp_recovery_actions = r.i64();
  degradation_.lp_numerical_errors = r.i64();
  degradation_.last_level = r.i32();
  if (discrete_) {
    discrete_->load(r);
  } else {
    zoom_->load(r);
  }
  warm_basis_ = lp::load_basis(r);
}

}  // namespace mecar::sim
