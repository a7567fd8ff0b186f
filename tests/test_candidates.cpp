// Differential test of core::candidate_stations against a plain reference:
// compute every station's placement latency, keep those within the budget,
// std::sort by (latency, id) and truncate. The production scan keeps an
// exact top-k in one pass, so both must return the same station ids with
// the same latency bits on every input: random Waxman topologies, every
// truncation regime, exact latency ties, cut links and bad home stations.
//
// core::CandidateMemo is checked the same way against fresh
// candidate_stations calls: one memo per topology answers every budget,
// wait and limit, is cleared after an overlay rebuild, and the
// simulator's memo (read by every online policy through the SlotView)
// follows fault epochs and mobility.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/slot_lp.h"
#include "mec/request.h"
#include "mec/topology_overlay.h"
#include "mec/workload.h"
#include "sim/dynamic_rr.h"
#include "sim/fault_plan.h"
#include "sim/online_sim.h"
#include "util/rng.h"

namespace mecar::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<CandidateStation> reference_candidates(
    const mec::Topology& topo, const mec::ARRequest& req,
    const AlgorithmParams& params, double waiting_ms) {
  std::vector<CandidateStation> all;
  for (int bs = 0; bs < topo.num_stations(); ++bs) {
    const double lat = mec::placement_latency_ms(topo, req, bs);
    if (waiting_ms + lat <= req.latency_budget_ms) all.push_back({bs, lat});
  }
  std::sort(all.begin(), all.end(),
            [](const CandidateStation& a, const CandidateStation& b) {
              if (a.latency_ms != b.latency_ms) {
                return a.latency_ms < b.latency_ms;
              }
              return a.station < b.station;
            });
  if (params.max_candidate_stations > 0 &&
      static_cast<int>(all.size()) > params.max_candidate_stations) {
    all.resize(static_cast<std::size_t>(params.max_candidate_stations));
  }
  return all;
}

/// Runs both implementations and compares ids and latency bits.
void expect_same(const mec::Topology& topo, const mec::ARRequest& req,
                 const AlgorithmParams& params, double waiting_ms,
                 const std::string& where) {
  const auto want = reference_candidates(topo, req, params, waiting_ms);
  const auto got = candidate_stations(topo, req, params, waiting_ms);
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].station, want[k].station) << where << " rank " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k].latency_ms),
              std::bit_cast<std::uint64_t>(want[k].latency_ms))
        << where << " rank " << k;
  }
}

AlgorithmParams unlimited() {
  AlgorithmParams params;
  params.max_candidate_stations = 0;
  return params;
}

/// Every truncation regime the contract names, including none (0) and a
/// limit above the station count.
std::vector<int> limits_for(const mec::Topology& topo) {
  return {0, 1, 3, 10, topo.num_stations() + 5};
}

TEST(CandidateStationsDiff, MatchesSortAndTruncateOnWaxmanTopologies) {
  for (const unsigned seed : {1u, 7u, 23u, 101u}) {
    for (const int n : {1, 5, 20, 60}) {
      util::Rng rng(seed);
      mec::TopologyParams tparams;
      tparams.num_stations = n;
      const mec::Topology topo = mec::generate_topology(tparams, rng);
      mec::WorkloadParams wparams;
      wparams.num_requests = 12;
      const auto requests = mec::generate_requests(wparams, topo, rng);
      for (mec::ARRequest req : requests) {
        for (const double budget : {15.0, 40.0, 120.0, 200.0, kInf}) {
          req.latency_budget_ms = budget;
          for (const int limit : limits_for(topo)) {
            AlgorithmParams params;
            params.max_candidate_stations = limit;
            for (const double wait : {0.0, 5.0, 30.0, 150.0}) {
              expect_same(topo, req, params, wait,
                          "seed " + std::to_string(seed) + " n " +
                              std::to_string(n) + " req " +
                              std::to_string(req.id) + " budget " +
                              std::to_string(budget) + " limit " +
                              std::to_string(limit) + " wait " +
                              std::to_string(wait));
            }
          }
        }
      }
    }
  }
}

TEST(CandidateStationsDiff, ExactLatencyTiesBreakById) {
  // A star with identical spokes and identical processing speeds: every
  // leaf has the same latency from the hub, so only the id orders them.
  // The leaves are listed in descending id order of their link, and the
  // proc speeds alternate between two values to make two tie classes.
  const int leaves = 12;
  std::vector<mec::BaseStation> stations;
  stations.push_back({0, 3000.0, 1.0, 0.0, 0.0});
  for (int i = 1; i <= leaves; ++i) {
    stations.push_back({i, 3000.0, i % 2 == 0 ? 1.0 : 1.5, 0.0, 0.0});
  }
  std::vector<mec::Link> links;
  for (int i = leaves; i >= 1; --i) links.push_back({0, i, 4.0});
  const mec::Topology topo(std::move(stations), std::move(links));

  mec::ARRequest req;
  req.home_station = 0;
  req.tasks = mec::ar_pipeline(4);
  for (const int home : {0, 3}) {
    req.home_station = home;
    for (const double budget : {10.0, 14.0, 20.0, 200.0}) {
      req.latency_budget_ms = budget;
      for (const int limit : limits_for(topo)) {
        AlgorithmParams params;
        params.max_candidate_stations = limit;
        expect_same(topo, req, params, 0.0,
                    "home " + std::to_string(home) + " budget " +
                        std::to_string(budget) + " limit " +
                        std::to_string(limit));
      }
    }
  }
  // The ties really occur: with no truncation the hub's even leaves share
  // one latency and appear in ascending id order.
  req.home_station = 0;
  req.latency_budget_ms = 200.0;
  const auto all = candidate_stations(topo, req, unlimited());
  ASSERT_GE(all.size(), 3u);
  EXPECT_EQ(all[1].latency_ms, all[2].latency_ms);
  EXPECT_LT(all[1].station, all[2].station);
}

TEST(CandidateStationsDiff, CutLinkOverlayExcludesThePartition) {
  // A line 0 - 1 - 2 - 3 - 4; cutting link (1, 2) puts stations 2..4 at
  // infinite delay from home 0.
  std::vector<mec::BaseStation> stations;
  for (int i = 0; i < 5; ++i) {
    stations.push_back({i, 3000.0, 1.0 + 0.25 * i, 0.0, 0.0});
  }
  std::vector<mec::Link> links{{0, 1, 2.0}, {1, 2, 2.0}, {2, 3, 2.0},
                               {3, 4, 2.0}};
  const mec::Topology base(std::move(stations), std::move(links));
  mec::TopologyOverlay overlay(base);
  mec::TopologyPerturbation cut;
  cut.link_down = {0, 1, 0, 0};
  ASSERT_TRUE(overlay.apply(cut));
  const mec::Topology& topo = overlay.effective();
  ASSERT_EQ(topo.transmission_delay_ms(0, 3), kInf);

  mec::ARRequest req;
  req.tasks = mec::ar_pipeline(3);
  for (const int home : {0, 1, 2, 4}) {
    req.home_station = home;
    // An infinite budget admits the cut-off stations at infinite latency,
    // where only the id orders them.
    for (const double budget : {30.0, 1e9, kInf}) {
      req.latency_budget_ms = budget;
      for (const int limit : limits_for(topo)) {
        AlgorithmParams params;
        params.max_candidate_stations = limit;
        for (const double wait : {0.0, 10.0}) {
          expect_same(topo, req, params, wait,
                      "home " + std::to_string(home) + " budget " +
                          std::to_string(budget) + " limit " +
                          std::to_string(limit));
        }
      }
    }
  }
  req.home_station = 0;
  req.latency_budget_ms = 1e9;
  for (const CandidateStation& c :
       candidate_stations(topo, req, unlimited())) {
    EXPECT_LT(c.station, 2) << "a partitioned station became a candidate";
  }
}

TEST(CandidateStationsDiff, BadHomeStationThrowsOutOfRange) {
  util::Rng rng(5);
  mec::TopologyParams tparams;
  tparams.num_stations = 6;
  const mec::Topology topo = mec::generate_topology(tparams, rng);
  mec::ARRequest req;
  req.tasks = mec::ar_pipeline(2);
  for (const int home : {-1, 6, 1000}) {
    req.home_station = home;
    EXPECT_THROW((void)candidate_stations(topo, req, AlgorithmParams{}),
                 std::out_of_range)
        << "home " << home;
    EXPECT_THROW((void)topo.delays_from(home), std::out_of_range);
  }
}

/// True when `got` holds the stations of `want` with the same latency bits.
bool same_list(std::span<const CandidateStation> got,
               const std::vector<CandidateStation>& want) {
  return std::equal(got.begin(), got.end(), want.begin(), want.end(),
                    [](const CandidateStation& a, const CandidateStation& b) {
                      return a.station == b.station &&
                             std::bit_cast<std::uint64_t>(a.latency_ms) ==
                                 std::bit_cast<std::uint64_t>(b.latency_ms);
                    });
}

/// Looks `req` up in `memo` and compares it with a fresh scan.
void expect_memo_matches(CandidateMemo& memo, const mec::Topology& topo,
                         const mec::ARRequest& req,
                         const AlgorithmParams& params, double waiting_ms,
                         const std::string& where) {
  const auto want = candidate_stations(topo, req, params, waiting_ms);
  const auto got = memo.lookup(topo, req, params, waiting_ms);
  ASSERT_EQ(got.size(), want.size()) << where;
  EXPECT_TRUE(same_list(got, want)) << where;
}

constexpr double kSlotMs = 50.0;

/// A negative wait, no wait, and every multiple of the slot length up to
/// two slots past the budget (eight slots for a budget beyond reach).
std::vector<double> waits_for(double budget_ms) {
  std::vector<double> waits{-kSlotMs, 0.0};
  const double last =
      budget_ms < 1e6 ? budget_ms + 2.0 * kSlotMs : 8.0 * kSlotMs;
  for (double w = kSlotMs; w <= last; w += kSlotMs) waits.push_back(w);
  return waits;
}

TEST(CandidateMemo, MatchesFreshScansOnWaxmanTopologies) {
  for (const unsigned seed : {1u, 7u, 23u, 101u}) {
    for (const int n : {1, 5, 20, 60}) {
      util::Rng rng(seed);
      mec::TopologyParams tparams;
      tparams.num_stations = n;
      const mec::Topology topo = mec::generate_topology(tparams, rng);
      mec::WorkloadParams wparams;
      wparams.num_requests = 12;
      const auto requests = mec::generate_requests(wparams, topo, rng);
      // One memo for the whole topology: every budget, wait and limit of
      // every request reads through it.
      CandidateMemo memo;
      for (mec::ARRequest req : requests) {
        const double generated = req.latency_budget_ms;
        for (const double budget : {generated, 40.0, 120.0, 1e9, kInf}) {
          req.latency_budget_ms = budget;
          for (const int limit : limits_for(topo)) {
            AlgorithmParams params;
            params.max_candidate_stations = limit;
            for (const double wait : waits_for(budget)) {
              expect_memo_matches(
                  memo, topo, req, params, wait,
                  "seed " + std::to_string(seed) + " n " + std::to_string(n) +
                      " req " + std::to_string(req.id) + " budget " +
                      std::to_string(budget) + " limit " +
                      std::to_string(limit) + " wait " + std::to_string(wait));
            }
          }
        }
      }
      // Budgets and waits never enter the key: one list per (home,
      // weight, limit), and limits at or above |BS| share one list.
      EXPECT_LE(memo.size(), requests.size() * 4) << "seed " << seed;
    }
  }
}

TEST(CandidateMemo, ExactLatencyTiesShareOneList) {
  // The star of ExactLatencyTiesBreakById: two classes of equal latencies
  // that only the id orders.
  const int leaves = 12;
  std::vector<mec::BaseStation> stations;
  stations.push_back({0, 3000.0, 1.0, 0.0, 0.0});
  for (int i = 1; i <= leaves; ++i) {
    stations.push_back({i, 3000.0, i % 2 == 0 ? 1.0 : 1.5, 0.0, 0.0});
  }
  std::vector<mec::Link> links;
  for (int i = leaves; i >= 1; --i) links.push_back({0, i, 4.0});
  const mec::Topology topo(std::move(stations), std::move(links));

  mec::ARRequest req;
  req.tasks = mec::ar_pipeline(4);
  for (const int home : {0, 3}) {
    req.home_station = home;
    CandidateMemo memo;
    for (const double budget : {10.0, 14.0, 20.0, 200.0, 1e9, kInf}) {
      req.latency_budget_ms = budget;
      for (const double wait : {-5.0, 0.0, 4.0, 6.0}) {
        expect_memo_matches(memo, topo, req, AlgorithmParams{}, wait,
                            "home " + std::to_string(home) + " budget " +
                                std::to_string(budget) + " wait " +
                                std::to_string(wait));
      }
    }
    EXPECT_EQ(memo.size(), 1u) << "home " << home;
  }
}

TEST(CandidateMemo, ClearAfterCutLinkRebuildServesTheNewTopology) {
  // The line 0 - 1 - 2 - 3 - 4 of CutLinkOverlayExcludesThePartition.
  std::vector<mec::BaseStation> stations;
  for (int i = 0; i < 5; ++i) {
    stations.push_back({i, 3000.0, 1.0 + 0.25 * i, 0.0, 0.0});
  }
  std::vector<mec::Link> links{{0, 1, 2.0}, {1, 2, 2.0}, {2, 3, 2.0},
                               {3, 4, 2.0}};
  const mec::Topology base(std::move(stations), std::move(links));
  mec::TopologyOverlay overlay(base);
  const mec::Topology& topo = overlay.effective();

  mec::ARRequest req;
  req.tasks = mec::ar_pipeline(3);
  CandidateMemo memo;
  const auto check_all = [&](const std::string& epoch) {
    for (const int home : {0, 1, 2, 4}) {
      req.home_station = home;
      for (const double budget : {30.0, 1e9, kInf}) {
        req.latency_budget_ms = budget;
        for (const int limit : limits_for(topo)) {
          AlgorithmParams params;
          params.max_candidate_stations = limit;
          for (const double wait : {-10.0, 0.0, 10.0}) {
            expect_memo_matches(memo, topo, req, params, wait,
                                epoch + " home " + std::to_string(home) +
                                    " budget " + std::to_string(budget) +
                                    " limit " + std::to_string(limit));
          }
        }
      }
    }
  };
  check_all("healthy");
  const std::size_t healthy_lists = memo.size();
  ASSERT_GT(healthy_lists, 0u);

  mec::TopologyPerturbation cut;
  cut.link_down = {0, 1, 0, 0};
  ASSERT_TRUE(overlay.apply(cut));
  // The cut changes lists the memo holds: without the clear it would
  // serve the healthy delays.
  req.home_station = 0;
  req.latency_budget_ms = 1e9;
  EXPECT_FALSE(same_list(memo.lookup(topo, req, unlimited()),
                         candidate_stations(topo, req, unlimited())));
  memo.clear();
  EXPECT_EQ(memo.size(), 0u);
  check_all("cut");

  ASSERT_TRUE(overlay.apply(mec::TopologyPerturbation{}));
  memo.clear();
  check_all("restored");
  EXPECT_EQ(memo.size(), healthy_lists);
}

TEST(CandidateMemo, BadHomeStationThrowsAndCachesNothing) {
  util::Rng rng(5);
  mec::TopologyParams tparams;
  tparams.num_stations = 6;
  const mec::Topology topo = mec::generate_topology(tparams, rng);
  mec::ARRequest req;
  req.tasks = mec::ar_pipeline(2);
  CandidateMemo memo;
  for (const int home : {-1, 6, 1000}) {
    req.home_station = home;
    EXPECT_THROW((void)memo.lookup(topo, req, AlgorithmParams{}),
                 std::out_of_range)
        << "home " << home;
    EXPECT_EQ(memo.size(), 0u) << "home " << home;
  }
  req.home_station = 2;
  expect_memo_matches(memo, topo, req, AlgorithmParams{}, 0.0, "home 2");
  EXPECT_EQ(memo.size(), 1u);
}

TEST(CandidateMemo, HandBuiltViewWithoutAMemoScansAfresh) {
  util::Rng rng(9);
  mec::TopologyParams tparams;
  tparams.num_stations = 15;
  const mec::Topology topo = mec::generate_topology(tparams, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = 10;
  wparams.horizon_slots = 4;
  const auto requests = mec::generate_requests(wparams, topo, rng);
  const std::vector<sim::RequestState> states(requests.size());
  sim::SlotView view;
  view.slot = 3;
  view.requests = &requests;
  view.states = &states;
  EXPECT_THROW((void)view.candidates(0, AlgorithmParams{}), std::logic_error);

  mec::TopologyOverlay overlay(topo);
  view.topo = &overlay.effective();
  const auto check_all = [&](const std::string& epoch) {
    for (int j = 0; j < static_cast<int>(requests.size()); ++j) {
      for (const int limit : limits_for(topo)) {
        AlgorithmParams params;
        params.max_candidate_stations = limit;
        const auto want = candidate_stations(
            *view.topo, requests[static_cast<std::size_t>(j)], params,
            view.waiting_ms(j));
        EXPECT_TRUE(same_list(view.candidates(j, params), want))
            << epoch << " request " << j << " limit " << limit;
      }
    }
  };
  check_all("healthy");
  // With no memo there is nothing to clear: a rebuilt topology is read
  // afresh.
  mec::TopologyPerturbation cut;
  cut.link_down.assign(topo.links().size(), 0);
  for (std::size_t l = 0; l < cut.link_down.size(); l += 2) {
    cut.link_down[l] = 1;
  }
  ASSERT_TRUE(overlay.apply(cut));
  check_all("cut");
}

/// Wraps DynamicRR, whose slot LP reads the run's memo, and checks every
/// list the view returns for a pending request against a fresh scan of
/// the view's topology, at three limits and in the displaced-entry form
/// (zero wait, budget 1e9). A second memo that is never cleared counts
/// the lookups a run without invalidation would have answered wrongly.
class CheckingPolicy final : public sim::OnlinePolicy {
 public:
  explicit CheckingPolicy(const mec::Topology& topo)
      : inner_(topo, AlgorithmParams{}, sim::DynamicRrParams{}, util::Rng(3)) {}

  sim::SlotDecision decide(const sim::SlotView& view) override {
    for (const int j : view.pending) {
      const mec::ARRequest& req =
          (*view.requests)[static_cast<std::size_t>(j)];
      mec::ARRequest ghost = req;
      ghost.latency_budget_ms = 1e9;
      for (const int limit : {0, 3, 10}) {
        AlgorithmParams params;
        params.max_candidate_stations = limit;
        const double wait = view.waiting_ms(j);
        const auto want = candidate_stations(*view.topo, req, params, wait);
        ++checked;
        if (!same_list(view.candidates(j, params), want)) ++mismatches;
        if (!same_list(never_cleared_.lookup(*view.topo, req, params, wait),
                       want)) {
          ++stale;
        }
        if (!same_list(view.candidate_memo->lookup(*view.topo, ghost, params),
                       candidate_stations(*view.topo, ghost, params))) {
          ++mismatches;
        }
      }
    }
    return inner_.decide(view);
  }
  void feedback(const sim::SlotFeedback& fb) override { inner_.feedback(fb); }
  std::string name() const override { return "checking"; }

  long long checked = 0;
  long long mismatches = 0;
  long long stale = 0;

 private:
  sim::DynamicRrPolicy inner_;
  CandidateMemo never_cleared_;
};

TEST(CandidateMemo, SimulatorMemoFollowsFaultEpochsAndMobility) {
  util::Rng rng(41);
  mec::TopologyParams tparams;
  tparams.num_stations = 14;
  const mec::Topology topo = mec::generate_topology(tparams, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = 160;
  wparams.horizon_slots = 240;
  const auto requests = mec::generate_requests(wparams, topo, rng);
  const auto realized = realize_demand_levels(requests, rng);

  sim::OnlineParams params;
  params.horizon_slots = 240;
  sim::ChaosParams chaos;
  chaos.intensity = 3.0;
  chaos.p_link_affected = 1.0;
  params.faults = sim::generate_chaos(topo, chaos, params.horizon_slots, rng);
  ASSERT_FALSE(params.faults.link_outages.empty() &&
               params.faults.link_degradations.empty());
  for (int j = 0; j < 40; ++j) {
    params.mobility.push_back(
        {j * 4, 10 + j * 5, (j * 5) % topo.num_stations()});
  }

  sim::OnlineSimulator simulator(topo, requests, realized, params);
  CheckingPolicy policy(topo);
  const sim::OnlineMetrics m = simulator.run(policy);
  EXPECT_GT(m.resilience.fault_epochs, 1);
  EXPECT_GT(m.handovers, 0);
  EXPECT_GT(policy.checked, 1000);
  EXPECT_EQ(policy.mismatches, 0);
  // The plan really changes lists the run reads, so a memo that skipped
  // the clear on rebuild would be caught.
  EXPECT_GT(policy.stale, 0);
}

TEST(MinPlacementLatency, EqualsTheMinimumOverEveryUpStation) {
  util::Rng rng(17);
  mec::TopologyParams tparams;
  tparams.num_stations = 25;
  const mec::Topology topo = mec::generate_topology(tparams, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = 10;
  const auto requests = mec::generate_requests(wparams, topo, rng);
  std::vector<char> up(25, 1);
  for (std::size_t bs = 0; bs < up.size(); bs += 3) up[bs] = 0;
  for (const mec::ARRequest& req : requests) {
    double all = kInf;
    double up_only = kInf;
    for (int bs = 0; bs < topo.num_stations(); ++bs) {
      const double lat = mec::placement_latency_ms(topo, req, bs);
      all = std::min(all, lat);
      if (up[static_cast<std::size_t>(bs)] != 0) up_only = std::min(up_only, lat);
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  mec::min_placement_latency_ms(topo, req)),
              std::bit_cast<std::uint64_t>(all));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  mec::min_placement_latency_ms(topo, req, up)),
              std::bit_cast<std::uint64_t>(up_only));
  }
  const std::vector<char> none(25, 0);
  EXPECT_EQ(mec::min_placement_latency_ms(topo, requests[0], none), kInf);
  const std::vector<char> short_mask(3, 1);
  EXPECT_THROW((void)mec::min_placement_latency_ms(topo, requests[0],
                                                    short_mask),
               std::invalid_argument);
}

}  // namespace
}  // namespace mecar::core
