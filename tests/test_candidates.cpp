// Differential test of core::candidate_stations against a plain reference:
// compute every station's placement latency, keep those within the budget,
// std::sort by (latency, id) and truncate. The production scan keeps an
// exact top-k in one pass, so both must return the same station ids with
// the same latency bits on every input: random Waxman topologies, every
// truncation regime, exact latency ties, cut links and bad home stations.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/slot_lp.h"
#include "mec/request.h"
#include "mec/topology_overlay.h"
#include "mec/workload.h"
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
