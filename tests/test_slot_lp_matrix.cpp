// Hand-computed verification of the slot LP's matrix: exact coefficients
// of constraints (9), (10) and the LP-PT truncation (23), ER_jil values,
// and the latency filtering of (11). Also checks every capacity row of
// random builds against a brute-force reference, and the candidate lists
// the builders store per request against fresh candidate_stations calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/slot_lp.h"
#include "mec/request.h"
#include "mec/workload.h"
#include "util/rng.h"

namespace mecar::core {
namespace {

/// One isolated station, capacity 2600 MHz -> 2 slots of 1000 MHz.
mec::Topology one_station() {
  std::vector<mec::BaseStation> stations{{0, 2600.0, 1.0, 0.0, 0.0}};
  return mec::Topology(std::move(stations), {});
}

/// Rate 30 w.p. 0.75 (reward 300), rate 90 w.p. 0.25 (reward 900).
mec::ARRequest two_level_request(int id) {
  mec::ARRequest req;
  req.id = id;
  req.home_station = 0;
  req.tasks = mec::ar_pipeline(3);
  req.demand = mec::RateRewardDist({{30.0, 0.75, 300.0}, {90.0, 0.25, 900.0}});
  req.latency_budget_ms = 200.0;
  return req;
}

/// Finds the row whose name matches; -1 if absent.
int find_row(const lp::Model& model, const std::string& name) {
  for (int r = 0; r < model.num_constraints(); ++r) {
    if (model.row(r).name == name) return r;
  }
  return -1;
}

TEST(SlotLpMatrix, ObjectiveIsErJil) {
  const mec::Topology topo = one_station();
  const std::vector<mec::ARRequest> requests{two_level_request(0)};
  const auto inst = build_slot_lp(topo, requests, AlgorithmParams{});
  // Slot 0: remaining 2600 MHz -> cap 130 MB/s: both levels fit,
  //   ER = 0.75*300 + 0.25*900 = 450.
  // Slot 1: remaining 1600 -> cap 80: only rate 30 fits, ER = 225.
  ASSERT_EQ(inst.vars.size(), 2u);
  std::map<int, double> er_by_slot;
  for (std::size_t c = 0; c < inst.vars.size(); ++c) {
    er_by_slot[inst.vars[c].slot] =
        inst.model.variable(static_cast<int>(c)).objective;
  }
  EXPECT_NEAR(er_by_slot.at(0), 450.0, 1e-12);
  EXPECT_NEAR(er_by_slot.at(1), 225.0, 1e-12);
}

TEST(SlotLpMatrix, Constraint10CoefficientsAreTruncatedExpectations) {
  const mec::Topology topo = one_station();
  const std::vector<mec::ARRequest> requests{two_level_request(0)};
  const auto inst = build_slot_lp(topo, requests, AlgorithmParams{});
  // Row "slots_0_1": sum over columns with slot < 1 of
  //   E[min(rho, 1*1000/20 = 50)] * y  <=  2 * 50.
  // E[min(rho, 50)] = 0.75*30 + 0.25*50 = 35.
  const int r1 = find_row(inst.model, "slots_0_1");
  ASSERT_GE(r1, 0);
  const auto& row1 = inst.model.row(r1);
  EXPECT_DOUBLE_EQ(row1.rhs, 100.0);
  ASSERT_EQ(row1.terms.size(), 1u);  // only the slot-0 column
  EXPECT_EQ(inst.vars[static_cast<std::size_t>(row1.terms[0].col)].slot, 0);
  EXPECT_NEAR(row1.terms[0].coeff, 35.0, 1e-12);

  // Row "slots_0_2": cap 100 MB/s -> E[min(rho,100)] = E[rho] = 45;
  // both slot-0 and slot-1 columns appear; rhs = 2*100.
  const int r2 = find_row(inst.model, "slots_0_2");
  ASSERT_GE(r2, 0);
  const auto& row2 = inst.model.row(r2);
  EXPECT_DOUBLE_EQ(row2.rhs, 200.0);
  ASSERT_EQ(row2.terms.size(), 2u);
  for (const auto& term : row2.terms) {
    EXPECT_NEAR(term.coeff, 45.0, 1e-12);
  }
}

TEST(SlotLpMatrix, Constraint23AddsShareCapTruncation) {
  const mec::Topology topo = one_station();
  const std::vector<mec::ARRequest> requests{two_level_request(0)};
  SlotLpOptions options;
  options.share_cap_mhz = 500.0;  // -> 25 MB/s share cap
  const auto inst = build_slot_lp(topo, requests, AlgorithmParams{}, options);
  // All truncations now cap at min(25, l*50): for l=1, cap 25:
  // E[min(rho, 25)] = 25 (both levels exceed 25).
  const int r1 = find_row(inst.model, "slots_0_1");
  ASSERT_GE(r1, 0);
  EXPECT_NEAR(inst.model.row(r1).terms[0].coeff, 25.0, 1e-12);
  // rhs stays 2 * l * C_l / C_unit (the paper keeps the right side).
  EXPECT_DOUBLE_EQ(inst.model.row(r1).rhs, 100.0);
}

TEST(SlotLpMatrix, Constraint9IsPerRequest) {
  const mec::Topology topo = one_station();
  std::vector<mec::ARRequest> requests{two_level_request(0),
                                       two_level_request(1)};
  const auto inst = build_slot_lp(topo, requests, AlgorithmParams{});
  for (int j = 0; j < 2; ++j) {
    const int r = find_row(inst.model, "assign_" + std::to_string(j));
    ASSERT_GE(r, 0);
    const auto& row = inst.model.row(r);
    EXPECT_EQ(row.sense, lp::Sense::kLe);
    EXPECT_DOUBLE_EQ(row.rhs, 1.0);
    EXPECT_EQ(row.terms.size(),
              inst.request_columns[static_cast<std::size_t>(j)].size());
    for (const auto& term : row.terms) {
      EXPECT_DOUBLE_EQ(term.coeff, 1.0);
    }
  }
}

TEST(SlotLpMatrix, LatencyFilterDropsAllColumns) {
  const mec::Topology topo = one_station();
  std::vector<mec::ARRequest> requests{two_level_request(0)};
  requests[0].latency_budget_ms = 1.0;  // processing alone costs 2.4 ms
  const auto inst = build_slot_lp(topo, requests, AlgorithmParams{});
  EXPECT_EQ(inst.model.num_variables(), 0);
  EXPECT_TRUE(inst.request_columns[0].empty());
}

TEST(SlotLpMatrix, IlpRmUsesExpectedDemandRows) {
  const mec::Topology topo = one_station();
  std::vector<mec::ARRequest> requests{two_level_request(0),
                                       two_level_request(1)};
  const auto inst = build_ilp_rm(topo, requests, AlgorithmParams{});
  // One binary per (request, station); objective = full expected reward
  // (both levels fit the 130 MB/s whole-station cap).
  ASSERT_EQ(inst.model.num_variables(), 2);
  for (int c = 0; c < 2; ++c) {
    EXPECT_TRUE(inst.model.variable(c).integral);
    EXPECT_NEAR(inst.model.variable(c).objective, 450.0, 1e-12);
  }
  const int cap = find_row(inst.model, "cap_0");
  ASSERT_GE(cap, 0);
  const auto& row = inst.model.row(cap);
  EXPECT_DOUBLE_EQ(row.rhs, 2600.0);
  for (const auto& term : row.terms) {
    // E[rho] * C_unit = 45 * 20 = 900 MHz.
    EXPECT_NEAR(term.coeff, 900.0, 1e-12);
  }
}

// --- Capacity rows and stored candidate lists on random builds ----------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Rows (10)/(23) as the unbucketed builder defined them: for each
/// (station, l) in that order, scan every column in ascending id order.
struct ReferenceRow {
  std::string name;
  double rhs = 0.0;
  std::vector<lp::Term> terms;
};

std::vector<ReferenceRow> reference_capacity_rows(
    const SlotLpInstance& inst, const std::vector<mec::ARRequest>& requests,
    const AlgorithmParams& params, const SlotLpOptions& options) {
  std::vector<ReferenceRow> rows;
  for (std::size_t bs = 0; bs < inst.slots_per_station.size(); ++bs) {
    for (int l = 1; l <= inst.slots_per_station[bs]; ++l) {
      const double rate_cap = l * params.slot_capacity_mhz / params.c_unit;
      ReferenceRow row;
      row.name = "slots_" + std::to_string(bs) + "_" + std::to_string(l);
      row.rhs = 2.0 * rate_cap;
      for (std::size_t col = 0; col < inst.vars.size(); ++col) {
        const SlotVar& var = inst.vars[col];
        if (var.station != static_cast<int>(bs) || var.slot >= l) continue;
        double cap = rate_cap;
        if (options.share_cap_mhz) {
          cap = std::min(cap, *options.share_cap_mhz / params.c_unit);
        }
        const double truncated =
            requests[static_cast<std::size_t>(var.request_index)]
                .demand.expected_truncated_rate(cap);
        if (truncated > 0.0) {
          row.terms.push_back(lp::Term{static_cast<int>(col), truncated});
        }
      }
      if (!row.terms.empty()) rows.push_back(std::move(row));
    }
  }
  return rows;
}

void expect_same_candidates(const std::vector<CandidateStation>& got,
                            const std::vector<CandidateStation>& want,
                            const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].station, want[k].station) << where << " rank " << k;
    EXPECT_EQ(bits(got[k].latency_ms), bits(want[k].latency_ms))
        << where << " rank " << k;
  }
}

struct RandomBatch {
  mec::Topology topo;
  std::vector<mec::ARRequest> requests;
};

RandomBatch random_batch(unsigned seed, int stations, int requests) {
  util::Rng rng(seed);
  mec::TopologyParams tparams;
  tparams.num_stations = stations;
  mec::Topology topo = mec::generate_topology(tparams, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = requests;
  auto reqs = mec::generate_requests(wparams, topo, rng);
  return {std::move(topo), std::move(reqs)};
}

TEST(SlotLpMatrix, CapacityRowsMatchBruteForceReference) {
  for (const unsigned seed : {2u, 19u, 77u}) {
    const RandomBatch rb = random_batch(seed, 15, 30);
    util::Rng rng(seed + 1000);
    std::vector<double> residual;
    for (const mec::BaseStation& bs : rb.topo.stations()) {
      residual.push_back(bs.capacity_mhz * rng.uniform(0.0, 1.0));
    }
    for (const int limit : {10, 0}) {
      for (const bool share : {false, true}) {
        for (const bool override_caps : {false, true}) {
          AlgorithmParams params;
          params.max_candidate_stations = limit;
          SlotLpOptions options;
          if (share) options.share_cap_mhz = 700.0;
          if (override_caps) options.capacity_override_mhz = residual;
          for (std::size_t j = 0; j < rb.requests.size(); ++j) {
            options.waiting_ms_per_request.push_back(
                static_cast<double>(j % 4) * 20.0);
          }
          const SlotLpInstance inst =
              build_slot_lp(rb.topo, rb.requests, params, options);
          const std::string where =
              "seed " + std::to_string(seed) + " limit " +
              std::to_string(limit) + " share " + std::to_string(share) +
              " override " + std::to_string(override_caps);
          const auto want =
              reference_capacity_rows(inst, rb.requests, params, options);
          std::vector<int> got;
          for (int r = 0; r < inst.model.num_constraints(); ++r) {
            if (inst.model.row(r).name.rfind("slots_", 0) == 0) {
              got.push_back(r);
            }
          }
          ASSERT_EQ(got.size(), want.size()) << where;
          ASSERT_FALSE(want.empty()) << where;
          for (std::size_t k = 0; k < want.size(); ++k) {
            const lp::Row& row = inst.model.row(got[k]);
            EXPECT_EQ(row.name, want[k].name) << where;
            EXPECT_EQ(row.sense, lp::Sense::kLe) << where;
            EXPECT_EQ(bits(row.rhs), bits(want[k].rhs)) << where;
            ASSERT_EQ(row.terms.size(), want[k].terms.size())
                << where << " " << row.name;
            for (std::size_t t = 0; t < row.terms.size(); ++t) {
              EXPECT_EQ(row.terms[t].col, want[k].terms[t].col)
                  << where << " " << row.name;
              EXPECT_EQ(bits(row.terms[t].coeff),
                        bits(want[k].terms[t].coeff))
                  << where << " " << row.name;
            }
          }
          // The capacity rows follow the assignment rows, so they are the
          // model's last rows.
          ASSERT_FALSE(got.empty());
          EXPECT_EQ(got.back(), inst.model.num_constraints() - 1) << where;
        }
      }
    }
  }
}

TEST(SlotLpMatrix, StoredCandidatesEqualFreshCalls) {
  const RandomBatch rb = random_batch(31, 20, 25);
  for (const int limit : {10, 3, 0}) {
    AlgorithmParams params;
    params.max_candidate_stations = limit;
    SlotLpOptions options;
    options.share_cap_mhz = 900.0;
    for (std::size_t j = 0; j < rb.requests.size(); ++j) {
      options.waiting_ms_per_request.push_back(static_cast<double>(j) * 7.0);
    }
    const SlotLpInstance inst =
        build_slot_lp(rb.topo, rb.requests, params, options);
    ASSERT_EQ(inst.request_candidates.size(), rb.requests.size());
    for (std::size_t j = 0; j < rb.requests.size(); ++j) {
      const auto& cands = inst.request_candidates[j];
      expect_same_candidates(
          cands,
          candidate_stations(rb.topo, rb.requests[j], params,
                             options.waiting_ms_per_request[j]),
          "slot LP limit " + std::to_string(limit) + " request " +
              std::to_string(j));
      // Every column of the request is drawn from its list.
      for (int col : inst.request_columns[j]) {
        const SlotVar& var = inst.vars[static_cast<std::size_t>(col)];
        const auto it = std::find_if(
            cands.begin(), cands.end(),
            [&](const CandidateStation& c) { return c.station == var.station; });
        ASSERT_NE(it, cands.end());
        EXPECT_EQ(bits(it->latency_ms), bits(var.latency_ms));
      }
    }
    const SlotLpInstance ilp = build_ilp_rm(rb.topo, rb.requests, params);
    ASSERT_EQ(ilp.request_candidates.size(), rb.requests.size());
    for (std::size_t j = 0; j < rb.requests.size(); ++j) {
      expect_same_candidates(
          ilp.request_candidates[j],
          candidate_stations(rb.topo, rb.requests[j], params),
          "ILP-RM request " + std::to_string(j));
    }
  }
}

}  // namespace
}  // namespace mecar::core
