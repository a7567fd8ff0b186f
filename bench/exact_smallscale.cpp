// Theorem 1 / exact-solution study on small instances: the branch-and-bound
// ILP-RM optimum vs Appro (with and without backfill) and Heu.
//
// The paper proposes the exact solution "if the problem size is small";
// this driver reports the empirical approximation ratios against it and
// checks the 1/8 guarantee of Theorem 1 with bare rounding.
//
//   ./bench/exact_smallscale [--seeds=5]
#include <iostream>

#include "core/appro.h"
#include "core/exact.h"
#include "core/heu.h"
#include "exp/instance.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace mecar;
  const util::Cli cli(argc, argv);
  const int seeds = static_cast<int>(cli.get_int_or("seeds", 5));
  const std::vector<int> sizes{6, 9, 12};

  util::Table table({"|R|", "Exact E[reward] ($)", "Appro ($)", "Heu ($)",
                     "bare Appro ($)", "Appro/Exact", "bareAppro/Exact",
                     "B&B nodes", "B&B ms"});
  for (int num_requests : sizes) {
    util::RunningStats exact_s, appro_s, heu_s, bare_s, nodes_s, ms_s;
    for (unsigned seed : exp::bench_seeds(seeds)) {
      exp::InstanceConfig config;
      config.num_requests = num_requests;
      config.num_stations = 4;
      const auto inst = exp::make_instance(seed, config);

      core::ExactOptions exact_options;
      util::Timer timer;
      const auto exact =
          core::run_exact(inst.topo, inst.requests, inst.realized,
                          exact_options);
      ms_s.add(timer.elapsed_ms());
      if (exact.status != lp::SolveStatus::kOptimal) continue;
      exact_s.add(exact.offload.lp_bound);  // ILP expected optimum
      nodes_s.add(static_cast<double>(exact.nodes_explored));

      core::AlgorithmParams params;
      {
        util::Rng rng(seed + 3);
        appro_s.add(core::run_appro(inst.topo, inst.requests, inst.realized,
                                    params, rng)
                        .total_reward());
      }
      {
        util::Rng rng(seed + 3);
        heu_s.add(core::run_heu(inst.topo, inst.requests, inst.realized,
                                params, rng)
                      .total_reward());
      }
      {
        core::AlgorithmParams bare = params;
        bare.backfill = false;
        // Average the randomized rounding over draws for a stable estimate.
        util::RunningStats draws;
        for (int d = 0; d < 16; ++d) {
          util::Rng rng(seed * 100 + static_cast<unsigned>(d));
          draws.add(core::run_appro(inst.topo, inst.requests, inst.realized,
                                    bare, rng)
                        .total_reward());
        }
        bare_s.add(draws.mean());
      }
    }
    table.add_numeric_row(
        std::to_string(num_requests),
        {exact_s.mean(), appro_s.mean(), heu_s.mean(), bare_s.mean(),
         appro_s.mean() / exact_s.mean(), bare_s.mean() / exact_s.mean(),
         nodes_s.mean(), ms_s.mean()},
        3);
  }
  table.print(std::cout,
              "Exact (ILP-RM via branch-and-bound) vs Appro/Heu, small "
              "instances, 4 stations");
  std::cout << "Theorem 1 check: bareAppro/Exact must exceed 1/8 = 0.125 "
               "(realized rewards vs the ILP's expected optimum)\n";
  return 0;
}
