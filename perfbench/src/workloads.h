// The benchmark's three workloads. Each runs in its own process, against
// the library's public API at its defaults, and hands back every metric
// it measured plus the output checks it made.
//
//   steady  1000 stations, 2x10^4 requests uniform over all 2000 slots.
//   burst   1000 stations, 10^5 requests packed into the first 400 of
//           2000 slots (bench/scale's front-loaded shape).
//   paper   the eight paper scenarios (copied into perfbench/scenarios)
//           through exp::Runner.
//
// Untraced, a workload repeats its measured phase until `seconds` are
// used (at least twice) and reports medians. Traced, it runs the measured
// phase once untraced and once with spans on, then probes core and lp on
// the workload's own requests, and reports the per-layer figures.
#pragma once

#include <string>

#include "harness.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  unsigned seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string scenario_dir;  // the embedded paper specs
  std::string trace_out;     // where a traced run writes its spans
};

/// `steady` and `burst`.
Outcome run_online(const RunArgs& args);
/// `paper`.
Outcome run_paper(const RunArgs& args);

}  // namespace perfbench
