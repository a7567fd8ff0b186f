// mecar_perf: one benchmark workload per process.
//
//   mecar_perf --workload steady|burst|paper --seed N --seconds S
//              --trace 0|1 --scenarios DIR [--trace-out FILE]
//
// Runs the self-test first, then the workload, and prints a metric table
// followed by one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 (after printing every failed check to stderr) when a self-test
// or output check fails. perfbench/run.py builds this binary and passes
// the arguments through.
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"
#include "self_test.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::cerr << "mecar_perf: " << why
            << "\nusage: mecar_perf --workload steady|burst|paper --seed N "
               "--seconds S --trace 0|1 --scenarios DIR [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The workload's process environment: two worker threads (headroom on a
  // shared 4-vCPU host) and the library's default slot loop.
  setenv("MECAR_THREADS", "2", 1);
  unsetenv("MECAR_SHARDS");
  perfbench::now_ms();  // fixes the time origin

  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--scenarios") {
      args.scenario_dir = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  const bool online = args.workload == "steady" || args.workload == "burst";
  if (!online && args.workload != "paper") return usage("unknown workload");
  if (args.scenario_dir.empty()) return usage("--scenarios is required");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    const std::vector<std::string> broken = perfbench::self_test();
    if (!broken.empty()) {
      for (const std::string& what : broken) {
        std::cerr << "self-test failed: " << what << '\n';
      }
      return 1;
    }
    const perfbench::Outcome out =
        online ? perfbench::run_online(args) : perfbench::run_paper(args);
    for (const std::string& what : out.failures) {
      std::cerr << "check failed: " << what << '\n';
    }
    return perfbench::print_outcome(std::cout, out) ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "mecar_perf: " << e.what() << '\n';
    return 1;
  }
}
