// Checks of the benchmark's own measuring code, run before every workload:
//   * slot percentiles are exact over raw samples and equal
//     util::percentile on known inputs;
//   * busy-slot classification and slot intervals are right on a tiny
//     hand-built instance;
//   * a wrapped run and a bare run give identical OnlineMetrics, and the
//     wrapping registry leaves exp::Runner's trial outputs unchanged.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Returns one line per failed check (empty = all passed).
std::vector<std::string> self_test();

}  // namespace perfbench
