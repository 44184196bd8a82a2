// The workloads. Each runs set-up, the timed phase and its correctness
// gates, then prints the result line; the return value is the exit code.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans (empty: keep them in memory only).
  std::string trace_out;
};

/// cold-k8: one client, core::peek_ksp at K = 8 over distinct pairs of four
/// suite graphs.
int run_cold(const RunArgs& args);
/// fleet-zipf / fleet-mutate: shard::ShardFleet over WL under a Zipf storm,
/// with a live writer when `mutate` is set.
int run_fleet(const RunArgs& args, bool mutate);

}  // namespace perfbench
