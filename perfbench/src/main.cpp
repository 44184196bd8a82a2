// Benchmark binary: `perfbench --workload NAME --seed N --seconds S --trace
// 0|1 [--trace-out PATH]`. Prints environment and progress lines starting
// with '#', then one JSON result line (README.md in this directory).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cold-k8|fleet-zipf|fleet-mutate --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // libgomp reads its wait policy once, when it loads, so it must be in the
  // environment before the process starts: re-exec with it pinned if the
  // caller left it unset. PASSIVE keeps idle OpenMP workers from spinning on
  // cores the client and fleet threads need.
  if (std::getenv("OMP_WAIT_POLICY") == nullptr) {
    setenv("OMP_WAIT_POLICY", "PASSIVE", 1);
    execv("/proc/self/exe", argv);
    std::perror("perfbench: re-exec with OMP_WAIT_POLICY pinned");
    return 1;
  }

  perfbench::RunArgs args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds (> 0) and --trace (0|1) are "
                 "required");
  }

  std::printf("# env: %s\n", perfbench::environment_json().c_str());
  std::fflush(stdout);
  if (args.workload == "cold-k8") return perfbench::run_cold(args);
  if (args.workload == "fleet-zipf") return perfbench::run_fleet(args, false);
  if (args.workload == "fleet-mutate") return perfbench::run_fleet(args, true);
  return usage(("unknown workload " + args.workload).c_str());
}
