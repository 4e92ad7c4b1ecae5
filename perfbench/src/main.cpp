// csecg_perfbench — end-to-end benchmark of the CS-ECG receive path.
//
//   csecg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--spans <path>]
//
// Builds the workload's inputs from the seed (nothing is timed yet),
// then repeats whole rounds of identical work until --seconds have
// passed, checking every round's outputs. The last line of standard
// output is one JSON object: correct, attempted, failed and the metrics
// (end-to-end with --trace 0, per-layer with --trace 1). Human-readable
// detail goes to standard error. See README.md for the workloads and the
// metric definitions.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: csecg_perfbench --workload "
               "monitor_cold_cr50|fleet_saturated_mixed|gateway_lossy_warm "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_arg;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      return usage("missing value after the last flag");
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      workload_arg = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') {
        return usage("--seed must be a whole number");
      }
    } else if (std::strcmp(flag, "--seconds") == 0) {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0.0) || seconds > 120.0) {
        return usage("--seconds must be in (0, 120]");
      }
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace must be 0 or 1");
      }
      trace = value[0] - '0';
    } else if (std::strcmp(flag, "--spans") == 0) {
      spans_path = value;
    } else {
      return usage("unknown flag");
    }
  }
  const auto workload = workload_by_name(workload_arg);
  if (!workload) {
    return usage("unknown workload");
  }

  try {
    const Clock::time_point start = Clock::now();
    const WorkloadInput input = make_inputs(*workload, seed);
    const ReceiverSetup setup = receiver_setup(*workload);
    const Oracle oracle = make_oracle(input, setup);
    std::fprintf(stderr,
                 "%s seed %llu: %zu nodes, %zu windows, %zu frames; inputs "
                 "and oracle in %.2f s\n",
                 workload_name(*workload),
                 static_cast<unsigned long long>(seed), input.nodes.size(),
                 input.windows_total(), input.frames.size(),
                 seconds_between(start, Clock::now()));
    const Report report =
        trace != 0 ? run_traced(input, setup, oracle, seconds, spans_path)
                   : run_timed(input, setup, oracle, seconds);
    if (!report.ok) {
      std::fprintf(stderr, "error: %s\n", report.error.c_str());
      return 3;
    }
    std::printf("%s\n", report.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 4;
  }
}
