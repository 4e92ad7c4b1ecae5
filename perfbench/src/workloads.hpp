#ifndef CSECG_PERFBENCH_WORKLOADS_HPP
#define CSECG_PERFBENCH_WORKLOADS_HPP

/// \file workloads.hpp
/// One timed round of a workload: construct the receive side, hand it
/// the pre-built frames, wait for every window, then check what the sink
/// received against the oracles. A run repeats whole rounds until its
/// time is up, so every round does identical work.

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "csecg/core/decoder.hpp"
#include "csecg/linalg/backend.hpp"
#include "inputs.hpp"
#include "stats.hpp"

namespace perfbench {

/// Receive-side configuration of a workload.
struct ReceiverSetup {
  /// Null = the library default backend (a decoder built from the
  /// profile alone).
  const csecg::linalg::Backend* backend = nullptr;
  csecg::core::PriorPolicy prior;
  std::size_t workers = 1;
  std::size_t decode_batch = 1;
  /// Open-loop send period of one node (gateway workload only).
  double period_s = 0.0;

  const csecg::linalg::Backend& resolved_backend() const {
    return backend != nullptr ? *backend : csecg::linalg::default_backend();
  }
};

ReceiverSetup receiver_setup(Workload workload);

/// Upper bound on the PRD of any decoded lead-window of a stream with
/// \p profile: 100 * sqrt(1 - M/N) %, the expected PRD of the
/// minimum-norm estimate that uses the M measurements and no sparsity
/// prior (README.md derives it). A recovery that does not beat it has
/// failed; zero, garbage or misplaced windows all land above it.
inline double prd_ceiling_pct(const csecg::core::StreamProfile& profile) {
  return 100.0 * std::sqrt(1.0 - static_cast<double>(profile.measurements) /
                                     static_cast<double>(profile.window));
}

/// Reference outputs computed apart from the path under test.
struct Oracle {
  /// fleet_saturated_mixed: sequential Decoder::reconstruct_into decodes
  /// of every single-lead node, [node][window] -> samples.
  std::map<std::uint32_t, std::vector<std::vector<float>>> sequential;
};

/// Builds the sequential oracle (empty for workloads that need none).
Oracle make_oracle(const WorkloadInput& input, const ReceiverSetup& setup);

struct RoundOptions {
  SpanRecorder* spans = nullptr;  ///< non-null in the traced run
};

struct RoundResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  std::vector<double> latency_s;   ///< one per delivered window
  std::vector<double> dispatch_s;  ///< latency minus decode, decoded only
  std::vector<double> lateness_s;  ///< open loop: offer time minus due
  std::size_t attempted = 0;       ///< windows the nodes sent
  std::size_t failed = 0;
  std::size_t lead_windows_decoded = 0;
  std::size_t windows_concealed = 0;
  std::size_t frames_corrupt = 0;
  std::size_t queue_high_water = 0;
  double iterations_total = 0.0;
  double prd_sum = 0.0;
  /// Per decoded lead-window PRD in (node, window, lead) order: the
  /// round-to-round determinism check compares these exactly.
  std::vector<double> prd;
  std::vector<std::string> failures;  ///< first few failure reasons
};

RoundResult run_round(const WorkloadInput& input, const ReceiverSetup& setup,
                      const Oracle& oracle, const RoundOptions& options);

/// Resident set size of this process in MiB.
double resident_mb();
/// CPU time consumed by this process so far, seconds.
double process_cpu_seconds();

}  // namespace perfbench

#endif  // CSECG_PERFBENCH_WORKLOADS_HPP
