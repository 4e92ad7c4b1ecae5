#ifndef CSECG_PERFBENCH_LAYERS_HPP
#define CSECG_PERFBENCH_LAYERS_HPP

/// \file layers.hpp
/// The two kinds of run: the timed run (end-to-end metrics, tracing off)
/// and the traced run (per-layer metrics from spans, the timing backend
/// decorator and replays of the workload's own frames and vectors).

#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool ok = true;      ///< false: the run could not produce its metrics
  std::string error;
  bool correct = true;  ///< work repeated exactly across the run's rounds
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;
};

Report run_timed(const WorkloadInput& input, const ReceiverSetup& setup,
                 const Oracle& oracle, double seconds);

Report run_traced(const WorkloadInput& input, const ReceiverSetup& setup,
                  const Oracle& oracle, double seconds,
                  const std::string& spans_path);

}  // namespace perfbench

#endif  // CSECG_PERFBENCH_LAYERS_HPP
