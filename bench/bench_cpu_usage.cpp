// EXP-S3 — the §V CPU-usage claims: the full threaded pipeline at several
// compression ratios, reporting node (MSP430) and coordinator (Cortex-A8)
// CPU usage.
//
// Paper claims at CR 50: 17.7 % average CPU on the iPhone (< 30 %
// overall), < 5 % on the Shimmer node.

#include <iostream>

#include "bench_common.hpp"
#include "csecg/linalg/backend.hpp"
#include "csecg/util/table.hpp"
#include "csecg/wbsn/pipeline.hpp"

int main() {
  using namespace csecg;
  std::cout << "EXP-S3 (SS V): CPU usage of the node and the coordinator "
               "across compression ratios\n\n";
  util::Table table({"CR (%)", "node CPU (%)", "coordinator CPU (%)",
                     "mean PRD (%)", "windows"});
  table.set_title(
      "CPU usage (paper: < 5 % node, 17.7 % coordinator at CR 50)");
  const auto& db = bench::corpus();
  for (const double cr : {30.0, 50.0, 70.0}) {
    core::DecoderConfig config;
    config.cs.measurements = core::measurements_for_cr(512, cr);
    config.backend = &linalg::simd4_backend();  // the paper's schedule
    wbsn::RealTimePipeline pipeline(config, bench::codebook());
    double node_cpu = 0.0;
    double coord_cpu = 0.0;
    double prd = 0.0;
    std::size_t windows = 0;
    const std::size_t records = std::min<std::size_t>(db.size(), 4);
    for (std::size_t r = 0; r < records; ++r) {
      const auto report = pipeline.run(db.mote(r));
      node_cpu += report.node_cpu_usage;
      coord_cpu += report.coordinator_cpu_usage;
      prd += report.mean_prd;
      windows += report.windows_displayed;
    }
    const auto n = static_cast<double>(records);
    table.add_row({util::format_double(cr, 0),
                   util::format_percent(node_cpu / n),
                   util::format_percent(coord_cpu / n),
                   util::format_double(prd / n, 2),
                   std::to_string(windows)});
  }
  table.print(std::cout);
  std::cout << "\nPaper: node < 5 % everywhere; coordinator 17.7 % at "
               "CR 50 and < 30 % overall.\n";
  return 0;
}
