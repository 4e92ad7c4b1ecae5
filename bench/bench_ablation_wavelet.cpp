// EXP-A8 — sparsifying-basis ablation: the paper fixes "an orthonormal
// wavelet basis" without naming one. This bench sweeps the families the
// dsp module can construct (Haar, Daubechies, Symlets) and the
// decomposition depth, at the CR 50 operating point.

#include <iostream>

#include "bench_common.hpp"
#include "csecg/core/codec.hpp"
#include "csecg/linalg/backend.hpp"
#include "csecg/util/table.hpp"

int main() {
  using namespace csecg;
  std::cout << "EXP-A8: sparsifying wavelet basis at CR 50\n\n";
  const auto& db = bench::corpus();
  const std::size_t records = std::min<std::size_t>(db.size(), 4);

  util::Table table({"wavelet", "levels", "mean PRD (%)", "iterations"});
  table.set_title("Wavelet family / depth ablation");
  const auto run = [&](const std::string& name, int levels) {
    core::DecoderConfig config;
    config.wavelet = name;
    config.backend = &linalg::simd4_backend();  // the paper's schedule
    config.levels = levels;
    core::CsEcgCodec codec(config, bench::codebook());
    double prd = 0.0;
    double iters = 0.0;
    for (std::size_t r = 0; r < records; ++r) {
      const auto report = codec.run_record<double>(db.mote(r));
      prd += report.mean_prd;
      iters += report.mean_iterations;
    }
    const auto n = static_cast<double>(records);
    table.add_row({name, std::to_string(levels),
                   util::format_double(prd / n, 2),
                   util::format_double(iters / n, 0)});
  };

  for (const char* name :
       {"haar", "db2", "db4", "db6", "db8", "db10", "sym4", "sym6",
        "sym8"}) {
    run(name, 5);
  }
  for (const int levels : {3, 4, 6}) {
    run("db4", levels);
  }
  table.print(std::cout);

  // Weighted-lambda extension: spare the approximation band the l1
  // penalty (its energy is guaranteed, not merely possible).
  util::Table weighted({"approx weight", "mean PRD (%)", "iterations"});
  weighted.set_title("Weighted l1: approximation-band penalty (db4, 5 lv)");
  for (const double w : {1.0, 0.3, 0.1, 0.0}) {
    core::DecoderConfig config;
    config.approx_lambda_weight = w;
    config.backend = &linalg::simd4_backend();  // the paper's schedule
    core::CsEcgCodec codec(config, bench::codebook());
    double prd = 0.0;
    double iters = 0.0;
    for (std::size_t r = 0; r < records; ++r) {
      const auto report = codec.run_record<double>(db.mote(r));
      prd += report.mean_prd;
      iters += report.mean_iterations;
    }
    const auto n = static_cast<double>(records);
    weighted.add_row({util::format_double(w, 1),
                      util::format_double(prd / n, 2),
                      util::format_double(iters / n, 0)});
  }
  std::cout << '\n';
  weighted.print(std::cout);
  std::cout << "\nReading: mid-order Daubechies/Symlets (db4-db6, sym4-"
               "sym6) sit at the quality plateau; Haar pays for its "
               "blockiness, very long filters pay in decode cycles "
               "without quality return. Depth 4-5 suffices at N = 512.\n";
  return 0;
}
