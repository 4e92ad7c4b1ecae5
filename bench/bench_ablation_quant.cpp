// EXP-A5 — measurement-quantisation ablation: the mote can right-shift
// the scaled measurements before difference coding, trading wire bits for
// reconstruction accuracy. This maps the trade and locates the knee where
// quantisation noise starts to dominate the CS recovery error.

#include <iostream>

#include "bench_common.hpp"
#include "csecg/core/codec.hpp"
#include "csecg/linalg/backend.hpp"
#include "csecg/util/table.hpp"

int main() {
  using namespace csecg;
  std::cout << "EXP-A5: measurement quantisation (right-shift before the "
               "difference stage) at M = 256\n\n";
  util::Table table({"shift (bits)", "measured CR (%)", "mean PRD (%)",
                     "SNR (dB)", "iterations"});
  table.set_title("Wire bits vs accuracy as measurements lose LSBs");

  const auto& db = bench::corpus();
  const std::size_t records = std::min<std::size_t>(db.size(), 4);
  for (const unsigned shift : {0u, 1u, 2u, 3u, 4u, 5u, 6u}) {
    core::DecoderConfig config;
    config.cs.measurement_shift = shift;
    config.backend = &linalg::simd4_backend();  // the paper's schedule
    // Each shift reshapes the difference distribution; retrain the book.
    const auto book = core::train_difference_codebook(db, config.cs);
    core::CsEcgCodec codec(config, book);
    double cr = 0.0;
    double prd = 0.0;
    double snr = 0.0;
    double iters = 0.0;
    for (std::size_t r = 0; r < records; ++r) {
      const auto report = codec.run_record<double>(db.mote(r));
      cr += report.cr;
      prd += report.mean_prd;
      snr += report.mean_snr_db;
      iters += report.mean_iterations;
    }
    const auto n = static_cast<double>(records);
    table.add_row({std::to_string(shift), util::format_double(cr / n, 1),
                   util::format_double(prd / n, 2),
                   util::format_double(snr / n, 2),
                   util::format_double(iters / n, 0)});
  }
  table.print(std::cout);
  std::cout << "\nReading: the first couple of bits are nearly free (CS "
               "recovery error dominates); beyond the knee every further "
               "bit costs real SNR.\n";
  return 0;
}
