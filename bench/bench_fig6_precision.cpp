// EXP-F6 — regenerates Figure 6: average output PRD vs compression ratio
// for the 64-bit reference reconstruction ("Matlab") against the 32-bit
// embedded path ("iPhone"), with the VG / G diagnostic-quality bands.
//
// Paper shape: both curves coincide (32-bit loses nothing), rising from
// ~15 % PRD at CR 30 to ~50 % at CR 90.

#include <iostream>

#include "bench_common.hpp"
#include "csecg/core/codec.hpp"
#include "csecg/ecg/metrics.hpp"
#include "csecg/linalg/backend.hpp"
#include "csecg/util/table.hpp"

int main() {
  using namespace csecg;
  std::cout << "EXP-F6 (Figure 6): PRD vs CR, 64-bit reference vs 32-bit"
               " embedded reconstruction\n"
            << "Corpus: " << bench::corpus().size()
            << " records; full encoder->wire->decoder path.\n\n";

  util::Table table({"CR nominal (%)", "CR measured (%)", "PRD 64-bit (%)",
                     "PRD 32-bit (%)", "quality band"});
  table.set_title("Fig 6 — performance comparison of ECG reconstruction");
  const auto& db = bench::corpus();
  for (const double cr : {30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0}) {
    core::DecoderConfig config;
    config.cs.measurements = core::measurements_for_cr(512, cr);
    config.backend = &linalg::simd4_backend();  // the paper's schedule
    core::CsEcgCodec codec64(config, bench::codebook());
    core::CsEcgCodec codec32(config, bench::codebook());
    double prd64 = 0.0;
    double prd32 = 0.0;
    double measured_cr = 0.0;
    for (std::size_t r = 0; r < db.size(); ++r) {
      const auto r64 = codec64.run_record<double>(db.mote(r));
      const auto r32 = codec32.run_record<float>(db.mote(r));
      prd64 += r64.mean_prd;
      prd32 += r32.mean_prd;
      measured_cr += r64.cr;
    }
    const auto n = static_cast<double>(db.size());
    prd64 /= n;
    prd32 /= n;
    measured_cr /= n;
    table.add_row({util::format_double(cr, 0),
                   util::format_double(measured_cr, 1),
                   util::format_double(prd64, 2),
                   util::format_double(prd32, 2),
                   ecg::quality_band_name(ecg::classify_quality(prd64))});
  }
  table.print(std::cout);
  std::cout << "\nPaper: 32-bit == 64-bit at every CR; PRD rises "
               "monotonically with CR. 'VG'/'G' bands mark PRD < "
            << ecg::kVeryGoodPrdLimit << " % / < " << ecg::kGoodPrdLimit
            << " %.\n";
  return 0;
}
