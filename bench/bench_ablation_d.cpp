// EXP-A1 — ablation behind the paper's d = 12 choice: recovery quality
// (output SNR at CR 50) and encoder cost as the sparse-binary column
// density d sweeps, against the Gaussian reference.
//
// Paper: "d = 12 was identified as the minimum value that [gives] the
// optimal trade-off between execution time ... and recovery error."

#include <iostream>

#include "bench_common.hpp"
#include "csecg/core/cs_operator.hpp"
#include "csecg/dsp/dwt.hpp"
#include "csecg/ecg/metrics.hpp"
#include "csecg/linalg/backend.hpp"
#include "csecg/linalg/vector_ops.hpp"
#include "csecg/platform/msp430.hpp"
#include "csecg/solvers/fista.hpp"
#include "csecg/util/stats.hpp"
#include "csecg/util/table.hpp"
#include "csecg/wbsn/node.hpp"

namespace {

using namespace csecg;

double mean_snr_for(const core::SensingMatrixConfig& sc) {
  const auto& db = bench::corpus();
  dsp::WaveletTransform psi(dsp::Wavelet::from_name("db4"), 512, 5);
  const core::SensingMatrix phi(sc);
  const core::CsOperator<double> op(phi, psi, linalg::simd4_backend());
  const double lipschitz = 2.0 * linalg::estimate_spectral_norm_squared(op);
  util::RunningStats snr;
  const std::size_t records = std::min<std::size_t>(db.size(), 4);
  for (std::size_t r = 0; r < records; ++r) {
    const auto& record = db.mote(r);
    for (std::size_t off = 0; off + 512 <= record.samples.size();
         off += 512) {
      std::vector<double> x(512);
      for (std::size_t i = 0; i < 512; ++i) {
        x[i] = static_cast<double>(record.samples[off + i]);
      }
      std::vector<double> y(sc.rows);
      phi.apply(std::span<const double>(x), std::span<double>(y));
      std::vector<double> aty(512);
      op.apply_adjoint(std::span<const double>(y), std::span<double>(aty));
      solvers::ShrinkageOptions options;
      options.backend = &linalg::simd4_backend();
      options.lambda = 0.01 * linalg::norm_inf(std::span<const double>(aty));
      options.max_iterations = 1200;
      options.tolerance = 1e-5;
      options.lipschitz = lipschitz;
      const auto result = solvers::fista<double>(op, y, options);
      std::vector<double> xhat(512);
      psi.inverse<double>(std::span<const double>(result.solution),
                          std::span<double>(xhat));
      snr.add(ecg::snr_from_prd(ecg::prd(x, xhat)));
    }
  }
  return snr.mean();
}

double encode_ms_for(std::size_t d) {
  core::EncoderConfig config;
  config.d = d;
  wbsn::SensorNode node(config, bench::codebook());
  const auto& record = bench::corpus().mote(0);
  for (std::size_t off = 0; off + 512 <= record.samples.size(); off += 512) {
    (void)node.process_window(
        std::span<const std::int16_t>(record.samples.data() + off, 512));
  }
  return node.stats().mean_encode_seconds() * 1e3;
}

}  // namespace

int main() {
  using namespace csecg;
  std::cout << "EXP-A1: sparse-binary density d — recovery quality vs "
               "encoder cost (CR 50)\n\n";
  core::SensingMatrixConfig gaussian;
  gaussian.type = core::SensingMatrixType::kGaussian;
  const double reference = mean_snr_for(gaussian);

  util::Table table(
      {"d", "SNR (dB)", "gap to Gaussian (dB)", "encode (ms)"});
  table.set_title("d sweep (paper picks d = 12; Gaussian reference " +
                  util::format_double(reference, 2) + " dB)");
  for (const std::size_t d : {2, 4, 8, 12, 16, 24}) {
    core::SensingMatrixConfig sc;
    sc.d = d;
    const double snr = mean_snr_for(sc);
    table.add_row({std::to_string(d), util::format_double(snr, 2),
                   util::format_double(snr - reference, 2),
                   util::format_double(encode_ms_for(d), 1)});
  }
  table.print(std::cout);
  std::cout << "\nPaper: quality saturates near the Gaussian reference "
               "around d = 12 while encode time keeps growing linearly in "
               "d — hence d = 12.\n";
  return 0;
}
