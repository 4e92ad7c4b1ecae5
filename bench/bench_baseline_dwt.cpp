// EXP-A10 — CS vs classical transform coding, both sides of the §I trade:
// the DWT-threshold coder's rate-distortion frontier against CS, and what
// each costs the mote (encode time under the MSP430 model, node power,
// lifetime). This is the paper's motivating argument made quantitative.

#include <iostream>

#include "bench_common.hpp"
#include "csecg/baseline/wavelet_codec.hpp"
#include "csecg/core/codec.hpp"
#include "csecg/ecg/metrics.hpp"
#include "csecg/linalg/backend.hpp"
#include "csecg/platform/energy.hpp"
#include "csecg/platform/msp430.hpp"
#include "csecg/util/table.hpp"

namespace {

using namespace csecg;

struct Point {
  double cr = 0.0;
  double prd = 0.0;
  double encode_ms = 0.0;
  double node_power_mw = 0.0;
};

Point run_dwt(double keep_fraction) {
  const auto& db = bench::corpus();
  baseline::WaveletCodecConfig config;
  config.keep_fraction = keep_fraction;
  baseline::WaveletCodec codec(config);
  const platform::Msp430Model msp;
  const platform::NodePowerModel power;

  std::size_t raw_bits = 0;
  std::size_t wire_bits = 0;
  double prd_sum = 0.0;
  std::size_t windows = 0;
  fixedpoint::Msp430OpCounts ops_total;
  const std::size_t records = std::min<std::size_t>(db.size(), 4);
  for (std::size_t r = 0; r < records; ++r) {
    const auto& record = db.mote(r);
    for (std::size_t off = 0; off + 512 <= record.samples.size();
         off += 512) {
      const std::span<const std::int16_t> window(
          record.samples.data() + off, 512);
      fixedpoint::Msp430CounterScope scope;
      const auto packet = codec.compress(window);
      ops_total += scope.counts();
      const auto reconstructed = codec.decompress(packet);
      std::vector<double> original(512);
      for (std::size_t i = 0; i < 512; ++i) {
        original[i] = static_cast<double>(window[i]);
      }
      prd_sum += ecg::prd(original, *reconstructed);
      raw_bits += 512 * 11;
      wire_bits += packet.wire_bits();
      ++windows;
    }
  }
  Point point;
  point.cr = ecg::compression_ratio(raw_bits, wire_bits);
  point.prd = prd_sum / static_cast<double>(windows);
  point.encode_ms =
      msp.seconds(ops_total) / static_cast<double>(windows) * 1e3;
  point.node_power_mw =
      power.node_average_power(wire_bits / windows,
                               msp.seconds(ops_total) /
                                   static_cast<double>(windows)) *
      1e3;
  return point;
}

Point run_cs(double cr_target) {
  const auto& db = bench::corpus();
  core::DecoderConfig config;
  config.cs.measurements = core::measurements_for_cr(512, cr_target);
  config.backend = &linalg::simd4_backend();  // the paper's schedule
  const auto book = core::train_difference_codebook(db, config.cs);
  core::CsEcgCodec codec(config, book);
  const platform::Msp430Model msp;
  const platform::NodePowerModel power;

  double cr = 0.0;
  double prd = 0.0;
  std::size_t bits_per_window = 0;
  fixedpoint::Msp430OpCounts ops_total;
  std::size_t windows = 0;
  const std::size_t records = std::min<std::size_t>(db.size(), 4);
  for (std::size_t r = 0; r < records; ++r) {
    fixedpoint::Msp430CounterScope scope;
    const auto report = codec.run_record<double>(db.mote(r));
    ops_total += scope.counts();
    cr += report.cr;
    prd += report.mean_prd;
    bits_per_window += report.compressed_bits / report.windows;
    windows += report.windows;
  }
  const auto n = static_cast<double>(records);
  Point point;
  point.cr = cr / n;
  point.prd = prd / n;
  point.encode_ms =
      msp.seconds(ops_total) / static_cast<double>(windows) * 1e3;
  point.node_power_mw =
      power.node_average_power(bits_per_window / records,
                               msp.seconds(ops_total) /
                                   static_cast<double>(windows)) *
      1e3;
  return point;
}

}  // namespace

int main() {
  using namespace csecg;
  std::cout << "EXP-A10: compressed sensing vs classical DWT threshold "
               "coding — quality AND mote cost\n\n";
  util::Table table({"codec", "CR (%)", "PRD (%)", "encode (ms)",
                     "node power (mW)"});
  table.set_title(
      "Rate-distortion vs encoder cost (MSP430 model, 2-s windows)");
  for (const double cr : {50.0, 70.0, 90.0}) {
    const auto cs = run_cs(cr);
    table.add_row({"CS (sparse binary)", util::format_double(cs.cr, 1),
                   util::format_double(cs.prd, 2),
                   util::format_double(cs.encode_ms, 1),
                   util::format_double(cs.node_power_mw, 2)});
  }
  for (const double keep : {0.20, 0.10, 0.05}) {
    const auto dwt = run_dwt(keep);
    table.add_row({"DWT threshold (keep " +
                       util::format_percent(keep, 0) + ")",
                   util::format_double(dwt.cr, 1),
                   util::format_double(dwt.prd, 2),
                   util::format_double(dwt.encode_ms, 1),
                   util::format_double(dwt.node_power_mw, 2)});
  }
  table.print(std::cout);
  std::cout << "\nReading: transform coding is rate-distortion superior — "
               "CS pays a real PRD penalty at equal CR — and on a core "
               "with a hardware multiplier its filter bank lands in the "
               "same cycle regime as the paper's on-the-fly CS "
               "projection. What CS actually buys the mote is structural: "
               "a few hundred bytes of code and state instead of a Q15 "
               "filter bank + coefficient-selection engine, graceful "
               "degradation, and the §II-A roadmap of moving the "
               "projection into the analog front end (bench_analog_cs), "
               "where the digital encoder disappears entirely. The paper "
               "sells CS on exactly those grounds, not on beating DSP "
               "compression at its own rate-distortion game.\n";
  return 0;
}
