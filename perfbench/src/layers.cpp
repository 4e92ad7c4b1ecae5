#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <span>
#include <stdexcept>
#include <thread>

#include "csecg/core/cs_operator.hpp"
#include "csecg/core/encoder.hpp"
#include "csecg/core/packet.hpp"
#include "csecg/wbsn/fleet.hpp"
#include "csecg/wbsn/gateway.hpp"
#include "timing_backend.hpp"

namespace perfbench {

namespace {

using csecg::core::Decoder;
using csecg::core::DecodedWindow;
using csecg::core::Packet;
using csecg::core::PacketKind;

void add(Report& report, const char* name, double value, const char* unit) {
  report.metrics.push_back({name, value, unit});
}

/// Folds one round's operation counts into the report.
void count(Report& report, const RoundResult& round) {
  report.attempted += round.attempted;
  report.failed += round.failed;
  for (const auto& why : round.failures) {
    std::fprintf(stderr, "failed: %s\n", why.c_str());
  }
}

/// The work of a round must repeat exactly: same decoded and concealed
/// windows, same FISTA iterations, same PRD of every lead-window.
bool same_work(const RoundResult& a, const RoundResult& b) {
  return a.lead_windows_decoded == b.lead_windows_decoded &&
         a.windows_concealed == b.windows_concealed &&
         a.iterations_total == b.iterations_total && a.prd == b.prd;
}

std::vector<double> pooled(const std::vector<RoundResult>& rounds,
                           std::vector<double> RoundResult::*field) {
  std::vector<double> all;
  for (const auto& r : rounds) {
    all.insert(all.end(), (r.*field).begin(), (r.*field).end());
  }
  return all;
}

/// The seven end-to-end metrics over a set of rounds.
bool add_end_to_end(Report& report, const std::vector<RoundResult>& rounds) {
  std::vector<double> setup;
  std::vector<double> rss;
  double wall = 0.0;
  double cpu = 0.0;
  double lead_windows = 0.0;
  for (const auto& r : rounds) {
    setup.push_back(r.setup_s);
    rss.push_back(r.rss_mb);
    wall += r.wall_s;
    cpu += r.cpu_s;
    lead_windows += static_cast<double>(r.lead_windows_decoded);
  }
  const std::vector<double> latency = pooled(rounds, &RoundResult::latency_s);
  const auto p95 = tail_percentile(latency, 0.95);
  if (!p95 || lead_windows == 0.0) {
    report.ok = false;
    report.error = "too few windows for a p95 with ten samples beyond it";
    return false;
  }
  const RoundResult& first = rounds.front();
  add(report, "setup_s", median(setup), "s");
  add(report, "window_latency_p50_ms", median(latency) * 1e3, "ms");
  add(report, "window_latency_p95_ms", *p95 * 1e3, "ms");
  add(report, "ecg_lead_seconds_per_s", lead_windows * kWindowSeconds / wall,
      "s/s");
  add(report, "cpu_ms_per_lead_window", cpu * 1e3 / lead_windows, "ms");
  add(report, "prd_mean_pct",
      first.prd_sum / static_cast<double>(first.lead_windows_decoded), "%");
  add(report, "receiver_rss_mb", median(rss), "MB");
  const std::vector<double> lateness =
      pooled(rounds, &RoundResult::lateness_s);
  if (!lateness.empty()) {
    std::fprintf(stderr,
                 "open-loop generator lateness: p50 %.3f ms, max %.3f ms\n",
                 median(lateness) * 1e3,
                 *std::max_element(lateness.begin(), lateness.end()) * 1e3);
  }
  std::fprintf(stderr,
               "%zu rounds, %zu latency samples, %zu lead-windows decoded "
               "and %zu concealed per round, %.0f FISTA iterations per "
               "round\n",
               rounds.size(), latency.size(), first.lead_windows_decoded,
               first.windows_concealed, first.iterations_total);
  return true;
}

/// Median seconds per call of \p fn: calibrated so one sample is about a
/// millisecond, 21 samples.
double time_per_call(const std::function<void()>& fn) {
  fn();
  std::size_t reps = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) {
      fn();
    }
    if (seconds_between(t0, Clock::now()) > 1e-3 || reps >= (1u << 20)) {
      break;
    }
    reps *= 2;
  }
  std::vector<double> samples;
  for (int s = 0; s < 21; ++s) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) {
      fn();
    }
    samples.push_back(seconds_between(t0, Clock::now()) /
                      static_cast<double>(reps));
  }
  return median(samples);
}

/// Per-node frames in the order the receiver's ARQ releases them; for the
/// lossy workload, the first intact copy of each window whose chain the
/// trace shows intact (others are concealed: the replay drops the warm
/// prior exactly as the receiver does).
struct NodeFrames {
  std::vector<Packet> profile;
  /// windows[w]: the window's lead packets (empty = concealed).
  std::vector<std::vector<Packet>> windows;
};

std::vector<NodeFrames> released_frames(const WorkloadInput& input) {
  std::vector<NodeFrames> out(input.nodes.size());
  for (std::size_t k = 0; k < input.nodes.size(); ++k) {
    out[k].windows.resize(input.nodes[k].windows +
                          input.nodes[k].tail_windows);
  }
  Packet packet;
  for (const Frame& frame : input.frames) {
    if (!Packet::parse_into(frame.bytes, packet)) {
      continue;
    }
    NodeFrames& node = out[frame.node];
    if (packet.kind == PacketKind::kProfile) {
      if (node.profile.empty()) {
        node.profile.push_back(packet);
      }
      continue;
    }
    const bool lossy = input.workload == Workload::kGatewayLossyWarm;
    // Clean streams: window w rides wire sequence w + 1 (sequence 0 is
    // the profile). Lossy streams re-announce their profile after an ARQ
    // give-up, so the sender's record maps sequences to windows.
    const std::size_t w =
        lossy ? static_cast<std::size_t>(
                    input.traces[frame.node].window_of.at(packet.sequence))
              : packet.sequence - 1u;
    if (w >= node.windows.size()) {
      continue;
    }
    auto& leads = node.windows[w];
    if (lossy && (input.traces[frame.node].conceal_justified[w] ||
                  !leads.empty())) {
      continue;
    }
    leads.push_back(packet);
  }
  return out;
}

/// The CR whose geometry the operator-leg replay times; per-iteration
/// solver figures use the single-lead solves at the same CR so the two
/// can be subtracted.
constexpr double kLegCr = 50.0;

/// Totals of one sequential replay through the public Decoder API.
struct Replay {
  std::vector<double> construct_s;     ///< per node
  std::vector<double> first_window_s;  ///< per node: first reconstruct
  double entropy_s = 0.0;
  std::size_t entropy_frames = 0;
  double reconstruct_s = 0.0;  ///< all solves
  std::size_t lead_windows = 0;
  std::size_t solves = 0;
  double iterations = 0.0;
  /// Single-row solves at kLegCr after each node's first (no Lipschitz
  /// estimate).
  double row_s = 0.0;
  double row_iterations = 0.0;
  /// Group solves: time and lead-row iterations.
  double group_s = 0.0;
  double group_row_iterations = 0.0;
  /// Spans of the windows whose kernels were recorded.
  std::vector<std::uint32_t> sampled_reconstruct_spans;
  double sampled_iterations = 0.0;
  /// Integer measurements of decoded single-lead windows, per node, and
  /// the decoded samples (operator-leg vectors).
  std::vector<std::vector<std::vector<std::int32_t>>> y;
  std::vector<std::vector<std::vector<float>>> x;
};

Replay replay(const WorkloadInput& input, const ReceiverSetup& setup,
              const std::vector<NodeFrames>& frames,
              const csecg::linalg::Backend& backend, SpanRecorder* spans,
              TimingBackend* timing) {
  Replay r;
  r.y.resize(input.nodes.size());
  r.x.resize(input.nodes.size());
  csecg::solvers::SolverWorkspace workspace;
  std::vector<std::int32_t> y;
  std::vector<DecodedWindow<float>> out(8);
  for (std::size_t k = 0; k < input.nodes.size(); ++k) {
    const NodeInput& node = input.nodes[k];
    const std::size_t leads = node.spec.leads;
    auto t0 = Clock::now();
    std::unique_ptr<Decoder> decoder;
    {
      ScopedSpan span(spans, "core.decoder.construct", 0);
      decoder = std::make_unique<Decoder>(node.profile);
      decoder->set_backend(backend);
      decoder->set_prior_policy(setup.prior);
    }
    r.construct_s.push_back(seconds_between(t0, Clock::now()));
    for (const Packet& p : frames[k].profile) {
      decoder->consume(p, y);
    }
    bool first = true;
    for (std::size_t w = 0; w < frames[k].windows.size(); ++w) {
      const auto& packets = frames[k].windows[w];
      ScopedSpan window_span(spans, "replay.window", 0,
                             static_cast<std::int64_t>(k << 16 | w));
      if (packets.size() != leads) {
        decoder->invalidate_prior();
        continue;
      }
      t0 = Clock::now();
      bool accepted;
      {
        ScopedSpan span(spans, "core.decoder.entropy", window_span.id(),
                        static_cast<std::int64_t>(w));
        accepted = leads == 1 ? decoder->decode_measurements_into(packets[0], y)
                              : decoder->decode_group_measurements_into(
                                    std::span<const Packet>(packets), y);
      }
      r.entropy_s += seconds_between(t0, Clock::now());
      r.entropy_frames += leads;
      if (!accepted) {
        decoder->invalidate_prior();
        continue;
      }
      const bool sample_kernels =
          timing != nullptr && spans != nullptr && w < 2;
      ScopedSpan span(spans, "core.decoder.reconstruct", window_span.id(),
                      static_cast<std::int64_t>(w));
      if (sample_kernels) {
        timing->record_spans(spans, span.id());
      }
      t0 = Clock::now();
      const std::span<DecodedWindow<float>> outs(out.data(), leads);
      if (leads == 1) {
        decoder->reconstruct_into<float>(std::span<const std::int32_t>(y),
                                         workspace, out[0]);
      } else {
        decoder->reconstruct_group_into<float>(
            std::span<const std::int32_t>(y), workspace, outs);
      }
      const double s = seconds_between(t0, Clock::now());
      if (sample_kernels) {
        timing->record_spans(nullptr, 0);
        r.sampled_reconstruct_spans.push_back(span.id());
        r.sampled_iterations += static_cast<double>(out[0].iterations);
      }
      r.reconstruct_s += s;
      r.lead_windows += leads;
      ++r.solves;
      r.iterations += static_cast<double>(out[0].iterations);
      if (first) {
        r.first_window_s.push_back(s);
      } else if (leads == 1 && node.spec.cr_percent == kLegCr) {
        r.row_s += s;
        r.row_iterations += static_cast<double>(out[0].iterations);
      }
      if (leads > 1) {
        r.group_s += s;
        r.group_row_iterations +=
            static_cast<double>(out[0].iterations * leads);
      } else {
        r.y[k].push_back(y);
        r.x[k].push_back(out[0].samples);
      }
      first = false;
    }
  }
  return r;
}

/// Cold panel solves of 4 windows per call over the first windows of every
/// single-lead node: seconds per row-iteration.
double panel_us_per_row_iteration(const WorkloadInput& input,
                                  const Replay& plain,
                                  const csecg::linalg::Backend& backend) {
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kWindowsPerNode = 8;
  csecg::solvers::SolverWorkspace workspace;
  std::vector<DecodedWindow<float>> out(kBatch);
  double seconds = 0.0;
  double row_iterations = 0.0;
  for (std::size_t k = 0; k < input.nodes.size(); ++k) {
    const auto& ys = plain.y[k];
    if (input.nodes[k].spec.leads != 1 || ys.size() < kBatch) {
      continue;
    }
    Decoder decoder(input.nodes[k].profile);
    decoder.set_backend(backend);
    // Prime the Lipschitz cache so the timed panels are steady state.
    decoder.reconstruct_into<float>(std::span<const std::int32_t>(ys[0]),
                                    workspace, out[0]);
    const std::size_t m = ys[0].size();
    std::vector<std::int32_t> flat(kBatch * m);
    const std::size_t usable = std::min(ys.size(), kWindowsPerNode);
    for (std::size_t b0 = 0; b0 + kBatch <= usable; b0 += kBatch) {
      for (std::size_t b = 0; b < kBatch; ++b) {
        std::copy(ys[b0 + b].begin(), ys[b0 + b].end(),
                  flat.begin() + static_cast<std::ptrdiff_t>(b * m));
      }
      const auto t0 = Clock::now();
      decoder.reconstruct_batch_into<float>(
          std::span<const std::int32_t>(flat), kBatch, workspace,
          std::span<DecodedWindow<float>>(out));
      seconds += seconds_between(t0, Clock::now());
      for (const auto& o : out) {
        row_iterations += static_cast<double>(o.iterations);
      }
    }
  }
  const double group_rows = plain.group_row_iterations;
  const double total_rows = row_iterations + group_rows;
  return total_rows == 0.0 ? 0.0
                           : (seconds + plain.group_s) * 1e6 / total_rows;
}

/// Median cold reconstruct time of the first windows of the first two
/// nodes re-encoded at \p cr, milliseconds.
double cold_row_ms(const WorkloadInput& input,
                   const csecg::linalg::Backend& backend, double cr) {
  const auto profile = csecg::core::profile_for_cr(cr);
  csecg::solvers::SolverWorkspace workspace;
  DecodedWindow<float> out;
  std::vector<std::int32_t> y;
  std::vector<double> times;
  for (std::size_t k = 0; k < std::min<std::size_t>(2, input.nodes.size());
       ++k) {
    csecg::core::Encoder encoder(profile);
    Decoder decoder(profile);
    decoder.set_backend(backend);
    const auto& source = input.nodes[k].source.front();
    for (std::size_t w = 0; w < 5; ++w) {
      const Packet packet = encoder.encode_window(
          std::span<const std::int16_t>(source.data() + w * kWindow, kWindow));
      if (!decoder.decode_measurements_into(packet, y)) {
        throw std::runtime_error("cold-row replay could not decode");
      }
      const auto t0 = Clock::now();
      decoder.reconstruct_into<float>(std::span<const std::int32_t>(y),
                                      workspace, out);
      if (w > 0) {  // the first solve carries the Lipschitz estimate
        times.push_back(seconds_between(t0, Clock::now()));
      }
    }
  }
  return median(times) * 1e3;
}

/// Operator legs on the workload's own vectors: decoded windows of the
/// first node with a single lead (x), their coefficients (alpha) and
/// measurements (y), single-row and 4-row panel forms.
void operator_legs(Report& report, const WorkloadInput& input,
                   const Replay& plain, const csecg::linalg::Backend& backend,
                   double& op_pair_us) {
  std::size_t k = 0;
  while (k < input.nodes.size() &&
         (input.nodes[k].spec.leads != 1 || plain.x[k].size() < 4 ||
          input.nodes[k].spec.cr_percent != kLegCr)) {
    ++k;
  }
  if (k == input.nodes.size()) {
    throw std::runtime_error("no single-lead CR-50 node for the leg replay");
  }
  const Decoder decoder(input.nodes[k].profile);
  const auto& phi = decoder.sensing();
  const auto& sparse = phi.sparse();
  const auto& psi = decoder.transform();
  const csecg::core::CsOperator<float> op(phi, psi, backend);
  const std::size_t n = phi.cols();
  const std::size_t m = phi.rows();
  constexpr std::size_t kRows = 4;
  std::vector<float> x(kRows * n);
  std::vector<float> alpha(kRows * n);
  std::vector<float> y(kRows * m);
  for (std::size_t b = 0; b < kRows; ++b) {
    std::copy(plain.x[k][b].begin(), plain.x[k][b].end(),
              x.begin() + static_cast<std::ptrdiff_t>(b * n));
  }
  psi.forward_batch<float>(x, alpha, kRows, backend);
  sparse.apply_batch<float>(std::span<const float>(x), std::span<float>(y),
                            kRows);
  std::vector<float> out_n(kRows * n);
  std::vector<float> out_m(kRows * m);
  const std::span<const float> x1(x.data(), n);
  const std::span<const float> a1(alpha.data(), n);
  const std::span<const float> y1(y.data(), m);
  const std::span<float> on1(out_n.data(), n);
  const std::span<float> om1(out_m.data(), m);
  const double rows = static_cast<double>(kRows);

  const double phi_us =
      time_per_call([&] { sparse.apply<float>(x1, om1); }) * 1e6;
  const double phit_us =
      time_per_call([&] { sparse.apply_transpose<float>(y1, on1); }) * 1e6;
  add(report, "linalg.sparse.apply_us", phi_us, "us");
  add(report, "linalg.sparse.apply_transpose_us", phit_us, "us");
  add(report, "linalg.sparse.apply_batch_us_per_row",
      time_per_call([&] {
        sparse.apply_batch<float>(std::span<const float>(x),
                                  std::span<float>(out_m), kRows);
      }) * 1e6 / rows,
      "us");
  add(report, "linalg.sparse.apply_transpose_batch_us_per_row",
      time_per_call([&] {
        sparse.apply_transpose_batch<float>(std::span<const float>(y),
                                            std::span<float>(out_n), kRows);
      }) * 1e6 / rows,
      "us");

  const double inverse_s =
      time_per_call([&] { psi.inverse<float>(a1, on1, backend); });
  const double forward_s =
      time_per_call([&] { psi.forward<float>(x1, on1, backend); });
  add(report, "dsp.wavelet.inverse_us", inverse_s * 1e6, "us");
  add(report, "dsp.wavelet.forward_us", forward_s * 1e6, "us");
  add(report, "dsp.wavelet.inverse_batch_us_per_row",
      time_per_call([&] {
        psi.inverse_batch<float>(alpha, out_n, kRows, backend);
      }) * 1e6 / rows,
      "us");
  add(report, "dsp.wavelet.forward_batch_us_per_row",
      time_per_call([&] {
        psi.forward_batch<float>(x, out_n, kRows, backend);
      }) * 1e6 / rows,
      "us");
  // Psi^T over the filter-kernel time inside it: the same forward call
  // through the timing decorator, kernel nanoseconds per call.
  TimingBackend timing(backend);
  constexpr int kCalls = 2000;
  for (int i = 0; i < kCalls; ++i) {
    psi.forward<float>(x1, on1, timing);
  }
  const double filter_s =
      timing.totals().seconds(KernelClass::kFilter) / kCalls;
  add(report, "dsp.wavelet.forward_overhead_ratio",
      filter_s > 0.0 ? forward_s / filter_s : 0.0, "ratio");

  const double apply_us = time_per_call([&] { op.apply(a1, om1); }) * 1e6;
  const double adjoint_us =
      time_per_call([&] { op.apply_adjoint(y1, on1); }) * 1e6;
  add(report, "core.cs_operator.apply_us", apply_us, "us");
  add(report, "core.cs_operator.apply_adjoint_us", adjoint_us, "us");
  add(report, "core.cs_operator.apply_batch_us_per_row",
      time_per_call([&] { op.apply_batch(alpha, out_m, kRows); }) * 1e6 / rows,
      "us");
  add(report, "core.cs_operator.apply_adjoint_batch_us_per_row",
      time_per_call([&] { op.apply_adjoint_batch(y, out_n, kRows); }) * 1e6 /
          rows,
      "us");
  op_pair_us = apply_us + adjoint_us;
}

csecg::wbsn::FleetConfig replay_fleet_config(const WorkloadInput& input,
                                             const ReceiverSetup& setup) {
  csecg::wbsn::FleetConfig config;
  config.workers = 1;
  config.backend = setup.backend;
  config.prior = setup.prior;
  if (input.workload == Workload::kGatewayLossyWarm) {
    config.arq = lossy_arq_config();
  }
  return config;
}

/// Copies of every node the receive replay registers: each copy gets the
/// node's whole frame stream, so one replay is long enough for the
/// trace_spans on/off difference to rise above timer noise.
constexpr std::size_t kReplayCopies = 8;

/// Seconds per frame to push kReplayCopies copies of every stream through
/// a one-worker fleet that entropy decodes but skips reconstruction
/// (DecodeMode::kConcealOnly).
double receive_replay_s(const WorkloadInput& input, const ReceiverSetup& setup,
                        bool trace_spans) {
  auto config = replay_fleet_config(input, setup);
  config.trace_spans = trace_spans;
  csecg::wbsn::FleetCoordinator fleet(config, [](const auto&) {});
  fleet.set_decode_mode(
      csecg::wbsn::FleetCoordinator::DecodeMode::kConcealOnly);
  for (std::size_t c = 0; c < kReplayCopies; ++c) {
    for (const auto& node : input.nodes) {
      fleet.add_node(node.profile);
    }
  }
  std::vector<std::vector<std::uint8_t>> copies;
  for (const Frame& f : input.frames) {
    for (std::size_t c = 0; c < kReplayCopies; ++c) {
      copies.push_back(f.bytes);
    }
  }
  const auto nodes = static_cast<std::uint32_t>(input.nodes.size());
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < copies.size(); ++i) {
    const Frame& f = input.frames[i / kReplayCopies];
    const auto c = static_cast<std::uint32_t>(i % kReplayCopies);
    fleet.submit(f.node + c * nodes, std::move(copies[i]));
  }
  fleet.finish();
  return seconds_between(t0, Clock::now()) /
         static_cast<double>(copies.size());
}

/// Mean seconds per GatewayService::offer over the workload's frames, on a
/// one-worker gateway pinned to kConcealOnly; the offering side waits
/// while the queue is half full so nothing is shed.
double offer_replay_s(const WorkloadInput& input, const ReceiverSetup& setup) {
  csecg::wbsn::GatewayConfig config;
  config.shards = 1;
  config.shard = replay_fleet_config(input, setup);
  csecg::wbsn::GatewayService service(config, [](const auto&) {});
  service.force_tier(0, csecg::wbsn::DegradeTier::kConcealOnly);
  for (const auto& node : input.nodes) {
    service.register_node(node.profile);
  }
  double seconds = 0.0;
  for (const Frame& f : input.frames) {
    while (service.queued(0) >= config.shard.queue_depth / 2) {
      std::this_thread::yield();
    }
    const auto t0 = Clock::now();
    service.offer(f.node, f.bytes);
    seconds += seconds_between(t0, Clock::now());
  }
  service.finish();
  return seconds / static_cast<double>(input.frames.size());
}

/// Mean seconds per ArqReceiver entry call (on_frame / on_corrupt_frame)
/// replaying each node's arrivals through a fresh receiver.
double arq_replay_s(const WorkloadInput& input, const ReceiverSetup& setup) {
  const auto config = replay_fleet_config(input, setup).arq;
  std::vector<double> samples;
  Packet packet;
  for (int rep = 0; rep < 15; ++rep) {
    std::vector<std::vector<std::uint8_t>> copies;
    for (const Frame& f : input.frames) {
      copies.push_back(f.bytes);
    }
    std::vector<csecg::wbsn::ArqReceiver> receivers(
        input.nodes.size(), csecg::wbsn::ArqReceiver(config, 0));
    std::vector<double> ticks(input.nodes.size(), 0.0);
    csecg::wbsn::ArqReceiver::Output out;
    double seconds = 0.0;
    for (std::size_t i = 0; i < copies.size(); ++i) {
      const std::uint32_t k = input.frames[i].node;
      ticks[k] += 1.0;
      out.events.clear();
      out.feedback.clear();
      const bool intact = Packet::parse_into(copies[i], packet);
      const auto t0 = Clock::now();
      if (intact) {
        receivers[k].on_frame(packet.sequence, std::move(copies[i]), ticks[k],
                              out);
      } else {
        receivers[k].on_corrupt_frame(ticks[k], out);
      }
      seconds += seconds_between(t0, Clock::now());
    }
    samples.push_back(seconds / static_cast<double>(copies.size()));
  }
  return median(samples);
}

}  // namespace

std::string Report::json() const {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    s += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
         value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

Report run_timed(const WorkloadInput& input, const ReceiverSetup& setup,
                 const Oracle& oracle, double seconds) {
  Report report;
  // One untimed round first: process-level lazy state (allocator arenas,
  // thread stacks, code pages) settles before anything is measured.
  const RoundResult warmup = run_round(input, setup, oracle, {});
  count(report, warmup);
  std::vector<RoundResult> rounds;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    rounds.push_back(run_round(input, setup, oracle, {}));
    count(report, rounds.back());
    if (!same_work(warmup, rounds.back())) {
      report.correct = false;
      std::fprintf(stderr, "error: round %zu did different work\n",
                   rounds.size());
    }
  } while (Clock::now() < deadline);
  add_end_to_end(report, rounds);
  return report;
}

Report run_traced(const WorkloadInput& input, const ReceiverSetup& setup,
                  const Oracle& oracle, double seconds,
                  const std::string& spans_path) {
  Report report;
  SpanRecorder spans;
  const Clock::time_point start = Clock::now();
  const csecg::linalg::Backend& backend = setup.resolved_backend();

  // Traced and untraced rounds alternate; the difference of their
  // median latencies is the tracing overhead.
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  count(report, run_round(input, setup, oracle, {}));  // warm-up
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (traced.empty() || Clock::now() < deadline) {
    untraced.push_back(run_round(input, setup, oracle, {}));
    RoundOptions options;
    options.spans = &spans;
    traced.push_back(run_round(input, setup, oracle, options));
    for (const auto* r : {&untraced.back(), &traced.back()}) {
      count(report, *r);
      if (!same_work(untraced.front(), *r)) {
        report.correct = false;
      }
    }
  }
  const double traced_p50 = median(pooled(traced, &RoundResult::latency_s));
  const double untraced_p50 = median(pooled(untraced, &RoundResult::latency_s));

  // Sequential replays through the public Decoder API: plain for times,
  // through the timing decorator for the kernel split.
  const auto frames = released_frames(input);
  const Replay plain = replay(input, setup, frames, backend, &spans, nullptr);
  TimingBackend timing(backend);
  const Replay timed = replay(input, setup, frames, timing, &spans, &timing);
  const KernelTotals kernels = timing.totals();

  double op_pair_us = 0.0;
  add(report, "core.decoder.construct_ms", median(plain.construct_s) * 1e3,
      "ms");
  add(report, "core.decoder.first_window_ms",
      median(plain.first_window_s) * 1e3, "ms");
  add(report, "core.decoder.entropy_us_per_frame",
      plain.entropy_s * 1e6 / static_cast<double>(plain.entropy_frames), "us");
  add(report, "core.decoder.reconstruct_ms_per_lead_window",
      plain.reconstruct_s * 1e3 / static_cast<double>(plain.lead_windows),
      "ms");
  add(report, "core.decoder.reconstruct_ms.cr30",
      cold_row_ms(input, backend, 30), "ms");
  add(report, "core.decoder.reconstruct_ms.cr50",
      cold_row_ms(input, backend, 50), "ms");
  add(report, "core.decoder.reconstruct_ms.cr70",
      cold_row_ms(input, backend, 70), "ms");
  add(report, "core.encoder.bytes_per_window", input.bytes_per_lead_window,
      "bytes");
  operator_legs(report, input, plain, backend, op_pair_us);

  const double us_per_iteration = plain.row_s * 1e6 / plain.row_iterations;
  const double iterations = timed.iterations;
  const double shrink_us = kernels.seconds(KernelClass::kShrink) * 1e6;
  const double glue_us = kernels.seconds(KernelClass::kGlue) * 1e6;
  const double filter_us = kernels.seconds(KernelClass::kFilter) * 1e6;
  add(report, "solvers.iterations_per_solve",
      plain.iterations / static_cast<double>(plain.solves), "count");
  add(report, "solvers.us_per_iteration", us_per_iteration, "us");
  add(report, "solvers.us_per_iteration_row",
      panel_us_per_row_iteration(input, plain, backend), "us");
  // Self time of the sampled reconstruct spans: what no kernel span
  // covers, i.e. the sparse Phi / Phi^T legs, the DWT's plumbing around
  // its filter kernels and the solver's own loops.
  const std::vector<Span> all_spans = spans.spans();
  const std::vector<double> self = self_seconds(all_spans);
  double sampled_self_s = 0.0;
  for (std::size_t i = 0; i < all_spans.size(); ++i) {
    if (std::find(timed.sampled_reconstruct_spans.begin(),
                  timed.sampled_reconstruct_spans.end(),
                  all_spans[i].id) != timed.sampled_reconstruct_spans.end()) {
      sampled_self_s += self[i];
    }
  }
  add(report, "solvers.self_us_per_iteration",
      us_per_iteration - op_pair_us - (shrink_us + glue_us) / iterations,
      "us");
  add(report, "solvers.non_kernel_us_per_iteration",
      timed.sampled_iterations > 0.0
          ? sampled_self_s * 1e6 / timed.sampled_iterations
          : 0.0,
      "us");
  add(report, "linalg.backend.shrink_us_per_iteration", shrink_us / iterations,
      "us");
  add(report, "linalg.backend.glue_us_per_iteration", glue_us / iterations,
      "us");
  add(report, "linalg.backend.filter_us_per_iteration", filter_us / iterations,
      "us");
  add(report, "linalg.backend.calls_per_iteration",
      static_cast<double>(kernels.total_calls()) / iterations, "count");

  // wbsn: receive path without reconstruction, ARQ, ingest, dispatch.
  std::vector<double> on_s;
  std::vector<double> off_s;
  for (int rep = 0; rep < 21; ++rep) {
    on_s.push_back(receive_replay_s(input, setup, true));
    off_s.push_back(receive_replay_s(input, setup, false));
  }
  add(report, "wbsn.receive_us_per_frame", median(on_s) * 1e6, "us");
  add(report, "wbsn.arq.on_frame_us", arq_replay_s(input, setup) * 1e6, "us");
  add(report, "wbsn.gateway.offer_us", offer_replay_s(input, setup) * 1e6,
      "us");
  add(report, "wbsn.fleet.dispatch_us_per_window",
      median(pooled(traced, &RoundResult::dispatch_s)) * 1e6, "us");
  std::size_t high_water = 0;
  for (const auto& r : traced) {
    high_water = std::max(high_water, r.queue_high_water);
  }
  add(report, "wbsn.fleet.queue_high_water", static_cast<double>(high_water),
      "count");
  add(report, "wbsn.windows_concealed",
      static_cast<double>(traced.front().windows_concealed), "count");
  add(report, "wbsn.frames_retransmitted",
      static_cast<double>(input.frames_retransmitted), "count");
  add(report, "wbsn.frames_corrupt",
      static_cast<double>(traced.front().frames_corrupt), "count");
  const auto lateness =
      tail_percentile(pooled(traced, &RoundResult::lateness_s), 0.95);
  add(report, "wbsn.generator_lateness_p95_ms",
      lateness ? *lateness * 1e3 : 0.0, "ms");
  add(report, "obs.span_us_per_window",
      (median(on_s) - median(off_s)) * 1e6 *
          static_cast<double>(input.frames.size()) /
          static_cast<double>(input.windows_total()),
      "us");
  add(report, "trace.overhead_latency_p50_ms",
      (traced_p50 - untraced_p50) * 1e3, "ms");

  if (!spans_path.empty() && !spans.write_jsonl(spans_path)) {
    std::fprintf(stderr, "warning: could not write spans to %s\n",
                 spans_path.c_str());
  }
  std::fprintf(stderr,
               "traced run: %zu spans, op pair %.1f us, windows concealed "
               "%zu (trace expects %zu), %.1f s\n",
               all_spans.size(), op_pair_us,
               traced.front().windows_concealed, input.windows_conceal_expected,
               seconds_between(start, Clock::now()));
  return report;
}

}  // namespace perfbench
