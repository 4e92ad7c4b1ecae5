#include "inputs.hpp"

#include <map>
#include <span>
#include <stdexcept>
#include <string>

#include "csecg/core/encoder.hpp"
#include "csecg/core/packet.hpp"
#include "csecg/ecg/ecgsyn.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/wbsn/link.hpp"
#include "csecg/wbsn/node.hpp"

namespace perfbench {

namespace {

/// splitmix64 finaliser: decorrelates (seed, workload, node, field).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
            std::uint64_t c) {
  const std::uint64_t h = mix(mix(mix(seed) ^ a) ^ (b << 8) ^ c);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// A node template: CR, leads, heart-rate band and beat mix. The seed
/// picks the rate inside the band, the amplitude and the beat schedule.
struct NodeTemplate {
  double cr;
  std::size_t leads;
  double hr_lo;
  double hr_hi;
  double pvc;
  double apc;
};

// monitor_cold_cr50: four single-lead CR-50 records spanning slow sinus,
// ventricular ectopy, atrial ectopy and fast sinus.
constexpr NodeTemplate kMonitorNodes[] = {
    {50, 1, 56, 64, 0.00, 0.00},
    {50, 1, 70, 80, 0.15, 0.00},
    {50, 1, 82, 92, 0.00, 0.10},
    {50, 1, 96, 108, 0.00, 0.00},
};
constexpr std::size_t kMonitorWindows = 16;

// fleet_saturated_mixed: single-lead nodes over CR 30/50/70 plus two
// 3-lead groups at CR 50.
constexpr NodeTemplate kFleetNodes[] = {
    {30, 1, 62, 72, 0.00, 0.00}, {50, 1, 74, 84, 0.12, 0.00},
    {70, 1, 86, 96, 0.00, 0.08}, {30, 1, 96, 106, 0.08, 0.00},
    {50, 1, 56, 64, 0.00, 0.10}, {70, 1, 66, 76, 0.00, 0.00},
    {50, 3, 70, 80, 0.00, 0.00}, {50, 3, 84, 94, 0.10, 0.00},
};
constexpr std::size_t kFleetWindows = 12;

// gateway_lossy_warm: eight single-lead CR-50 nodes over a bursty link.
constexpr NodeTemplate kGatewayNodes[] = {
    {50, 1, 55, 62, 0.00, 0.00}, {50, 1, 62, 70, 0.12, 0.00},
    {50, 1, 68, 76, 0.00, 0.08}, {50, 1, 74, 82, 0.00, 0.00},
    {50, 1, 80, 88, 0.10, 0.00}, {50, 1, 86, 94, 0.00, 0.06},
    {50, 1, 92, 100, 0.00, 0.00}, {50, 1, 98, 106, 0.08, 0.00},
};
constexpr std::size_t kGatewayWindows = 40;
/// Keyframe cadence of the lossy streams: bounds how far a broken
/// difference chain can reach.
constexpr std::size_t kLossyKeyframeInterval = 16;
/// Windows each lossy node sends after its counted ones. A receiver only
/// learns a frame is missing when a later one arrives, and the sender
/// retransmits only on NACK, so the last frames of a stream that simply
/// stops are never recovered or concealed. The tail keeps the stream
/// going past the counted windows, as a live stream would; tail windows
/// are checked but are not operations.
constexpr std::size_t kTailWindows = 10;
/// Feedback-only send steps after the last window.
constexpr std::size_t kDrainSteps = 2;

NodeInput make_node(const NodeTemplate& t, std::uint64_t seed,
                    Workload workload, std::size_t index,
                    std::size_t windows) {
  const auto w = static_cast<std::uint64_t>(workload);
  NodeInput node;
  node.spec.cr_percent = t.cr;
  node.spec.leads = t.leads;
  node.spec.heart_rate_bpm =
      t.hr_lo + (t.hr_hi - t.hr_lo) * unit(seed, w, index, 1);
  node.spec.pvc_probability = t.pvc;
  node.spec.apc_probability = t.apc;
  node.spec.amplitude_mv = 0.8 + 0.6 * unit(seed, w, index, 2);
  node.spec.ecg_seed = mix(seed ^ mix((w << 16) | index)) | 1;
  node.windows = windows;

  node.profile = csecg::core::profile_for_cr(t.cr);
  if (t.leads > 1) {
    node.profile = node.profile.with_leads(t.leads);
  }

  csecg::ecg::EcgSynConfig gen;
  gen.sample_rate_hz = static_cast<double>(kWindow) / kWindowSeconds;
  gen.duration_s = static_cast<double>(windows) * kWindowSeconds + 1.0;
  gen.mean_heart_rate_bpm = node.spec.heart_rate_bpm;
  gen.pvc_probability = node.spec.pvc_probability;
  gen.apc_probability = node.spec.apc_probability;
  gen.amplitude_mv = node.spec.amplitude_mv;
  gen.seed = node.spec.ecg_seed;
  const auto schedule = csecg::ecg::generate_beat_schedule(gen);
  const csecg::ecg::AdcModel adc;
  for (std::size_t l = 0; l < t.leads; ++l) {
    auto counts = adc.quantize(
        csecg::ecg::render_ecg(schedule, gen,
                               csecg::ecg::LeadProjection::for_lead(l))
            .samples_mv);
    if (counts.size() < windows * kWindow) {
      throw std::runtime_error("generated record shorter than requested");
    }
    counts.resize(windows * kWindow);
    node.source.push_back(std::move(counts));
  }
  return node;
}

std::vector<NodeInput> make_nodes(std::span<const NodeTemplate> templates,
                                  std::uint64_t seed, Workload workload,
                                  std::size_t windows) {
  std::vector<NodeInput> nodes;
  for (std::size_t i = 0; i < templates.size(); ++i) {
    nodes.push_back(make_node(templates[i], seed, workload, i, windows));
  }
  return nodes;
}

/// Clean link: the profile frame of every node, then window-major
/// round robin over the nodes (a group window's lead frames back to
/// back) — the order concurrent senders reach a gateway in.
void encode_clean(WorkloadInput& input) {
  std::vector<csecg::core::Encoder> encoders;
  for (auto& node : input.nodes) {
    encoders.emplace_back(node.profile);
  }
  std::size_t data_bytes = 0;
  std::size_t data_frames = 0;
  for (std::size_t k = 0; k < input.nodes.size(); ++k) {
    const auto packet = encoders[k].take_profile_packet();
    if (!packet) {
      throw std::runtime_error("profile encoder did not announce");
    }
    input.frames.push_back(
        {static_cast<std::uint32_t>(k), -1, 0, packet->serialize()});
  }
  const std::size_t windows = input.nodes.front().windows;
  std::vector<std::int16_t> flat;
  for (std::size_t w = 0; w < windows; ++w) {
    for (std::size_t k = 0; k < input.nodes.size(); ++k) {
      const NodeInput& node = input.nodes[k];
      flat.clear();
      for (const auto& lead : node.source) {
        flat.insert(flat.end(), lead.begin() + w * kWindow,
                    lead.begin() + (w + 1) * kWindow);
      }
      const auto packets =
          node.spec.leads == 1
              ? std::vector<csecg::core::Packet>{encoders[k].encode_window(
                    flat)}
              : encoders[k].encode_group(flat);
      for (const auto& packet : packets) {
        input.frames.push_back({static_cast<std::uint32_t>(k),
                                static_cast<int>(w), packet.lead,
                                packet.serialize()});
        data_bytes += input.frames.back().bytes.size();
        ++data_frames;
      }
    }
  }
  input.bytes_per_lead_window =
      static_cast<double>(data_bytes) / static_cast<double>(data_frames);
}

/// The lossy link of node \p k: Gilbert–Elliott frame loss (12 %, mean
/// burst 5 frames: bursts long enough that some frames exhaust their
/// retries and are concealed) plus bit errors that hit 3 % of the copies.
/// The fault realization is fixed per node and does not depend on the
/// run's seed: the seed varies the patients' signals while every run
/// replays the same channel. Which windows wait for a repair decides the
/// latency tail; with the channel redrawn per seed, window_latency_p95_ms
/// spread over 531-679 ms across five seeds (IQR 0.20 of the median),
/// wider than any bound this benchmark may set.
csecg::wbsn::LinkConfig fault_model(std::size_t k) {
  csecg::wbsn::LinkConfig config;
  config.loss_rate = 0.12;
  config.mean_burst_frames = 5.0;
  config.seed = 0x11c0ull + k;
  // Corrupt copies by transmit index (one flipped bit each; the CRC
  // rejects them), drawn once from a constant seed.
  constexpr std::size_t kMaxTransmissions = 4096;
  for (std::size_t i = 0; i < kMaxTransmissions; ++i) {
    if (unit(0xc0ffeeull, 0, k, i) < 0.03) {
      config.corrupt_schedule.push_back(i);
    }
  }
  return config;
}

/// Mirror of the receiver's ARQ, clocked like the fleet's (one tick per
/// frame processed). Its feedback is what the gateway must reproduce
/// from the same arrival sequence.
struct Mirror {
  csecg::wbsn::ArqReceiver rx;
  double ticks = 0.0;
  std::size_t arrivals = 0;
  std::map<std::uint16_t, std::size_t> first_intact;  ///< arrival index
  std::map<std::uint16_t, std::size_t> abandoned_at;  ///< arrival index
  std::size_t corrupt = 0;

  explicit Mirror(const csecg::wbsn::ArqConfig& config) : rx(config, 0) {}

  void absorb(const csecg::wbsn::ArqReceiver::Output& out, NodeTrace& trace) {
    for (const auto& event : out.events) {
      if (event.lost) {
        abandoned_at.emplace(event.sequence, arrivals);
      }
    }
    trace.feedback.insert(trace.feedback.end(), out.feedback.begin(),
                          out.feedback.end());
  }

  /// True when \p sequence arrived intact before the receiver abandoned
  /// it (or was never abandoned).
  bool intact_in_time(std::uint16_t sequence) const {
    const auto got = first_intact.find(sequence);
    if (got == first_intact.end()) {
      return false;
    }
    const auto lost = abandoned_at.find(sequence);
    return lost == abandoned_at.end() || got->second < lost->second;
  }
};

}  // namespace

std::optional<Workload> workload_by_name(std::string_view name) {
  if (name == "monitor_cold_cr50") {
    return Workload::kMonitorColdCr50;
  }
  if (name == "fleet_saturated_mixed") {
    return Workload::kFleetSaturatedMixed;
  }
  if (name == "gateway_lossy_warm") {
    return Workload::kGatewayLossyWarm;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kMonitorColdCr50:
      return "monitor_cold_cr50";
    case Workload::kFleetSaturatedMixed:
      return "fleet_saturated_mixed";
    case Workload::kGatewayLossyWarm:
      return "gateway_lossy_warm";
  }
  return "?";
}

std::size_t WorkloadInput::windows_total() const {
  std::size_t total = 0;
  for (const auto& node : nodes) {
    total += node.windows;
  }
  return total;
}

csecg::wbsn::ArqConfig lossy_arq_config() { return csecg::wbsn::ArqConfig{}; }

WorkloadInput make_lossy_inputs(std::uint64_t seed, std::size_t node_count,
                                std::size_t windows) {
  WorkloadInput input;
  input.workload = Workload::kGatewayLossyWarm;
  const std::span<const NodeTemplate> templates(kGatewayNodes);
  const std::size_t sent = windows + kTailWindows;
  for (std::size_t i = 0; i < node_count; ++i) {
    input.nodes.push_back(make_node(templates[i % templates.size()], seed,
                                    input.workload, i, sent));
    input.nodes.back().windows = windows;
    input.nodes.back().tail_windows = kTailWindows;
    input.nodes.back().profile.keyframe_interval = kLossyKeyframeInterval;
  }

  std::vector<std::vector<Frame>> per_node(node_count);
  input.traces.resize(node_count);
  std::size_t data_bytes = 0;
  std::size_t data_frames = 0;
  for (std::size_t k = 0; k < node_count; ++k) {
    // The sender side of a StreamSession, unrolled so every frame is seen
    // before the link: node (encoder + ARQ transmitter) then link.
    csecg::wbsn::SensorNode sender(input.nodes[k].profile, {},
                                   lossy_arq_config());
    csecg::wbsn::BluetoothLink link(fault_model(k));
    Mirror mirror(lossy_arq_config());
    NodeTrace& trace = input.traces[k];
    std::vector<csecg::wbsn::FeedbackMessage> pending;
    // What the sender put on each wire sequence: its kind and window
    // (-1 for a profile announcement).
    std::map<std::uint16_t, csecg::core::PacketKind> kind;
    auto& window_of = trace.window_of;
    int step = 0;
    int window = -1;
    csecg::core::Packet parsed;
    const auto transmit = [&](const std::vector<std::uint8_t>& frame) {
      if (!csecg::core::Packet::parse_into(frame, parsed)) {
        throw std::runtime_error("sender produced an unparsable frame");
      }
      if (kind.emplace(parsed.sequence, parsed.kind).second) {
        window_of[parsed.sequence] =
            parsed.kind == csecg::core::PacketKind::kProfile ? -1 : window;
        if (parsed.kind != csecg::core::PacketKind::kProfile) {
          data_bytes += frame.size();
          ++data_frames;
        }
      }
      // The session start (profile announcement and first keyframe) rides
      // the connection set-up, which the link layer acknowledges; faults
      // start with the second window, so set-up time measures the
      // receiver, not the luck of the first draws.
      auto delivered = step == 0
                           ? std::optional<std::vector<std::uint8_t>>(frame)
                           : link.transmit(frame);
      if (!delivered) {
        return;
      }
      mirror.ticks += 1.0;
      csecg::wbsn::ArqReceiver::Output out;
      if (csecg::core::Packet::parse_into(*delivered, parsed)) {
        mirror.first_intact.emplace(parsed.sequence, mirror.arrivals);
        mirror.rx.on_frame(parsed.sequence, *delivered, mirror.ticks, out);
      } else {
        ++mirror.corrupt;
        mirror.rx.on_corrupt_frame(mirror.ticks, out);
      }
      per_node[k].push_back({static_cast<std::uint32_t>(k), step, 0,
                             std::move(*delivered)});
      ++mirror.arrivals;
      mirror.absorb(out, trace);
      pending.insert(pending.end(), out.feedback.begin(), out.feedback.end());
    };
    const auto service_feedback = [&] {
      const auto messages = std::move(pending);
      pending.clear();
      for (const auto& frame : sender.handle_feedback(messages)) {
        transmit(frame);
      }
    };
    const auto& source = input.nodes[k].source.front();
    for (std::size_t w = 0; w < sent; ++w, ++step) {
      service_feedback();
      if (const auto announcement = sender.take_profile_frame()) {
        transmit(*announcement);
      }
      window = static_cast<int>(w);
      transmit(sender.process_window(std::span<const std::int16_t>(
          source.data() + w * kWindow, kWindow)));
    }
    for (std::size_t t = 0; t < kDrainSteps; ++t, ++step) {
      service_feedback();
    }
    trace.send_steps = static_cast<std::size_t>(step);
    csecg::wbsn::ArqReceiver::Output out;
    mirror.rx.finish(mirror.ticks, out);
    mirror.absorb(out, trace);

    input.frames_retransmitted += sender.arq().stats().retransmissions;
    input.frames_corrupt += mirror.corrupt;
    // Window w is concealable when its frame, or one of its difference
    // chain back to the last keyframe, never arrived intact in time.
    // Profile announcements are not part of any chain (each is followed
    // by a forced keyframe).
    trace.conceal_justified.assign(sent, false);
    for (const auto& [sequence, w] : window_of) {
      if (w < 0) {
        continue;
      }
      bool justified = false;
      for (int t = sequence; t >= 0; --t) {
        const auto s = static_cast<std::uint16_t>(t);
        if (kind.at(s) == csecg::core::PacketKind::kProfile) {
          continue;
        }
        if (!mirror.intact_in_time(s)) {
          justified = true;
          break;
        }
        if (kind.at(s) == csecg::core::PacketKind::kAbsolute) {
          break;
        }
      }
      trace.conceal_justified[static_cast<std::size_t>(w)] = justified;
      if (justified && static_cast<std::size_t>(w) < windows) {
        ++input.windows_conceal_expected;
      }
    }
  }
  input.bytes_per_lead_window =
      static_cast<double>(data_bytes) / static_cast<double>(data_frames);

  // Interleave: every node's frames of send step s, in node order, before
  // any frame of step s + 1.
  std::vector<std::size_t> cursor(node_count, 0);
  const std::size_t steps = input.traces.front().send_steps;
  for (std::size_t s = 0; s < steps; ++s) {
    for (std::size_t k = 0; k < node_count; ++k) {
      while (cursor[k] < per_node[k].size() &&
             per_node[k][cursor[k]].step == static_cast<int>(s)) {
        input.frames.push_back(std::move(per_node[k][cursor[k]++]));
      }
    }
  }
  return input;
}

WorkloadInput make_inputs(Workload workload, std::uint64_t seed) {
  if (workload == Workload::kGatewayLossyWarm) {
    return make_lossy_inputs(seed, std::size(kGatewayNodes), kGatewayWindows);
  }
  WorkloadInput input;
  input.workload = workload;
  if (workload == Workload::kMonitorColdCr50) {
    input.nodes = make_nodes(kMonitorNodes, seed, workload, kMonitorWindows);
  } else {
    input.nodes = make_nodes(kFleetNodes, seed, workload, kFleetWindows);
  }
  encode_clean(input);
  return input;
}

}  // namespace perfbench
