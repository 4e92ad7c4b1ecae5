#ifndef CSECG_PERFBENCH_INPUTS_HPP
#define CSECG_PERFBENCH_INPUTS_HPP

/// \file inputs.hpp
/// Seeded input generation for the three workloads. Everything here runs
/// before any timing starts: ECG synthesis, encoding, and for the lossy
/// workload the link model with a mirror of the receiver's ARQ, which
/// fixes the arrival sequence (retransmissions and corrupt copies
/// included) and records the feedback the receiver must send. The program
/// under test later receives only the frame bytes.

#include <cstdint>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

#include "csecg/core/stream_profile.hpp"
#include "csecg/wbsn/arq.hpp"

namespace perfbench {

enum class Workload {
  kMonitorColdCr50,
  kFleetSaturatedMixed,
  kGatewayLossyWarm,
};

std::optional<Workload> workload_by_name(std::string_view name);
const char* workload_name(Workload workload);

/// Samples per window and the window period they cover.
inline constexpr std::size_t kWindow = 512;
inline constexpr double kWindowSeconds = 2.0;

/// The make-up of one sensor node.
struct NodeSpec {
  double cr_percent = 50.0;
  std::size_t leads = 1;
  double heart_rate_bpm = 70.0;
  double pvc_probability = 0.0;
  double apc_probability = 0.0;
  double amplitude_mv = 1.0;
  std::uint64_t ecg_seed = 1;
};

struct NodeInput {
  NodeSpec spec;
  csecg::core::StreamProfile profile;
  /// source[lead]: the ADC counts the encoder saw
  /// ((windows + tail_windows) * kWindow).
  std::vector<std::vector<std::int16_t>> source;
  /// Counted windows: each one is an operation.
  std::size_t windows = 0;
  /// Windows sent after the counted ones to keep the stream alive (lossy
  /// workload); checked when delivered, never counted.
  std::size_t tail_windows = 0;
};

/// One frame handed to the receiver.
struct Frame {
  std::uint32_t node = 0;
  /// Clean workloads: the input window the frame carries (-1 for the
  /// session-start profile frame). Lossy workload: the sender's send
  /// step the frame left in (its due time).
  int step = -1;
  std::uint8_t lead = 0;
  std::vector<std::uint8_t> bytes;
};

/// What the lossy link trace fixes per node.
struct NodeTrace {
  /// Feedback the receiver must emit, in order.
  std::vector<csecg::wbsn::FeedbackMessage> feedback;
  /// conceal_justified[w]: the trace shows window w, or a frame of its
  /// difference chain back to the last intact keyframe, never arrived
  /// intact before the receiver abandoned it (tail windows included).
  std::vector<bool> conceal_justified;
  /// What the sender put on each wire sequence: the window it carries,
  /// or -1 for a profile announcement.
  std::map<std::uint16_t, int> window_of;
  std::size_t send_steps = 0;  ///< windows plus tail-drain steps
};

struct WorkloadInput {
  Workload workload = Workload::kMonitorColdCr50;
  std::vector<NodeInput> nodes;
  /// Clean workloads: submission order. Lossy: arrival order within each
  /// node, nodes interleaved by send step.
  std::vector<Frame> frames;
  /// Mean framed bytes of one lead's data frame (profile frames
  /// excluded): guards the wire format and the entropy stage's input.
  double bytes_per_lead_window = 0.0;
  // Lossy workload only.
  std::vector<NodeTrace> traces;
  std::size_t frames_retransmitted = 0;  ///< retransmitted copies sent
  std::size_t frames_corrupt = 0;        ///< copies that arrived damaged
  std::size_t windows_conceal_expected = 0;

  std::size_t windows_total() const;
};

/// Link and ARQ set-up of the lossy workload.
csecg::wbsn::ArqConfig lossy_arq_config();

/// Builds every input of \p workload from \p seed. The same seed gives
/// byte-identical frames.
WorkloadInput make_inputs(Workload workload, std::uint64_t seed);

/// As make_inputs for the lossy workload, with \p nodes nodes of
/// \p windows windows each (the self-test uses a small trace).
WorkloadInput make_lossy_inputs(std::uint64_t seed, std::size_t nodes,
                                std::size_t windows);

}  // namespace perfbench

#endif  // CSECG_PERFBENCH_INPUTS_HPP
