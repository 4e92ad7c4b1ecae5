#ifndef CSECG_OBS_FLIGHT_RECORDER_HPP
#define CSECG_OBS_FLIGHT_RECORDER_HPP

/// \file flight_recorder.hpp
/// In-memory flight recorder: a fixed-capacity lock-free ring of small
/// structured events (id + up to three u64 arguments + clock time) that
/// hot paths append to without allocating or locking. The ring always
/// holds the last `capacity` events; when an *anomaly* event lands
/// (deadline miss, tier escalation, CRC mismatch) the recorder can hand
/// the window of events leading up to it to a dump sink — the black box
/// a long-running gateway replays after the fact.
///
/// Concurrency model: any number of writer threads call record(). A
/// relaxed fetch_add on the cursor claims a sequence number and so a
/// slot; the writer claims the slot itself by swapping its stamp to a
/// busy marker, writes the payload with relaxed stores and publishes it
/// by a release store of the stamp (a per-slot seqlock). Writers of the
/// same slot, a lap apart, are serialised by that claim, and one that
/// finds a newer lap already published drops its event (it has left the
/// retained window), so a preempted writer can never hide a newer event.
/// A writer only waits when another lap's writer holds its slot for the
/// few stores of a payload. Readers (snapshot / dump) validate the stamp
/// before and after reading and skip slots that were torn by a
/// concurrent wrap — reads are best-effort by design.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "csecg/obs/clock.hpp"

namespace csecg::obs {

/// Structured event vocabulary. Keep ids stable: dumps identify events
/// by name, tools may key off them.
enum class FlightEventId : std::uint16_t {
  kFrameAccepted = 0,   ///< args: node, wire seq, tier
  kFrameShed = 1,       ///< args: node, wire seq, tier
  kTierEscalate = 2,    ///< args: shard, from tier, to tier
  kTierClear = 3,       ///< args: shard, from tier, to tier
  kNackSuppressed = 4,  ///< args: node, count
  kDeadlineMiss = 5,    ///< args: node, window slot, decode us
  kCrcMismatch = 6,     ///< args: node
  kFrameRejected = 7,   ///< args: node, window slot
  kProfileApplied = 8,  ///< args: node
};

const char* flight_event_name(FlightEventId id);

/// Anomalies trigger dumps: the events that mean "something the SLO
/// cares about just went wrong" rather than normal traffic.
bool flight_event_is_anomaly(FlightEventId id);

/// One recorded event, as read back out of the ring.
struct FlightEvent {
  std::uint64_t seq = 0;  ///< global record index (monotonic)
  double time_s = 0.0;    ///< clock at record()
  FlightEventId id = FlightEventId::kFrameAccepted;
  std::uint64_t args[3] = {0, 0, 0};
};

class FlightRecorder {
 public:
  /// Receives an anomaly dump: the triggering event plus the window of
  /// events leading up to it (trigger last). Called synchronously from
  /// the recording thread — whichever worker or ingest thread hit the
  /// anomaly — so it must be thread-safe. It may allocate (the hot path
  /// has already left record()'s allocation-free contract by dumping).
  using DumpSink = std::function<void(const FlightEvent& trigger,
                                      std::span<const FlightEvent> window)>;

  /// \p capacity is rounded up to a power of two (slot indexing is a
  /// mask, not a divide). \p clock null = the process steady clock;
  /// tests pass a ManualClock for deterministic event times.
  explicit FlightRecorder(std::size_t capacity = 1024,
                          const Clock* clock = nullptr);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event. Allocation-free and lock-free unless the event
  /// is an anomaly with dumps armed (then the dump sink runs inline).
  void record(FlightEventId id, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
              std::uint64_t a2 = 0);

  std::size_t capacity() const { return capacity_; }
  /// Events ever recorded / overwritten by the wrap.
  std::uint64_t recorded() const {
    return cursor_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    const std::uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }

  /// Installs the anomaly dump sink; each dump carries up to
  /// \p window_events events ending at the trigger. Not thread-safe
  /// against concurrent record() of anomalies — install before traffic.
  void set_dump_sink(DumpSink sink, std::size_t window_events = 32);

  /// Arms/disarms anomaly dumps at runtime (atomic). A soak disarms
  /// them across its measured steady phase: rendering a dump allocates,
  /// and the phase asserts an allocation-free gateway.
  void set_dump_enabled(bool enabled) {
    dump_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool dump_enabled() const {
    return dump_enabled_.load(std::memory_order_relaxed);
  }

  /// Per-recorder dump budget; once exhausted anomalies still record as
  /// events but no longer dump (a flapping tier must not write gigabytes).
  void set_max_dumps(std::size_t max_dumps) { max_dumps_ = max_dumps; }
  std::size_t dumps_emitted() const {
    return dumps_emitted_.load(std::memory_order_relaxed);
  }

  /// Copies out the currently retained events, oldest first. Slots torn
  /// by a concurrent writer are skipped. Allocates; cold paths only.
  std::vector<FlightEvent> snapshot() const;

 private:
  /// Seqlock slot: payload fields are relaxed, stamp publishes. A valid
  /// slot holds stamp == seq + 1 for the event with global index seq;
  /// kWriting while a writer holds it.
  struct Slot {
    std::atomic<std::uint64_t> stamp{0};
    std::atomic<std::uint64_t> time_bits{0};
    std::atomic<std::uint16_t> id{0};
    std::atomic<std::uint64_t> args[3];
  };

  /// Reads slot holding global index \p seq into \p out; false if torn.
  bool read_slot(std::uint64_t seq, FlightEvent& out) const;
  void dump(std::uint64_t trigger_seq);

  static constexpr std::uint64_t kWriting = ~std::uint64_t{0};

  std::size_t capacity_;  ///< power of two
  std::size_t mask_;
  const Clock* clock_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> cursor_{0};

  std::atomic<bool> dump_enabled_{true};
  std::atomic<std::size_t> dumps_emitted_{0};
  std::size_t max_dumps_ = 16;
  std::size_t dump_window_ = 32;
  DumpSink dump_sink_;
  std::mutex dump_mutex_;  ///< serialises concurrent anomaly dumps
};

/// Renders events as JSONL, one object per line:
///   {"type":"flight","seq":N,"t":X,"event":"deadline_miss",
///    "args":[a,b,c]}
/// The event whose seq equals \p trigger_seq gets "trigger":true.
void dump_flight_events_jsonl(std::span<const FlightEvent> events,
                              std::ostream& os,
                              std::uint64_t trigger_seq = ~std::uint64_t{0});

}  // namespace csecg::obs

#endif  // CSECG_OBS_FLIGHT_RECORDER_HPP
