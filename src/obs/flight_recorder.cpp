#include "csecg/obs/flight_recorder.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <ostream>
#include <thread>

namespace csecg::obs {

const char* flight_event_name(FlightEventId id) {
  switch (id) {
    case FlightEventId::kFrameAccepted:
      return "frame_accepted";
    case FlightEventId::kFrameShed:
      return "frame_shed";
    case FlightEventId::kTierEscalate:
      return "tier_escalate";
    case FlightEventId::kTierClear:
      return "tier_clear";
    case FlightEventId::kNackSuppressed:
      return "nack_suppressed";
    case FlightEventId::kDeadlineMiss:
      return "deadline_miss";
    case FlightEventId::kCrcMismatch:
      return "crc_mismatch";
    case FlightEventId::kFrameRejected:
      return "frame_rejected";
    case FlightEventId::kProfileApplied:
      return "profile_applied";
  }
  return "?";
}

bool flight_event_is_anomaly(FlightEventId id) {
  return id == FlightEventId::kDeadlineMiss ||
         id == FlightEventId::kTierEscalate ||
         id == FlightEventId::kCrcMismatch;
}

FlightRecorder::FlightRecorder(std::size_t capacity, const Clock* clock)
    : capacity_(std::bit_ceil(std::max<std::size_t>(capacity, 8))),
      mask_(capacity_ - 1),
      clock_(clock != nullptr ? clock : &steady_clock()),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

void FlightRecorder::record(FlightEventId id, std::uint64_t a0,
                            std::uint64_t a1, std::uint64_t a2) {
  const std::uint64_t seq = cursor_.fetch_add(1, std::memory_order_relaxed);
  // Read the clock before touching the slot, so no writer holds a slot
  // across a call it does not control.
  const double now = clock_->now();
  Slot& slot = slots_[seq & mask_];
  // Claim the slot. Its writers, one per lap, serialise on the stamp: the
  // claim swaps in kWriting, which no reader ever matches, so a reader
  // that catches the slot mid-write skips it. A writer that finds a newer
  // lap already published here drops its event: it has left the window
  // the ring retains, and publishing it would hide the newer one.
  std::uint64_t stamp = slot.stamp.load(std::memory_order_relaxed);
  for (;;) {
    if (stamp == kWriting) {
      std::this_thread::yield();
      stamp = slot.stamp.load(std::memory_order_relaxed);
    } else if (stamp > seq + 1) {
      return;
    } else if (slot.stamp.compare_exchange_weak(stamp, kWriting,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed)) {
      break;
    }
  }
  slot.time_bits.store(std::bit_cast<std::uint64_t>(now),
                       std::memory_order_relaxed);
  slot.id.store(static_cast<std::uint16_t>(id), std::memory_order_relaxed);
  slot.args[0].store(a0, std::memory_order_relaxed);
  slot.args[1].store(a1, std::memory_order_relaxed);
  slot.args[2].store(a2, std::memory_order_relaxed);
  slot.stamp.store(seq + 1, std::memory_order_release);

  if (flight_event_is_anomaly(id) &&
      dump_enabled_.load(std::memory_order_relaxed)) {
    dump(seq);
  }
}

bool FlightRecorder::read_slot(std::uint64_t seq, FlightEvent& out) const {
  const Slot& slot = slots_[seq & mask_];
  if (slot.stamp.load(std::memory_order_acquire) != seq + 1) {
    return false;
  }
  out.seq = seq;
  out.time_s =
      std::bit_cast<double>(slot.time_bits.load(std::memory_order_relaxed));
  out.id =
      static_cast<FlightEventId>(slot.id.load(std::memory_order_relaxed));
  out.args[0] = slot.args[0].load(std::memory_order_relaxed);
  out.args[1] = slot.args[1].load(std::memory_order_relaxed);
  out.args[2] = slot.args[2].load(std::memory_order_relaxed);
  // Re-check: a writer that lapped us mid-read left a different stamp.
  return slot.stamp.load(std::memory_order_acquire) == seq + 1;
}

void FlightRecorder::set_dump_sink(DumpSink sink, std::size_t window_events) {
  std::lock_guard<std::mutex> lock(dump_mutex_);
  dump_sink_ = std::move(sink);
  dump_window_ = std::max<std::size_t>(1, window_events);
}

void FlightRecorder::dump(std::uint64_t trigger_seq) {
  std::lock_guard<std::mutex> lock(dump_mutex_);
  if (!dump_sink_ ||
      dumps_emitted_.load(std::memory_order_relaxed) >= max_dumps_) {
    return;
  }
  dumps_emitted_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t window =
      std::min<std::uint64_t>(dump_window_, trigger_seq + 1);
  std::vector<FlightEvent> events;
  events.reserve(window);
  FlightEvent event;
  for (std::uint64_t seq = trigger_seq + 1 - window; seq <= trigger_seq;
       ++seq) {
    if (read_slot(seq, event)) {
      events.push_back(event);
    }
  }
  if (events.empty()) {
    return;
  }
  dump_sink_(events.back(), std::span<const FlightEvent>(events));
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  const std::uint64_t end = cursor_.load(std::memory_order_acquire);
  const std::uint64_t begin = end > capacity_ ? end - capacity_ : 0;
  std::vector<FlightEvent> events;
  events.reserve(end - begin);
  FlightEvent event;
  for (std::uint64_t seq = begin; seq < end; ++seq) {
    if (read_slot(seq, event)) {
      events.push_back(event);
    }
  }
  return events;
}

void dump_flight_events_jsonl(std::span<const FlightEvent> events,
                              std::ostream& os, std::uint64_t trigger_seq) {
  char buffer[32];
  for (const FlightEvent& event : events) {
    os << "{\"type\":\"flight\",\"seq\":" << event.seq << ",\"t\":";
    std::snprintf(buffer, sizeof buffer, "%.9g", event.time_s);
    os << buffer << ",\"event\":\"" << flight_event_name(event.id)
       << "\",\"args\":[" << event.args[0] << "," << event.args[1] << ","
       << event.args[2] << "]";
    if (event.seq == trigger_seq) {
      os << ",\"trigger\":true";
    }
    os << "}\n";
  }
}

}  // namespace csecg::obs
