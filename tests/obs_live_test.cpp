// Unit tests for the live telemetry plane (src/obs): the flight
// recorder's seqlock ring (wraparound, anomaly dumps, concurrent
// writers), the epoch-diff timeline under a ManualClock, and the
// Prometheus text exposition. Suite names start with ObsMetrics so the
// concurrency tests ride the TSan CI leg's filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "csecg/obs/clock.hpp"
#include "csecg/obs/export.hpp"
#include "csecg/obs/flight_recorder.hpp"
#include "csecg/obs/metrics.hpp"
#include "csecg/obs/timeline.hpp"

namespace {

using namespace csecg;

TEST(ObsMetricsFlightRecorder, RetainsLastCapacityEventsAfterWrap) {
  obs::ManualClock clock;
  obs::FlightRecorder recorder(8, &clock);
  EXPECT_EQ(recorder.capacity(), 8u);

  for (std::uint64_t i = 0; i < 20; ++i) {
    clock.advance(0.5);
    recorder.record(obs::FlightEventId::kFrameAccepted, i, 100 + i, 2);
  }
  EXPECT_EQ(recorder.recorded(), 20u);
  EXPECT_EQ(recorder.dropped(), 12u);

  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);  // oldest first
    EXPECT_EQ(events[i].args[0], 12 + i);
    EXPECT_EQ(events[i].args[1], 112 + i);
    EXPECT_DOUBLE_EQ(events[i].time_s, 0.5 * static_cast<double>(13 + i));
  }
}

TEST(ObsMetricsFlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  obs::FlightRecorder recorder(100);
  EXPECT_EQ(recorder.capacity(), 128u);
  obs::FlightRecorder tiny(0);
  EXPECT_EQ(tiny.capacity(), 8u);  // floor
}

TEST(ObsMetricsFlightRecorder, AnomalyTriggersDumpWithWindow) {
  obs::ManualClock clock;
  obs::FlightRecorder recorder(64, &clock);

  std::vector<obs::FlightEvent> dumped;
  obs::FlightEvent trigger;
  recorder.set_dump_sink(
      [&](const obs::FlightEvent& t, std::span<const obs::FlightEvent> w) {
        trigger = t;
        dumped.assign(w.begin(), w.end());
      },
      /*window_events=*/4);

  for (std::uint64_t i = 0; i < 10; ++i) {
    recorder.record(obs::FlightEventId::kFrameAccepted, i);
  }
  EXPECT_TRUE(dumped.empty());  // normal traffic never dumps

  recorder.record(obs::FlightEventId::kDeadlineMiss, 7, 3, 42000);
  ASSERT_EQ(dumped.size(), 4u);
  EXPECT_EQ(recorder.dumps_emitted(), 1u);
  // Window ends at the trigger, preceded by the freshest context.
  EXPECT_EQ(dumped.back().seq, trigger.seq);
  EXPECT_EQ(dumped.back().id, obs::FlightEventId::kDeadlineMiss);
  EXPECT_EQ(dumped.back().args[2], 42000u);
  EXPECT_EQ(dumped.front().seq, trigger.seq - 3);

  // Disarmed: anomalies still record, nothing dumps.
  recorder.set_dump_enabled(false);
  dumped.clear();
  recorder.record(obs::FlightEventId::kCrcMismatch, 1);
  EXPECT_TRUE(dumped.empty());
  EXPECT_EQ(recorder.dumps_emitted(), 1u);
  EXPECT_EQ(recorder.recorded(), 12u);
}

TEST(ObsMetricsFlightRecorder, DumpBudgetBoundsEmissions) {
  obs::FlightRecorder recorder(16);
  std::size_t dumps = 0;
  recorder.set_dump_sink(
      [&](const obs::FlightEvent&, std::span<const obs::FlightEvent>) {
        ++dumps;
      });
  recorder.set_max_dumps(2);
  for (int i = 0; i < 5; ++i) {
    recorder.record(obs::FlightEventId::kTierEscalate, 0, 0, 2);
  }
  EXPECT_EQ(dumps, 2u);
  EXPECT_EQ(recorder.dumps_emitted(), 2u);
  EXPECT_EQ(recorder.recorded(), 5u);  // events kept recording
}

TEST(ObsMetricsFlightRecorder, JsonlMarksTrigger) {
  obs::ManualClock clock;
  obs::FlightRecorder recorder(8, &clock);
  recorder.record(obs::FlightEventId::kFrameShed, 3, 17, 2);
  recorder.record(obs::FlightEventId::kTierEscalate, 0, 0, 2);
  const auto events = recorder.snapshot();

  std::ostringstream os;
  obs::dump_flight_events_jsonl(events, os, /*trigger_seq=*/1);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"event\":\"frame_shed\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"tier_escalate\",\"args\":[0,0,2],"
                      "\"trigger\":true"),
            std::string::npos);
  // Exactly one trigger marker and one line per event.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(ObsMetricsFlightRecorder, ConcurrentWritersLoseNothing) {
  obs::FlightRecorder recorder(1024);
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        recorder.record(obs::FlightEventId::kFrameAccepted, t, i);
      }
    });
  }
  for (auto& w : writers) {
    w.join();
  }

  EXPECT_EQ(recorder.recorded(), kThreads * kPerThread);
  // Quiescent ring: every retained slot is fully published and carries a
  // payload some thread actually wrote.
  const auto events = recorder.snapshot();
  EXPECT_EQ(events.size(), recorder.capacity());
  for (const auto& event : events) {
    EXPECT_EQ(event.id, obs::FlightEventId::kFrameAccepted);
    EXPECT_LT(event.args[0], kThreads);
    EXPECT_LT(event.args[1], kPerThread);
  }
}

// A clock that parks the first thread to read it until released. A
// flight-recorder writer reads the clock inside record(), after it has
// claimed its sequence number, so the parked writer is preempted
// mid-record for as long as the test wants — no reliance on load.
class ParkingClock final : public obs::Clock {
 public:
  double now() const override {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!parked_) {
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    return 1.0;
  }
  void wait_parked() const {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return parked_; });
  }
  void release() const {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable bool parked_ = false;
  mutable bool released_ = false;
};

TEST(ObsMetricsFlightRecorder, PreemptedWriterNeverHidesANewerLap) {
  ParkingClock clock;
  obs::FlightRecorder recorder(8, &clock);
  // The first writer claims sequence 0 (slot 0) and parks mid-record.
  std::thread parked([&recorder] {
    recorder.record(obs::FlightEventId::kFrameAccepted, 99, 0);
  });
  clock.wait_parked();
  // Two more writers lap the 8-slot ring twice while it is parked, so
  // sequences 8 and 16 land in slot 0 again.
  std::vector<std::thread> lappers;
  for (std::uint64_t t = 0; t < 2; ++t) {
    lappers.emplace_back([&recorder, t] {
      for (std::uint64_t i = 0; i < 8; ++i) {
        recorder.record(obs::FlightEventId::kFrameAccepted, t, i);
      }
    });
  }
  for (auto& w : lappers) {
    w.join();
  }
  // The parked writer finishes last; its event must not displace the
  // newest one in its slot.
  clock.release();
  parked.join();

  EXPECT_EQ(recorder.recorded(), 17u);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), recorder.capacity());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 9 + i);
    EXPECT_LT(events[i].args[0], 2u);
  }
}

TEST(ObsMetricsTimeline, EpochDiffRatesUnderManualClock) {
  obs::Registry registry;
  obs::Counter& frames = registry.counter("frames");
  obs::Gauge& depth = registry.gauge("depth");

  obs::ManualClock clock;
  std::ostringstream os;
  obs::Timeline timeline(os, &clock);
  timeline.watch("shard0", registry);

  frames.add(10);
  depth.set(3.0);
  timeline.sample();  // epoch 0: dt undefined, rate reported as 0

  clock.advance(2.0);
  frames.add(8);
  depth.set(1.0);
  timeline.sample();  // epoch 1: delta 8 over 2 s = 4/s
  EXPECT_EQ(timeline.epochs(), 2u);

  const std::string text = os.str();
  EXPECT_NE(text.find("{\"type\":\"timeline\",\"scope\":\"shard0\","
                      "\"epoch\":0,\"t\":0,\"kind\":\"counter\","
                      "\"name\":\"frames\",\"value\":10,\"delta\":10,"
                      "\"rate\":0}"),
            std::string::npos);
  EXPECT_NE(text.find("\"epoch\":1,\"t\":2,\"kind\":\"counter\","
                      "\"name\":\"frames\",\"value\":18,\"delta\":8,"
                      "\"rate\":4}"),
            std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"gauge\",\"name\":\"depth\",\"value\":1,"
                      "\"max\":3}"),
            std::string::npos);
}

TEST(ObsMetricsTimeline, HistogramPercentilesComeFromEpochDeltas) {
  obs::Registry registry;
  obs::Histogram& latency = registry.histogram(
      "latency", obs::HistogramSpec{{1.0, 2.0, 4.0}});

  obs::ManualClock clock;
  std::ostringstream os;
  obs::Timeline timeline(os, &clock);
  timeline.watch("s", registry);

  // Epoch 0: a slow outlier.
  latency.add(3.5);
  timeline.sample();
  // Epoch 1: only fast samples — the percentile must reflect this
  // epoch's traffic, not the lifetime distribution.
  clock.advance(1.0);
  for (int i = 0; i < 8; ++i) {
    latency.add(0.5);
  }
  timeline.sample();

  const std::string text = os.str();
  const std::size_t epoch1 = text.find("\"epoch\":1");
  ASSERT_NE(epoch1, std::string::npos);
  const std::string tail = text.substr(epoch1);
  EXPECT_NE(tail.find("\"count\":9,\"delta\":8,\"rate\":8"),
            std::string::npos);
  // All 8 deltas landed in the first bucket [0, 1): p99 interpolates
  // inside it and must stay below the first bound.
  const std::size_t p99 = tail.find("\"p99\":");
  ASSERT_NE(p99, std::string::npos);
  const double p99_value = std::stod(tail.substr(p99 + 7));
  EXPECT_GT(p99_value, 0.0);
  EXPECT_LE(p99_value, 1.0);
}

TEST(ObsMetricsTimeline, CounterDeltasStayNonNegativeAcrossMerges) {
  obs::Registry registry;
  registry.counter("windows").add(5);

  obs::ManualClock clock;
  std::ostringstream os;
  obs::Timeline timeline(os, &clock);
  timeline.watch("agg", registry);
  timeline.sample();

  // Worker registries fold in over time — counter values only grow, and
  // new instruments must not replay history as a fresh delta.
  for (int round = 0; round < 3; ++round) {
    obs::Registry worker;
    worker.counter("windows").add(7);
    worker.counter("misses").add(static_cast<std::uint64_t>(round));
    worker.histogram("decode").add(0.25 * (round + 1));
    registry.merge(worker);
    clock.advance(1.0);
    timeline.sample();
  }

  std::istringstream lines(os.str());
  std::string line;
  std::size_t counter_lines = 0;
  while (std::getline(lines, line)) {
    const std::size_t delta = line.find("\"delta\":");
    if (delta == std::string::npos) {
      continue;
    }
    ++counter_lines;
    EXPECT_NE(line[delta + 8], '-') << line;
  }
  EXPECT_GT(counter_lines, 6u);
  // The merged totals reached the timeline.
  EXPECT_NE(os.str().find("\"name\":\"windows\",\"value\":26"),
            std::string::npos);
}

TEST(ObsMetricsExport, PrometheusExposition) {
  obs::Registry registry;
  registry.counter("fleet.windows.reconstructed").add(42);
  obs::Gauge& queue = registry.gauge("queue.occupancy");
  queue.set(5.0);
  queue.set(3.0);
  obs::Histogram& latency = registry.histogram(
      "e2e.latency.seconds", obs::HistogramSpec{{0.5, 1.0}});
  latency.add(0.25);
  latency.add(0.75);
  latency.add(9.0);

  std::ostringstream os;
  obs::render_prometheus(registry, os);
  const std::string text = os.str();

  EXPECT_NE(text.find("# TYPE csecg_fleet_windows_reconstructed_total "
                      "counter\n"
                      "csecg_fleet_windows_reconstructed_total 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE csecg_queue_occupancy gauge\n"
                      "csecg_queue_occupancy 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("csecg_queue_occupancy_max 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE csecg_e2e_latency_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("csecg_e2e_latency_seconds_bucket{le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("csecg_e2e_latency_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("csecg_e2e_latency_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("csecg_e2e_latency_seconds_sum 10\n"),
            std::string::npos);
  EXPECT_NE(text.find("csecg_e2e_latency_seconds_count 3\n"),
            std::string::npos);
}

TEST(ObsMetricsGauge, MergeIsFoldOrderIndependent) {
  // Three shards set their gauges in a known global time order; however
  // the aggregator folds them, the globally-latest write must win.
  obs::Gauge g1;
  obs::Gauge g2;
  obs::Gauge g3;
  g1.set(10.0);
  g2.set(20.0);
  g3.set(30.0);  // globally newest

  obs::Gauge forward;
  forward.merge(g1);
  forward.merge(g2);
  forward.merge(g3);

  obs::Gauge backward;
  backward.merge(g3);
  backward.merge(g2);
  backward.merge(g1);

  obs::Gauge shuffled;
  shuffled.merge(g2);
  shuffled.merge(g3);
  shuffled.merge(g1);

  EXPECT_DOUBLE_EQ(forward.value(), 30.0);
  EXPECT_DOUBLE_EQ(backward.value(), 30.0);
  EXPECT_DOUBLE_EQ(shuffled.value(), 30.0);
  EXPECT_DOUBLE_EQ(forward.max(), 30.0);
  EXPECT_DOUBLE_EQ(backward.max(), 30.0);

  // A later local write outranks all previously merged state.
  forward.set(5.0);
  obs::Gauge sink;
  sink.merge(forward);
  sink.merge(g3);
  EXPECT_DOUBLE_EQ(sink.value(), 5.0);
  EXPECT_DOUBLE_EQ(sink.max(), 30.0);
}

}  // namespace
