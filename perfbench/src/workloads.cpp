#include "workloads.hpp"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <span>
#include <thread>

#include "csecg/core/packet.hpp"
#include "csecg/ecg/metrics.hpp"
#include "csecg/wbsn/fleet.hpp"
#include "csecg/wbsn/gateway.hpp"

namespace perfbench {

namespace {

using csecg::wbsn::FeedbackMessage;
using csecg::wbsn::FleetWindow;

/// What the sink saw for one lead-window.
struct Delivery {
  std::uint16_t sequence = 0;
  std::uint8_t lead = 0;
  bool concealed = false;
  std::size_t iterations = 0;
  double decode_s = 0.0;
  Clock::time_point at;
  std::vector<float> samples;
};

/// Per-node delivery logs. The fleet serves a node from one worker at a
/// time and in order, so each node's log is only ever appended by the
/// worker that holds the node. Every slot is allocated up front, before
/// the receiver's memory baseline is taken, so the sink allocates
/// nothing and the benchmark's own storage never counts as receiver
/// memory.
struct Collector {
  explicit Collector(const WorkloadInput& input)
      : deliveries(input.nodes.size()),
        used(input.nodes.size(), 0),
        feedback(input.nodes.size()),
        first_delivery(input.nodes.size()) {
    for (std::size_t k = 0; k < input.nodes.size(); ++k) {
      // Room for every lead-window twice over: a faulty receiver that
      // duplicates deliveries must still be recorded, not overrun.
      const std::size_t slots =
          2 * (input.nodes[k].windows + input.nodes[k].tail_windows) *
          input.nodes[k].spec.leads;
      deliveries[k].resize(slots);
      for (auto& d : deliveries[k]) {
        d.samples.reserve(kWindow);
      }
      feedback[k].reserve(
          2 * (input.traces.empty() ? 0 : input.traces[k].feedback.size()) +
          64);
    }
  }

  std::span<const Delivery> log(std::size_t node) const {
    return {deliveries[node].data(), used[node]};
  }

  void on_window(const FleetWindow& window) {
    auto& log = deliveries[window.node_id];
    const Clock::time_point now = Clock::now();
    std::size_t& n = used[window.node_id];
    if (n == 0) {
      first_delivery[window.node_id] = now;
    }
    if (n == log.size()) {
      overflow.store(true);
      return;
    }
    Delivery& d = log[n++];
    d.sequence = window.sequence;
    d.lead = window.lead;
    d.concealed = window.concealed;
    d.iterations = window.iterations;
    d.decode_s = window.decode_seconds;
    d.at = now;
    d.samples.assign(window.samples.begin(), window.samples.end());
    delivered.fetch_add(1, std::memory_order_release);
    delivered.notify_all();
  }

  void on_feedback(std::uint32_t node,
                   std::span<const FeedbackMessage> messages) {
    feedback[node].insert(feedback[node].end(), messages.begin(),
                          messages.end());
  }

  void wait_for(std::size_t count) const {
    std::size_t seen = delivered.load(std::memory_order_acquire);
    while (seen < count) {
      delivered.wait(seen, std::memory_order_acquire);
      seen = delivered.load(std::memory_order_acquire);
    }
  }

  std::vector<std::vector<Delivery>> deliveries;
  std::vector<std::size_t> used;  ///< slots filled per node
  std::vector<std::vector<FeedbackMessage>> feedback;
  std::atomic<bool> overflow{false};
  std::vector<Clock::time_point> first_delivery;
  std::atomic<std::size_t> delivered{0};
};

double open_loop_offset(const ReceiverSetup& setup, int step, std::size_t node,
                        std::size_t nodes) {
  // Every node connects at once (profile + first window due at 0); later
  // windows are staggered evenly across the period.
  if (step <= 0) {
    return 0.0;
  }
  return setup.period_s *
         (static_cast<double>(step) +
          static_cast<double>(node) / static_cast<double>(nodes));
}

bool finite(const std::vector<float>& samples) {
  for (const float v : samples) {
    if (!std::isfinite(v)) {
      return false;
    }
  }
  return true;
}

double window_prd(const std::vector<std::int16_t>& source, std::size_t window,
                  const std::vector<float>& samples) {
  std::vector<double> a(kWindow);
  std::vector<double> b(kWindow);
  for (std::size_t i = 0; i < kWindow; ++i) {
    a[i] = static_cast<double>(source[window * kWindow + i]);
    b[i] = static_cast<double>(samples[i]);
  }
  return csecg::ecg::prd(a, b);
}

}  // namespace

ReceiverSetup receiver_setup(Workload workload) {
  ReceiverSetup setup;
  switch (workload) {
    case Workload::kMonitorColdCr50:
      break;  // library default backend, cold, one worker
    case Workload::kFleetSaturatedMixed:
      setup.backend = &csecg::linalg::native_backend();
      setup.workers = 2;
      setup.decode_batch = 4;
      break;
    case Workload::kGatewayLossyWarm:
      setup.backend = &csecg::linalg::native_backend();
      setup.workers = 2;
      setup.prior.warm_start = true;
      setup.prior.support_tolerance = 1e-4;
      setup.period_s = 0.080;
      break;
  }
  return setup;
}

double resident_mb() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) {
      resident = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

Oracle make_oracle(const WorkloadInput& input, const ReceiverSetup& setup) {
  Oracle oracle;
  if (input.workload != Workload::kFleetSaturatedMixed) {
    return oracle;
  }
  std::vector<std::uint32_t> singles;
  for (std::size_t k = 0; k < input.nodes.size(); ++k) {
    if (input.nodes[k].spec.leads == 1) {
      singles.push_back(static_cast<std::uint32_t>(k));
      oracle.sequential[static_cast<std::uint32_t>(k)];
    }
  }
  // Nodes are independent, so the sequential decodes split over three
  // threads; each node still decodes strictly in order on one thread.
  const auto decode_node = [&](std::uint32_t k,
                               std::vector<std::vector<float>>& out) {
    csecg::core::Decoder decoder(input.nodes[k].profile);
    if (setup.backend != nullptr) {
      decoder.set_backend(*setup.backend);
    }
    decoder.set_prior_policy(setup.prior);
    csecg::solvers::SolverWorkspace workspace;
    csecg::core::DecodedWindow<float> window;
    std::vector<std::int32_t> y;
    csecg::core::Packet packet;
    for (const Frame& frame : input.frames) {
      if (frame.node != k || !csecg::core::Packet::parse_into(frame.bytes,
                                                             packet)) {
        continue;
      }
      if (packet.kind == csecg::core::PacketKind::kProfile) {
        decoder.consume(packet, y);
        continue;
      }
      if (!decoder.decode_measurements_into(packet, y)) {
        out.emplace_back();  // an undecodable frame has no reference
        continue;
      }
      decoder.reconstruct_into<float>(std::span<const std::int32_t>(y),
                                      workspace, window);
      out.push_back(window.samples);
    }
  };
  std::vector<std::thread> threads;
  constexpr std::size_t kThreads = 3;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < singles.size(); i += kThreads) {
        decode_node(singles[i], oracle.sequential[singles[i]]);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  return oracle;
}

RoundResult run_round(const WorkloadInput& input, const ReceiverSetup& setup,
                      const Oracle& oracle, const RoundOptions& options) {
  RoundResult result;
  const std::size_t node_count = input.nodes.size();
  const bool gateway = input.workload == Workload::kGatewayLossyWarm;
  const bool one_outstanding = input.workload == Workload::kMonitorColdCr50;
  SpanRecorder* spans = options.spans;

  Collector collector(input);
  // due[node][window]: when the window's first frame was due.
  std::vector<std::vector<Clock::time_point>> due(node_count);
  for (std::size_t k = 0; k < node_count; ++k) {
    due[k].resize(input.nodes[k].windows + input.nodes[k].tail_windows);
  }

  csecg::wbsn::FleetConfig fleet_config;
  fleet_config.workers = setup.workers;
  fleet_config.decode_batch = setup.decode_batch;
  fleet_config.backend = setup.backend;
  fleet_config.prior = setup.prior;
  if (gateway) {
    fleet_config.arq = lossy_arq_config();
  }
  const auto sink = [&collector](const FleetWindow& w) {
    collector.on_window(w);
  };
  const auto feedback = [&collector](std::uint32_t node,
                                     std::span<const FeedbackMessage> m) {
    collector.on_feedback(node, m);
  };

  malloc_trim(0);
  const double rss_before = resident_mb();
  const double cpu_before = process_cpu_seconds();
  ScopedSpan round_span(spans, "bench.round", 0);
  const Clock::time_point t0 = Clock::now();
  double rss_after = 0.0;
  std::size_t shed = 0;

  if (!gateway) {
    csecg::wbsn::FleetCoordinator fleet(fleet_config, sink, feedback);
    {
      ScopedSpan span(spans, "wbsn.fleet.add_nodes", round_span.id());
      for (const auto& node : input.nodes) {
        fleet.add_node(node.profile);
      }
    }
    std::size_t expected = 0;
    for (const Frame& frame : input.frames) {
      const bool first_lead = frame.step >= 0 && frame.lead == 0;
      if (first_lead) {
        due[frame.node][static_cast<std::size_t>(frame.step)] = Clock::now();
      }
      {
        ScopedSpan span(spans, "wbsn.fleet.submit", round_span.id(),
                        frame.step);
        fleet.submit(frame.node, frame.bytes);
      }
      if (frame.step >= 0) {
        ++expected;
        if (one_outstanding) {
          collector.wait_for(expected);
        }
      }
    }
    collector.wait_for(expected);
    rss_after = resident_mb();
    const auto report = fleet.finish();
    result.queue_high_water = report.queue_high_water;
    result.frames_corrupt = report.frames_corrupt;
    result.windows_concealed = report.windows_concealed;
  } else {
    csecg::wbsn::GatewayConfig config;
    config.shards = 1;
    config.shard = fleet_config;
    csecg::wbsn::GatewayService service(config, sink, feedback);
    {
      ScopedSpan span(spans, "wbsn.gateway.register", round_span.id());
      for (const auto& node : input.nodes) {
        service.register_node(node.profile);
      }
    }
    const Clock::time_point origin = Clock::now();
    for (std::size_t k = 0; k < node_count; ++k) {
      for (std::size_t w = 0; w < due[k].size(); ++w) {
        due[k][w] = origin + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(open_loop_offset(
                                     setup, static_cast<int>(w), k,
                                     node_count)));
      }
    }
    for (const Frame& frame : input.frames) {
      const Clock::time_point at =
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(open_loop_offset(
                           setup, frame.step, frame.node, node_count)));
      if (Clock::now() < at) {
        std::this_thread::sleep_until(at);
      }
      result.lateness_s.push_back(seconds_between(at, Clock::now()));
      csecg::wbsn::OfferOutcome outcome;
      {
        ScopedSpan span(spans, "wbsn.gateway.offer", round_span.id(),
                        frame.step);
        outcome = service.offer(frame.node, frame.bytes);
      }
      if (outcome != csecg::wbsn::OfferOutcome::kAdmitted) {
        ++shed;
      }
    }
    rss_after = resident_mb();
    const auto report = service.finish();
    result.queue_high_water = report.queue_high_water;
    for (const auto& shard : report.shards) {
      result.frames_corrupt += shard.fleet.frames_corrupt;
    }
    result.windows_concealed = report.windows_concealed;
  }
  const Clock::time_point t_end = Clock::now();
  result.cpu_s = process_cpu_seconds() - cpu_before;
  result.wall_s = seconds_between(t0, t_end);
  result.rss_mb = rss_after - rss_before;

  // ---------------------------------------------------------- checks --
  const auto fail = [&result](std::vector<char>& bad, std::size_t w,
                              const std::string& why) {
    if (!bad[w]) {
      bad[w] = 1;
      if (result.failures.size() < 8) {
        result.failures.push_back(why);
      }
    }
  };
  Clock::time_point setup_end = t0;
  for (std::size_t k = 0; k < node_count; ++k) {
    const NodeInput& node = input.nodes[k];
    const std::size_t windows = node.windows;
    const std::size_t sent = windows + node.tail_windows;
    const std::size_t leads = node.spec.leads;
    std::vector<char> bad(sent, 0);
    std::vector<std::size_t> seen(sent * leads, 0);
    const auto log = collector.log(k);
    const std::string tag = "node " + std::to_string(k) + " window ";
    if (log.empty()) {
      result.failures.push_back("node " + std::to_string(k) +
                                " delivered nothing");
    } else {
      setup_end = std::max(setup_end, collector.first_delivery[k]);
    }
    int previous = -1;
    for (const Delivery& d : log) {
      const std::size_t w = std::min<std::size_t>(d.sequence, sent - 1);
      const int order = static_cast<int>(d.sequence * leads + d.lead);
      if (d.sequence >= sent || d.lead >= leads) {
        fail(bad, w, tag + std::to_string(d.sequence) + ": out of range");
        continue;
      }
      if (order <= previous) {
        fail(bad, w, tag + std::to_string(w) + ": out of order");
      }
      previous = std::max(previous, order);
      ++seen[w * leads + d.lead];
      if (d.lead == 0 && w < windows) {
        const double latency = seconds_between(due[k][w], d.at);
        result.latency_s.push_back(latency);
        if (!d.concealed) {
          result.dispatch_s.push_back(latency - d.decode_s);
        }
      }
      if (d.lead == 0 && !d.concealed) {
        result.iterations_total += static_cast<double>(d.iterations);
      }
      if (d.concealed) {
        const bool justified =
            gateway && input.traces[k].conceal_justified[w];
        if (!justified) {
          fail(bad, w, tag + std::to_string(w) + ": unjustified concealment");
        }
        continue;
      }
      if (d.samples.size() != kWindow || !finite(d.samples)) {
        fail(bad, w, tag + std::to_string(w) + ": not a finite window");
        continue;
      }
      const double prd = window_prd(node.source[d.lead], w, d.samples);
      result.prd.push_back(prd);
      result.prd_sum += prd;
      ++result.lead_windows_decoded;
      if (!(prd <= prd_ceiling_pct(node.profile))) {
        fail(bad, w, tag + std::to_string(w) + ": PRD above ceiling");
      }
      const auto ref = oracle.sequential.find(static_cast<std::uint32_t>(k));
      if (ref != oracle.sequential.end() &&
          (w >= ref->second.size() || ref->second[w] != d.samples)) {
        fail(bad, w,
             tag + std::to_string(w) + ": differs from sequential decode");
      }
    }
    for (std::size_t w = 0; w < sent; ++w) {
      for (std::size_t l = 0; l < leads; ++l) {
        const std::size_t n = seen[w * leads + l];
        // A tail window may go undelivered (see inputs.cpp), never twice.
        if (n > 1 || (n == 0 && w < windows)) {
          fail(bad, w,
               tag + std::to_string(w) + ": delivered " + std::to_string(n) +
                   " times");
        }
      }
    }
    if (gateway) {
      const auto& trace = input.traces[k];
      const auto& want = trace.feedback;
      const auto& got = collector.feedback[k];
      for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
        const bool same = i < want.size() && i < got.size() &&
                          want[i].kind == got[i].kind &&
                          want[i].sequence == got[i].sequence;
        if (!same) {
          const std::uint16_t s =
              i < want.size() ? want[i].sequence : got[i].sequence;
          const auto it = trace.window_of.find(s);
          const std::size_t w =
              it == trace.window_of.end() || it->second < 0
                  ? 0
                  : static_cast<std::size_t>(it->second);
          fail(bad, std::min(w, sent - 1),
               tag + std::to_string(w) + ": feedback differs from trace");
        }
      }
    }
    // A failure in the uncounted tail fails the stream's last counted
    // window.
    for (std::size_t w = windows; w < sent; ++w) {
      bad[windows - 1] |= bad[w];
    }
    result.attempted += windows;
    for (std::size_t w = 0; w < windows; ++w) {
      result.failed += bad[w] != 0 ? 1 : 0;
    }
  }
  if (collector.overflow.load()) {
    result.failures.push_back("more deliveries than twice the windows sent");
    result.failed = result.attempted;
  }
  if (shed > 0) {
    result.failures.push_back(std::to_string(shed) + " frames shed");
    result.failed = std::min(result.attempted, result.failed + shed);
  }
  result.setup_s = seconds_between(t0, setup_end);
  return result;
}

}  // namespace perfbench
