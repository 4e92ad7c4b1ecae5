#ifndef CSECG_PERFBENCH_STATS_HPP
#define CSECG_PERFBENCH_STATS_HPP

/// \file stats.hpp
/// The benchmark's own statistics and span bookkeeping: medians and
/// quartiles (Python's statistics.quantiles, "exclusive" method, so the
/// figures match the tooling that compares runs), tail percentiles that
/// are reported only when at least ten samples lie beyond them, and an
/// in-memory span recorder whose self times are derived from nesting.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// First, second and third quartile as statistics.quantiles(values, n=4)
/// computes them (method "exclusive"). Needs at least two values.
inline std::optional<std::array<double, 3>> quartiles(
    std::vector<double> values) {
  if (values.size() < 2) {
    return std::nullopt;
  }
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i < 4; ++i) {
    // Python clamps j first and then takes delta from the clamped j, so
    // the ends extrapolate.
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] *
             static_cast<double>(4 - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

/// Minimum number of samples that must lie beyond a reported percentile:
/// with fewer, the "tail" is a handful of samples and reads as noise.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile \p p (0 < p < 1) of \p values, or nullopt when
/// fewer than kMinTailSamples samples rank above it.
inline std::optional<double> tail_percentile(std::vector<double> values,
                                             double p) {
  if (values.empty()) {
    return std::nullopt;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinTailSamples) {
    return std::nullopt;
  }
  return values[rank - 1];
}

/// One recorded interval around a call into the library. parent is the
/// id of the enclosing span (0 = root); window is the id of the window
/// the call served (-1 when it serves none).
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t window = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted
/// once). Returned in the order of \p spans.
inline std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<double> out(spans.size(), 0.0);
  // Children grouped by parent id.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].parent != spans[b].parent
               ? spans[a].parent < spans[b].parent
               : spans[a].start_ns < spans[b].start_ns;
  });
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto first = std::lower_bound(
        order.begin(), order.end(), s.id, [&](std::size_t k, std::uint32_t id) {
          return spans[k].parent < id;
        });
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (auto it = first; it != order.end() && spans[*it].parent == s.id;
         ++it) {
      const std::int64_t lo = std::max(spans[*it].start_ns, cursor);
      const std::int64_t hi = std::min(spans[*it].end_ns, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    out[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

/// Thread-safe in-memory span store. Spans stay in memory while the
/// workload runs; write_jsonl() dumps them once at the end.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) { spans_.reserve(1 << 14); }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  std::int64_t ns_of(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  std::uint32_t next_id() { return next_id_.fetch_add(1) + 1; }

  /// Records a finished span and returns its id.
  std::uint32_t record(const char* name, std::uint32_t parent,
                       std::int64_t start_ns, std::int64_t end_ns,
                       std::int64_t window = -1, std::uint32_t id = 0) {
    Span span;
    span.id = id == 0 ? next_id() : id;
    span.parent = parent;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.window = window;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
    return span.id;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Writes one JSON object per span; false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::atomic<std::uint32_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span on a recorder; a null recorder makes it a no-op, so the
/// untraced path pays one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint32_t parent,
             std::int64_t window = -1)
      : recorder_(recorder), name_(name), parent_(parent), window_(window) {
    if (recorder_ != nullptr) {
      id_ = recorder_->next_id();
      start_ = recorder_->now_ns();
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->record(name_, parent_, start_, recorder_->now_ns(), window_,
                        id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  const char* name_;
  std::uint32_t parent_;
  std::int64_t window_;
  std::uint32_t id_ = 0;
  std::int64_t start_ = 0;
};

inline bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  for (const Span& span : spans()) {
    std::fprintf(file,
                 "{\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"window\":%lld}\n",
                 span.id, span.parent, span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.window));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench

#endif  // CSECG_PERFBENCH_STATS_HPP
