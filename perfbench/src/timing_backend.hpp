#ifndef CSECG_PERFBENCH_TIMING_BACKEND_HPP
#define CSECG_PERFBENCH_TIMING_BACKEND_HPP

/// \file timing_backend.hpp
/// A linalg::Backend decorator that forwards every kernel, single-vector
/// and panel forms alike, to a wrapped backend and accumulates wall time
/// and call counts per kernel class:
///
///   shrink — soft_threshold, soft_threshold_batch,
///            group_soft_threshold_batch (the proximal step)
///   filter — the dual-band filter nests and the DWT panel kernels (the
///            inside of the Psi / Psi^T legs)
///   glue   — everything else: dot, axpy, copy, subtract, scale, the
///            norms and their panel forms (the solver's vector algebra)
///
/// Only the traced run installs it, so the per-kernel figures come from
/// outside the library. Two steady_clock reads per call are the price;
/// the traced run reports its overhead against the untraced one.

#include <atomic>
#include <cstdint>

#include "csecg/linalg/backend.hpp"
#include "stats.hpp"

namespace perfbench {

enum class KernelClass : int { kShrink = 0, kGlue = 1, kFilter = 2 };

struct KernelTotals {
  std::uint64_t calls[3] = {0, 0, 0};
  std::uint64_t nanoseconds[3] = {0, 0, 0};

  double seconds(KernelClass c) const {
    return static_cast<double>(nanoseconds[static_cast<int>(c)]) * 1e-9;
  }
  std::uint64_t total_calls() const { return calls[0] + calls[1] + calls[2]; }
};

class TimingBackend final : public csecg::linalg::Backend {
 public:
  explicit TimingBackend(const csecg::linalg::Backend& inner);

  const csecg::linalg::Backend& inner() const { return inner_; }
  csecg::linalg::BackendKind kind() const override { return inner_.kind(); }
  const char* name() const override { return inner_.name(); }
  bool counting() const override { return inner_.counting(); }
  csecg::linalg::KernelMode counted_schedule() const override {
    return inner_.counted_schedule();
  }
  void charge(const csecg::linalg::OpCounts& delta) const override {
    inner_.charge(delta);
  }

  /// Totals accumulated since construction or the last reset().
  KernelTotals totals() const;
  void reset();

  /// While set, every kernel call is also recorded as a span
  /// ("linalg.backend.<class>") under \p parent, so a caller's span self
  /// time excludes kernel time. Set and cleared by the one thread that
  /// drives this backend; null stops recording.
  void record_spans(SpanRecorder* recorder, std::uint32_t parent) {
    recorder_ = recorder;
    parent_ = parent;
  }

  float dot(const float* a, const float* b, std::size_t n) const override;
  void axpy(
      float alpha, const float* x, float* y, std::size_t n) const override;
  void fused_multiply_add(
      const float* a, const float* b, const float* c, float* d, std::size_t
      n) const override;
  void subtract(
      const float* a, const float* b, float* out, std::size_t n) const
      override;
  void copy(const float* x, float* out, std::size_t n) const override;
  void scale(float alpha, float* x, std::size_t n) const override;
  void soft_threshold(
      const float* u, float t, float* y, std::size_t n) const override;
  float norm1(const float* x, std::size_t n) const override;
  float norm_inf(const float* x, std::size_t n) const override;
  void dual_band_filter(
      const float* t_in, const float* h0, const float* h1, float* out_l,
      float* out_h, std::size_t count, std::size_t taps) const override;
  void dual_band_analysis(
      const float* ext, const float* h0, const float* h1, float* out_a,
      float* out_d, std::size_t half_n, std::size_t taps) const override;
  void dual_band_synthesis(
      const float* approx, const float* detail, const float* f0, const
      float* f1, float* x_ext, std::size_t half_n, std::size_t taps) const
      override;
  void soft_threshold_batch(
      const float* u, const float* thresholds, float* y, std::size_t batch,
      std::size_t n) const override;
  void group_soft_threshold_batch(
      const float* u, float t, float* y, std::size_t leads, std::size_t n)
      const override;
  void dot_batch(
      const float* a, const float* b, float* out, std::size_t batch,
      std::size_t n) const override;
  void axpy_batch(
      float alpha, const float* x, float* y, std::size_t batch, std::size_t
      n) const override;
  void subtract_batch(
      const float* a, const float* b, float* out, std::size_t batch,
      std::size_t n) const override;
  void copy_batch(
      const float* x, float* out, std::size_t batch, std::size_t n) const
      override;
  void norm1_batch(
      const float* x, float* out, std::size_t batch, std::size_t n) const
      override;
  void dwt_analysis_batch(
      const float* ext, const float* h0, const float* h1, float* out_a,
      float* out_d, std::size_t batch, std::size_t half_n, std::size_t taps,
      std::size_t ext_stride, std::size_t a_stride, std::size_t d_stride)
      const override;
  void dwt_synthesis_batch(
      const float* approx, const float* detail, const float* f0, const
      float* f1, float* x_ext, std::size_t batch, std::size_t half_n,
      std::size_t taps, std::size_t a_stride, std::size_t d_stride,
      std::size_t ext_stride) const override;
  double dot(const double* a, const double* b, std::size_t n) const override;
  void axpy(
      double alpha, const double* x, double* y, std::size_t n) const
      override;
  void fused_multiply_add(
      const double* a, const double* b, const double* c, double* d,
      std::size_t n) const override;
  void subtract(
      const double* a, const double* b, double* out, std::size_t n) const
      override;
  void copy(const double* x, double* out, std::size_t n) const override;
  void scale(double alpha, double* x, std::size_t n) const override;
  void soft_threshold(
      const double* u, double t, double* y, std::size_t n) const override;
  double norm1(const double* x, std::size_t n) const override;
  double norm_inf(const double* x, std::size_t n) const override;
  void dual_band_filter(
      const double* t_in, const double* h0, const double* h1, double* out_l,
      double* out_h, std::size_t count, std::size_t taps) const override;
  void dual_band_analysis(
      const double* ext, const double* h0, const double* h1, double* out_a,
      double* out_d, std::size_t half_n, std::size_t taps) const override;
  void dual_band_synthesis(
      const double* approx, const double* detail, const double* f0, const
      double* f1, double* x_ext, std::size_t half_n, std::size_t taps) const
      override;
  void soft_threshold_batch(
      const double* u, const double* thresholds, double* y, std::size_t
      batch, std::size_t n) const override;
  void group_soft_threshold_batch(
      const double* u, double t, double* y, std::size_t leads, std::size_t
      n) const override;
  void dot_batch(
      const double* a, const double* b, double* out, std::size_t batch,
      std::size_t n) const override;
  void axpy_batch(
      double alpha, const double* x, double* y, std::size_t batch,
      std::size_t n) const override;
  void subtract_batch(
      const double* a, const double* b, double* out, std::size_t batch,
      std::size_t n) const override;
  void copy_batch(
      const double* x, double* out, std::size_t batch, std::size_t n) const
      override;
  void norm1_batch(
      const double* x, double* out, std::size_t batch, std::size_t n) const
      override;
  void dwt_analysis_batch(
      const double* ext, const double* h0, const double* h1, double* out_a,
      double* out_d, std::size_t batch, std::size_t half_n, std::size_t
      taps, std::size_t ext_stride, std::size_t a_stride, std::size_t
      d_stride) const override;
  void dwt_synthesis_batch(
      const double* approx, const double* detail, const double* f0, const
      double* f1, double* x_ext, std::size_t batch, std::size_t half_n,
      std::size_t taps, std::size_t a_stride, std::size_t d_stride,
      std::size_t ext_stride) const override;

 private:
  template <typename F>
  auto timed(KernelClass c, F&& call) const;

  const csecg::linalg::Backend& inner_;
  SpanRecorder* recorder_ = nullptr;
  std::uint32_t parent_ = 0;
  mutable std::atomic<std::uint64_t> calls_[3];
  mutable std::atomic<std::uint64_t> nanoseconds_[3];
};

}  // namespace perfbench

#endif  // CSECG_PERFBENCH_TIMING_BACKEND_HPP
