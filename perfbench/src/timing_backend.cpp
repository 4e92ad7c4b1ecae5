#include "timing_backend.hpp"

#include <chrono>
#include <type_traits>

namespace perfbench {

TimingBackend::TimingBackend(const csecg::linalg::Backend& inner)
    : inner_(inner) {
  reset();
}

KernelTotals TimingBackend::totals() const {
  KernelTotals t;
  for (int c = 0; c < 3; ++c) {
    t.calls[c] = calls_[c].load(std::memory_order_relaxed);
    t.nanoseconds[c] = nanoseconds_[c].load(std::memory_order_relaxed);
  }
  return t;
}

void TimingBackend::reset() {
  for (int c = 0; c < 3; ++c) {
    calls_[c].store(0, std::memory_order_relaxed);
    nanoseconds_[c].store(0, std::memory_order_relaxed);
  }
}

namespace {
constexpr const char* kSpanNames[3] = {"linalg.backend.shrink",
                                       "linalg.backend.glue",
                                       "linalg.backend.filter"};
}  // namespace

template <typename F>
auto TimingBackend::timed(KernelClass c, F&& call) const {
  const auto start = Clock::now();
  const auto account = [&] {
    const auto end = Clock::now();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count();
    const int k = static_cast<int>(c);
    calls_[k].fetch_add(1, std::memory_order_relaxed);
    nanoseconds_[k].fetch_add(static_cast<std::uint64_t>(ns),
                              std::memory_order_relaxed);
    if (recorder_ != nullptr) {
      recorder_->record(kSpanNames[k], parent_, recorder_->ns_of(start),
                        recorder_->ns_of(end));
    }
  };
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    account();
  } else {
    const auto result = call();
    account();
    return result;
  }
}

float TimingBackend::dot(const float* a, const float* b, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] { return inner_.dot(a, b, n); });
}

void TimingBackend::axpy(
    float alpha, const float* x, float* y, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] { return inner_.axpy(alpha, x, y, n); });
}

void TimingBackend::fused_multiply_add(
    const float* a, const float* b, const float* c, float* d,
    std::size_t n) const {
  return timed(KernelClass::kGlue, [&] {
    return inner_.fused_multiply_add(a, b, c, d, n);
  });
}

void TimingBackend::subtract(
    const float* a, const float* b, float* out, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] {
    return inner_.subtract(a, b, out, n);
  });
}

void TimingBackend::copy(const float* x, float* out, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] { return inner_.copy(x, out, n); });
}

void TimingBackend::scale(float alpha, float* x, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] { return inner_.scale(alpha, x, n); });
}

void TimingBackend::soft_threshold(
    const float* u, float t, float* y, std::size_t n) const {
  return timed(KernelClass::kShrink, [&] {
    return inner_.soft_threshold(u, t, y, n);
  });
}

float TimingBackend::norm1(const float* x, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] { return inner_.norm1(x, n); });
}

float TimingBackend::norm_inf(const float* x, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] { return inner_.norm_inf(x, n); });
}

void TimingBackend::dual_band_filter(
    const float* t_in, const float* h0, const float* h1, float* out_l,
    float* out_h, std::size_t count, std::size_t taps) const {
  return timed(KernelClass::kFilter, [&] {
    return inner_.dual_band_filter(t_in, h0, h1, out_l, out_h, count, taps);
  });
}

void TimingBackend::dual_band_analysis(
    const float* ext, const float* h0, const float* h1, float* out_a, float*
    out_d, std::size_t half_n, std::size_t taps) const {
  return timed(KernelClass::kFilter, [&] {
    return inner_.dual_band_analysis(ext, h0, h1, out_a, out_d, half_n, taps);
  });
}

void TimingBackend::dual_band_synthesis(
    const float* approx, const float* detail, const float* f0, const float*
    f1, float* x_ext, std::size_t half_n, std::size_t taps) const {
  return timed(KernelClass::kFilter, [&] {
    return inner_.dual_band_synthesis(
        approx, detail, f0, f1, x_ext, half_n, taps);
  });
}

void TimingBackend::soft_threshold_batch(
    const float* u, const float* thresholds, float* y, std::size_t batch,
    std::size_t n) const {
  return timed(KernelClass::kShrink, [&] {
    return inner_.soft_threshold_batch(u, thresholds, y, batch, n);
  });
}

void TimingBackend::group_soft_threshold_batch(
    const float* u, float t, float* y, std::size_t leads, std::size_t n) const {
  return timed(KernelClass::kShrink, [&] {
    return inner_.group_soft_threshold_batch(u, t, y, leads, n);
  });
}

void TimingBackend::dot_batch(
    const float* a, const float* b, float* out, std::size_t batch,
    std::size_t n) const {
  return timed(KernelClass::kGlue, [&] {
    return inner_.dot_batch(a, b, out, batch, n);
  });
}

void TimingBackend::axpy_batch(
    float alpha, const float* x, float* y, std::size_t batch,
    std::size_t n) const {
  return timed(KernelClass::kGlue, [&] {
    return inner_.axpy_batch(alpha, x, y, batch, n);
  });
}

void TimingBackend::subtract_batch(
    const float* a, const float* b, float* out, std::size_t batch,
    std::size_t n) const {
  return timed(KernelClass::kGlue, [&] {
    return inner_.subtract_batch(a, b, out, batch, n);
  });
}

void TimingBackend::copy_batch(
    const float* x, float* out, std::size_t batch, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] {
    return inner_.copy_batch(x, out, batch, n);
  });
}

void TimingBackend::norm1_batch(
    const float* x, float* out, std::size_t batch, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] {
    return inner_.norm1_batch(x, out, batch, n);
  });
}

void TimingBackend::dwt_analysis_batch(
    const float* ext, const float* h0, const float* h1, float* out_a, float*
    out_d, std::size_t batch, std::size_t half_n, std::size_t taps,
    std::size_t ext_stride, std::size_t a_stride, std::size_t d_stride) const {
  return timed(KernelClass::kFilter, [&] {
    return inner_.dwt_analysis_batch(
        ext, h0, h1, out_a, out_d, batch, half_n, taps, ext_stride,
        a_stride, d_stride);
  });
}

void TimingBackend::dwt_synthesis_batch(
    const float* approx, const float* detail, const float* f0, const float*
    f1, float* x_ext, std::size_t batch, std::size_t half_n, std::size_t
    taps, std::size_t a_stride, std::size_t d_stride,
    std::size_t ext_stride) const {
  return timed(KernelClass::kFilter, [&] {
    return inner_.dwt_synthesis_batch(
        approx, detail, f0, f1, x_ext, batch, half_n, taps, a_stride,
        d_stride, ext_stride);
  });
}

double TimingBackend::dot(
    const double* a, const double* b, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] { return inner_.dot(a, b, n); });
}

void TimingBackend::axpy(
    double alpha, const double* x, double* y, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] { return inner_.axpy(alpha, x, y, n); });
}

void TimingBackend::fused_multiply_add(
    const double* a, const double* b, const double* c, double* d,
    std::size_t n) const {
  return timed(KernelClass::kGlue, [&] {
    return inner_.fused_multiply_add(a, b, c, d, n);
  });
}

void TimingBackend::subtract(
    const double* a, const double* b, double* out, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] {
    return inner_.subtract(a, b, out, n);
  });
}

void TimingBackend::copy(const double* x, double* out, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] { return inner_.copy(x, out, n); });
}

void TimingBackend::scale(double alpha, double* x, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] { return inner_.scale(alpha, x, n); });
}

void TimingBackend::soft_threshold(
    const double* u, double t, double* y, std::size_t n) const {
  return timed(KernelClass::kShrink, [&] {
    return inner_.soft_threshold(u, t, y, n);
  });
}

double TimingBackend::norm1(const double* x, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] { return inner_.norm1(x, n); });
}

double TimingBackend::norm_inf(const double* x, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] { return inner_.norm_inf(x, n); });
}

void TimingBackend::dual_band_filter(
    const double* t_in, const double* h0, const double* h1, double* out_l,
    double* out_h, std::size_t count, std::size_t taps) const {
  return timed(KernelClass::kFilter, [&] {
    return inner_.dual_band_filter(t_in, h0, h1, out_l, out_h, count, taps);
  });
}

void TimingBackend::dual_band_analysis(
    const double* ext, const double* h0, const double* h1, double* out_a,
    double* out_d, std::size_t half_n, std::size_t taps) const {
  return timed(KernelClass::kFilter, [&] {
    return inner_.dual_band_analysis(ext, h0, h1, out_a, out_d, half_n, taps);
  });
}

void TimingBackend::dual_band_synthesis(
    const double* approx, const double* detail, const double* f0, const
    double* f1, double* x_ext, std::size_t half_n, std::size_t taps) const {
  return timed(KernelClass::kFilter, [&] {
    return inner_.dual_band_synthesis(
        approx, detail, f0, f1, x_ext, half_n, taps);
  });
}

void TimingBackend::soft_threshold_batch(
    const double* u, const double* thresholds, double* y, std::size_t batch,
    std::size_t n) const {
  return timed(KernelClass::kShrink, [&] {
    return inner_.soft_threshold_batch(u, thresholds, y, batch, n);
  });
}

void TimingBackend::group_soft_threshold_batch(
    const double* u, double t, double* y, std::size_t leads,
    std::size_t n) const {
  return timed(KernelClass::kShrink, [&] {
    return inner_.group_soft_threshold_batch(u, t, y, leads, n);
  });
}

void TimingBackend::dot_batch(
    const double* a, const double* b, double* out, std::size_t batch,
    std::size_t n) const {
  return timed(KernelClass::kGlue, [&] {
    return inner_.dot_batch(a, b, out, batch, n);
  });
}

void TimingBackend::axpy_batch(
    double alpha, const double* x, double* y, std::size_t batch, std::size_t
    n) const {
  return timed(KernelClass::kGlue, [&] {
    return inner_.axpy_batch(alpha, x, y, batch, n);
  });
}

void TimingBackend::subtract_batch(
    const double* a, const double* b, double* out, std::size_t batch,
    std::size_t n) const {
  return timed(KernelClass::kGlue, [&] {
    return inner_.subtract_batch(a, b, out, batch, n);
  });
}

void TimingBackend::copy_batch(
    const double* x, double* out, std::size_t batch, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] {
    return inner_.copy_batch(x, out, batch, n);
  });
}

void TimingBackend::norm1_batch(
    const double* x, double* out, std::size_t batch, std::size_t n) const {
  return timed(KernelClass::kGlue, [&] {
    return inner_.norm1_batch(x, out, batch, n);
  });
}

void TimingBackend::dwt_analysis_batch(
    const double* ext, const double* h0, const double* h1, double* out_a,
    double* out_d, std::size_t batch, std::size_t half_n, std::size_t taps,
    std::size_t ext_stride, std::size_t a_stride, std::size_t d_stride) const {
  return timed(KernelClass::kFilter, [&] {
    return inner_.dwt_analysis_batch(
        ext, h0, h1, out_a, out_d, batch, half_n, taps, ext_stride,
        a_stride, d_stride);
  });
}

void TimingBackend::dwt_synthesis_batch(
    const double* approx, const double* detail, const double* f0, const
    double* f1, double* x_ext, std::size_t batch, std::size_t half_n,
    std::size_t taps, std::size_t a_stride, std::size_t d_stride,
    std::size_t ext_stride) const {
  return timed(KernelClass::kFilter, [&] {
    return inner_.dwt_synthesis_batch(
        approx, detail, f0, f1, x_ext, batch, half_n, taps, a_stride,
        d_stride, ext_stride);
  });
}
}  // namespace perfbench
