#include "csecg/dsp/dwt.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "csecg/util/error.hpp"

namespace csecg::dsp {

namespace {

/// Writes the periodic extension of s[0, n) into ext[0, n + taps - 1): a
/// block copy, then a taps - 1 wrap that re-reads ext itself, so a level
/// shorter than the wrap (n < taps - 1, deep levels of long filters)
/// repeats as often as it needs to.
template <typename T>
void periodic_extend(const T* s, std::size_t n, std::size_t taps, T* ext) {
  std::copy(s, s + n, ext);
  for (std::size_t i = 0; i + 1 < taps; ++i) {
    ext[n + i] = ext[i];
  }
}

/// Folds the periodic tail x_ext[n, n + taps - 1) back onto the head in
/// place, adding in ascending tail order (the head wraps when the tail is
/// longer than n).
template <typename T>
void fold_tail(T* x_ext, std::size_t n, std::size_t taps) {
  std::size_t j = 0;
  for (std::size_t i = 0; i + 1 < taps; ++i) {
    x_ext[j] += x_ext[n + i];
    if (++j == n) {
      j = 0;
    }
  }
}

}  // namespace

WaveletTransform::WaveletTransform(Wavelet wavelet, std::size_t length,
                                   int levels)
    : wavelet_(std::move(wavelet)), length_(length), levels_(levels) {
  CSECG_CHECK(levels_ >= 1, "need at least one decomposition level");
  CSECG_CHECK(levels_ < 63, "level count out of range");
  CSECG_CHECK(length_ % (std::size_t{1} << levels_) == 0,
              "signal length must be divisible by 2^levels");
  CSECG_CHECK(length_ >> levels_ >= 1, "too many levels for this length");
  h_d_ = wavelet_.analysis_lowpass();
  g_d_ = wavelet_.analysis_highpass();
  h_f_.assign(h_d_.begin(), h_d_.end());
  g_f_.assign(g_d_.begin(), g_d_.end());
}

SubbandLayout WaveletTransform::layout() const {
  SubbandLayout layout;
  layout.approx_offset = 0;
  layout.approx_size = length_ >> levels_;
  layout.detail_offsets.resize(static_cast<std::size_t>(levels_));
  layout.detail_sizes.resize(static_cast<std::size_t>(levels_));
  std::size_t offset = layout.approx_size;
  for (int l = 0; l < levels_; ++l) {
    // l = 0 is the coarsest detail band (same size as the approximation).
    const std::size_t size = length_ >> (levels_ - l);
    layout.detail_offsets[static_cast<std::size_t>(l)] = offset;
    layout.detail_sizes[static_cast<std::size_t>(l)] = size;
    offset += size;
  }
  return layout;
}

template <typename T>
const T* WaveletTransform::lowpass() const {
  if constexpr (std::is_same_v<T, float>) {
    return h_f_.data();
  } else {
    return h_d_.data();
  }
}

template <typename T>
const T* WaveletTransform::highpass() const {
  if constexpr (std::is_same_v<T, float>) {
    return g_f_.data();
  } else {
    return g_d_.data();
  }
}

template <typename T>
T* WaveletTransform::level_buffers(std::size_t batch) const {
  std::vector<T>* work;
  if constexpr (std::is_same_v<T, float>) {
    work = &work_f_;
  } else {
    work = &work_d_;
  }
  const std::size_t need = 2 * batch * level_stride();
  if (work->size() < need) {
    work->resize(need);
  }
  return work->data();
}

template <typename T>
void WaveletTransform::forward(std::span<const T> x, std::span<T> coeffs,
                               const linalg::Backend& backend) const {
  CSECG_CHECK(x.size() == length_ && coeffs.size() == length_,
              "forward: size mismatch");
  const std::size_t taps = wavelet_.length();
  T* ext = level_buffers<T>(1);
  // The first n coefficients always hold the n-point transform of the
  // current approximation: its detail half goes to [half, n), and the
  // coarser content keeps refining [0, half), which the next level
  // extends from.
  const T* approx = x.data();
  std::size_t n = length_;
  for (int level = 0; level < levels_; ++level) {
    const std::size_t half = n / 2;
    periodic_extend(approx, n, taps, ext);
    backend.dual_band_analysis(ext, lowpass<T>(), highpass<T>(),
                               coeffs.data(), coeffs.data() + half, half,
                               taps);
    approx = coeffs.data();
    n = half;
  }
}

template <typename T>
void WaveletTransform::inverse(std::span<const T> coeffs, std::span<T> x,
                               const linalg::Backend& backend) const {
  CSECG_CHECK(coeffs.size() == length_ && x.size() == length_,
              "inverse: size mismatch");
  const std::size_t taps = wavelet_.length();
  T* cur = level_buffers<T>(1);
  T* spare = cur + level_stride();
  const T* approx = coeffs.data();
  std::size_t half = length_ >> levels_;
  for (int level = 0; level < levels_; ++level) {
    const std::size_t n = 2 * half;
    std::fill(cur, cur + n + taps - 1, T{});
    backend.dual_band_synthesis(approx, coeffs.data() + half, lowpass<T>(),
                                highpass<T>(), cur, half, taps);
    fold_tail(cur, n, taps);
    approx = cur;
    std::swap(cur, spare);
    half = n;
  }
  std::copy(approx, approx + length_, x.data());
}

template <typename T>
void WaveletTransform::forward_batch(std::span<const T> x, std::span<T> coeffs,
                                     std::size_t batch,
                                     const linalg::Backend& backend) const {
  CSECG_CHECK(x.size() == batch * length_ && coeffs.size() == batch * length_,
              "forward_batch: size mismatch");
  const std::size_t taps = wavelet_.length();
  const std::size_t stride = level_stride();
  T* ext = level_buffers<T>(batch);
  // Per row exactly forward(): row b's approximation and detail both land
  // in its coefficient row (out_a and out_d stride at the window length).
  const T* approx = x.data();
  std::size_t n = length_;
  for (int level = 0; level < levels_; ++level) {
    const std::size_t half = n / 2;
    for (std::size_t b = 0; b < batch; ++b) {
      periodic_extend(approx + b * length_, n, taps, ext + b * stride);
    }
    backend.dwt_analysis_batch(ext, lowpass<T>(), highpass<T>(),
                               coeffs.data(), coeffs.data() + half, batch,
                               half, taps, stride, length_, length_);
    approx = coeffs.data();
    n = half;
  }
}

template <typename T>
void WaveletTransform::inverse_batch(std::span<const T> coeffs,
                                     std::span<T> x, std::size_t batch,
                                     const linalg::Backend& backend) const {
  CSECG_CHECK(coeffs.size() == batch * length_ && x.size() == batch * length_,
              "inverse_batch: size mismatch");
  const std::size_t taps = wavelet_.length();
  const std::size_t stride = level_stride();
  T* cur = level_buffers<T>(batch);
  T* spare = cur + batch * stride;
  const T* approx = coeffs.data();
  std::size_t a_stride = length_;
  std::size_t half = length_ >> levels_;
  for (int level = 0; level < levels_; ++level) {
    const std::size_t n = 2 * half;
    for (std::size_t b = 0; b < batch; ++b) {
      std::fill(cur + b * stride, cur + b * stride + n + taps - 1, T{});
    }
    backend.dwt_synthesis_batch(approx, coeffs.data() + half, lowpass<T>(),
                                highpass<T>(), cur, batch, half, taps,
                                a_stride, length_, stride);
    for (std::size_t b = 0; b < batch; ++b) {
      fold_tail(cur + b * stride, n, taps);
    }
    approx = cur;
    a_stride = stride;
    std::swap(cur, spare);
    half = n;
  }
  for (std::size_t b = 0; b < batch; ++b) {
    std::copy(approx + b * a_stride, approx + b * a_stride + length_,
              x.data() + b * length_);
  }
}

template void WaveletTransform::forward<float>(std::span<const float>,
                                               std::span<float>,
                                               const linalg::Backend&) const;
template void WaveletTransform::forward<double>(std::span<const double>,
                                                std::span<double>,
                                                const linalg::Backend&) const;
template void WaveletTransform::inverse<float>(std::span<const float>,
                                               std::span<float>,
                                               const linalg::Backend&) const;
template void WaveletTransform::inverse<double>(std::span<const double>,
                                                std::span<double>,
                                                const linalg::Backend&) const;
template void WaveletTransform::forward_batch<float>(
    std::span<const float>, std::span<float>, std::size_t,
    const linalg::Backend&) const;
template void WaveletTransform::forward_batch<double>(
    std::span<const double>, std::span<double>, std::size_t,
    const linalg::Backend&) const;
template void WaveletTransform::inverse_batch<float>(
    std::span<const float>, std::span<float>, std::size_t,
    const linalg::Backend&) const;
template void WaveletTransform::inverse_batch<double>(
    std::span<const double>, std::span<double>, std::size_t,
    const linalg::Backend&) const;

}  // namespace csecg::dsp
