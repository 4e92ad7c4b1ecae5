#ifndef CSECG_LINALG_SPARSE_BINARY_MATRIX_HPP
#define CSECG_LINALG_SPARSE_BINARY_MATRIX_HPP

/// \file sparse_binary_matrix.hpp
/// The paper's key encoder data structure (§IV-A2, approach 3).
///
/// An M x N sensing matrix in which every column has exactly d non-zero
/// entries equal to 1/sqrt(d), at uniformly random distinct row positions.
/// Only the d row indices per column are stored (N*d small integers), so a
/// 256x512, d = 12 matrix fits in ~6 kB — this is what makes CS sampling
/// feasible inside the MSP430's 10 kB of RAM. The projection y = Phi*x is
/// d*N integer additions (plus one global scale), no multiplications.

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "csecg/util/error.hpp"
#include "csecg/util/rng.hpp"

namespace csecg::linalg {

class SparseBinaryMatrix {
 public:
  /// Builds an M x N sparse binary matrix with exactly \p d non-zeros per
  /// column, positions drawn from \p rng. Requires d <= rows.
  SparseBinaryMatrix(std::size_t rows, std::size_t cols, std::size_t d,
                     util::Rng& rng);

  /// Builds from an explicit index table (cols * d row indices, column
  /// major, each column's d indices distinct). This is how the
  /// coordinator mirrors the mote's on-the-fly PRNG-generated matrix.
  SparseBinaryMatrix(std::size_t rows, std::size_t cols, std::size_t d,
                     std::vector<std::uint16_t> row_index);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros_per_column() const { return d_; }

  /// The common non-zero value 1/sqrt(d).
  double value() const { return value_; }

  /// The d (sorted, distinct) row indices of column \p c.
  std::span<const std::uint16_t> column_rows(std::size_t c) const {
    CSECG_CHECK(c < cols_, "column index out of range");
    return std::span<const std::uint16_t>(row_index_.data() + c * d_, d_);
  }

  /// y = Phi x (floating point path, used on the coordinator side).
  template <typename T>
  void apply(std::span<const T> x, std::span<T> y) const {
    CSECG_CHECK(x.size() == cols_ && y.size() == rows_,
                "apply: size mismatch");
    for (auto& v : y) {
      v = T{};
    }
    for (std::size_t c = 0; c < cols_; ++c) {
      const T xc = x[c];
      const std::uint16_t* rows_ptr = row_index_.data() + c * d_;
      for (std::size_t k = 0; k < d_; ++k) {
        y[rows_ptr[k]] += xc;
      }
    }
    const T scale = static_cast<T>(value_);
    for (auto& v : y) {
      v *= scale;
    }
  }

  /// y = Phi^T x.
  template <typename T>
  void apply_transpose(std::span<const T> x, std::span<T> y) const {
    CSECG_CHECK(x.size() == rows_ && y.size() == cols_,
                "apply_transpose: size mismatch");
    const T scale = static_cast<T>(value_);
    // Four columns per pass: their sums are independent dependency
    // chains, so interleaving them lets the core overlap the gathers.
    // Each column still adds its d values in table order.
    std::size_t c = 0;
    for (; c + 4 <= cols_; c += 4) {
      const std::uint16_t* r0 = row_index_.data() + c * d_;
      const std::uint16_t* r1 = r0 + d_;
      const std::uint16_t* r2 = r1 + d_;
      const std::uint16_t* r3 = r2 + d_;
      T a0{};
      T a1{};
      T a2{};
      T a3{};
      for (std::size_t k = 0; k < d_; ++k) {
        a0 += x[r0[k]];
        a1 += x[r1[k]];
        a2 += x[r2[k]];
        a3 += x[r3[k]];
      }
      y[c] = a0 * scale;
      y[c + 1] = a1 * scale;
      y[c + 2] = a2 * scale;
      y[c + 3] = a3 * scale;
    }
    for (; c < cols_; ++c) {
      const std::uint16_t* rows_ptr = row_index_.data() + c * d_;
      T acc{};
      for (std::size_t k = 0; k < d_; ++k) {
        acc += x[rows_ptr[k]];
      }
      y[c] = acc * scale;
    }
  }

  /// Panel projection: y_row_b = Phi x_row_b for `batch` packed rows.
  /// Lane groups run on an interleaved scratch panel — the scatter
  /// target for row index r holds the group's rows contiguously, so
  /// every "y[r] += x[c]" of the scalar loop becomes one group-wide add
  /// and the index table (the expensive stream: cols*d random row
  /// positions) is read once per group instead of once per row. Each
  /// lane replays exactly the scalar per-row schedule (columns
  /// ascending, the d adds in table order, one final scale), so results
  /// are bitwise equal to the row-by-row loop. Full kLanes-wide groups
  /// take the fixed-width fast path; a partial tail group of 2+ rows
  /// (e.g. a 3-lead group) runs the same schedule at its own width, so
  /// it still costs one traversal; a 1-row tail is plain apply().
  template <typename T>
  void apply_batch(std::span<const T> x, std::span<T> y,
                   std::size_t batch) const {
    CSECG_CHECK(x.size() == batch * cols_ && y.size() == batch * rows_,
                "apply_batch: size mismatch");
    const T scale = static_cast<T>(value_);
    std::vector<T>& lanes = lane_scratch<T>();
    std::size_t b0 = 0;
    for (; b0 + kLanes <= batch; b0 += kLanes) {
      lanes.assign(rows_ * kLanes, T{});
      for (std::size_t c = 0; c < cols_; ++c) {
        const std::uint16_t* rows_ptr = row_index_.data() + c * d_;
        T xc[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
          xc[l] = x[(b0 + l) * cols_ + c];
        }
        for (std::size_t k = 0; k < d_; ++k) {
          T* yr = lanes.data() + rows_ptr[k] * kLanes;
          for (std::size_t l = 0; l < kLanes; ++l) {
            yr[l] += xc[l];
          }
        }
      }
      for (std::size_t l = 0; l < kLanes; ++l) {
        T* yl = y.data() + (b0 + l) * rows_;
        for (std::size_t r = 0; r < rows_; ++r) {
          yl[r] = lanes[r * kLanes + l] * scale;
        }
      }
    }
    const std::size_t rem = batch - b0;
    if (rem == 1) {
      apply(x.subspan(b0 * cols_, cols_), y.subspan(b0 * rows_, rows_));
    } else if (rem > 1) {
      lanes.assign(rows_ * rem, T{});
      for (std::size_t c = 0; c < cols_; ++c) {
        const std::uint16_t* rows_ptr = row_index_.data() + c * d_;
        T xc[kLanes];
        for (std::size_t l = 0; l < rem; ++l) {
          xc[l] = x[(b0 + l) * cols_ + c];
        }
        for (std::size_t k = 0; k < d_; ++k) {
          T* yr = lanes.data() + rows_ptr[k] * rem;
          for (std::size_t l = 0; l < rem; ++l) {
            yr[l] += xc[l];
          }
        }
      }
      for (std::size_t l = 0; l < rem; ++l) {
        T* yl = y.data() + (b0 + l) * rows_;
        for (std::size_t r = 0; r < rows_; ++r) {
          yl[r] = lanes[r * rem + l] * scale;
        }
      }
    }
  }

  /// Panel back-projection: y_row_b = Phi^T x_row_b, same single-traversal
  /// and bitwise contracts as apply_batch: lane groups interleave x so
  /// each gather of d measurement values loads the group's rows at once
  /// and every accumulation is a group-wide add, with per-lane summation
  /// order identical to apply_transpose(). Partial tail groups of 2+
  /// rows run the interleaved schedule at their own width.
  template <typename T>
  void apply_transpose_batch(std::span<const T> x, std::span<T> y,
                             std::size_t batch) const {
    CSECG_CHECK(x.size() == batch * rows_ && y.size() == batch * cols_,
                "apply_transpose_batch: size mismatch");
    const T scale = static_cast<T>(value_);
    std::vector<T>& lanes = lane_scratch<T>();
    std::size_t b0 = 0;
    for (; b0 + kLanes <= batch; b0 += kLanes) {
      lanes.resize(rows_ * kLanes);
      for (std::size_t l = 0; l < kLanes; ++l) {
        const T* xl = x.data() + (b0 + l) * rows_;
        for (std::size_t r = 0; r < rows_; ++r) {
          lanes[r * kLanes + l] = xl[r];
        }
      }
      // Two columns per pass, as in apply_transpose: independent
      // chains, each still summed in table order.
      std::size_t c = 0;
      for (; c + 2 <= cols_; c += 2) {
        const std::uint16_t* r0 = row_index_.data() + c * d_;
        const std::uint16_t* r1 = r0 + d_;
        T acc0[kLanes] = {};
        T acc1[kLanes] = {};
        for (std::size_t k = 0; k < d_; ++k) {
          const T* x0 = lanes.data() + r0[k] * kLanes;
          const T* x1 = lanes.data() + r1[k] * kLanes;
          for (std::size_t l = 0; l < kLanes; ++l) {
            acc0[l] += x0[l];
            acc1[l] += x1[l];
          }
        }
        for (std::size_t l = 0; l < kLanes; ++l) {
          y[(b0 + l) * cols_ + c] = acc0[l] * scale;
          y[(b0 + l) * cols_ + c + 1] = acc1[l] * scale;
        }
      }
      for (; c < cols_; ++c) {
        const std::uint16_t* rows_ptr = row_index_.data() + c * d_;
        T acc[kLanes] = {};
        for (std::size_t k = 0; k < d_; ++k) {
          const T* xr = lanes.data() + rows_ptr[k] * kLanes;
          for (std::size_t l = 0; l < kLanes; ++l) {
            acc[l] += xr[l];
          }
        }
        for (std::size_t l = 0; l < kLanes; ++l) {
          y[(b0 + l) * cols_ + c] = acc[l] * scale;
        }
      }
    }
    const std::size_t rem = batch - b0;
    if (rem == 1) {
      apply_transpose(x.subspan(b0 * rows_, rows_),
                      y.subspan(b0 * cols_, cols_));
    } else if (rem > 1) {
      lanes.resize(rows_ * rem);
      for (std::size_t l = 0; l < rem; ++l) {
        const T* xl = x.data() + (b0 + l) * rows_;
        for (std::size_t r = 0; r < rows_; ++r) {
          lanes[r * rem + l] = xl[r];
        }
      }
      for (std::size_t c = 0; c < cols_; ++c) {
        const std::uint16_t* rows_ptr = row_index_.data() + c * d_;
        T acc[kLanes] = {};
        for (std::size_t k = 0; k < d_; ++k) {
          const T* xr = lanes.data() + rows_ptr[k] * rem;
          for (std::size_t l = 0; l < rem; ++l) {
            acc[l] += xr[l];
          }
        }
        for (std::size_t l = 0; l < rem; ++l) {
          y[(b0 + l) * cols_ + c] = acc[l] * scale;
        }
      }
    }
  }

  /// Integer accumulation path used by the 16-bit mote encoder: y must have
  /// rows() entries; each y[r] accumulates the *unscaled* sum of the x
  /// samples hitting row r. The 1/sqrt(d) scale is deferred to the decoder
  /// (it commutes with everything linear downstream), so the mote performs
  /// additions only. 32-bit accumulators cannot overflow: at most N terms
  /// of 11-bit magnitude.
  void accumulate_integer(std::span<const std::int16_t> x,
                          std::span<std::int32_t> y) const;

  /// Storage the index table would occupy on the mote, in bytes (the paper
  /// stores one small integer per non-zero).
  std::size_t storage_bytes() const;

  /// Fraction of row pairs of distinct columns that collide (share a row);
  /// a quick incoherence diagnostic used by tests.
  double average_column_overlap() const;

  /// Panel lane width: one lane per batch row, sized so a group's
  /// interleaved accumulators match the 4-wide vector units the native
  /// backend targets (and auto-vectorise as fixed-count contiguous loops
  /// everywhere else). Public so the §IV-B cycle model can price the
  /// index-table stream per lane group: a panel apply of `batch` rows
  /// reads the cols*d table ceil(batch / kLanes) times, not batch times.
  static constexpr std::size_t kLanes = 4;

 private:
  template <typename T>
  std::vector<T>& lane_scratch() const {
    if constexpr (std::is_same_v<T, float>) {
      return lane_scratch_f_;
    } else {
      return lane_scratch_d_;
    }
  }

  std::size_t rows_;
  std::size_t cols_;
  std::size_t d_;
  double value_;
  std::vector<std::uint16_t> row_index_;  // cols_ * d_, sorted per column
  // Interleaved rows_ x kLanes panel scratch for the batch applies; reused
  // across calls so the steady-state decode stays allocation-free. Like
  // CsOperator's panel scratch this makes concurrent batch applies on one
  // matrix instance racy — every decoder owns its matrices.
  mutable std::vector<float> lane_scratch_f_;
  mutable std::vector<double> lane_scratch_d_;
};

}  // namespace csecg::linalg

#endif  // CSECG_LINALG_SPARSE_BINARY_MATRIX_HPP
