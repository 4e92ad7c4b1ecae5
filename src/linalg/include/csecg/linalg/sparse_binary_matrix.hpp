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
/// d*N integer additions (plus one global scale), no multiplications; the
/// mote runs it as a column scatter (accumulate_integer).
///
/// The host also keeps the same non-zeros row-major (row starts plus the
/// column indices of each row, ascending), so the float Phi x is a gather
/// whose every output adds its columns in the order the scatter reaches
/// that row: bitwise the scatter. Both tables are built by the
/// constructor and nothing is written afterwards, so one instance can
/// serve any number of threads at once; core::SensingMatrix shares one
/// instance per distinct (rows, cols, d, seed).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
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
  /// A gather over the row table, four rows per pass as independent
  /// chains. Each row adds its columns in ascending order starting from
  /// zero and is scaled once — the same per-row sequence of adds the
  /// column scatter produces — so the result is bitwise the scatter's.
  template <typename T>
  void apply(std::span<const T> x, std::span<T> y) const {
    CSECG_CHECK(x.size() == cols_ && y.size() == rows_,
                "apply: size mismatch");
    const T scale = static_cast<T>(value_);
    const T* xs = x.data();
    const std::uint16_t* cols = col_index_.data();
    std::size_t r = 0;
    for (; r + 4 <= rows_; r += 4) {
      const std::uint32_t* s = row_start_.data() + r;
      const std::uint16_t* c0 = cols + s[0];
      const std::uint16_t* c1 = cols + s[1];
      const std::uint16_t* c2 = cols + s[2];
      const std::uint16_t* c3 = cols + s[3];
      const std::size_t n0 = s[1] - s[0];
      const std::size_t n1 = s[2] - s[1];
      const std::size_t n2 = s[3] - s[2];
      const std::size_t n3 = s[4] - s[3];
      const std::size_t common = std::min({n0, n1, n2, n3});
      T a0{};
      T a1{};
      T a2{};
      T a3{};
      for (std::size_t k = 0; k < common; ++k) {
        a0 += xs[c0[k]];
        a1 += xs[c1[k]];
        a2 += xs[c2[k]];
        a3 += xs[c3[k]];
      }
      y[r] = add_columns(a0, xs, c0, common, n0) * scale;
      y[r + 1] = add_columns(a1, xs, c1, common, n1) * scale;
      y[r + 2] = add_columns(a2, xs, c2, common, n2) * scale;
      y[r + 3] = add_columns(a3, xs, c3, common, n3) * scale;
    }
    for (; r < rows_; ++r) {
      const std::uint32_t* s = row_start_.data() + r;
      y[r] = add_columns(T{}, xs, cols + s[0], 0, s[1] - s[0]) * scale;
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
  /// Groups of kLanes rows share one traversal of the row table: each
  /// matrix row keeps one accumulator per lane and reads lane l straight
  /// from row l of the x panel. Every lane adds its columns in the
  /// single-row order, so results are bitwise equal to apply() row by
  /// row. A 2- or 3-row tail group (e.g. a 3-lead group) runs the same
  /// schedule at its own width; a 1-row tail is plain apply().
  template <typename T>
  void apply_batch(std::span<const T> x, std::span<T> y,
                   std::size_t batch) const {
    CSECG_CHECK(x.size() == batch * cols_ && y.size() == batch * rows_,
                "apply_batch: size mismatch");
    std::size_t b0 = 0;
    for (; b0 + kLanes <= batch; b0 += kLanes) {
      apply_group<kLanes>(x.data() + b0 * cols_, y.data() + b0 * rows_);
    }
    switch (batch - b0) {
      case 1:
        apply(x.subspan(b0 * cols_, cols_), y.subspan(b0 * rows_, rows_));
        break;
      case 2:
        apply_group<2>(x.data() + b0 * cols_, y.data() + b0 * rows_);
        break;
      case 3:
        apply_group<3>(x.data() + b0 * cols_, y.data() + b0 * rows_);
        break;
      default:
        break;
    }
  }

  /// Panel back-projection: y_row_b = Phi^T x_row_b, with the same
  /// grouping and bitwise contract as apply_batch: each group reads the
  /// column table once, lane l gathers straight from row l of the x
  /// panel, and every lane sums each column in table order as
  /// apply_transpose() does.
  template <typename T>
  void apply_transpose_batch(std::span<const T> x, std::span<T> y,
                             std::size_t batch) const {
    CSECG_CHECK(x.size() == batch * rows_ && y.size() == batch * cols_,
                "apply_transpose_batch: size mismatch");
    std::size_t b0 = 0;
    for (; b0 + kLanes <= batch; b0 += kLanes) {
      apply_transpose_group<kLanes>(x.data() + b0 * rows_,
                                    y.data() + b0 * cols_);
    }
    switch (batch - b0) {
      case 1:
        apply_transpose(x.subspan(b0 * rows_, rows_),
                        y.subspan(b0 * cols_, cols_));
        break;
      case 2:
        apply_transpose_group<2>(x.data() + b0 * rows_,
                                 y.data() + b0 * cols_);
        break;
      case 3:
        apply_transpose_group<3>(x.data() + b0 * rows_,
                                 y.data() + b0 * cols_);
        break;
      default:
        break;
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

  /// Panel lane width: the batch rows that share one traversal of an
  /// index table in apply_batch / apply_transpose_batch. Public so the
  /// §IV-B cycle model can price the index-table stream per lane group:
  /// a panel apply of `batch` rows reads the cols*d table
  /// ceil(batch / kLanes) times, not batch times.
  static constexpr std::size_t kLanes = 4;

 private:
  static_assert(kLanes == 4, "the panel tails dispatch widths 1, 2 and 3");

  /// Builds the row-major table from the column table.
  void build_row_table();

  /// acc + x[cols[from]] + ... + x[cols[to - 1]], left to right.
  template <typename T>
  static T add_columns(T acc, const T* x, const std::uint16_t* cols,
                       std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to; ++k) {
      acc += x[cols[k]];
    }
    return acc;
  }

  /// Phi over W packed rows of x (W * cols_) into W packed rows of y.
  template <std::size_t W, typename T>
  void apply_group(const T* x, T* y) const {
    const T scale = static_cast<T>(value_);
    for (std::size_t r = 0; r < rows_; ++r) {
      const std::uint16_t* cols = col_index_.data() + row_start_[r];
      const std::size_t n = row_start_[r + 1] - row_start_[r];
      T acc[W] = {};
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t c = cols[k];
        for (std::size_t l = 0; l < W; ++l) {
          acc[l] += x[l * cols_ + c];
        }
      }
      for (std::size_t l = 0; l < W; ++l) {
        y[l * rows_ + r] = acc[l] * scale;
      }
    }
  }

  /// Phi^T over W packed rows of x (W * rows_) into W packed rows of y;
  /// two columns per pass as independent chains.
  template <std::size_t W, typename T>
  void apply_transpose_group(const T* x, T* y) const {
    const T scale = static_cast<T>(value_);
    std::size_t c = 0;
    for (; c + 2 <= cols_; c += 2) {
      const std::uint16_t* r0 = row_index_.data() + c * d_;
      const std::uint16_t* r1 = r0 + d_;
      T acc0[W] = {};
      T acc1[W] = {};
      for (std::size_t k = 0; k < d_; ++k) {
        for (std::size_t l = 0; l < W; ++l) {
          acc0[l] += x[l * rows_ + r0[k]];
          acc1[l] += x[l * rows_ + r1[k]];
        }
      }
      for (std::size_t l = 0; l < W; ++l) {
        y[l * cols_ + c] = acc0[l] * scale;
        y[l * cols_ + c + 1] = acc1[l] * scale;
      }
    }
    if (c < cols_) {
      const std::uint16_t* r0 = row_index_.data() + c * d_;
      T acc[W] = {};
      for (std::size_t k = 0; k < d_; ++k) {
        for (std::size_t l = 0; l < W; ++l) {
          acc[l] += x[l * rows_ + r0[k]];
        }
      }
      for (std::size_t l = 0; l < W; ++l) {
        y[l * cols_ + c] = acc[l] * scale;
      }
    }
  }

  std::size_t rows_;
  std::size_t cols_;
  std::size_t d_;
  double value_;
  // Column table: cols_ * d_ row indices, column-major, sorted per
  // column — the mote's representation.
  std::vector<std::uint16_t> row_index_;
  // Row table over the same non-zeros: row r's columns are
  // col_index_[row_start_[r] .. row_start_[r + 1]), ascending.
  std::vector<std::uint32_t> row_start_;
  std::vector<std::uint16_t> col_index_;
};

}  // namespace csecg::linalg

#endif  // CSECG_LINALG_SPARSE_BINARY_MATRIX_HPP
