#include "csecg/linalg/sparse_binary_matrix.hpp"

#include <cmath>
#include <limits>
#include <utility>

namespace csecg::linalg {

namespace {

void check_shape(std::size_t rows, std::size_t cols, std::size_t d) {
  CSECG_CHECK(rows > 0 && cols > 0, "matrix dimensions must be positive");
  CSECG_CHECK(d > 0 && d <= rows,
              "d must be in [1, rows] so column entries are distinct");
  CSECG_CHECK(rows <= std::numeric_limits<std::uint16_t>::max() + 1u,
              "row indices are stored as uint16");
  CSECG_CHECK(cols <= std::numeric_limits<std::uint16_t>::max() + 1u,
              "column indices are stored as uint16");
  CSECG_CHECK(cols * d <= std::numeric_limits<std::uint32_t>::max(),
              "row starts are stored as uint32");
}

std::vector<std::uint16_t> draw_row_index(std::size_t rows, std::size_t cols,
                                          std::size_t d, util::Rng& rng) {
  check_shape(rows, cols, d);
  std::vector<std::uint16_t> row_index;
  row_index.reserve(cols * d);
  for (std::size_t c = 0; c < cols; ++c) {
    const auto chosen = rng.sample_without_replacement(
        static_cast<std::uint32_t>(rows), static_cast<std::uint32_t>(d));
    for (const auto r : chosen) {
      row_index.push_back(static_cast<std::uint16_t>(r));
    }
  }
  return row_index;
}

}  // namespace

SparseBinaryMatrix::SparseBinaryMatrix(std::size_t rows, std::size_t cols,
                                       std::size_t d, util::Rng& rng)
    : SparseBinaryMatrix(rows, cols, d, draw_row_index(rows, cols, d, rng)) {}

SparseBinaryMatrix::SparseBinaryMatrix(std::size_t rows, std::size_t cols,
                                       std::size_t d,
                                       std::vector<std::uint16_t> row_index)
    : rows_(rows),
      cols_(cols),
      d_(d),
      value_(1.0 / std::sqrt(static_cast<double>(d))),
      row_index_(std::move(row_index)) {
  check_shape(rows, cols, d);
  CSECG_CHECK(row_index_.size() == cols * d,
              "index table must hold cols * d entries");
  for (const auto r : row_index_) {
    CSECG_CHECK(r < rows, "row index out of range in index table");
  }
  build_row_table();
}

void SparseBinaryMatrix::build_row_table() {
  // Counting sort of the non-zeros by row. Columns are visited in
  // ascending order, so each row lists its columns ascending — the order
  // in which the column scatter adds into that row.
  row_start_.assign(rows_ + 1, 0);
  for (const auto r : row_index_) {
    ++row_start_[r + 1];
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    row_start_[r + 1] += row_start_[r];
  }
  col_index_.resize(row_index_.size());
  std::vector<std::uint32_t> next(row_start_.begin(), row_start_.end() - 1);
  for (std::size_t c = 0; c < cols_; ++c) {
    for (std::size_t k = 0; k < d_; ++k) {
      col_index_[next[row_index_[c * d_ + k]]++] =
          static_cast<std::uint16_t>(c);
    }
  }
}

void SparseBinaryMatrix::accumulate_integer(
    std::span<const std::int16_t> x, std::span<std::int32_t> y) const {
  CSECG_CHECK(x.size() == cols_ && y.size() == rows_,
              "accumulate_integer: size mismatch");
  for (auto& v : y) {
    v = 0;
  }
  for (std::size_t c = 0; c < cols_; ++c) {
    const std::int32_t xc = x[c];
    const std::uint16_t* rows_ptr = row_index_.data() + c * d_;
    for (std::size_t k = 0; k < d_; ++k) {
      y[rows_ptr[k]] += xc;
    }
  }
}

std::size_t SparseBinaryMatrix::storage_bytes() const {
  // One uint16 row index per non-zero; the scale is a single constant.
  return cols_ * d_ * sizeof(std::uint16_t);
}

double SparseBinaryMatrix::average_column_overlap() const {
  // Count, over all unordered column pairs, the expected number of shared
  // rows; exact counting is O(cols^2 * d) which is fine at our sizes for a
  // diagnostic, but we sample pairs to keep tests fast on big matrices.
  if (cols_ < 2) {
    return 0.0;
  }
  double total = 0.0;
  std::size_t pairs = 0;
  const std::size_t stride = cols_ > 128 ? cols_ / 128 : 1;
  for (std::size_t a = 0; a < cols_; a += stride) {
    for (std::size_t b = a + 1; b < cols_; b += stride) {
      const auto ra = column_rows(a);
      const auto rb = column_rows(b);
      std::size_t ia = 0;
      std::size_t ib = 0;
      std::size_t shared = 0;
      while (ia < ra.size() && ib < rb.size()) {
        if (ra[ia] == rb[ib]) {
          ++shared;
          ++ia;
          ++ib;
        } else if (ra[ia] < rb[ib]) {
          ++ia;
        } else {
          ++ib;
        }
      }
      total += static_cast<double>(shared);
      ++pairs;
    }
  }
  return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

}  // namespace csecg::linalg
