#ifndef CSECG_SOLVERS_WORKSPACE_HPP
#define CSECG_SOLVERS_WORKSPACE_HPP

/// \file workspace.hpp
/// Reusable scratch memory for the iterative shrinkage solvers.
///
/// A plain fista()/ista() call heap-allocates six n/m-sized scratch
/// vectors (extrapolation point, residual, gradient, candidate, current
/// and next iterate) plus the threshold buffer and the result storage.
/// That is fine for a one-shot solve but becomes the dominant non-kernel
/// cost once a gateway decodes many 2-s windows per second
/// across a worker pool. A SolverWorkspace owns all of that scratch:
/// buffers are sized on first use and reused across solves, so FISTA runs
/// allocation-free in steady state. One workspace per worker thread; a
/// workspace must not be shared by concurrent solves.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "csecg/solvers/types.hpp"

namespace csecg::solvers {

class SolverWorkspace {
 public:
  /// Per-precision scratch. All vectors only ever grow; resize() between
  /// solves of the same problem shape never reallocates. The iterate
  /// panels hold `rows` problems packed back to back (rows * m or
  /// rows * n elements), so one panel kernel invocation sweeps them all.
  /// Independent rows live at *slot* positions: converged problems are
  /// compacted out by swapping the last active one in, so the panels
  /// shrink as rows freeze (perm maps slot -> problem index).
  template <typename T>
  struct Buffers {
    std::vector<T> yk;         ///< extrapolation points y_k (rows * n)
    std::vector<T> residual;   ///< A y_k - y (rows * m)
    std::vector<T> gradient;   ///< A^T residual (rows * n)
    std::vector<T> candidate;  ///< y_k - (1/L) grad (rows * n)
    std::vector<T> a_next;     ///< next iterates (rows * n)
    std::vector<T> a_k;        ///< current iterates (rows * n)
    /// Per-slot thresholds lambda_p / L, or the per-coefficient weighted
    /// thresholds (n) of a weighted single-row solve.
    std::vector<T> thresholds;
    std::vector<T> ys;                    ///< compactable measurement rows
    std::vector<T> rownorms;              ///< per-row dot_batch output
    std::vector<std::size_t> perm;        ///< slot -> problem index
    std::vector<double> change_sq;        ///< per-slot iterate change
    std::vector<double> norm_sq;          ///< per-slot iterate norm
    /// Per-slot momentum scalars t_k. A restart resets one row's momentum
    /// without touching its neighbours, so each problem carries its own.
    std::vector<double> tk;
    /// Per-slot consecutive support-stable iteration counters, for the
    /// support-aware tolerance relaxation.
    std::vector<std::size_t> support_stable;
    /// Solve outputs, one per row; fista()/ista() return results[0].
    /// Reused across calls of the same shape, so steady-state decode is
    /// allocation-free.
    std::vector<ShrinkageResult<T>> results;
    /// Caller-side scratch for code wrapping the solver (the decoder's
    /// scaled measurement rows, A^T y rows, per-problem lambdas and
    /// replicated warm-start seed rows).
    std::vector<T> y;
    std::vector<T> aty;
    std::vector<double> lambdas;
    std::vector<double> warm;
  };

  template <typename T>
  Buffers<T>& buffers();

 private:
  Buffers<float> float_;
  Buffers<double> double_;
};

template <>
inline SolverWorkspace::Buffers<float>& SolverWorkspace::buffers<float>() {
  return float_;
}

template <>
inline SolverWorkspace::Buffers<double>& SolverWorkspace::buffers<double>() {
  return double_;
}

}  // namespace csecg::solvers

#endif  // CSECG_SOLVERS_WORKSPACE_HPP
