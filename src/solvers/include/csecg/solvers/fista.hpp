#ifndef CSECG_SOLVERS_FISTA_HPP
#define CSECG_SOLVERS_FISTA_HPP

/// \file fista.hpp
/// FISTA with constant step size (Beck & Teboulle 2009), exactly the
/// variant the paper lists in §II-B:
///
///   Input: L — a Lipschitz constant of grad f
///   Step 0: y_1 = a_0, t_1 = 1
///   Step k: a_k     = prox_{1/L}(g)(y_k - (1/L) grad f(y_k))     (eq 4)
///           t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2                (eq 5)
///           y_{k+1} = a_k + ((t_k - 1)/t_{k+1})(a_k - a_{k-1})   (eq 6)
///
/// with f(a) = ||A a - y||_2^2 and g(a) = lambda ||a||_1, whose prox is
/// plain soft thresholding. Converges at O(1/k^2) versus ISTA's O(1/k).

#include <cstddef>
#include <cstdint>
#include <span>

#include "csecg/linalg/linear_operator.hpp"
#include "csecg/solvers/types.hpp"
#include "csecg/solvers/workspace.hpp"

namespace csecg::solvers {

/// Runs FISTA on min ||A a - y||^2 + lambda ||a||_1. Starts from zero,
/// or from options.warm_start when set (the prior-aware decode path:
/// consecutive ECG windows are quasi-periodic, so the previous window's
/// solution seeds a_0 = y_1 and the solve converges in a fraction of the
/// cold iteration count).
template <typename T>
ShrinkageResult<T> fista(const linalg::LinearOperator<T>& A,
                         std::span<const T> y,
                         const ShrinkageOptions& options);

/// ISTA (no momentum) with the same interface — the O(1/k) baseline the
/// paper accelerates away from.
template <typename T>
ShrinkageResult<T> ista(const linalg::LinearOperator<T>& A,
                        std::span<const T> y,
                        const ShrinkageOptions& options);

/// Workspace variants: all scratch and the returned result live in
/// \p workspace, so repeated solves of the same shape never touch the
/// heap (steady-state allocation-free — the fleet decode hot path). The
/// returned reference stays valid until the next solve through the same
/// workspace; one workspace per thread. fista()/ista() are the one-row
/// panel solve (see fista_panel), plus the single-row extras: per-
/// coefficient weights, sigma stopping and objective recording.
template <typename T>
ShrinkageResult<T>& fista(const linalg::LinearOperator<T>& A,
                          std::span<const T> y,
                          const ShrinkageOptions& options,
                          SolverWorkspace& workspace);

template <typename T>
ShrinkageResult<T>& ista(const linalg::LinearOperator<T>& A,
                         std::span<const T> y,
                         const ShrinkageOptions& options,
                         SolverWorkspace& workspace);

/// How the rows of a panel solve are coupled.
enum class Coupling : std::uint8_t {
  /// Every row is its own problem with its own lambda, momentum scalar,
  /// restart test and stopping rule (the fleet's batched decode). A
  /// converged row is snapshotted at its own stopping iteration and
  /// dropped from every later sweep, so finished rows stop being charged
  /// while the panel runs on to the slowest member. Each row produces
  /// bitwise the iterate trajectory, iteration count and solution of a
  /// fista() call with the same options, lambda and backend.
  kIndependent,
  /// All rows (the leads of a lead group) form one joint l2,1 problem,
  ///
  ///   min_a sum_l ||A a_l - y_l||^2 + lambda * sum_i ||a_{.,i}||_2
  ///
  /// where a_{.,i} collects coefficient i across all leads. The proximal
  /// step is the group shrink (Backend::group_soft_threshold_batch): leads
  /// with correlated wavelet support reinforce each other's coefficients
  /// instead of being thresholded independently. One momentum scalar, one
  /// restart test and one stopping rule span all rows * cols
  /// coefficients, so the group converges, and is priced, as one problem:
  /// one operator traversal per iteration regardless of the lead count.
  /// One row degenerates bitwise to fista() (the group shrink delegates to
  /// the plain soft threshold).
  kGroup,
};

/// Panel FISTA: solves the `rows` measurement rows packed back to back in
/// y_flat (rows * A.rows() elements), which share the operator A, with
/// every stage of the iteration running as one panel kernel over the
/// active rows. \p lambdas holds one l1 weight per problem: one per row
/// for Coupling::kIndependent, a single one for Coupling::kGroup
/// (options.lambda is ignored). options.warm_start, when set, is
/// rows * A.cols() per-row priors packed back to back.
///
/// Restrictions (CHECK-enforced): no per-coefficient weights, no sigma
/// stopping, no objective recording. Results (one per row; for a group,
/// iterations/converged are group-wide and final_objective is the
/// per-lead diagnostic ||A a_l - y_l||^2 + lambda ||a_l||_1) live in the
/// workspace and stay valid until the next solve through it.
template <typename T>
std::span<ShrinkageResult<T>> fista_panel(const linalg::LinearOperator<T>& A,
                                          std::span<const T> y_flat,
                                          std::size_t rows,
                                          Coupling coupling,
                                          std::span<const double> lambdas,
                                          const ShrinkageOptions& options,
                                          SolverWorkspace& workspace);

}  // namespace csecg::solvers

#endif  // CSECG_SOLVERS_FISTA_HPP
