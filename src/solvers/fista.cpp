#include "csecg/solvers/fista.hpp"

#include <algorithm>
#include <cmath>

#include "csecg/obs/obs.hpp"
#include "csecg/util/error.hpp"

namespace csecg::solvers {

namespace {

inline const linalg::Backend& resolve_backend(const ShrinkageOptions& options) {
  return options.backend != nullptr ? *options.backend
                                    : linalg::default_backend();
}

/// Charge of a solver hand loop: `elems` element operations (scalar, or
/// four-lane vector ops in the vectorised schedule) plus its memory traffic.
linalg::OpCounts hand_loop_cost(std::uint64_t elems, std::uint64_t loads,
                                std::uint64_t stores,
                                linalg::KernelMode schedule) {
  linalg::OpCounts c;
  if (schedule == linalg::KernelMode::kScalar) {
    c.scalar_op = elems;
  } else {
    c.vector_op4 = elems / 4;
  }
  c.loads = loads;
  c.stores = stores;
  return c;
}

/// The one iteration loop behind fista(), ista() and fista_panel(). Every
/// stage runs as a panel kernel over the active rows, so the operator
/// (Phi's index tables, Psi's filter levels) and the elementwise sweeps
/// are traversed once per iteration instead of once per row; at one row
/// each panel kernel is its single-row form. A *problem* is one row
/// (Coupling::kIndependent) or the whole panel (Coupling::kGroup), and
/// the scalar state (momentum t_k, restart, support counter, stopping
/// rule) is per problem, over its rows * cols coefficients. A converged
/// independent row is snapshotted and compacted out by swapping the last
/// active row into its slot, so the panels shrink and frozen rows stop
/// being charged: a panel prices byte-identical to the sum of its rows
/// solved one by one. Per-coefficient weights, sigma stopping and
/// objective recording are single-row extras; momentum off is ISTA.
/// All scratch and the results live in \p workspace, so repeated solves
/// of the same shape are allocation-free in steady state.
template <typename T>
std::span<ShrinkageResult<T>> shrinkage_solve(
    const linalg::LinearOperator<T>& A, std::span<const T> y_flat,
    std::size_t rows, Coupling coupling, std::span<const double> lambdas,
    const ShrinkageOptions& options, bool momentum,
    SolverWorkspace& workspace) {
  const std::size_t n = A.cols();
  const std::size_t m = A.rows();
  const bool group = coupling == Coupling::kGroup;
  const std::size_t lanes = group ? rows : 1;  // rows per problem
  const std::size_t problems = group ? 1 : rows;
  const std::size_t width = lanes * n;  // coefficients per problem
  CSECG_CHECK(!group || rows > 0, "lead group must be non-empty");
  CSECG_CHECK(y_flat.size() == rows * m, "measurement size mismatch");
  CSECG_CHECK(lambdas.size() == problems, "need one lambda per problem");
  CSECG_CHECK(options.max_iterations > 0, "need at least one iteration");
  const bool weighted = !options.weights.empty();
  CSECG_CHECK(!weighted || options.weights.size() == n,
              "weights must match the coefficient dimension");
  const bool warm = !options.warm_start.empty();
  CSECG_CHECK(!warm || options.warm_start.size() == rows * n,
              "warm start must be rows * cols with per-row priors");

  auto& ws = workspace.buffers<T>();
  ws.results.resize(rows);
  const std::span<ShrinkageResult<T>> results(ws.results.data(), rows);
  if (rows == 0) {
    return results;
  }

  const linalg::Backend& be = resolve_backend(options);
  const linalg::KernelMode schedule = be.counted_schedule();
  // Lipschitz constant of grad f(a) = 2 A^T (A a - y): L = 2 lambda_max.
  // Note value_or would evaluate the power iteration eagerly — it must
  // only run when the caller did not supply L (it costs tens of operator
  // applies and allocates its own iteration vectors).
  const double lipschitz =
      options.lipschitz.has_value()
          ? *options.lipschitz
          : 2.0 * linalg::estimate_spectral_norm_squared(A);
  CSECG_CHECK(lipschitz > 0.0, "operator has zero spectral norm");
  const T step = static_cast<T>(1.0 / lipschitz);

  std::vector<T>& thresholds = ws.thresholds;
  thresholds.resize(problems);
  for (std::size_t p = 0; p < problems; ++p) {
    CSECG_CHECK(lambdas[p] >= 0.0, "lambda must be non-negative");
    thresholds[p] = static_cast<T>(lambdas[p] / lipschitz);
  }
  if (weighted) {
    const T threshold = thresholds[0];
    thresholds.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      CSECG_CHECK(options.weights[i] >= 0.0,
                  "l1 weights must be non-negative");
      thresholds[i] = static_cast<T>(options.weights[i]) * threshold;
    }
  }

  // Regulariser value g(a) = sum_i w_i |a_i| (w = 1 when unweighted).
  const auto g_value = [&](const std::vector<T>& a) {
    if (!weighted) {
      return static_cast<double>(be.norm1(a.data(), a.size()));
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += options.weights[i] * std::fabs(static_cast<double>(a[i]));
    }
    return acc;
  };

  std::vector<T>& yk = ws.yk;
  std::vector<T>& residual = ws.residual;
  std::vector<T>& gradient = ws.gradient;  // A^T residual (x2 in step)
  std::vector<T>& candidate = ws.candidate;
  std::vector<T>& a_next = ws.a_next;
  std::vector<T>& a_k = ws.a_k;
  // Step 0: y_1 = a_0 per row — zero when cold, the row's prior when warm
  // (the previous window's solution). The seeding is setup, not
  // iteration work, so it charges nothing, like the cold zero fill.
  if (warm) {
    yk.resize(rows * n);
    a_k.resize(rows * n);
    for (std::size_t i = 0; i < rows * n; ++i) {
      const T v = static_cast<T>(options.warm_start[i]);
      yk[i] = v;
      a_k[i] = v;
    }
  } else {
    yk.assign(rows * n, T{});
    a_k.assign(rows * n, T{});
  }
  residual.resize(rows * m);
  gradient.resize(rows * n);
  candidate.resize(rows * n);
  a_next.resize(rows * n);
  // Measurement rows move into compactable slot storage (uncharged setup):
  // the panel subtract needs the active rows contiguous, and y_flat may
  // alias caller scratch that must not be reordered.
  ws.ys.assign(y_flat.begin(), y_flat.end());
  ws.rownorms.resize(rows);
  ws.tk.assign(problems, 1.0);
  ws.support_stable.assign(problems, 0);
  ws.change_sq.resize(problems);
  ws.norm_sq.resize(problems);
  ws.perm.resize(problems);
  for (std::size_t p = 0; p < problems; ++p) {
    ws.perm[p] = p;
  }
  for (ShrinkageResult<T>& r : results) {
    r.iterations = 0;
    r.converged = false;
    r.objective_trace.clear();
  }

  const bool support_aware = options.support_tolerance > 0.0;
  const bool need_residual_always =
      options.record_objective || options.sigma.has_value();
  std::size_t active = problems;

  for (std::size_t k = 1; k <= options.max_iterations && active > 0; ++k) {
    const std::size_t panel = active * lanes;
    // grad f(y_k) = 2 A^T (A y_k - y), candidate = y_k - (2/L) grad_half.
    // The copy goes through the backend so a counting decorator sees its
    // loads/stores in both schedules.
    A.apply_batch(std::span<const T>(yk.data(), panel * n),
                  std::span<T>(residual.data(), panel * m), panel);
    be.subtract_batch(residual.data(), ws.ys.data(), residual.data(), panel,
                      m);
    A.apply_adjoint_batch(std::span<const T>(residual.data(), panel * m),
                          std::span<T>(gradient.data(), panel * n), panel);
    be.copy_batch(yk.data(), candidate.data(), panel, n);
    be.axpy_batch(static_cast<T>(-2.0) * step, gradient.data(),
                  candidate.data(), panel, n);

    // a_k = prox(candidate): per-coefficient thresholds in the weighted
    // variant, the l2,1 group shrink across the lead axis for a group
    // (plain soft threshold at one lead), else each row's own threshold.
    if (weighted) {
      for (std::size_t i = 0; i < n; ++i) {
        const T v = candidate[i];
        const T mag = (v < T{} ? -v : v) - thresholds[i];
        const T shrunk = mag > T{} ? mag : T{};
        a_next[i] = v < T{} ? -shrunk : shrunk;
      }
      if (be.counting()) {
        be.charge(hand_loop_cost(5ull * n, 2ull * n, n, schedule));
      }
    } else if (group) {
      be.group_soft_threshold_batch(candidate.data(), thresholds[0],
                                    a_next.data(), lanes, n);
    } else {
      be.soft_threshold_batch(candidate.data(), thresholds.data(),
                              a_next.data(), panel, n);
    }

    // Per-problem bookkeeping: iterate change, support stability, restart
    // and the momentum update. The support check piggybacks on the change
    // pass — like the restart alignment loop it is stopping-rule control
    // flow, outside the charged kernel model.
    for (std::size_t s = 0; s < active; ++s) {
      T* yk_p = yk.data() + s * width;
      const T* next = a_next.data() + s * width;
      const T* cur = a_k.data() + s * width;
      double change_sq = 0.0;
      double norm_sq = 0.0;
      bool support_changed = false;
      for (std::size_t i = 0; i < width; ++i) {
        const double diff =
            static_cast<double>(next[i]) - static_cast<double>(cur[i]);
        change_sq += diff * diff;
        norm_sq += static_cast<double>(next[i]) * static_cast<double>(next[i]);
        if (support_aware && ((next[i] != T{}) != (cur[i] != T{}))) {
          support_changed = true;
        }
      }
      ws.change_sq[s] = change_sq;
      ws.norm_sq[s] = norm_sq;
      if (support_aware) {
        ws.support_stable[s] = support_changed ? 0 : ws.support_stable[s] + 1;
      }
      if (!momentum) {
        continue;
      }
      double t_k = ws.tk[s];
      if (options.adaptive_restart) {
        // Gradient restart test: if the momentum direction (a_new - a_old)
        // opposes the last proximal step (y_k - a_new), kill the momentum.
        double alignment = 0.0;
        for (std::size_t i = 0; i < width; ++i) {
          alignment +=
              (static_cast<double>(yk_p[i]) - static_cast<double>(next[i])) *
              (static_cast<double>(next[i]) - static_cast<double>(cur[i]));
        }
        if (alignment > 0.0) {
          t_k = 1.0;
        }
      }
      const double t_next = (1.0 + std::sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0;
      const T beta = static_cast<T>((t_k - 1.0) / t_next);
      for (std::size_t i = 0; i < width; ++i) {
        yk_p[i] = next[i] + beta * (next[i] - cur[i]);
      }
      ws.tk[s] = t_next;
    }
    if (!momentum) {
      be.copy_batch(a_next.data(), yk.data(), panel, n);
    }
    if (be.counting()) {
      // Momentum update (sub + MAC per element, 2 loads + 1 store) and the
      // iterate-change loop (sub + two MACs, 2 loads), per active problem.
      // The candidate and ISTA yk copies are charged by the copy kernel.
      const linalg::OpCounts step_cost =
          hand_loop_cost(2ull * width, 2ull * width, width, schedule);
      const linalg::OpCounts change_cost =
          hand_loop_cost(3ull * width, 2ull * width, 0, schedule);
      for (std::size_t s = 0; s < active; ++s) {
        if (momentum) {
          be.charge(step_cost);
        }
        be.charge(change_cost);
      }
    }

    // Residual at the new iterate: every iteration for sigma stopping and
    // objective traces, and at the last iteration always (part of the
    // priced schedule).
    const bool last = k == options.max_iterations;
    double residual_norm = 0.0;  // of row 0, for the single-row extras
    if (need_residual_always || last) {
      A.apply_batch(std::span<const T>(a_next.data(), panel * n),
                    std::span<T>(residual.data(), panel * m), panel);
      be.subtract_batch(residual.data(), ws.ys.data(), residual.data(), panel,
                        m);
      be.dot_batch(residual.data(), residual.data(), ws.rownorms.data(),
                   panel, m);
      residual_norm = std::sqrt(static_cast<double>(ws.rownorms[0]));
    }
    if (options.record_objective) {
      results[0].objective_trace.push_back(
          residual_norm * residual_norm + lambdas[0] * g_value(a_next));
    }

    // Convergence, result snapshots and frozen-row compaction. Descending
    // slot order keeps swap-with-last sound: the problem swapped in from
    // the end has already been processed this iteration.
    for (std::size_t s = active; s-- > 0;) {
      // Once the support has been stable long enough the active set has
      // locked in, and the (looser) support tolerance governs the stop.
      const double tolerance =
          support_aware && ws.support_stable[s] >= options.support_stable_iters
              ? std::max(options.tolerance, options.support_tolerance)
              : options.tolerance;
      const bool converged =
          (options.sigma.has_value() && residual_norm <= *options.sigma) ||
          (ws.norm_sq[s] > 0.0 &&
           std::sqrt(ws.change_sq[s] / ws.norm_sq[s]) < tolerance);
      if (!converged && !last) {
        continue;
      }
      const T* next = a_next.data() + s * width;
      for (std::size_t l = 0; l < lanes; ++l) {
        ShrinkageResult<T>& r = results[ws.perm[s] * lanes + l];
        r.solution.assign(next + l * n, next + (l + 1) * n);
        r.iterations = k;
        r.converged = converged;
      }
      if (!converged) {
        continue;
      }
      --active;
      if (s != active) {
        const T* last_yk = yk.data() + active * width;
        const T* last_next = a_next.data() + active * width;
        const T* last_y = ws.ys.data() + active * lanes * m;
        std::copy(last_yk, last_yk + width, yk.data() + s * width);
        std::copy(last_next, last_next + width, a_next.data() + s * width);
        std::copy(last_y, last_y + lanes * m, ws.ys.data() + s * lanes * m);
        thresholds[s] = thresholds[active];
        ws.tk[s] = ws.tk[active];
        ws.support_stable[s] = ws.support_stable[active];
        ws.perm[s] = ws.perm[active];
      }
    }
    // The old a_k rows are dead (fully overwritten by the next panel
    // shrink before any read), so only a_next needed compaction.
    std::swap(a_k, a_next);
  }

  // Final diagnostics per row.
  for (std::size_t b = 0; b < rows; ++b) {
    ShrinkageResult<T>& r = results[b];
    A.apply(std::span<const T>(r.solution), std::span<T>(residual.data(), m));
    be.subtract(residual.data(), y_flat.data() + b * m, residual.data(), m);
    r.final_residual_norm =
        std::sqrt(static_cast<double>(be.norm2_squared(residual.data(), m)));
    r.final_objective = r.final_residual_norm * r.final_residual_norm +
                        lambdas[group ? 0 : b] * g_value(r.solution);
  }
  return results;
}

}  // namespace

template <typename T>
ShrinkageResult<T>& fista(const linalg::LinearOperator<T>& A,
                          std::span<const T> y,
                          const ShrinkageOptions& options,
                          SolverWorkspace& workspace) {
  ShrinkageResult<T>& result =
      shrinkage_solve(A, y, 1, Coupling::kIndependent,
                      std::span<const double>(&options.lambda, 1), options,
                      /*momentum=*/true, workspace)[0];
  // The iteration count is the paper's runtime currency (Fig 7, §V): a
  // per-solve histogram makes its distribution observable live.
  obs::observe("fista.iterations", static_cast<double>(result.iterations));
  obs::add("fista.calls");
  if (result.converged) {
    obs::add("fista.converged");
  }
  return result;
}

template <typename T>
ShrinkageResult<T>& ista(const linalg::LinearOperator<T>& A,
                         std::span<const T> y,
                         const ShrinkageOptions& options,
                         SolverWorkspace& workspace) {
  ShrinkageResult<T>& result =
      shrinkage_solve(A, y, 1, Coupling::kIndependent,
                      std::span<const double>(&options.lambda, 1), options,
                      /*momentum=*/false, workspace)[0];
  obs::observe("ista.iterations", static_cast<double>(result.iterations));
  obs::add("ista.calls");
  return result;
}

template <typename T>
ShrinkageResult<T> fista(const linalg::LinearOperator<T>& A,
                         std::span<const T> y,
                         const ShrinkageOptions& options) {
  SolverWorkspace workspace;
  return std::move(fista<T>(A, y, options, workspace));
}

template <typename T>
ShrinkageResult<T> ista(const linalg::LinearOperator<T>& A,
                        std::span<const T> y,
                        const ShrinkageOptions& options) {
  SolverWorkspace workspace;
  return std::move(ista<T>(A, y, options, workspace));
}

template <typename T>
std::span<ShrinkageResult<T>> fista_panel(const linalg::LinearOperator<T>& A,
                                          std::span<const T> y_flat,
                                          std::size_t rows,
                                          Coupling coupling,
                                          std::span<const double> lambdas,
                                          const ShrinkageOptions& options,
                                          SolverWorkspace& workspace) {
  CSECG_CHECK(options.weights.empty(),
              "panel solves do not support per-coefficient weights");
  CSECG_CHECK(!options.sigma.has_value(),
              "panel solves do not support sigma stopping");
  CSECG_CHECK(!options.record_objective,
              "panel solves do not record objective traces");
  const auto results = shrinkage_solve(A, y_flat, rows, coupling, lambdas,
                                       options, /*momentum=*/true, workspace);
  if (coupling == Coupling::kIndependent) {
    for (const ShrinkageResult<T>& r : results) {
      obs::observe("fista.iterations", static_cast<double>(r.iterations));
      obs::add("fista.calls");
      if (r.converged) {
        obs::add("fista.converged");
      }
    }
  } else {
    obs::observe("fista.group.iterations",
                 static_cast<double>(results[0].iterations));
    obs::observe("fista.group.leads", static_cast<double>(rows));
    obs::add("fista.group.calls");
    if (results[0].converged) {
      obs::add("fista.group.converged");
    }
  }
  return results;
}

template ShrinkageResult<float> fista<float>(
    const linalg::LinearOperator<float>&, std::span<const float>,
    const ShrinkageOptions&);
template ShrinkageResult<double> fista<double>(
    const linalg::LinearOperator<double>&, std::span<const double>,
    const ShrinkageOptions&);
template ShrinkageResult<float> ista<float>(
    const linalg::LinearOperator<float>&, std::span<const float>,
    const ShrinkageOptions&);
template ShrinkageResult<double> ista<double>(
    const linalg::LinearOperator<double>&, std::span<const double>,
    const ShrinkageOptions&);
template ShrinkageResult<float>& fista<float>(
    const linalg::LinearOperator<float>&, std::span<const float>,
    const ShrinkageOptions&, SolverWorkspace&);
template ShrinkageResult<double>& fista<double>(
    const linalg::LinearOperator<double>&, std::span<const double>,
    const ShrinkageOptions&, SolverWorkspace&);
template ShrinkageResult<float>& ista<float>(
    const linalg::LinearOperator<float>&, std::span<const float>,
    const ShrinkageOptions&, SolverWorkspace&);
template ShrinkageResult<double>& ista<double>(
    const linalg::LinearOperator<double>&, std::span<const double>,
    const ShrinkageOptions&, SolverWorkspace&);
template std::span<ShrinkageResult<float>> fista_panel<float>(
    const linalg::LinearOperator<float>&, std::span<const float>, std::size_t,
    Coupling, std::span<const double>, const ShrinkageOptions&,
    SolverWorkspace&);
template std::span<ShrinkageResult<double>> fista_panel<double>(
    const linalg::LinearOperator<double>&, std::span<const double>,
    std::size_t, Coupling, std::span<const double>, const ShrinkageOptions&,
    SolverWorkspace&);

}  // namespace csecg::solvers
