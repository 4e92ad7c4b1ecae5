// Unit tests for csecg::solvers — ISTA/FISTA behaviour on problems with
// known solutions, convergence-rate ordering, stopping rules, and OMP
// exact recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "csecg/core/cs_operator.hpp"
#include "csecg/core/sensing_matrix.hpp"
#include "csecg/dsp/dwt.hpp"
#include "csecg/linalg/dense_matrix.hpp"
#include "csecg/linalg/kernels.hpp"
#include "csecg/linalg/vector_ops.hpp"
#include "csecg/solvers/fista.hpp"
#include "csecg/solvers/omp.hpp"
#include "csecg/util/rng.hpp"

namespace csecg::solvers {
namespace {

template <typename T>
class DenseOp final : public linalg::LinearOperator<T> {
 public:
  explicit DenseOp(linalg::DenseMatrix<T> m) : m_(std::move(m)) {}
  std::size_t rows() const override { return m_.rows(); }
  std::size_t cols() const override { return m_.cols(); }
  void apply(std::span<const T> x, std::span<T> y) const override {
    m_.apply(x, y);
  }
  void apply_adjoint(std::span<const T> x, std::span<T> y) const override {
    m_.apply_transpose(x, y);
  }

 private:
  linalg::DenseMatrix<T> m_;
};

template <typename T>
DenseOp<T> identity_op(std::size_t n) {
  linalg::DenseMatrix<T> m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = T{1};
  }
  return DenseOp<T>(std::move(m));
}

template <typename T>
DenseOp<T> gaussian_op(std::size_t rows, std::size_t cols,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::DenseMatrix<T> m(rows, cols);
  const double sigma = 1.0 / std::sqrt(static_cast<double>(rows));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<T>(rng.gaussian(0.0, sigma));
    }
  }
  return DenseOp<T>(std::move(m));
}

// ----------------------------------------------------------- fista/ista --

TEST(FistaTest, IdentityOperatorGivesSoftThreshold) {
  // min ||a - y||^2 + lambda ||a||_1 has the closed form
  // a* = soft_threshold(y, lambda / 2).
  const std::size_t n = 16;
  auto op = identity_op<double>(n);
  util::Rng rng(1);
  std::vector<double> y(n);
  for (auto& v : y) {
    v = rng.gaussian();
  }
  ShrinkageOptions options;
  options.lambda = 0.8;
  options.max_iterations = 500;
  options.tolerance = 1e-12;
  const auto result = fista<double>(op, y, options);
  EXPECT_TRUE(result.converged);
  std::vector<double> expected(n);
  linalg::soft_threshold<double>(y, 0.4, expected);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(result.solution[i], expected[i], 1e-6);
  }
}

TEST(FistaTest, ZeroLambdaSolvesLeastSquaresExactly) {
  // Square well-conditioned system, lambda = 0: residual must vanish.
  auto op = gaussian_op<double>(24, 24, 2);
  util::Rng rng(3);
  std::vector<double> truth(24);
  for (auto& v : truth) {
    v = rng.gaussian();
  }
  std::vector<double> y(24);
  op.apply(truth, y);
  ShrinkageOptions options;
  options.lambda = 0.0;
  options.max_iterations = 20000;
  options.tolerance = 1e-13;
  const auto result = fista<double>(op, y, options);
  EXPECT_LT(result.final_residual_norm, 1e-4);
}

TEST(FistaTest, RecoversSparseVectorFromCompressedMeasurements) {
  // The core CS promise: S-sparse truth, M ~ 4S Gaussian measurements.
  const std::size_t n = 128;
  const std::size_t m = 64;
  const std::size_t s = 8;
  auto op = gaussian_op<double>(m, n, 4);
  util::Rng rng(5);
  std::vector<double> truth(n, 0.0);
  const auto support = rng.sample_without_replacement(
      static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(s));
  for (const auto idx : support) {
    truth[idx] = rng.gaussian(0.0, 3.0);
  }
  std::vector<double> y(m);
  op.apply(truth, y);

  ShrinkageOptions options;
  options.lambda = 1e-4;
  options.max_iterations = 30000;
  options.tolerance = 1e-12;
  const auto result = fista<double>(op, y, options);
  double err = 0.0;
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    err += (result.solution[i] - truth[i]) * (result.solution[i] - truth[i]);
    norm += truth[i] * truth[i];
  }
  EXPECT_LT(std::sqrt(err / norm), 0.05);
}

TEST(FistaTest, ObjectiveTraceIsRecordedAndBounded) {
  auto op = gaussian_op<double>(32, 64, 6);
  util::Rng rng(7);
  std::vector<double> y(32);
  for (auto& v : y) {
    v = rng.gaussian();
  }
  ShrinkageOptions options;
  options.lambda = 0.05;
  options.max_iterations = 200;
  options.tolerance = 0.0;  // run all iterations
  options.record_objective = true;
  const auto result = fista<double>(op, y, options);
  ASSERT_EQ(result.objective_trace.size(), 200u);
  // FISTA is not monotone, but the tail must sit far below the start.
  EXPECT_LT(result.objective_trace.back(),
            result.objective_trace.front() * 0.9);
  // Final objective report matches the trace tail.
  EXPECT_NEAR(result.final_objective, result.objective_trace.back(),
              1e-6 * result.final_objective + 1e-9);
}

TEST(FistaTest, ConvergesFasterThanIsta) {
  // O(1/k^2) vs O(1/k): after the same iteration budget FISTA's objective
  // must be closer to optimal.
  auto op = gaussian_op<double>(48, 96, 8);
  util::Rng rng(9);
  std::vector<double> y(48);
  for (auto& v : y) {
    v = rng.gaussian();
  }
  ShrinkageOptions options;
  options.lambda = 0.02;
  options.max_iterations = 120;
  options.tolerance = 0.0;
  options.record_objective = true;
  const auto fast = fista<double>(op, y, options);
  const auto slow = ista<double>(op, y, options);
  // Optimal objective approximated by a long FISTA run.
  ShrinkageOptions long_options = options;
  long_options.max_iterations = 20000;
  long_options.record_objective = false;
  long_options.tolerance = 1e-14;
  const double f_star = fista<double>(op, y, long_options).final_objective;
  const double gap_fast = fast.final_objective - f_star;
  const double gap_slow = slow.final_objective - f_star;
  EXPECT_LT(gap_fast, gap_slow * 0.5);
}

TEST(FistaTest, IstaObjectiveIsMonotone) {
  // Unlike FISTA, plain ISTA descends monotonically.
  auto op = gaussian_op<double>(32, 64, 10);
  util::Rng rng(11);
  std::vector<double> y(32);
  for (auto& v : y) {
    v = rng.gaussian();
  }
  ShrinkageOptions options;
  options.lambda = 0.05;
  options.max_iterations = 150;
  options.tolerance = 0.0;
  options.record_objective = true;
  const auto result = ista<double>(op, y, options);
  for (std::size_t k = 1; k < result.objective_trace.size(); ++k) {
    ASSERT_LE(result.objective_trace[k],
              result.objective_trace[k - 1] + 1e-9);
  }
}

TEST(FistaTest, SigmaStoppingHaltsEarly) {
  auto op = gaussian_op<double>(32, 64, 12);
  util::Rng rng(13);
  std::vector<double> y(32);
  for (auto& v : y) {
    v = rng.gaussian();
  }
  ShrinkageOptions options;
  options.lambda = 1e-3;
  options.max_iterations = 5000;
  options.tolerance = 0.0;
  options.sigma = 0.5 * linalg::norm2<double>(y);
  const auto result = fista<double>(op, y, options);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 5000u);
  EXPECT_LE(result.final_residual_norm, *options.sigma + 1e-9);
}

TEST(FistaTest, MaxIterationsBoundsWork) {
  auto op = gaussian_op<double>(16, 32, 14);
  std::vector<double> y(16, 1.0);
  ShrinkageOptions options;
  options.lambda = 0.01;
  options.max_iterations = 7;
  options.tolerance = 0.0;
  const auto result = fista<double>(op, y, options);
  EXPECT_EQ(result.iterations, 7u);
  EXPECT_FALSE(result.converged);
}

TEST(FistaTest, ProvidedLipschitzSkipsEstimation) {
  auto op = identity_op<double>(8);
  std::vector<double> y(8, 2.0);
  ShrinkageOptions options;
  options.lambda = 0.1;
  options.lipschitz = 2.0;  // exact for the identity: L = 2 lambda_max = 2
  options.max_iterations = 200;
  options.tolerance = 1e-12;
  const auto result = fista<double>(op, y, options);
  EXPECT_NEAR(result.solution[0], 2.0 - 0.05, 1e-6);
}

TEST(FistaTest, FloatPathMatchesDoublePath) {
  auto opd = gaussian_op<double>(32, 64, 15);
  auto opf = gaussian_op<float>(32, 64, 15);  // same seed -> same entries
  util::Rng rng(16);
  std::vector<double> yd(32);
  std::vector<float> yf(32);
  for (std::size_t i = 0; i < 32; ++i) {
    yd[i] = rng.gaussian();
    yf[i] = static_cast<float>(yd[i]);
  }
  ShrinkageOptions options;
  options.lambda = 0.05;
  options.max_iterations = 400;
  options.tolerance = 1e-7;
  const auto rd = fista<double>(opd, yd, options);
  const auto rf = fista<float>(opf, yf, options);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(rd.solution[i], static_cast<double>(rf.solution[i]), 5e-3);
  }
}

TEST(FistaTest, RejectsBadArguments) {
  auto op = identity_op<double>(4);
  std::vector<double> y(3, 1.0);  // wrong size
  ShrinkageOptions options;
  EXPECT_THROW(fista<double>(op, y, options), Error);
  std::vector<double> y4(4, 1.0);
  options.lambda = -1.0;
  EXPECT_THROW(fista<double>(op, y4, options), Error);
  options = {};
  options.max_iterations = 0;
  EXPECT_THROW(fista<double>(op, y4, options), Error);
}

// ------------------------------------------------------------------ omp --

TEST(OmpTest, ExactRecoveryOfSparseVector) {
  const std::size_t n = 64;
  const std::size_t m = 32;
  const std::size_t s = 5;
  auto op = gaussian_op<double>(m, n, 17);
  util::Rng rng(18);
  std::vector<double> truth(n, 0.0);
  const auto support = rng.sample_without_replacement(
      static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(s));
  for (const auto idx : support) {
    truth[idx] = rng.gaussian(0.0, 2.0) + (rng.sign() > 0 ? 1.0 : -1.0);
  }
  std::vector<double> y(m);
  op.apply(truth, y);
  OmpOptions options;
  options.max_support = 16;
  options.residual_tolerance = 1e-9;
  const auto result = omp(op, y, options);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.support.size(), s);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(result.solution[i], truth[i], 1e-6);
  }
}

TEST(OmpTest, ZeroMeasurementsGiveZeroSolution) {
  auto op = gaussian_op<double>(16, 32, 19);
  std::vector<double> y(16, 0.0);
  const auto result = omp(op, y, OmpOptions{});
  EXPECT_TRUE(result.converged);
  for (const auto v : result.solution) {
    EXPECT_EQ(v, 0.0);
  }
}

TEST(OmpTest, SupportCapIsRespected) {
  auto op = gaussian_op<double>(32, 64, 20);
  util::Rng rng(21);
  std::vector<double> y(32);
  for (auto& v : y) {
    v = rng.gaussian();  // dense target: cannot converge
  }
  OmpOptions options;
  options.max_support = 6;
  options.residual_tolerance = 1e-12;
  const auto result = omp(op, y, options);
  EXPECT_LE(result.support.size(), 6u);
  EXPECT_EQ(result.iterations, result.support.size());
}

TEST(OmpTest, ResidualDecreasesMonotonically) {
  auto op = gaussian_op<double>(24, 48, 22);
  util::Rng rng(23);
  std::vector<double> y(24);
  for (auto& v : y) {
    v = rng.gaussian();
  }
  double previous = linalg::norm2<double>(y);
  for (std::size_t k = 1; k <= 8; ++k) {
    OmpOptions options;
    options.max_support = k;
    options.residual_tolerance = 0.0;
    const auto result = omp(op, y, options);
    EXPECT_LE(result.final_residual_norm, previous + 1e-9);
    previous = result.final_residual_norm;
  }
}

TEST(OmpTest, SupportIndicesAreDistinct) {
  auto op = gaussian_op<double>(32, 64, 24);
  util::Rng rng(25);
  std::vector<double> y(32);
  for (auto& v : y) {
    v = rng.gaussian();
  }
  OmpOptions options;
  options.max_support = 20;
  options.residual_tolerance = 0.0;
  const auto result = omp(op, y, options);
  std::vector<std::size_t> sorted = result.support;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

// --------------------------------------------- workspace and op mixes --

TEST(FistaTest, WorkspaceOverloadMatchesByValueAndReusesBuffers) {
  auto op = gaussian_op<double>(32, 64, 7);
  std::vector<double> y(32);
  {
    std::vector<double> truth(64, 0.0);
    truth[3] = 2.0;
    truth[40] = -1.5;
    op.apply(truth, y);
  }
  ShrinkageOptions options;
  options.lambda = 1e-3;
  options.max_iterations = 500;
  options.tolerance = 1e-10;

  const auto by_value = fista<double>(op, y, options);
  SolverWorkspace workspace;
  const auto& in_place = fista<double>(op, y, options, workspace);
  EXPECT_EQ(in_place.iterations, by_value.iterations);
  EXPECT_EQ(in_place.converged, by_value.converged);
  ASSERT_EQ(in_place.solution.size(), by_value.solution.size());
  for (std::size_t i = 0; i < by_value.solution.size(); ++i) {
    EXPECT_EQ(in_place.solution[i], by_value.solution[i]) << "index " << i;
  }

  // A second same-shape solve must reuse every buffer: no reallocation
  // in steady state (the fleet worker / bench_fleet contract).
  auto& buffers = workspace.buffers<double>();
  const double* yk = buffers.yk.data();
  const double* residual = buffers.residual.data();
  const double* gradient = buffers.gradient.data();
  const double* candidate = buffers.candidate.data();
  const double* a_next = buffers.a_next.data();
  const double* solution = buffers.results[0].solution.data();
  fista<double>(op, y, options, workspace);
  EXPECT_EQ(buffers.yk.data(), yk);
  EXPECT_EQ(buffers.residual.data(), residual);
  EXPECT_EQ(buffers.gradient.data(), gradient);
  EXPECT_EQ(buffers.candidate.data(), candidate);
  EXPECT_EQ(buffers.a_next.data(), a_next);
  EXPECT_EQ(buffers.results[0].solution.data(), solution);
}

TEST(KernelOpMixTest, CopyIsPureMemoryTraffic) {
  // copy moves n elements and must charge exactly n loads + n stores —
  // no ALU work in either schedule. FISTA's candidate/yk copies route
  // through this kernel so the cycle model sees them.
  std::vector<float> x(16, 1.5f);
  std::vector<float> out(16, 0.0f);
  for (const linalg::Backend* be : {&linalg::counting_scalar_backend(),
                                    &linalg::counting_simd4_backend()}) {
    linalg::OpCounterScope scope;
    be->copy(x.data(), out.data(), x.size());
    const auto& counts = scope.counts();
    EXPECT_EQ(counts.scalar_mac, 0u);
    EXPECT_EQ(counts.vector_mac4, 0u);
    EXPECT_EQ(counts.scalar_op, 0u);
    EXPECT_EQ(counts.vector_op4, 0u);
    EXPECT_EQ(counts.loads, x.size());
    EXPECT_EQ(counts.stores, x.size());
    EXPECT_EQ(out, x);
  }
}

TEST(KernelOpMixTest, FistaPerIterationCostIsStable) {
  // With a fixed Lipschitz constant and convergence disabled, the op mix
  // must be affine in the iteration count: counts(k+1) - counts(k) is the
  // same for every k. A raw (uncounted) copy or a stray per-iteration
  // spectral-norm estimate would break this — both were real bugs.
  auto op = gaussian_op<float>(16, 32, 11);
  std::vector<float> y(16, 1.0f);
  ShrinkageOptions options;
  options.lambda = 0.05;
  options.tolerance = 0.0;  // never converge: iterations == max_iterations
  options.lipschitz = 8.0;

  const auto run = [&](std::size_t iterations, const linalg::Backend& be) {
    options.max_iterations = iterations;
    options.backend = &be;
    linalg::OpCounterScope scope;
    const auto result = fista<float>(op, y, options);
    EXPECT_EQ(result.iterations, iterations);
    return scope.counts();
  };

  for (const linalg::Backend* be : {&linalg::counting_scalar_backend(),
                                    &linalg::counting_simd4_backend()}) {
    const auto c1 = run(1, *be);
    const auto c2 = run(2, *be);
    const auto c3 = run(3, *be);
    const auto delta = [](const linalg::OpCounts& hi,
                          const linalg::OpCounts& lo) {
      return std::array<std::uint64_t, 7>{
          hi.scalar_mac - lo.scalar_mac, hi.scalar_op - lo.scalar_op,
          hi.vector_mac4 - lo.vector_mac4, hi.vector_op4 - lo.vector_op4,
          hi.leftover_lane - lo.leftover_lane, hi.loads - lo.loads,
          hi.stores - lo.stores};
    };
    const auto step_a = delta(c2, c1);
    const auto step_b = delta(c3, c2);
    EXPECT_EQ(step_a, step_b) << "backend " << be->name();
    // The iteration writes at least candidate (copy), the thresholded
    // iterate, the momentum extrapolation and the operator outputs.
    const std::size_t n = op.cols();
    EXPECT_GE(step_a[6], 3 * n);
    // The scalar schedule must not charge vector lanes and vice versa.
    if (be->kind() == linalg::BackendKind::kScalar) {
      EXPECT_EQ(step_a[2], 0u);
      EXPECT_EQ(step_a[3], 0u);
    } else {
      EXPECT_GT(step_a[2] + step_a[3], 0u);
    }
  }
}

TEST(OmpTest, RejectsBadArguments) {
  auto op = gaussian_op<double>(8, 16, 26);
  std::vector<double> wrong(7, 1.0);
  EXPECT_THROW(omp(op, wrong, OmpOptions{}), Error);
  std::vector<double> y(8, 1.0);
  OmpOptions options;
  options.max_support = 0;
  EXPECT_THROW(omp(op, y, options), Error);
}

// ------------------------------------------------ prior-aware solving --

TEST(FistaPrior, WarmStartCutsIterationsAndLandsOnTheSameSolution) {
  // Solve once cold, then re-solve the same problem seeded with the cold
  // solution: the warm solve must converge in a fraction of the cold
  // iteration count and land on (essentially) the same minimiser. This
  // is the decode-path contract — window k's solution seeds window k+1.
  auto op = gaussian_op<double>(64, 128, 30);
  util::Rng rng(31);
  std::vector<double> truth(128, 0.0);
  const auto support = rng.sample_without_replacement(128, 10);
  for (const auto idx : support) {
    truth[idx] = rng.gaussian(0.0, 2.0);
  }
  std::vector<double> y(64);
  op.apply(truth, y);

  ShrinkageOptions options;
  options.lambda = 1e-3;
  options.max_iterations = 20000;
  options.tolerance = 1e-9;
  const auto cold = fista<double>(op, y, options);
  EXPECT_TRUE(cold.converged);

  options.warm_start = cold.solution;
  const auto warm = fista<double>(op, y, options);
  EXPECT_TRUE(warm.converged);
  EXPECT_LT(warm.iterations, cold.iterations / 4);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(warm.solution[i], cold.solution[i], 1e-5) << "index " << i;
  }
}

TEST(FistaPrior, WarmStartRejectsWrongSize) {
  auto op = identity_op<double>(8);
  std::vector<double> y(8, 1.0);
  std::vector<double> prior(7, 0.0);  // wrong length
  ShrinkageOptions options;
  options.warm_start = prior;
  EXPECT_THROW(fista<double>(op, y, options), Error);
  EXPECT_THROW(ista<double>(op, y, options), Error);
}

TEST(FistaPrior, SupportToleranceStopsEarlyOnceSupportLocksIn) {
  // With the support-aware relaxation on, the solve halts earlier than
  // the strict run once the nonzero pattern is stable, and the relaxed
  // solution still matches the strict one to the relaxed threshold.
  auto op = gaussian_op<double>(48, 96, 33);
  util::Rng rng(34);
  std::vector<double> truth(96, 0.0);
  const auto support = rng.sample_without_replacement(96, 6);
  for (const auto idx : support) {
    truth[idx] = rng.gaussian(0.0, 2.0);
  }
  std::vector<double> y(48);
  op.apply(truth, y);

  ShrinkageOptions strict;
  strict.lambda = 1e-3;
  strict.max_iterations = 50000;
  strict.tolerance = 1e-10;
  const auto full = fista<double>(op, y, strict);
  EXPECT_TRUE(full.converged);

  ShrinkageOptions relaxed = strict;
  relaxed.support_tolerance = 1e-5;
  const auto early = fista<double>(op, y, relaxed);
  EXPECT_TRUE(early.converged);
  EXPECT_LT(early.iterations, full.iterations);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(early.solution[i], full.solution[i], 5e-3) << "index " << i;
  }
}

// ------------------------------------ fista_panel, independent rows --

// Packs `batch` distinct compressed-sensing problems that share one
// operator, with per-problem measurement energy spread so the rows
// converge at visibly different iteration counts (the frozen-row path).
struct BatchProblem {
  DenseOp<float> op;
  std::vector<float> y_flat;
  std::vector<double> lambdas;
  std::size_t batch;
  std::size_t m;
  std::size_t n;
};

BatchProblem make_batch_problem(std::size_t batch, std::uint64_t seed) {
  const std::size_t m = 32;
  const std::size_t n = 64;
  BatchProblem p{gaussian_op<float>(m, n, seed), {}, {}, batch, m, n};
  util::Rng rng(seed + 1);
  p.y_flat.resize(batch * m);
  for (std::size_t b = 0; b < batch; ++b) {
    std::vector<float> truth(n, 0.0f);
    const auto support = rng.sample_without_replacement(
        static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(4 + b));
    for (const auto idx : support) {
      truth[idx] = static_cast<float>(rng.gaussian(0.0, 1.0 + b));
    }
    p.op.apply(truth,
               std::span<float>(p.y_flat.data() + b * m, m));
    p.lambdas.push_back(1e-3 * (1.0 + 0.5 * b));
  }
  return p;
}

// Runs each batch row through the sequential solver with the same
// options and compares the batched results bitwise — the fleet decode
// parity contract under whichever option set \p options carries.
void expect_batch_matches_sequential(const BatchProblem& p,
                                     ShrinkageOptions options) {
  SolverWorkspace batch_ws;
  const auto batched =
      fista_panel<float>(p.op, p.y_flat, p.batch, Coupling::kIndependent,
                         p.lambdas, options, batch_ws);
  ASSERT_EQ(batched.size(), p.batch);
  const std::span<const double> warm_all = options.warm_start;
  for (std::size_t b = 0; b < p.batch; ++b) {
    SCOPED_TRACE("row " + std::to_string(b));
    ShrinkageOptions row_options = options;
    row_options.lambda = p.lambdas[b];
    row_options.warm_start =
        warm_all.empty() ? std::span<const double>{}
                         : warm_all.subspan(b * p.n, p.n);
    const auto sequential = fista<float>(
        p.op, std::span<const float>(p.y_flat.data() + b * p.m, p.m),
        row_options);
    EXPECT_EQ(batched[b].iterations, sequential.iterations);
    EXPECT_EQ(batched[b].converged, sequential.converged);
    ASSERT_EQ(batched[b].solution.size(), sequential.solution.size());
    for (std::size_t i = 0; i < sequential.solution.size(); ++i) {
      ASSERT_EQ(batched[b].solution[i], sequential.solution[i])
          << "coefficient " << i;  // bitwise
    }
  }
}

TEST(FistaBatch, AdaptiveRestartMatchesSequentialBitwise) {
  // The restart decision is per-row state (each row's own momentum
  // scalar and alignment test), so restarting rows must not perturb
  // their neighbours.
  const auto p = make_batch_problem(4, 40);
  ShrinkageOptions options;
  options.max_iterations = 400;
  options.tolerance = 1e-7;
  options.lipschitz = 16.0;
  options.adaptive_restart = true;
  expect_batch_matches_sequential(p, options);
}

TEST(FistaBatch, WarmPriorsMatchSequentialBitwise) {
  // Per-row priors: solve every row cold first, then re-solve the batch
  // seeded with those solutions and check each row against a warm
  // sequential run.
  const auto p = make_batch_problem(3, 44);
  ShrinkageOptions options;
  options.max_iterations = 400;
  options.tolerance = 1e-7;
  options.lipschitz = 16.0;
  options.adaptive_restart = true;
  options.support_tolerance = 1e-5;

  std::vector<double> priors(p.batch * p.n);
  for (std::size_t b = 0; b < p.batch; ++b) {
    ShrinkageOptions cold = options;
    cold.lambda = p.lambdas[b];
    const auto r = fista<float>(
        p.op, std::span<const float>(p.y_flat.data() + b * p.m, p.m), cold);
    for (std::size_t i = 0; i < p.n; ++i) {
      priors[b * p.n + i] = static_cast<double>(r.solution[i]);
    }
  }
  options.warm_start = priors;
  expect_batch_matches_sequential(p, options);
}

TEST(FistaBatch, WarmPriorRejectsWrongSize) {
  const auto p = make_batch_problem(2, 46);
  ShrinkageOptions options;
  options.lipschitz = 16.0;
  std::vector<double> prior(p.n, 0.0);  // one row's worth, need batch * n
  options.warm_start = prior;
  SolverWorkspace ws;
  EXPECT_THROW(fista_panel<float>(p.op, p.y_flat, p.batch,
                                  Coupling::kIndependent, p.lambdas, options,
                                  ws),
               Error);
}

TEST(FistaBatch, FrozenRowsStopBeingCharged) {
  // Rows converge at different iteration counts; a frozen row must drop
  // out of the sweep entirely, so the batch's total op mix equals the
  // sum of the per-row sequential solves — not the lock-step rectangle
  // batch * slowest_row the old pricing charged.
  const auto p = make_batch_problem(4, 48);
  ShrinkageOptions options;
  options.max_iterations = 4000;
  options.tolerance = 1e-4;
  options.lipschitz = 16.0;
  options.adaptive_restart = true;
  options.backend = &linalg::counting_scalar_backend();

  linalg::OpCounts sequential_total;
  std::vector<std::size_t> iterations(p.batch);
  {
    linalg::OpCounterScope scope;
    for (std::size_t b = 0; b < p.batch; ++b) {
      ShrinkageOptions row = options;
      row.lambda = p.lambdas[b];
      iterations[b] = fista<float>(
          p.op, std::span<const float>(p.y_flat.data() + b * p.m, p.m),
          row).iterations;
    }
    sequential_total = scope.counts();
  }
  // The frozen-row claim is only interesting if the rows actually stop
  // at different iterations.
  EXPECT_NE(*std::min_element(iterations.begin(), iterations.end()),
            *std::max_element(iterations.begin(), iterations.end()));

  SolverWorkspace ws;
  linalg::OpCounterScope scope;
  fista_panel<float>(p.op, p.y_flat, p.batch, Coupling::kIndependent,
                     p.lambdas, options, ws);
  const auto& batch_counts = scope.counts();
  EXPECT_EQ(batch_counts.scalar_mac, sequential_total.scalar_mac);
  EXPECT_EQ(batch_counts.scalar_op, sequential_total.scalar_op);
  EXPECT_EQ(batch_counts.loads, sequential_total.loads);
  EXPECT_EQ(batch_counts.stores, sequential_total.stores);
}

// ------------------------------------------ fista_panel, lead group --

// leads == 1 is the wire-compatibility contract: a lead group of one
// must be THE sequential solve, bitwise — same iterates, same restart
// decisions, same stopping tick — or single-lead decodes would change
// under the group code path.
TEST(FistaGroup, LeadsOneMatchesSequentialBitwise) {
  const auto p = make_batch_problem(1, 52);
  ShrinkageOptions options;
  options.max_iterations = 400;
  options.tolerance = 1e-7;
  options.lipschitz = 16.0;
  options.adaptive_restart = true;
  options.lambda = p.lambdas[0];

  SolverWorkspace ws;
  const auto group = fista_panel<float>(
      p.op, std::span<const float>(p.y_flat), 1, Coupling::kGroup,
      std::span<const double>(&options.lambda, 1), options, ws);
  ASSERT_EQ(group.size(), 1u);
  const auto sequential =
      fista<float>(p.op, std::span<const float>(p.y_flat), options);
  EXPECT_EQ(group[0].iterations, sequential.iterations);
  EXPECT_EQ(group[0].converged, sequential.converged);
  ASSERT_EQ(group[0].solution.size(), sequential.solution.size());
  for (std::size_t i = 0; i < sequential.solution.size(); ++i) {
    ASSERT_EQ(group[0].solution[i], sequential.solution[i])
        << "coefficient " << i;  // bitwise
  }
}

TEST(FistaGroup, LeadsOneWarmStartMatchesSequentialBitwise) {
  const auto p = make_batch_problem(1, 54);
  ShrinkageOptions options;
  options.max_iterations = 400;
  options.tolerance = 1e-7;
  options.lipschitz = 16.0;
  options.adaptive_restart = true;
  options.support_tolerance = 1e-5;
  options.lambda = p.lambdas[0];

  const auto cold =
      fista<float>(p.op, std::span<const float>(p.y_flat), options);
  std::vector<double> prior(p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    prior[i] = static_cast<double>(cold.solution[i]);
  }
  options.warm_start = prior;

  SolverWorkspace ws;
  const auto group = fista_panel<float>(
      p.op, std::span<const float>(p.y_flat), 1, Coupling::kGroup,
      std::span<const double>(&options.lambda, 1), options, ws);
  ASSERT_EQ(group.size(), 1u);
  const auto sequential =
      fista<float>(p.op, std::span<const float>(p.y_flat), options);
  EXPECT_EQ(group[0].iterations, sequential.iterations);
  ASSERT_EQ(group[0].solution.size(), sequential.solution.size());
  for (std::size_t i = 0; i < sequential.solution.size(); ++i) {
    ASSERT_EQ(group[0].solution[i], sequential.solution[i])
        << "coefficient " << i;
  }
}

// Leads sharing wavelet support reinforce each other under the l2,1
// penalty: the joint solve must recover every lead of a shared-support
// group to small error from the same measurement budget.
TEST(FistaGroup, RecoversSharedSupportGroupJointly) {
  const std::size_t m = 32;
  const std::size_t n = 64;
  const std::size_t leads = 3;
  const auto op = gaussian_op<float>(m, n, 60);
  util::Rng rng(61);
  const auto support = rng.sample_without_replacement(
      static_cast<std::uint32_t>(n), 5);
  std::vector<std::vector<float>> truth(leads, std::vector<float>(n, 0.0f));
  for (const auto idx : support) {
    const double base = rng.gaussian(0.0, 1.5);
    for (std::size_t l = 0; l < leads; ++l) {
      // Same support, per-lead amplitude — the correlated-lead model.
      truth[l][idx] = static_cast<float>(base * (1.0 - 0.2 * l));
    }
  }
  std::vector<float> y_flat(leads * m);
  for (std::size_t l = 0; l < leads; ++l) {
    op.apply(truth[l], std::span<float>(y_flat.data() + l * m, m));
  }
  ShrinkageOptions options;
  options.max_iterations = 2000;
  options.tolerance = 1e-8;
  options.lipschitz = 16.0;
  options.adaptive_restart = true;
  options.lambda = 1e-3;
  SolverWorkspace ws;
  const auto results = fista_panel<float>(
      op, std::span<const float>(y_flat), leads, Coupling::kGroup,
      std::span<const double>(&options.lambda, 1), options, ws);
  ASSERT_EQ(results.size(), leads);
  for (std::size_t l = 0; l < leads; ++l) {
    SCOPED_TRACE("lead " + std::to_string(l));
    double err2 = 0.0, sig2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = results[l].solution[i] - truth[l][i];
      err2 += d * d;
      sig2 += static_cast<double>(truth[l][i]) * truth[l][i];
    }
    EXPECT_LT(std::sqrt(err2 / sig2), 0.05);
  }
}

TEST(FistaGroup, RejectsUnsupportedOptionsAndBadSizes) {
  const auto op = gaussian_op<float>(8, 16, 62);
  std::vector<float> y(16, 0.5f);  // leads 2 x m 8
  SolverWorkspace ws;
  {
    ShrinkageOptions options;
    options.lipschitz = 16.0;
    std::vector<float> short_y(12, 0.5f);  // not leads * m
    EXPECT_THROW(fista_panel<float>(op, std::span<const float>(short_y), 2,
                                    Coupling::kGroup,
                                    std::span<const double>(&options.lambda,
                                                            1),
                                    options, ws),
                 Error);
  }
  {
    ShrinkageOptions options;
    options.lipschitz = 16.0;
    std::vector<double> weights(16, 1.0);
    options.weights = weights;
    EXPECT_THROW(fista_panel<float>(op, std::span<const float>(y), 2,
                                    Coupling::kGroup,
                                    std::span<const double>(&options.lambda,
                                                            1),
                                    options, ws),
                 Error);
  }
  {
    ShrinkageOptions options;
    options.lipschitz = 16.0;
    options.sigma = 1.0;
    EXPECT_THROW(fista_panel<float>(op, std::span<const float>(y), 2,
                                    Coupling::kGroup,
                                    std::span<const double>(&options.lambda,
                                                            1),
                                    options, ws),
                 Error);
  }
  {
    ShrinkageOptions options;
    options.lipschitz = 16.0;
    std::vector<double> prior(16, 0.0);  // need leads * n = 32
    options.warm_start = prior;
    EXPECT_THROW(fista_panel<float>(op, std::span<const float>(y), 2,
                                    Coupling::kGroup,
                                    std::span<const double>(&options.lambda,
                                                            1),
                                    options, ws),
                 Error);
  }
}


// ----------------------------------------------------- FistaCoreOracle --
//
// The one panel core against test-local copies of the three loops it
// replaced: the single-row shrinkage loop behind fista()/ista(), the
// independent-row batch loop and the l2,1 group loop. Solutions,
// iteration counts, convergence flags, final residual norms and objective
// traces must match bit for bit, and so must the charged op mix under
// both counting backends.
namespace oracle {

template <typename T>
struct Result {
  std::vector<T> solution;
  std::size_t iterations = 0;
  bool converged = false;
  double final_objective = 0.0;
  double final_residual_norm = 0.0;
  std::vector<double> objective_trace;
};

linalg::OpCounts loop_cost(std::uint64_t elems, std::uint64_t loads,
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

template <typename T>
void diagnose(const linalg::LinearOperator<T>& A, const linalg::Backend& be,
              const T* y, double lambda, const std::vector<double>& weights,
              Result<T>& r) {
  std::vector<T> residual(A.rows());
  A.apply(std::span<const T>(r.solution), std::span<T>(residual));
  be.subtract(residual.data(), y, residual.data(), residual.size());
  r.final_residual_norm = std::sqrt(static_cast<double>(
      be.norm2_squared(residual.data(), residual.size())));
  double l1 = 0.0;
  if (weights.empty()) {
    l1 = static_cast<double>(be.norm1(r.solution.data(), r.solution.size()));
  } else {
    for (std::size_t i = 0; i < r.solution.size(); ++i) {
      l1 += weights[i] * std::fabs(static_cast<double>(r.solution[i]));
    }
  }
  r.final_objective =
      r.final_residual_norm * r.final_residual_norm + lambda * l1;
}

// The single-row loop (fista() with momentum, ista() without).
template <typename T>
Result<T> sequential(const linalg::LinearOperator<T>& A,
                     std::span<const T> y, const ShrinkageOptions& options,
                     bool momentum) {
  const std::size_t n = A.cols();
  const std::size_t m = A.rows();
  const linalg::Backend& be = *options.backend;
  const linalg::KernelMode schedule = be.counted_schedule();
  const double lipschitz = *options.lipschitz;
  const T step = static_cast<T>(1.0 / lipschitz);
  const T threshold = static_cast<T>(options.lambda / lipschitz);
  const bool weighted = !options.weights.empty();
  std::vector<T> thresholds(n);
  for (std::size_t i = 0; weighted && i < n; ++i) {
    thresholds[i] = static_cast<T>(options.weights[i]) * threshold;
  }
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
  Result<T> result;
  std::vector<T> yk(n, T{});
  result.solution.assign(n, T{});
  for (std::size_t i = 0; i < options.warm_start.size(); ++i) {
    result.solution[i] = static_cast<T>(options.warm_start[i]);
    yk[i] = result.solution[i];
  }
  std::vector<T> residual(m), gradient(n), candidate(n), a_next(n);
  double t_k = 1.0;
  const bool support_aware = options.support_tolerance > 0.0;
  std::size_t support_stable = 0;
  for (std::size_t k = 1; k <= options.max_iterations; ++k) {
    A.apply(std::span<const T>(yk), std::span<T>(residual));
    be.subtract(residual.data(), y.data(), residual.data(), m);
    A.apply_adjoint(std::span<const T>(residual), std::span<T>(gradient));
    be.copy(yk.data(), candidate.data(), n);
    be.axpy(static_cast<T>(-2.0) * step, gradient.data(), candidate.data(),
            n);
    std::vector<T>& a_k = result.solution;
    if (weighted) {
      for (std::size_t i = 0; i < n; ++i) {
        const T v = candidate[i];
        const T mag = (v < T{} ? -v : v) - thresholds[i];
        const T shrunk = mag > T{} ? mag : T{};
        a_next[i] = v < T{} ? -shrunk : shrunk;
      }
      if (be.counting()) {
        be.charge(loop_cost(5 * n, 2 * n, n, schedule));
      }
    } else {
      be.soft_threshold(candidate.data(), threshold, a_next.data(), n);
    }
    double change_sq = 0.0;
    double norm_sq = 0.0;
    bool support_changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      const double diff =
          static_cast<double>(a_next[i]) - static_cast<double>(a_k[i]);
      change_sq += diff * diff;
      norm_sq +=
          static_cast<double>(a_next[i]) * static_cast<double>(a_next[i]);
      if (support_aware && ((a_next[i] != T{}) != (a_k[i] != T{}))) {
        support_changed = true;
      }
    }
    if (support_aware) {
      support_stable = support_changed ? 0 : support_stable + 1;
    }
    if (momentum) {
      if (options.adaptive_restart) {
        double alignment = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          alignment +=
              (static_cast<double>(yk[i]) - static_cast<double>(a_next[i])) *
              (static_cast<double>(a_next[i]) - static_cast<double>(a_k[i]));
        }
        if (alignment > 0.0) {
          t_k = 1.0;
        }
      }
      const double t_next = (1.0 + std::sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0;
      const T beta = static_cast<T>((t_k - 1.0) / t_next);
      for (std::size_t i = 0; i < n; ++i) {
        yk[i] = a_next[i] + beta * (a_next[i] - a_k[i]);
      }
      t_k = t_next;
      if (be.counting()) {
        be.charge(loop_cost(2 * n, 2 * n, n, schedule));
      }
    } else {
      be.copy(a_next.data(), yk.data(), n);
    }
    std::swap(a_k, a_next);
    result.iterations = k;
    if (be.counting()) {
      be.charge(loop_cost(3 * n, 2 * n, 0, schedule));
    }
    const bool need_objective = options.record_objective ||
                                options.sigma.has_value() ||
                                k == options.max_iterations;
    double residual_norm = 0.0;
    if (need_objective) {
      A.apply(std::span<const T>(a_k), std::span<T>(residual));
      be.subtract(residual.data(), y.data(), residual.data(), m);
      residual_norm = std::sqrt(
          static_cast<double>(be.norm2_squared(residual.data(), m)));
      if (options.record_objective) {
        result.objective_trace.push_back(residual_norm * residual_norm +
                                         options.lambda * g_value(a_k));
      }
    }
    if (options.sigma.has_value() && residual_norm <= *options.sigma) {
      result.converged = true;
      break;
    }
    const double tolerance =
        support_aware && support_stable >= options.support_stable_iters
            ? std::max(options.tolerance, options.support_tolerance)
            : options.tolerance;
    if (norm_sq > 0.0 && std::sqrt(change_sq / norm_sq) < tolerance) {
      result.converged = true;
      break;
    }
  }
  diagnose(A, be, y.data(), options.lambda, options.weights, result);
  return result;
}

// The independent-row batch loop: per-row momentum, restart and stopping,
// converged rows snapshotted and compacted out.
template <typename T>
std::vector<Result<T>> batch(const linalg::LinearOperator<T>& A,
                             std::span<const T> y_flat,
                             std::span<const double> lambdas,
                             const ShrinkageOptions& options) {
  const std::size_t rows = lambdas.size();
  const std::size_t n = A.cols();
  const std::size_t m = A.rows();
  const linalg::Backend& be = *options.backend;
  const linalg::KernelMode schedule = be.counted_schedule();
  const double lipschitz = *options.lipschitz;
  const T step = static_cast<T>(1.0 / lipschitz);
  std::vector<Result<T>> results(rows);
  std::vector<T> thresholds(rows);
  for (std::size_t b = 0; b < rows; ++b) {
    thresholds[b] = static_cast<T>(lambdas[b] / lipschitz);
  }
  const bool support_aware = options.support_tolerance > 0.0;
  std::vector<T> yk(rows * n, T{}), a_k(rows * n, T{});
  for (std::size_t i = 0; i < options.warm_start.size(); ++i) {
    yk[i] = static_cast<T>(options.warm_start[i]);
    a_k[i] = yk[i];
  }
  std::vector<T> residual(rows * m), gradient(rows * n), candidate(rows * n),
      a_next(rows * n), rownorms(rows);
  std::vector<T> ys(y_flat.begin(), y_flat.end());
  std::vector<double> tk(rows, 1.0), change(rows), norm(rows);
  std::vector<std::size_t> stable(rows, 0), perm(rows);
  for (std::size_t b = 0; b < rows; ++b) {
    perm[b] = b;
  }
  std::size_t active = rows;
  for (std::size_t k = 1; k <= options.max_iterations && active > 0; ++k) {
    A.apply_batch(std::span<const T>(yk.data(), active * n),
                  std::span<T>(residual.data(), active * m), active);
    be.subtract_batch(residual.data(), ys.data(), residual.data(), active, m);
    A.apply_adjoint_batch(std::span<const T>(residual.data(), active * m),
                          std::span<T>(gradient.data(), active * n), active);
    be.copy_batch(yk.data(), candidate.data(), active, n);
    be.axpy_batch(static_cast<T>(-2.0) * step, gradient.data(),
                  candidate.data(), active, n);
    be.soft_threshold_batch(candidate.data(), thresholds.data(),
                            a_next.data(), active, n);
    for (std::size_t s = 0; s < active; ++s) {
      T* yk_row = yk.data() + s * n;
      const T* next = a_next.data() + s * n;
      const T* cur = a_k.data() + s * n;
      double change_sq = 0.0;
      double norm_sq = 0.0;
      bool support_changed = false;
      for (std::size_t i = 0; i < n; ++i) {
        const double diff =
            static_cast<double>(next[i]) - static_cast<double>(cur[i]);
        change_sq += diff * diff;
        norm_sq += static_cast<double>(next[i]) * static_cast<double>(next[i]);
        if (support_aware && ((next[i] != T{}) != (cur[i] != T{}))) {
          support_changed = true;
        }
      }
      change[s] = change_sq;
      norm[s] = norm_sq;
      if (support_aware) {
        stable[s] = support_changed ? 0 : stable[s] + 1;
      }
      double t_b = tk[s];
      if (options.adaptive_restart) {
        double alignment = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          alignment +=
              (static_cast<double>(yk_row[i]) - static_cast<double>(next[i])) *
              (static_cast<double>(next[i]) - static_cast<double>(cur[i]));
        }
        if (alignment > 0.0) {
          t_b = 1.0;
        }
      }
      const double t_next = (1.0 + std::sqrt(1.0 + 4.0 * t_b * t_b)) / 2.0;
      const T beta = static_cast<T>((t_b - 1.0) / t_next);
      for (std::size_t i = 0; i < n; ++i) {
        yk_row[i] = next[i] + beta * (next[i] - cur[i]);
      }
      tk[s] = t_next;
    }
    if (be.counting()) {
      for (std::size_t s = 0; s < active; ++s) {
        be.charge(loop_cost(2 * n, 2 * n, n, schedule));
        be.charge(loop_cost(3 * n, 2 * n, 0, schedule));
      }
    }
    if (k == options.max_iterations) {
      A.apply_batch(std::span<const T>(a_next.data(), active * n),
                    std::span<T>(residual.data(), active * m), active);
      be.subtract_batch(residual.data(), ys.data(), residual.data(), active,
                        m);
      be.dot_batch(residual.data(), residual.data(), rownorms.data(), active,
                   m);
    }
    for (std::size_t s = active; s-- > 0;) {
      const double tolerance =
          support_aware && stable[s] >= options.support_stable_iters
              ? std::max(options.tolerance, options.support_tolerance)
              : options.tolerance;
      const bool converged =
          norm[s] > 0.0 && std::sqrt(change[s] / norm[s]) < tolerance;
      const T* next = a_next.data() + s * n;
      if (converged || k == options.max_iterations) {
        Result<T>& r = results[perm[s]];
        r.solution.assign(next, next + n);
        r.iterations = k;
        r.converged = converged;
      }
      if (converged) {
        --active;
        if (s != active) {
          std::copy_n(yk.data() + active * n, n, yk.data() + s * n);
          std::copy_n(a_next.data() + active * n, n, a_next.data() + s * n);
          std::copy_n(ys.data() + active * m, m, ys.data() + s * m);
          thresholds[s] = thresholds[active];
          tk[s] = tk[active];
          stable[s] = stable[active];
          perm[s] = perm[active];
        }
      }
    }
    std::swap(a_k, a_next);
  }
  for (std::size_t b = 0; b < rows; ++b) {
    diagnose(A, be, y_flat.data() + b * m, lambdas[b], {}, results[b]);
  }
  return results;
}

// The l2,1 group loop: one momentum scalar, restart test and stopping rule
// over all leads * n coefficients, group shrink as the prox.
template <typename T>
std::vector<Result<T>> group(const linalg::LinearOperator<T>& A,
                             std::span<const T> y_flat, std::size_t leads,
                             const ShrinkageOptions& options) {
  const std::size_t n = A.cols();
  const std::size_t m = A.rows();
  const std::size_t ln = leads * n;
  const linalg::Backend& be = *options.backend;
  const linalg::KernelMode schedule = be.counted_schedule();
  const double lipschitz = *options.lipschitz;
  const T step = static_cast<T>(1.0 / lipschitz);
  const T threshold = static_cast<T>(options.lambda / lipschitz);
  const bool support_aware = options.support_tolerance > 0.0;
  std::vector<T> yk(ln, T{}), a_k(ln, T{});
  for (std::size_t i = 0; i < options.warm_start.size(); ++i) {
    yk[i] = static_cast<T>(options.warm_start[i]);
    a_k[i] = yk[i];
  }
  std::vector<T> residual(leads * m), gradient(ln), candidate(ln), a_next(ln),
      rownorms(leads);
  double t_k = 1.0;
  std::size_t support_stable = 0;
  std::size_t iterations = 0;
  bool converged = false;
  for (std::size_t k = 1; k <= options.max_iterations; ++k) {
    A.apply_batch(std::span<const T>(yk.data(), ln),
                  std::span<T>(residual.data(), leads * m), leads);
    be.subtract_batch(residual.data(), y_flat.data(), residual.data(), leads,
                      m);
    A.apply_adjoint_batch(std::span<const T>(residual.data(), leads * m),
                          std::span<T>(gradient.data(), ln), leads);
    be.copy_batch(yk.data(), candidate.data(), leads, n);
    be.axpy_batch(static_cast<T>(-2.0) * step, gradient.data(),
                  candidate.data(), leads, n);
    be.group_soft_threshold_batch(candidate.data(), threshold, a_next.data(),
                                  leads, n);
    double change_sq = 0.0;
    double norm_sq = 0.0;
    bool support_changed = false;
    for (std::size_t i = 0; i < ln; ++i) {
      const double diff =
          static_cast<double>(a_next[i]) - static_cast<double>(a_k[i]);
      change_sq += diff * diff;
      norm_sq +=
          static_cast<double>(a_next[i]) * static_cast<double>(a_next[i]);
      if (support_aware && ((a_next[i] != T{}) != (a_k[i] != T{}))) {
        support_changed = true;
      }
    }
    if (support_aware) {
      support_stable = support_changed ? 0 : support_stable + 1;
    }
    if (options.adaptive_restart) {
      double alignment = 0.0;
      for (std::size_t i = 0; i < ln; ++i) {
        alignment +=
            (static_cast<double>(yk[i]) - static_cast<double>(a_next[i])) *
            (static_cast<double>(a_next[i]) - static_cast<double>(a_k[i]));
      }
      if (alignment > 0.0) {
        t_k = 1.0;
      }
    }
    const double t_next = (1.0 + std::sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0;
    const T beta = static_cast<T>((t_k - 1.0) / t_next);
    for (std::size_t i = 0; i < ln; ++i) {
      yk[i] = a_next[i] + beta * (a_next[i] - a_k[i]);
    }
    t_k = t_next;
    if (be.counting()) {
      be.charge(loop_cost(2 * ln, 2 * ln, ln, schedule));
      be.charge(loop_cost(3 * ln, 2 * ln, 0, schedule));
    }
    std::swap(a_k, a_next);
    iterations = k;
    if (k == options.max_iterations) {
      A.apply_batch(std::span<const T>(a_k.data(), ln),
                    std::span<T>(residual.data(), leads * m), leads);
      be.subtract_batch(residual.data(), y_flat.data(), residual.data(),
                        leads, m);
      be.dot_batch(residual.data(), residual.data(), rownorms.data(), leads,
                   m);
    }
    const double tolerance =
        support_aware && support_stable >= options.support_stable_iters
            ? std::max(options.tolerance, options.support_tolerance)
            : options.tolerance;
    if (norm_sq > 0.0 && std::sqrt(change_sq / norm_sq) < tolerance) {
      converged = true;
      break;
    }
  }
  std::vector<Result<T>> results(leads);
  for (std::size_t l = 0; l < leads; ++l) {
    Result<T>& r = results[l];
    r.solution.assign(a_k.data() + l * n, a_k.data() + (l + 1) * n);
    r.iterations = iterations;
    r.converged = converged;
    diagnose(A, be, y_flat.data() + l * m, options.lambda, {}, r);
  }
  return results;
}

}  // namespace oracle

template <typename T>
void expect_same_result(const ShrinkageResult<T>& got,
                        const oracle::Result<T>& want) {
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.final_residual_norm, want.final_residual_norm);
  EXPECT_EQ(got.final_objective, want.final_objective);
  EXPECT_EQ(got.objective_trace, want.objective_trace);
  ASSERT_EQ(got.solution.size(), want.solution.size());
  for (std::size_t i = 0; i < want.solution.size(); ++i) {
    ASSERT_EQ(got.solution[i], want.solution[i]) << "coefficient " << i;
  }
}

void expect_same_counts(const linalg::OpCounts& got,
                        const linalg::OpCounts& want) {
  EXPECT_EQ(got.scalar_mac, want.scalar_mac);
  EXPECT_EQ(got.scalar_op, want.scalar_op);
  EXPECT_EQ(got.vector_mac4, want.vector_mac4);
  EXPECT_EQ(got.vector_op4, want.vector_op4);
  EXPECT_EQ(got.leftover_lane, want.leftover_lane);
  EXPECT_EQ(got.loads, want.loads);
  EXPECT_EQ(got.stores, want.stores);
}

const std::array<const linalg::Backend*, 2> kCountingBackends = {
    &linalg::counting_scalar_backend(), &linalg::counting_simd4_backend()};

// A dense operator whose panel applies are DenseMatrix's own panel
// kernels (one matrix traversal per panel), not the row-loop default.
template <typename T>
class PanelDenseOp final : public linalg::LinearOperator<T> {
 public:
  explicit PanelDenseOp(linalg::DenseMatrix<T> m) : m_(std::move(m)) {}
  std::size_t rows() const override { return m_.rows(); }
  std::size_t cols() const override { return m_.cols(); }
  void apply(std::span<const T> x, std::span<T> y) const override {
    m_.apply(x, y);
  }
  void apply_adjoint(std::span<const T> x, std::span<T> y) const override {
    m_.apply_transpose(x, y);
  }
  void apply_batch(std::span<const T> x, std::span<T> y,
                   std::size_t batch) const override {
    m_.apply_batch(x, y, batch);
  }
  void apply_adjoint_batch(std::span<const T> x, std::span<T> y,
                           std::size_t batch) const override {
    m_.apply_transpose_batch(x, y, batch);
  }

 private:
  linalg::DenseMatrix<T> m_;
};

PanelDenseOp<float> panel_gaussian_op(std::size_t rows, std::size_t cols,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::DenseMatrix<float> m(rows, cols);
  const double sigma = 1.0 / std::sqrt(static_cast<double>(rows));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<float>(rng.gaussian(0.0, sigma));
    }
  }
  return PanelDenseOp<float>(std::move(m));
}

// Single row: fista/ista x {uniform, weighted} x {sigma, none} x
// record_objective x warm x support_tolerance x adaptive_restart, on a
// dense operator and on the decoder's Phi Psi operator (whose batch-1
// panel applies must reduce to the single-row legs, charges included).
TEST(FistaCoreOracle, SingleRowMatchesTheSequentialLoop) {
  const auto p = make_batch_problem(1, 70);
  core::SensingMatrixConfig phi_config;
  phi_config.rows = 32;
  phi_config.cols = 64;
  phi_config.d = 4;
  const core::SensingMatrix phi(phi_config);
  const dsp::WaveletTransform psi(dsp::Wavelet::from_name("db4"), 64, 3);
  std::vector<double> weights(p.n, 1.0);
  for (std::size_t i = 0; i < 8; ++i) {
    weights[i] = 0.1;
  }
  std::vector<double> prior(p.n);
  for (const linalg::Backend* be : kCountingBackends) {
    const core::CsOperator<float> cs(phi, psi, *be);
    for (const linalg::LinearOperator<float>* op :
         {static_cast<const linalg::LinearOperator<float>*>(&p.op),
          static_cast<const linalg::LinearOperator<float>*>(&cs)}) {
      // A prior near (not at) the fixed point, so warm solves still run.
      ShrinkageOptions seed_options;
      seed_options.lambda = p.lambdas[0];
      seed_options.lipschitz = 16.0;
      seed_options.max_iterations = 60;
      const auto seed = fista<float>(*op, p.y_flat, seed_options);
      for (std::size_t i = 0; i < p.n; ++i) {
        prior[i] = static_cast<double>(seed.solution[i]);
      }
      double y_norm_sq = 0.0;
      for (const float v : p.y_flat) {
        y_norm_sq += static_cast<double>(v) * v;
      }
      const double y_norm = std::sqrt(y_norm_sq);
      for (unsigned mask = 0; mask < 128; ++mask) {
        const bool momentum = (mask & 1u) != 0;
        ShrinkageOptions options;
        options.lambda = p.lambdas[0];
        options.lipschitz = 16.0;
        options.max_iterations = 150;
        options.tolerance = 1e-6;
        options.backend = be;
        if ((mask & 2u) != 0) {
          options.weights = weights;
        }
        if ((mask & 4u) != 0) {
          options.sigma = 0.02 * y_norm;
        }
        options.record_objective = (mask & 8u) != 0;
        if ((mask & 16u) != 0) {
          options.warm_start = prior;
        }
        if ((mask & 32u) != 0) {
          options.support_tolerance = 1e-4;
        }
        options.adaptive_restart = (mask & 64u) != 0;
        SCOPED_TRACE(std::string(be->name()) + (op == &p.op ? " dense" : " cs") +
                     " mask " + std::to_string(mask));
        linalg::OpCounts want_counts;
        oracle::Result<float> want;
        {
          linalg::OpCounterScope scope;
          want = oracle::sequential<float>(*op, p.y_flat, options, momentum);
          want_counts = scope.counts();
        }
        SolverWorkspace ws;
        linalg::OpCounterScope scope;
        const ShrinkageResult<float>& got =
            momentum ? fista<float>(*op, p.y_flat, options, ws)
                     : ista<float>(*op, p.y_flat, options, ws);
        const linalg::OpCounts got_counts = scope.counts();
        expect_same_result(got, want);
        expect_same_counts(got_counts, want_counts);
      }
    }
  }
}

// Independent panels of 1-5 rows whose rows freeze at different
// iterations, cold and warm, with and without restart and support-aware
// stopping, on the row-loop and the panel-kernel dense operators.
TEST(FistaCoreOracle, IndependentPanelsMatchTheBatchLoop) {
  for (std::size_t rows = 1; rows <= 5; ++rows) {
    const auto p = make_batch_problem(rows, 80 + rows);
    const auto panel_op = panel_gaussian_op(p.m, p.n, 80 + rows);
    std::vector<float> panel_y(rows * p.m);
    for (std::size_t b = 0; b < rows; ++b) {
      std::vector<float> truth(p.n, 0.0f);
      for (std::size_t j = 0; j < 3 + b; ++j) {
        truth[(7 * j + 5 * b) % p.n] = 1.0f + 0.5f * static_cast<float>(j);
      }
      panel_op.apply(truth, std::span<float>(panel_y.data() + b * p.m, p.m));
    }
    std::vector<double> priors(rows * p.n);
    for (std::size_t i = 0; i < priors.size(); ++i) {
      priors[i] = 0.01 * static_cast<double>(i % 7) - 0.03;
    }
    for (const linalg::Backend* be : kCountingBackends) {
      for (unsigned mask = 0; mask < 8; ++mask) {
        ShrinkageOptions options;
        options.lipschitz = 16.0;
        options.max_iterations = 600;
        options.tolerance = 1e-4;
        options.backend = be;
        options.adaptive_restart = (mask & 1u) != 0;
        if ((mask & 2u) != 0) {
          options.warm_start = priors;
        }
        if ((mask & 4u) != 0) {
          options.support_tolerance = 1e-4;
        }
        for (int which = 0; which < 2; ++which) {
          const linalg::LinearOperator<float>& op =
              which == 0 ? static_cast<const linalg::LinearOperator<float>&>(
                               p.op)
                         : panel_op;
          const std::span<const float> y =
              which == 0 ? std::span<const float>(p.y_flat)
                         : std::span<const float>(panel_y);
          SCOPED_TRACE(std::string(be->name()) + " rows " +
                       std::to_string(rows) + " mask " +
                       std::to_string(mask) + " op " + std::to_string(which));
          linalg::OpCounts want_counts;
          std::vector<oracle::Result<float>> want;
          {
            linalg::OpCounterScope scope;
            want = oracle::batch<float>(op, y, p.lambdas, options);
            want_counts = scope.counts();
          }
          SolverWorkspace ws;
          linalg::OpCounterScope scope;
          const auto got = fista_panel<float>(
              op, y, rows, Coupling::kIndependent, p.lambdas, options, ws);
          const linalg::OpCounts got_counts = scope.counts();
          ASSERT_EQ(got.size(), rows);
          for (std::size_t b = 0; b < rows; ++b) {
            SCOPED_TRACE("row " + std::to_string(b));
            expect_same_result(got[b], want[b]);
          }
          expect_same_counts(got_counts, want_counts);
          if (rows > 1 && mask == 1) {
            // The frozen-row path must actually be exercised.
            std::size_t lo = want[0].iterations;
            std::size_t hi = lo;
            for (const auto& r : want) {
              lo = std::min(lo, r.iterations);
              hi = std::max(hi, r.iterations);
            }
            EXPECT_LT(lo, hi);
          }
        }
      }
    }
  }
}

// Lead groups of L = 1-4, cold and warm, with and without restart and
// support-aware stopping, including a run that stops at max_iterations.
TEST(FistaCoreOracle, GroupsMatchTheGroupLoop) {
  for (std::size_t leads = 1; leads <= 4; ++leads) {
    const auto p = make_batch_problem(leads, 90 + leads);
    const auto panel_op = panel_gaussian_op(p.m, p.n, 90 + leads);
    std::vector<double> priors(leads * p.n);
    for (std::size_t i = 0; i < priors.size(); ++i) {
      priors[i] = 0.02 * static_cast<double>(i % 5) - 0.04;
    }
    for (const linalg::Backend* be : kCountingBackends) {
      for (unsigned mask = 0; mask < 16; ++mask) {
        ShrinkageOptions options;
        options.lambda = 2e-3;
        options.lipschitz = 16.0;
        options.max_iterations = (mask & 8u) != 0 ? 25 : 400;
        options.tolerance = 1e-5;
        options.backend = be;
        options.adaptive_restart = (mask & 1u) != 0;
        if ((mask & 2u) != 0) {
          options.warm_start = priors;
        }
        if ((mask & 4u) != 0) {
          options.support_tolerance = 1e-4;
        }
        for (int which = 0; which < 2; ++which) {
          const linalg::LinearOperator<float>& op =
              which == 0 ? static_cast<const linalg::LinearOperator<float>&>(
                               p.op)
                         : panel_op;
          SCOPED_TRACE(std::string(be->name()) + " leads " +
                       std::to_string(leads) + " mask " +
                       std::to_string(mask) + " op " + std::to_string(which));
          linalg::OpCounts want_counts;
          std::vector<oracle::Result<float>> want;
          {
            linalg::OpCounterScope scope;
            want = oracle::group<float>(op, p.y_flat, leads, options);
            want_counts = scope.counts();
          }
          SolverWorkspace ws;
          linalg::OpCounterScope scope;
          const auto got = fista_panel<float>(
              op, p.y_flat, leads, Coupling::kGroup,
              std::span<const double>(&options.lambda, 1), options, ws);
          const linalg::OpCounts got_counts = scope.counts();
          ASSERT_EQ(got.size(), leads);
          for (std::size_t l = 0; l < leads; ++l) {
            SCOPED_TRACE("lead " + std::to_string(l));
            expect_same_result(got[l], want[l]);
          }
          expect_same_counts(got_counts, want_counts);
        }
      }
    }
  }
}

}  // namespace
}  // namespace csecg::solvers
