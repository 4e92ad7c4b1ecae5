#include "csecg/core/cs_operator.hpp"

#include "csecg/util/error.hpp"

namespace csecg::core {

namespace {

/// The sparse projection is gather/scatter-dominated, which NEON cannot
/// vectorise; charge it as scalar work in either schedule so the cycle
/// model stays honest. Skipped entirely on non-counting backends.
///
/// The panel applies stream the cols*d index table once per lane group
/// (SparseBinaryMatrix::kLanes rows share each traversal, partial tail
/// groups included), so the index loads are charged per group while the
/// per-lane data traffic (gathers, adds, stores) stays per row — this is
/// what makes a joint lead-group solve priced sub-additively against L
/// independent solves. batch == 1 reduces to the classic 2*nnz loads.
template <typename T>
void charge_sparse_apply(const linalg::Backend& backend,
                         const SensingMatrix& phi, std::size_t batch = 1) {
  if (!backend.counting()) {
    return;
  }
  const auto k = static_cast<std::uint64_t>(batch);
  if (phi.is_sparse()) {
    linalg::OpCounts c;
    const auto nnz = static_cast<std::uint64_t>(phi.cols()) *
                     phi.sparse().nonzeros_per_column();
    constexpr std::uint64_t kLanes = linalg::SparseBinaryMatrix::kLanes;
    const std::uint64_t traversals = (k + kLanes - 1) / kLanes;
    c.scalar_op = (nnz + phi.rows()) * k;  // adds + final scale
    c.loads = nnz * k + nnz * traversals;  // data per lane + index per group
    c.stores = nnz * k;
    backend.charge(c);
  } else {
    linalg::OpCounts c;
    const auto elems = static_cast<std::uint64_t>(phi.rows()) * phi.cols();
    c.scalar_mac = elems * k;
    c.loads = 2 * elems * k;
    backend.charge(c);
  }
}

}  // namespace

template <typename T>
CsOperator<T>::CsOperator(const SensingMatrix& phi,
                          const dsp::WaveletTransform& psi,
                          const linalg::Backend& backend)
    : phi_(&phi), psi_(&psi), backend_(&backend), scratch_(psi.length()) {
  CSECG_CHECK(phi.cols() == psi.length(),
              "sensing matrix width must match the wavelet frame length");
}

template <typename T>
void CsOperator<T>::rebind() {
  CSECG_CHECK(phi_->cols() == psi_->length(),
              "sensing matrix width must match the wavelet frame length");
  scratch_.resize(psi_->length());
}

template <typename T>
std::span<T> CsOperator<T>::panel(std::size_t batch) const {
  const std::size_t size = batch * psi_->length();
  if (scratch_.size() < size) {
    scratch_.resize(size);
  }
  return std::span<T>(scratch_.data(), size);
}

template <typename T>
void CsOperator<T>::apply(std::span<const T> alpha, std::span<T> y) const {
  CSECG_CHECK(alpha.size() == cols() && y.size() == rows(),
              "apply: size mismatch");
  const std::span<T> x = panel(1);
  psi_->inverse<T>(alpha, x, *backend_);
  phi_->apply(std::span<const T>(x), y);
  charge_sparse_apply<T>(*backend_, *phi_);
}

template <typename T>
void CsOperator<T>::apply_adjoint(std::span<const T> r,
                                  std::span<T> alpha) const {
  CSECG_CHECK(r.size() == rows() && alpha.size() == cols(),
              "apply_adjoint: size mismatch");
  const std::span<T> x = panel(1);
  phi_->apply_transpose(r, x);
  charge_sparse_apply<T>(*backend_, *phi_);
  psi_->forward<T>(std::span<const T>(x), alpha, *backend_);
}

template <typename T>
void CsOperator<T>::apply_batch(std::span<const T> alpha_flat,
                                std::span<T> y_flat, std::size_t batch) const {
  CSECG_CHECK(alpha_flat.size() == batch * cols() &&
                  y_flat.size() == batch * rows(),
              "apply_batch: size mismatch");
  const std::span<T> x = panel(batch);
  psi_->inverse_batch<T>(alpha_flat, x, batch, *backend_);
  phi_->apply_batch(std::span<const T>(x), y_flat, batch);
  charge_sparse_apply<T>(*backend_, *phi_, batch);
}

template <typename T>
void CsOperator<T>::apply_adjoint_batch(std::span<const T> r_flat,
                                        std::span<T> alpha_flat,
                                        std::size_t batch) const {
  CSECG_CHECK(r_flat.size() == batch * rows() &&
                  alpha_flat.size() == batch * cols(),
              "apply_adjoint_batch: size mismatch");
  const std::span<T> x = panel(batch);
  phi_->apply_transpose_batch(r_flat, x, batch);
  charge_sparse_apply<T>(*backend_, *phi_, batch);
  psi_->forward_batch<T>(std::span<const T>(x), alpha_flat,
                         batch, *backend_);
}

template class CsOperator<float>;
template class CsOperator<double>;

}  // namespace csecg::core
