#include "nn/linear.h"

#include "util/check.h"
#include "util/gemm_kernel.h"

namespace lncl::nn {

Linear::Linear(const std::string& name, int in_dim, int out_dim,
               util::Rng* rng)
    : w_(name + ".w", out_dim, in_dim), b_(name + ".b", 1, out_dim) {
  GlorotInit(rng, &w_.value);
}

void Linear::Forward(const util::Vector& x, util::Vector* y) const {
  LNCL_DCHECK(static_cast<int>(x.size()) == in_dim());
  y->resize(out_dim());
  // y^T = x^T W^T with the bias fused into the GEMM epilogue: one pass over
  // the output instead of a GEMM plus a bias sweep.
  int ldb = 0;
  const float* wp = util::gemm::PackedOpB(w_.value, util::Trans::kYes, &ldb);
  util::gemm::GemmEx(1, out_dim(), in_dim(), 1.0f, x.data(), in_dim(),
                     util::Trans::kNo, wp, ldb, util::Trans::kNo, 0.0f,
                     y->data(), out_dim(), b_.value.Row(0), util::Act::kNone);
}

void Linear::ForwardRows(const util::Matrix& x, util::Matrix* y) const {
  LNCL_DCHECK(x.cols() == in_dim());
  util::GemmEx(1.0f, x, util::Trans::kNo, w_.value, util::Trans::kYes, 0.0f,
               y, b_.value.Row(0), util::Act::kNone);
}

void Linear::Backward(const util::Vector& x, const util::Vector& grad_y,
                      util::Vector* grad_x) {
  LNCL_DCHECK(static_cast<int>(grad_y.size()) == out_dim());
  util::OuterAdd(grad_y, x, 1.0f, &w_.grad);
  float* gb = b_.grad.Row(0);
  for (int i = 0; i < out_dim(); ++i) gb[i] += grad_y[i];
  if (grad_x != nullptr) {
    util::MatVecTrans(w_.value, grad_y, grad_x);
  }
}

void Linear::BackwardRows(const util::Matrix& x, const util::Matrix& grad_y,
                          util::Matrix* grad_x) {
  LNCL_DCHECK(x.rows() == grad_y.rows());
  AccumulateGrads(x.data(), grad_y.data(), grad_y.rows());
  if (grad_x != nullptr) {
    util::MatMul(grad_y, w_.value, grad_x);
  }
}

void Linear::AccumulateGrads(const float* x, const float* grad_y, int rows) {
  // dW += grad_y^T * x, accumulated in place by the beta=1 GEMM (no temp).
  util::GemmRaw(out_dim(), in_dim(), rows, 1.0f, grad_y, out_dim(),
                util::Trans::kYes, x, in_dim(), util::Trans::kNo, 1.0f,
                w_.grad.data(), in_dim());
  float* gb = b_.grad.Row(0);
  for (int r = 0; r < rows; ++r) {
    const float* row = grad_y + static_cast<size_t>(r) * out_dim();
    for (int c = 0; c < out_dim(); ++c) gb[c] += row[c];
  }
}

}  // namespace lncl::nn
