#pragma once

#include <string>
#include <vector>

#include "nn/parameter.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace lncl::nn {

// Fully connected layer: y = W x + b.
//
// The layer is *functionally* stateless: Forward does not retain activations.
// Backward receives the original input again, accumulates dL/dW and dL/db
// into the parameter gradients, and optionally emits dL/dx. This keeps layers
// reusable at several points of a network (e.g. per token) without cache
// management.
//
// Forward and ForwardRows run through the same fused bias epilogue in the
// GEMM microkernel (util/gemm_kernel.h) — the vector forward is the m = 1
// row form, so a vector result is bit-identical to the matching row of a
// rows forward.
class Linear {
 public:
  // in -> out, Glorot-initialized weights, zero bias.
  Linear(const std::string& name, int in_dim, int out_dim, util::Rng* rng);

  Linear(const Linear&) = delete;
  Linear& operator=(const Linear&) = delete;

  void Forward(const util::Vector& x, util::Vector* y) const;

  // Row-wise forward: each row of x is an independent input.
  void ForwardRows(const util::Matrix& x, util::Matrix* y) const;

  // Accumulates parameter gradients for dL/dy at input x; writes dL/dx if
  // grad_x is non-null.
  void Backward(const util::Vector& x, const util::Vector& grad_y,
                util::Vector* grad_x);
  void BackwardRows(const util::Matrix& x, const util::Matrix& grad_y,
                    util::Matrix* grad_x);
  // The parameter half of BackwardRows over `rows` raw rows of x (in_dim
  // wide) and grad_y (out_dim wide).
  void AccumulateGrads(const float* x, const float* grad_y, int rows);

  std::vector<Parameter*> Params() { return {&w_, &b_}; }

  int in_dim() const { return w_.value.cols(); }
  int out_dim() const { return w_.value.rows(); }

  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }
  const Parameter& weight() const { return w_; }
  const Parameter& bias() const { return b_; }

 private:
  Parameter w_;  // out x in
  Parameter b_;  // 1 x out
};

}  // namespace lncl::nn

