#pragma once

#include <string>
#include <vector>

#include "nn/parameter.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace lncl::nn {

// One-dimensional convolution over a token sequence.
//
// The input is a T x D matrix (one embedding row per token). Each of F
// filters spans `window` consecutive tokens (a window x D patch, flattened to
// a window*D weight row). Two padding modes:
//
//  * kValid: output is (T - window + 1) x F — the Kim (2014) text-CNN filter.
//  * kSame:  output is T x F with zero padding on both sides — the
//    Rodrigues & Pereira (2018) NER feature extractor (window 5).
//
// Forward takes the activation to fuse (kNone for pre-activations, kRelu for
// the conv+ReLU stacks in both models): bias and activation apply in the
// GEMM epilogue's single pass over the output instead of a separate sweep.
// Backward still expects the caller to retain the post-activation output
// (ReluBackward masks on it, exactly as before).
class Conv1d {
 public:
  enum class Padding { kValid, kSame };

  Conv1d(const std::string& name, int window, int in_dim, int filters,
         Padding padding, util::Rng* rng);

  Conv1d(const Conv1d&) = delete;
  Conv1d& operator=(const Conv1d&) = delete;

  // x: T x in_dim. y: rows depend on padding (see above), cols = filters,
  // y = act(conv(x) + bias). For kValid inputs shorter than `window`, the
  // input is implicitly zero-padded at the end to `window` rows (output has
  // exactly one row). Implemented as a strided GEMM directly over x's
  // sliding windows (im2row without the copy), so convolutions share the
  // blocked microkernels with Linear and the recurrent gate projections;
  // safe to call concurrently from multiple threads (the filter panel comes
  // from the per-thread pack cache).
  void Forward(const util::Matrix& x, util::Matrix* y,
               util::Act act = util::Act::kNone) const;

  // Batched forward over a variable-length batch packed row-major into
  // x_packed: instance b occupies `lengths[b]` consecutive rows, instances
  // one after another (nn/lanes.h). y_packed gets the same instance-major
  // layout, OutRows(lengths[b]) rows per instance. Each instance's block is
  // byte-for-byte what Forward produces on its slice: its interior windows
  // go through a GEMM of the exact same shape (n, k, lda) as Forward's, and
  // boundary rows reuse Forward's scalar clipped-window path.
  void ForwardPacked(const util::Matrix& x_packed,
                     const std::vector<int>& lengths, util::Matrix* y_packed,
                     util::Act act = util::Act::kNone) const;

  // `batch` equal-length instances of `t` rows each.
  void ForwardPacked(const util::Matrix& x_packed, int batch, int t,
                     util::Matrix* y_packed,
                     util::Act act = util::Act::kNone) const {
    ForwardPacked(x_packed, std::vector<int>(batch, t), y_packed, act);
  }

  // Accumulates parameter grads; writes dL/dx (same shape as x) when grad_x
  // is non-null.
  void Backward(const util::Matrix& x, const util::Matrix& grad_y,
                util::Matrix* grad_x);

  // The parameter half of Backward for one instance given as raw rows: x is
  // t x in_dim, grad_y is OutRows(t) x filters. Returns whether grad_y was
  // sparse enough for the axpy formulation (Backward's grad_x follows the
  // same choice).
  bool AccumulateGrads(const float* x, int t, const float* grad_y);

  std::vector<Parameter*> Params() { return {&w_, &b_}; }

  int window() const { return window_; }
  int in_dim() const { return in_dim_; }
  int filters() const { return w_.value.rows(); }
  Padding padding() const { return padding_; }

  // Number of output rows for a T-row input.
  int OutRows(int t) const;

 private:
  // Leftmost input row index covered by output row `o` (may be negative for
  // kSame padding).
  int WindowStart(int o) const {
    return padding_ == Padding::kSame ? o - (window_ - 1) / 2 : o;
  }

  // Computes the raw accumulator of output row `o` of a t-row input starting
  // at `x_base` into `yr` (zero-initialized here), over the clipped window
  // overlap, as an m = 1 slice of the interior NN GEMM against the k-major
  // filter panel `wt` (leading dimension = filters). The caller applies the
  // bias/activation epilogue afterwards. Shared by Forward and ForwardPacked
  // so both compute boundary rows in the identical accumulation order.
  void AccumulateBoundaryRow(const float* wt, const float* x_base, int t,
                             int o, float* yr) const;

  int window_;
  int in_dim_;
  Padding padding_;
  Parameter w_;  // filters x (window * in_dim)
  Parameter b_;  // 1 x filters
};

}  // namespace lncl::nn
