#include "nn/conv1d.h"

#include <algorithm>

#include "util/check.h"
#include "util/gemm_kernel.h"

namespace lncl::nn {

Conv1d::Conv1d(const std::string& name, int window, int in_dim, int filters,
               Padding padding, util::Rng* rng)
    : window_(window),
      in_dim_(in_dim),
      padding_(padding),
      w_(name + ".w", filters, window * in_dim),
      b_(name + ".b", 1, filters) {
  GlorotInit(rng, &w_.value, window * in_dim, filters);
}

int Conv1d::OutRows(int t) const {
  if (padding_ == Padding::kSame) return t;
  return std::max(1, t - window_ + 1);
}

namespace {

// Backward scratch for the dense grad_x path. thread_local (rather than a
// mutable member) keeps the layer safe under the parallel E-step.
thread_local util::Matrix tls_grad_patches;

// Boundary-row epilogue, mirroring the kernel's fused epilogue formula
// (alpha = 1, beta = 0 case): add bias, then the activation, in one pass.
inline void ApplyBiasAct(const float* bias, util::Act act, int f, float* yr) {
  for (int j = 0; j < f; ++j) {
    float v = yr[j] + bias[j];
    if (act == util::Act::kRelu) v = v > 0.0f ? v : 0.0f;
    yr[j] = v;
  }
}

}  // namespace

// The sliding windows of a 1-D convolution over a row-major T x D input are
// already an (out_rows x window*D) operand with leading dimension D — the
// flattened window at output row o starts at x.Row(WindowStart(o)). Both
// passes below exploit that through the microkernel layer instead of
// materializing im2row patch copies. Only output rows whose window overlaps
// the zero padding (at most window-1 of them, kSame borders or a kValid
// input shorter than the window) need scalar handling, over the clipped
// overlap [lo, hi) x in_dim with the matching offset into the filter row.
//
// The interior GEMM runs in the NN form against the k-major filter panel
// (window*D x F) served by the version-keyed pack cache: the panel is
// repacked once per optimizer step, not per call, and the fused epilogue
// writes act(acc + bias) in the same pass over the output. Forward and
// ForwardPacked share the panel and the GEMM shape, so a packed instance
// block stays byte-for-byte equal to Forward on the instance alone.

void Conv1d::Forward(const util::Matrix& x, util::Matrix* y,
                     util::Act act) const {
  LNCL_DCHECK(x.cols() == in_dim_);
  const int t = x.rows();
  const int out_rows = OutRows(t);
  const int f = filters();
  const int k_dim = window_ * in_dim_;
  y->ResizeNoZero(out_rows, f);
  const float* bias = b_.value.Row(0);

  const int interior = t - window_ + 1;
  const int ib = padding_ == Padding::kSame ? (window_ - 1) / 2 : 0;
  const int ie = ib + std::max(0, interior);

  int ldw = 0;
  const float* wt = util::gemm::PackedOpB(w_.value, util::Trans::kYes, &ldw);
  if (interior > 0) {
    util::gemm::GemmEx(interior, f, k_dim, 1.0f, x.data(), in_dim_,
                       util::Trans::kNo, wt, ldw, util::Trans::kNo, 0.0f,
                       y->Row(ib), f, bias, act);
  }
  for (int o = 0; o < out_rows; ++o) {
    if (o >= ib && o < ie) continue;
    float* yr = y->Row(o);
    AccumulateBoundaryRow(wt, x.data(), t, o, yr);
    ApplyBiasAct(bias, act, f, yr);
  }
}

void Conv1d::AccumulateBoundaryRow(const float* wt, const float* x_base,
                                   int t, int o, float* yr) const {
  const int start = WindowStart(o);
  const int lo = std::max(0, start);
  const int hi = std::min(t, start + window_);
  const int off = (lo - start) * in_dim_;
  const int len = (hi - lo) * in_dim_;
  const float* xr = x_base + static_cast<size_t>(lo) * in_dim_;
  const int f = filters();
  std::fill(yr, yr + f, 0.0f);
  // m = 1 slice of the interior NN GEMM over the clipped window: products
  // accumulate with std::fma in ascending-k order (the kernel contract) with
  // the inner loop running over the F independent filter columns.
  for (int k = 0; k < len; ++k) {
    const float xv = xr[k];
    const float* __restrict wr = wt + static_cast<size_t>(off + k) * f;
    for (int j = 0; j < f; ++j) yr[j] = std::fma(xv, wr[j], yr[j]);
  }
}

void Conv1d::ForwardPacked(const util::Matrix& x_packed,
                           const std::vector<int>& lengths,
                           util::Matrix* y_packed, util::Act act) const {
  const int f = filters();
  const int k_dim = window_ * in_dim_;
  int out_total = 0;
  for (int t : lengths) out_total += OutRows(t);
  y_packed->ResizeNoZero(out_total, f);
  const float* bias = b_.value.Row(0);
  const int ib = padding_ == Padding::kSame ? (window_ - 1) / 2 : 0;

  // One interior GEMM per instance, written straight into its y_packed
  // block — the exact n/k/lda/kernel of Forward's interior GEMM, so each
  // instance's output is bit-identical. A single GEMM over the whole packed
  // buffer would also cover the window-1 windows straddling each instance
  // boundary; at these sequence lengths that is 20-40% wasted rows plus a
  // staging copy, measurably slower than skipping them.
  int ldw = 0;
  const float* wt = util::gemm::PackedOpB(w_.value, util::Trans::kYes, &ldw);
  const float* x_base = x_packed.data();
  float* y_base = y_packed->data();
  for (int t : lengths) {
    const int out_rows = OutRows(t);
    const int interior = t - window_ + 1;
    const int ie = ib + std::max(0, interior);
    if (interior > 0) {
      util::gemm::GemmEx(interior, f, k_dim, 1.0f, x_base, in_dim_,
                         util::Trans::kNo, wt, ldw, util::Trans::kNo, 0.0f,
                         y_base + static_cast<size_t>(ib) * f, f, bias, act);
    }
    for (int o = 0; o < out_rows; ++o) {
      if (o >= ib && o < ie) continue;
      float* yr = y_base + static_cast<size_t>(o) * f;
      AccumulateBoundaryRow(wt, x_base, t, o, yr);
      ApplyBiasAct(bias, act, f, yr);
    }
    x_base += static_cast<size_t>(t) * in_dim_;
    y_base += static_cast<size_t>(out_rows) * f;
  }
  LNCL_DCHECK(x_base == x_packed.data() + x_packed.size());
}

bool Conv1d::AccumulateGrads(const float* x, int t, const float* grad_y) {
  const int out_rows = OutRows(t);
  const int f = filters();
  const int k_dim = window_ * in_dim_;

  // db += column sums of grad_y; count nonzeros on the same pass.
  float* gbias = b_.grad.Row(0);
  int nnz = 0;
  for (int o = 0; o < out_rows; ++o) {
    const float* gout = grad_y + static_cast<size_t>(o) * f;
    for (int k = 0; k < f; ++k) {
      gbias[k] += gout[k];
      nnz += gout[k] != 0.0f;
    }
  }

  const int interior = t - window_ + 1;
  const int ib = padding_ == Padding::kSame ? (window_ - 1) / 2 : 0;
  const int ie = ib + std::max(0, interior);

  // After max-over-time pooling (the text-CNN head) grad_y is structurally
  // sparse: at most one nonzero per filter column, further thinned by
  // dropout. Below ~1/8 density the axpy formulation beats the dense GEMMs;
  // the path choice depends only on the data, never on the thread count.
  const bool sparse =
      static_cast<size_t>(nnz) * 8 < static_cast<size_t>(out_rows) * f;
  if (sparse) {
    for (int o = 0; o < out_rows; ++o) {
      const float* gout = grad_y + static_cast<size_t>(o) * f;
      const int start = WindowStart(o);
      const int lo = std::max(0, start);
      const int hi = std::min(t, start + window_);
      const int off = (lo - start) * in_dim_;
      const int len = (hi - lo) * in_dim_;  // rows lo..hi-1 are contiguous
      const float* xr = x + static_cast<size_t>(lo) * in_dim_;
      for (int fi = 0; fi < f; ++fi) {
        const float g = gout[fi];
        if (g == 0.0f) continue;
        float* gw = w_.grad.Row(fi) + off;
        for (int k = 0; k < len; ++k) gw[k] += g * xr[k];
      }
    }
    return true;
  }

  // Dense path. dW += grad_y^T * windows(x): interior rows through the
  // strided GEMM, boundary rows as clipped rank-1 updates.
  if (interior > 0) {
    util::GemmRaw(f, k_dim, interior, 1.0f, grad_y + static_cast<size_t>(ib) * f,
                  f, util::Trans::kYes, x, in_dim_, util::Trans::kNo, 1.0f,
                  w_.grad.data(), k_dim);
  }
  for (int o = 0; o < out_rows; ++o) {
    if (o >= ib && o < ie) continue;
    const float* gout = grad_y + static_cast<size_t>(o) * f;
    const int start = WindowStart(o);
    const int lo = std::max(0, start);
    const int hi = std::min(t, start + window_);
    const int off = (lo - start) * in_dim_;
    const int len = (hi - lo) * in_dim_;
    const float* xr = x + static_cast<size_t>(lo) * in_dim_;
    for (int fi = 0; fi < f; ++fi) {
      const float g = gout[fi];
      float* gw = w_.grad.Row(fi) + off;
      for (int k = 0; k < len; ++k) gw[k] += g * xr[k];
    }
  }
  return false;
}

void Conv1d::Backward(const util::Matrix& x, const util::Matrix& grad_y,
                      util::Matrix* grad_x) {
  const int t = x.rows();
  const int out_rows = grad_y.rows();
  const int f = filters();
  LNCL_DCHECK(out_rows == OutRows(t));
  LNCL_DCHECK(grad_y.cols() == f);
  const bool sparse = AccumulateGrads(x.data(), t, grad_y.data());
  if (grad_x == nullptr) return;

  grad_x->Resize(t, in_dim_);
  if (sparse) {
    for (int o = 0; o < out_rows; ++o) {
      const float* gout = grad_y.Row(o);
      const int start = WindowStart(o);
      const int lo = std::max(0, start);
      const int hi = std::min(t, start + window_);
      const int off = (lo - start) * in_dim_;
      const int len = (hi - lo) * in_dim_;
      for (int fi = 0; fi < f; ++fi) {
        const float g = gout[fi];
        if (g == 0.0f) continue;
        const float* wr = w_.value.Row(fi) + off;
        float* gx = grad_x->Row(lo);
        for (int k = 0; k < len; ++k) gx[k] += g * wr[k];
      }
    }
    return;
  }
  // dWindows = grad_y * W, then scatter-add each (clipped) flattened window
  // back onto the contiguous input rows it covers (row2im).
  util::Gemm(1.0f, grad_y, util::Trans::kNo, w_.value, util::Trans::kNo, 0.0f,
             &tls_grad_patches);
  for (int o = 0; o < out_rows; ++o) {
    const int start = WindowStart(o);
    const int lo = std::max(0, start);
    const int hi = std::min(t, start + window_);
    const int off = (lo - start) * in_dim_;
    const int len = (hi - lo) * in_dim_;
    const float* src = tls_grad_patches.Row(o) + off;
    float* gx = grad_x->Row(lo);
    for (int k = 0; k < len; ++k) gx[k] += src[k];
  }
}

}  // namespace lncl::nn
