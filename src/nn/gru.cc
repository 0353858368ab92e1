#include "nn/gru.h"

#include "nn/activations.h"
#include "util/check.h"
#include "util/gemm_kernel.h"
#include "util/workspace.h"

namespace lncl::nn {

Gru::Gru(const std::string& name, int in_dim, int hidden_dim, util::Rng* rng)
    : wz_(name + ".wz", hidden_dim, in_dim),
      uz_(name + ".uz", hidden_dim, hidden_dim),
      bz_(name + ".bz", 1, hidden_dim),
      wr_(name + ".wr", hidden_dim, in_dim),
      ur_(name + ".ur", hidden_dim, hidden_dim),
      br_(name + ".br", 1, hidden_dim),
      wc_(name + ".wc", hidden_dim, in_dim),
      uc_(name + ".uc", hidden_dim, hidden_dim),
      bc_(name + ".bc", 1, hidden_dim) {
  GlorotInit(rng, &wz_.value);
  GlorotInit(rng, &uz_.value);
  GlorotInit(rng, &wr_.value);
  GlorotInit(rng, &ur_.value);
  GlorotInit(rng, &wc_.value);
  GlorotInit(rng, &uc_.value);
}

namespace {

// Per-thread scratch: the input-side gate projections for the whole
// sequence (forward) and the per-step pre-activation gradients (backward).
// thread_local keeps const Forward safe under the parallel E-step.
thread_local util::Matrix tls_gxz, tls_gxr, tls_gxc;
thread_local util::Matrix tls_dz, tls_dr, tls_dc, tls_hprev, tls_rh;

}  // namespace

// Both forward passes below run every gate product in the NN kernel form
// against k-major weight panels served by the per-thread pack cache (see
// util::gemm::PackedOpB): the inner loop updates h_dim independent
// accumulators with stride-1 loads, and the panels are repacked once per
// optimizer step rather than once per call — previously each Forward paid
// six TransposeInto copies, the dominant per-call cost of the batched
// m-step. The kernels compute each output row independently of the total
// row count, so row b of a batched recurrent product in ForwardPacked is
// bit-identical to Forward's one-row product on lane b — the packed path
// stays byte-for-byte equal to the per-instance path. The input-side gate
// biases ride the GEMM epilogue, so the per-step gate loops add only the
// recurrent term.

void Gru::Forward(const util::Matrix& x, Cache* cache,
                  util::Matrix* h_out) const {
  LNCL_DCHECK(x.cols() == in_dim());
  const int t_len = x.rows();
  const int h_dim = hidden_dim();
  cache->h.ResizeNoZero(t_len, h_dim);
  cache->z.ResizeNoZero(t_len, h_dim);
  cache->r.ResizeNoZero(t_len, h_dim);
  cache->c.ResizeNoZero(t_len, h_dim);

  // Input-side gate pre-activations (bias included) for every timestep in
  // one GEMM each: GX_g = X * W_g^T + b_g. Only the h x h recurrent
  // products remain sequential.
  util::GemmEx(1.0f, x, util::Trans::kNo, wz_.value, util::Trans::kYes, 0.0f,
               &tls_gxz, bz_.value.Row(0), util::Act::kNone);
  util::GemmEx(1.0f, x, util::Trans::kNo, wr_.value, util::Trans::kYes, 0.0f,
               &tls_gxr, br_.value.Row(0), util::Act::kNone);
  util::GemmEx(1.0f, x, util::Trans::kNo, wc_.value, util::Trans::kYes, 0.0f,
               &tls_gxc, bc_.value.Row(0), util::Act::kNone);

  // Recurrent weight panels, hoisted out of the step loop; the loop body
  // only issues non-packing kernel calls, so the pointers stay valid.
  int ldu = 0;
  const float* uzp = util::gemm::PackedOpB(uz_.value, util::Trans::kYes, &ldu);
  const float* urp = util::gemm::PackedOpB(ur_.value, util::Trans::kYes, &ldu);
  const float* ucp = util::gemm::PackedOpB(uc_.value, util::Trans::kYes, &ldu);

  util::Vector h_prev(h_dim, 0.0f);
  util::Vector tmp_b(h_dim), rh(h_dim);
  const auto recur = [h_dim](const float* u, const util::Vector& v,
                             util::Vector* out) {
    util::gemm::GemmEx(1, h_dim, h_dim, 1.0f, v.data(), h_dim,
                       util::Trans::kNo, u, h_dim, util::Trans::kNo, 0.0f,
                       out->data(), h_dim, nullptr, util::Act::kNone);
  };
  for (int t = 0; t < t_len; ++t) {
    float* z = cache->z.Row(t);
    float* r = cache->r.Row(t);
    float* c = cache->c.Row(t);
    float* h = cache->h.Row(t);

    // z_t
    const float* gxz = tls_gxz.Row(t);
    recur(uzp, h_prev, &tmp_b);
    for (int k = 0; k < h_dim; ++k) {
      z[k] = Sigmoid(gxz[k] + tmp_b[k]);
    }
    // r_t
    const float* gxr = tls_gxr.Row(t);
    recur(urp, h_prev, &tmp_b);
    for (int k = 0; k < h_dim; ++k) {
      r[k] = Sigmoid(gxr[k] + tmp_b[k]);
    }
    // c_t
    const float* gxc = tls_gxc.Row(t);
    for (int k = 0; k < h_dim; ++k) rh[k] = r[k] * h_prev[k];
    recur(ucp, rh, &tmp_b);
    for (int k = 0; k < h_dim; ++k) {
      c[k] = Tanh(gxc[k] + tmp_b[k]);
    }
    // h_t
    for (int k = 0; k < h_dim; ++k) {
      h[k] = (1.0f - z[k]) * h_prev[k] + z[k] * c[k];
      h_prev[k] = h[k];
    }
  }
  *h_out = cache->h;
}

void Gru::ForwardPacked(const util::Matrix& x_packed, int batch, int t_len,
                        util::Matrix* h_packed) const {
  LNCL_DCHECK(x_packed.rows() == batch * t_len);
  LNCL_DCHECK(t_len == 0 || x_packed.cols() == in_dim());
  const int h_dim = hidden_dim();
  h_packed->ResizeNoZero(batch * t_len, h_dim);
  if (batch == 0 || t_len == 0) return;

  util::WorkspaceScope scope;
  // Input-side gate pre-activations (bias fused) for every (instance, step)
  // row at once — the same per-row GEMMs as Forward, just over more rows.
  util::Matrix& gx_z = scope.NewMatrix();
  util::Matrix& gx_r = scope.NewMatrix();
  util::Matrix& gx_c = scope.NewMatrix();
  util::GemmEx(1.0f, x_packed, util::Trans::kNo, wz_.value, util::Trans::kYes,
               0.0f, &gx_z, bz_.value.Row(0), util::Act::kNone);
  util::GemmEx(1.0f, x_packed, util::Trans::kNo, wr_.value, util::Trans::kYes,
               0.0f, &gx_r, br_.value.Row(0), util::Act::kNone);
  util::GemmEx(1.0f, x_packed, util::Trans::kNo, wc_.value, util::Trans::kYes,
               0.0f, &gx_c, bc_.value.Row(0), util::Act::kNone);

  util::Matrix& h_prev = scope.NewMatrix();
  h_prev.Resize(batch, h_dim);  // zero initial state, as in Forward
  util::Matrix& zs = scope.NewMatrix(batch, h_dim);
  util::Matrix& rs = scope.NewMatrix(batch, h_dim);
  util::Matrix& cs = scope.NewMatrix(batch, h_dim);
  util::Matrix& rh = scope.NewMatrix(batch, h_dim);
  util::Matrix& tmp = scope.NewMatrix();
  for (int t = 0; t < t_len; ++t) {
    // z_t for all lanes: row b of H_prev * Uz^T is exactly Forward's one-row
    // recurrent product — the batch dimension only adds kernel rows, and the
    // Uz panel comes from the same pack cache.
    util::Gemm(1.0f, h_prev, util::Trans::kNo, uz_.value, util::Trans::kYes,
               0.0f, &tmp);
    for (int b = 0; b < batch; ++b) {
      const float* gxz = gx_z.Row(b * t_len + t);
      const float* tmp_b = tmp.Row(b);
      float* z = zs.Row(b);
      for (int k = 0; k < h_dim; ++k) {
        z[k] = Sigmoid(gxz[k] + tmp_b[k]);
      }
    }
    // r_t
    util::Gemm(1.0f, h_prev, util::Trans::kNo, ur_.value, util::Trans::kYes,
               0.0f, &tmp);
    for (int b = 0; b < batch; ++b) {
      const float* gxr = gx_r.Row(b * t_len + t);
      const float* tmp_b = tmp.Row(b);
      float* r = rs.Row(b);
      for (int k = 0; k < h_dim; ++k) {
        r[k] = Sigmoid(gxr[k] + tmp_b[k]);
      }
    }
    // c_t
    for (int b = 0; b < batch; ++b) {
      const float* r = rs.Row(b);
      const float* hp = h_prev.Row(b);
      float* rhb = rh.Row(b);
      for (int k = 0; k < h_dim; ++k) rhb[k] = r[k] * hp[k];
    }
    util::Gemm(1.0f, rh, util::Trans::kNo, uc_.value, util::Trans::kYes, 0.0f,
               &tmp);
    for (int b = 0; b < batch; ++b) {
      const float* gxc = gx_c.Row(b * t_len + t);
      const float* tmp_b = tmp.Row(b);
      float* c = cs.Row(b);
      for (int k = 0; k < h_dim; ++k) {
        c[k] = Tanh(gxc[k] + tmp_b[k]);
      }
    }
    // h_t
    for (int b = 0; b < batch; ++b) {
      const float* z = zs.Row(b);
      const float* c = cs.Row(b);
      float* hp = h_prev.Row(b);
      float* h = h_packed->Row(b * t_len + t);
      for (int k = 0; k < h_dim; ++k) {
        h[k] = (1.0f - z[k]) * hp[k] + z[k] * c[k];
        hp[k] = h[k];
      }
    }
  }
}

void Gru::Backward(const util::Matrix& x, const Cache& cache,
                   const util::Matrix& grad_h, util::Matrix* grad_x) {
  const int t_len = x.rows();
  const int h_dim = hidden_dim();
  LNCL_DCHECK(grad_h.rows() == t_len && grad_h.cols() == h_dim);

  // The sequential sweep only resolves the recurrent coupling; the
  // pre-activation gradients are staged per timestep and the parameter /
  // input gradients are then computed with batched GEMMs below.
  tls_dz.ResizeNoZero(t_len, h_dim);
  tls_dr.ResizeNoZero(t_len, h_dim);
  tls_dc.ResizeNoZero(t_len, h_dim);
  tls_hprev.ResizeNoZero(t_len, h_dim);  // row t = h_{t-1} (zeros at t=0)
  tls_rh.ResizeNoZero(t_len, h_dim);     // row t = r_t . h_{t-1}

  util::Vector dh_next(h_dim, 0.0f);
  util::Vector dh(h_dim), dz_pre(h_dim), dr_pre(h_dim), dc_pre(h_dim);
  util::Vector drh(h_dim), tmp;
  for (int t = t_len - 1; t >= 0; --t) {
    float* h_prev = tls_hprev.Row(t);
    if (t > 0) {
      const float* hp = cache.h.Row(t - 1);
      std::copy(hp, hp + h_dim, h_prev);
    } else {
      std::fill(h_prev, h_prev + h_dim, 0.0f);
    }
    const float* z = cache.z.Row(t);
    const float* r = cache.r.Row(t);
    const float* c = cache.c.Row(t);
    const float* gh = grad_h.Row(t);

    for (int k = 0; k < h_dim; ++k) dh[k] = gh[k] + dh_next[k];

    // Through h_t = (1-z) h_prev + z c.
    for (int k = 0; k < h_dim; ++k) {
      const float dzk = dh[k] * (c[k] - h_prev[k]);
      const float dck = dh[k] * z[k];
      dh_next[k] = dh[k] * (1.0f - z[k]);  // start accumulating dL/dh_{t-1}
      dz_pre[k] = dzk * z[k] * (1.0f - z[k]);
      dc_pre[k] = dck * (1.0f - c[k] * c[k]);
    }

    // Candidate branch: c = tanh(Wc x + Uc (r.h_prev) + bc).
    float* rh = tls_rh.Row(t);
    for (int k = 0; k < h_dim; ++k) rh[k] = r[k] * h_prev[k];
    util::MatVecTrans(uc_.value, dc_pre, &drh);
    for (int k = 0; k < h_dim; ++k) {
      const float drk = drh[k] * h_prev[k];
      dh_next[k] += drh[k] * r[k];
      dr_pre[k] = drk * r[k] * (1.0f - r[k]);
    }

    // Gate branches: the recurrent coupling into dL/dh_{t-1}.
    util::MatVecTrans(uz_.value, dz_pre, &tmp);
    for (int k = 0; k < h_dim; ++k) dh_next[k] += tmp[k];
    util::MatVecTrans(ur_.value, dr_pre, &tmp);
    for (int k = 0; k < h_dim; ++k) dh_next[k] += tmp[k];

    std::copy(dz_pre.begin(), dz_pre.end(), tls_dz.Row(t));
    std::copy(dr_pre.begin(), dr_pre.end(), tls_dr.Row(t));
    std::copy(dc_pre.begin(), dc_pre.end(), tls_dc.Row(t));
  }

  // Parameter gradients, batched over the whole sequence.
  util::Gemm(1.0f, tls_dz, util::Trans::kYes, x, util::Trans::kNo, 1.0f,
             &wz_.grad);
  util::Gemm(1.0f, tls_dz, util::Trans::kYes, tls_hprev, util::Trans::kNo,
             1.0f, &uz_.grad);
  util::Gemm(1.0f, tls_dr, util::Trans::kYes, x, util::Trans::kNo, 1.0f,
             &wr_.grad);
  util::Gemm(1.0f, tls_dr, util::Trans::kYes, tls_hprev, util::Trans::kNo,
             1.0f, &ur_.grad);
  util::Gemm(1.0f, tls_dc, util::Trans::kYes, x, util::Trans::kNo, 1.0f,
             &wc_.grad);
  util::Gemm(1.0f, tls_dc, util::Trans::kYes, tls_rh, util::Trans::kNo, 1.0f,
             &uc_.grad);
  float* gbz = bz_.grad.Row(0);
  float* gbr = br_.grad.Row(0);
  float* gbc = bc_.grad.Row(0);
  for (int t = 0; t < t_len; ++t) {
    const float* dz = tls_dz.Row(t);
    const float* dr = tls_dr.Row(t);
    const float* dc = tls_dc.Row(t);
    for (int k = 0; k < h_dim; ++k) {
      gbz[k] += dz[k];
      gbr[k] += dr[k];
      gbc[k] += dc[k];
    }
  }

  if (grad_x != nullptr) {
    // dX = dZ Wz + dR Wr + dC Wc.
    util::Gemm(1.0f, tls_dz, util::Trans::kNo, wz_.value, util::Trans::kNo,
               0.0f, grad_x);
    util::Gemm(1.0f, tls_dr, util::Trans::kNo, wr_.value, util::Trans::kNo,
               1.0f, grad_x);
    util::Gemm(1.0f, tls_dc, util::Trans::kNo, wc_.value, util::Trans::kNo,
               1.0f, grad_x);
  }
}

}  // namespace lncl::nn
