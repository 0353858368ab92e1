#include "nn/gru.h"

#include <algorithm>

#include "nn/activations.h"
#include "nn/lanes.h"
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

// Every gate product runs in the NN kernel form. The input-side projections
// are one GEMM per gate over all rows of the batch, bias fused into the
// epilogue; each step's recurrent product is one [n_t, H] GEMM against a
// k-major weight panel from the per-thread pack cache (repacked once per
// optimizer step, see util::gemm::PackedOpB). The backward's recurrent
// coupling is likewise one [n_t, H] x U GEMM per step. Because a kernel row
// never depends on the row count, row b of each product equals the one-row
// product of a lane run alone — which is what keeps every batch size, and
// every split of a batch into lane groups, byte-for-byte equal.

void Gru::Forward(const util::Matrix& x, const std::vector<int>& lengths,
                  Cache* cache, util::Matrix* h_out) const {
  const std::vector<int> offsets = LaneOffsets(lengths);
  const int rows = offsets.back();
  const int lanes = static_cast<int>(lengths.size());
  const int h_dim = hidden_dim();
  LNCL_DCHECK(x.rows() == rows);
  // An inference forward keeps its gates in per-thread scratch.
  thread_local Cache tls_gates;
  Cache* g = cache != nullptr ? cache : &tls_gates;
  util::Matrix* h = cache != nullptr ? &cache->h : h_out;
  h->ResizeNoZero(rows, h_dim);
  g->z.ResizeNoZero(rows, h_dim);
  g->r.ResizeNoZero(rows, h_dim);
  g->c.ResizeNoZero(rows, h_dim);

  if (rows > 0) {
    LNCL_DCHECK(x.cols() == in_dim());
    util::WorkspaceScope scope;
    util::Matrix& gx_z = scope.NewMatrix();
    util::Matrix& gx_r = scope.NewMatrix();
    util::Matrix& gx_c = scope.NewMatrix();
    util::GemmEx(1.0f, x, util::Trans::kNo, wz_.value, util::Trans::kYes,
                 0.0f, &gx_z, bz_.value.Row(0), util::Act::kNone);
    util::GemmEx(1.0f, x, util::Trans::kNo, wr_.value, util::Trans::kYes,
                 0.0f, &gx_r, br_.value.Row(0), util::Act::kNone);
    util::GemmEx(1.0f, x, util::Trans::kNo, wc_.value, util::Trans::kYes,
                 0.0f, &gx_c, bc_.value.Row(0), util::Act::kNone);

    // Recurrent panels, hoisted out of the step loop; the loop issues only
    // non-packing kernel calls, so the pointers stay valid.
    int ldu = 0;
    const float* uzp =
        util::gemm::PackedOpB(uz_.value, util::Trans::kYes, &ldu);
    const float* urp =
        util::gemm::PackedOpB(ur_.value, util::Trans::kYes, &ldu);
    const float* ucp =
        util::gemm::PackedOpB(uc_.value, util::Trans::kYes, &ldu);

    util::Matrix& h_prev = scope.NewMatrix(lanes, h_dim);
    h_prev.Fill(0.0f);  // zero initial state
    util::Matrix& rh = scope.NewMatrix(lanes, h_dim);
    util::Matrix& tmp = scope.NewMatrix(lanes, h_dim);
    float* const hp_base = h_prev.data();
    float* const rh_base = rh.data();
    float* const tmp_base = tmp.data();
    float* const z_base = g->z.data();
    float* const r_base = g->r.data();
    float* const c_base = g->c.data();
    float* const h_base = h->data();
    const auto recur = [&](const float* u, const float* in, int n) {
      util::gemm::GemmEx(n, h_dim, h_dim, 1.0f, in, h_dim, util::Trans::kNo,
                         u, ldu, util::Trans::kNo, 0.0f, tmp_base, h_dim,
                         nullptr, util::Act::kNone);
    };
    const auto at = [h_dim](float* base, int row) {
      return base + static_cast<size_t>(row) * h_dim;
    };
    int n = lanes;  // lanes still running: a prefix of the batch
    for (int t = 0; t < lengths[0]; ++t) {
      while (lengths[n - 1] <= t) --n;
      // z_t
      recur(uzp, hp_base, n);
      for (int b = 0; b < n; ++b) {
        const float* gxz = gx_z.Row(offsets[b] + t);
        const float* tb = at(tmp_base, b);
        float* z = at(z_base, offsets[b] + t);
        for (int k = 0; k < h_dim; ++k) z[k] = Sigmoid(gxz[k] + tb[k]);
      }
      // r_t
      recur(urp, hp_base, n);
      for (int b = 0; b < n; ++b) {
        const float* gxr = gx_r.Row(offsets[b] + t);
        const float* tb = at(tmp_base, b);
        float* r = at(r_base, offsets[b] + t);
        for (int k = 0; k < h_dim; ++k) r[k] = Sigmoid(gxr[k] + tb[k]);
      }
      // c_t
      for (int b = 0; b < n; ++b) {
        const float* r = at(r_base, offsets[b] + t);
        const float* hp = at(hp_base, b);
        float* rhb = at(rh_base, b);
        for (int k = 0; k < h_dim; ++k) rhb[k] = r[k] * hp[k];
      }
      recur(ucp, rh_base, n);
      for (int b = 0; b < n; ++b) {
        const float* gxc = gx_c.Row(offsets[b] + t);
        const float* tb = at(tmp_base, b);
        float* c = at(c_base, offsets[b] + t);
        for (int k = 0; k < h_dim; ++k) c[k] = Tanh(gxc[k] + tb[k]);
      }
      // h_t
      for (int b = 0; b < n; ++b) {
        const float* z = at(z_base, offsets[b] + t);
        const float* c = at(c_base, offsets[b] + t);
        float* hp = at(hp_base, b);
        float* hr = at(h_base, offsets[b] + t);
        for (int k = 0; k < h_dim; ++k) {
          hr[k] = (1.0f - z[k]) * hp[k] + z[k] * c[k];
          hp[k] = hr[k];
        }
      }
    }
  }
  if (cache != nullptr && h_out != &cache->h) *h_out = cache->h;
}

void Gru::Backward(const util::Matrix& x, const std::vector<int>& lengths,
                   const Cache& cache, const util::Matrix& grad_h,
                   Grads* grads, util::Matrix* grad_x) const {
  const std::vector<int> offsets = LaneOffsets(lengths);
  const int rows = offsets.back();
  const int lanes = static_cast<int>(lengths.size());
  const int h_dim = hidden_dim();
  LNCL_DCHECK(x.rows() == rows && cache.h.rows() == rows);
  LNCL_DCHECK(grad_h.rows() == rows && grad_h.cols() == h_dim);
  (void)x;
  grads->dz.ResizeNoZero(rows, h_dim);
  grads->dr.ResizeNoZero(rows, h_dim);
  grads->dc.ResizeNoZero(rows, h_dim);
  grads->h_prev.ResizeNoZero(rows, h_dim);
  grads->rh.ResizeNoZero(rows, h_dim);

  // The sweep only resolves the recurrent coupling; the pre-activation
  // gradients it stages feed the parameter GEMMs (AccumulateGrads) and the
  // input-gradient GEMMs below.
  util::WorkspaceScope scope;
  util::Matrix& dh_next = scope.NewMatrix(lanes, h_dim);
  dh_next.Fill(0.0f);
  util::Matrix& dz_step = scope.NewMatrix(lanes, h_dim);
  util::Matrix& dr_step = scope.NewMatrix(lanes, h_dim);
  util::Matrix& dc_step = scope.NewMatrix(lanes, h_dim);
  util::Matrix& drh = scope.NewMatrix(lanes, h_dim);
  util::Matrix& tmp = scope.NewMatrix(lanes, h_dim);
  util::Vector dh(h_dim);
  float* const dn_base = dh_next.data();
  float* const dz_base = dz_step.data();
  float* const dr_base = dr_step.data();
  float* const dc_base = dc_step.data();
  float* const drh_base = drh.data();
  float* const tmp_base = tmp.data();
  float* const hp_rows = grads->h_prev.data();
  float* const rh_rows = grads->rh.data();
  float* const dz_rows = grads->dz.data();
  float* const dr_rows = grads->dr.data();
  float* const dc_rows = grads->dc.data();
  const auto at = [h_dim](float* base, int row) {
    return base + static_cast<size_t>(row) * h_dim;
  };
  // out[0, n) = d[0, n) * U: row b is MatVecTrans(U, d_b), the one-lane form.
  const auto couple = [h_dim](const Parameter& u, const float* d, int n,
                              float* out) {
    util::gemm::GemmEx(n, h_dim, h_dim, 1.0f, d, h_dim, util::Trans::kNo,
                       u.value.data(), h_dim, util::Trans::kNo, 0.0f, out,
                       h_dim, nullptr, util::Act::kNone);
  };

  int n = 0;  // lanes running at step t: grows as t falls
  for (int t = (lanes > 0 ? lengths[0] : 0) - 1; t >= 0; --t) {
    while (n < lanes && lengths[n] > t) ++n;
    for (int b = 0; b < n; ++b) {
      const int row = offsets[b] + t;
      float* h_prev = at(hp_rows, row);
      if (t > 0) {
        const float* hp = cache.h.Row(row - 1);
        std::copy(hp, hp + h_dim, h_prev);
      } else {
        std::fill(h_prev, h_prev + h_dim, 0.0f);
      }
      const float* z = cache.z.Row(row);
      const float* r = cache.r.Row(row);
      const float* c = cache.c.Row(row);
      const float* gh = grad_h.Row(row);
      float* dnb = at(dn_base, b);
      float* dz_pre = at(dz_base, b);
      float* dc_pre = at(dc_base, b);

      for (int k = 0; k < h_dim; ++k) dh[k] = gh[k] + dnb[k];

      // Through h_t = (1-z) h_prev + z c.
      for (int k = 0; k < h_dim; ++k) {
        const float dzk = dh[k] * (c[k] - h_prev[k]);
        const float dck = dh[k] * z[k];
        dnb[k] = dh[k] * (1.0f - z[k]);  // start accumulating dL/dh_{t-1}
        dz_pre[k] = dzk * z[k] * (1.0f - z[k]);
        dc_pre[k] = dck * (1.0f - c[k] * c[k]);
      }
      float* rh = at(rh_rows, row);
      for (int k = 0; k < h_dim; ++k) rh[k] = r[k] * h_prev[k];
    }

    // Candidate branch: c = tanh(Wc x + Uc (r.h_prev) + bc).
    couple(uc_, dc_base, n, drh_base);
    for (int b = 0; b < n; ++b) {
      const int row = offsets[b] + t;
      const float* h_prev = at(hp_rows, row);
      const float* r = cache.r.Row(row);
      const float* drb = at(drh_base, b);
      float* dnb = at(dn_base, b);
      float* dr_pre = at(dr_base, b);
      for (int k = 0; k < h_dim; ++k) {
        const float drk = drb[k] * h_prev[k];
        dnb[k] += drb[k] * r[k];
        dr_pre[k] = drk * r[k] * (1.0f - r[k]);
      }
    }

    // Gate branches: the recurrent coupling into dL/dh_{t-1}.
    couple(uz_, dz_base, n, tmp_base);
    for (int b = 0; b < n; ++b) {
      const float* tb = at(tmp_base, b);
      float* dnb = at(dn_base, b);
      for (int k = 0; k < h_dim; ++k) dnb[k] += tb[k];
    }
    couple(ur_, dr_base, n, tmp_base);
    for (int b = 0; b < n; ++b) {
      const float* tb = at(tmp_base, b);
      float* dnb = at(dn_base, b);
      for (int k = 0; k < h_dim; ++k) dnb[k] += tb[k];
    }

    for (int b = 0; b < n; ++b) {
      const int row = offsets[b] + t;
      std::copy(at(dz_base, b), at(dz_base, b) + h_dim, at(dz_rows, row));
      std::copy(at(dr_base, b), at(dr_base, b) + h_dim, at(dr_rows, row));
      std::copy(at(dc_base, b), at(dc_base, b) + h_dim, at(dc_rows, row));
    }
  }

  if (grad_x != nullptr) {
    // dX = dZ Wz + dR Wr + dC Wc.
    util::Gemm(1.0f, grads->dz, util::Trans::kNo, wz_.value, util::Trans::kNo,
               0.0f, grad_x);
    util::Gemm(1.0f, grads->dr, util::Trans::kNo, wr_.value, util::Trans::kNo,
               1.0f, grad_x);
    util::Gemm(1.0f, grads->dc, util::Trans::kNo, wc_.value, util::Trans::kNo,
               1.0f, grad_x);
  }
}

void Gru::AccumulateGrads(const util::Matrix& x, const Grads& grads, int row,
                          int rows) {
  const int h_dim = hidden_dim();
  const int i_dim = in_dim();
  // dP += D[row, row + rows)^T * B[row, row + rows), in place (beta = 1).
  const auto add = [&](const util::Matrix& d, const util::Matrix& b, int ld,
                       Parameter* p) {
    util::GemmRaw(h_dim, ld, rows, 1.0f, d.Row(row), h_dim, util::Trans::kYes,
                  b.Row(row), ld, util::Trans::kNo, 1.0f, p->grad.data(), ld);
  };
  add(grads.dz, x, i_dim, &wz_);
  add(grads.dz, grads.h_prev, h_dim, &uz_);
  add(grads.dr, x, i_dim, &wr_);
  add(grads.dr, grads.h_prev, h_dim, &ur_);
  add(grads.dc, x, i_dim, &wc_);
  add(grads.dc, grads.rh, h_dim, &uc_);
  float* gbz = bz_.grad.Row(0);
  float* gbr = br_.grad.Row(0);
  float* gbc = bc_.grad.Row(0);
  for (int t = row; t < row + rows; ++t) {
    const float* dz = grads.dz.Row(t);
    const float* dr = grads.dr.Row(t);
    const float* dc = grads.dc.Row(t);
    for (int k = 0; k < h_dim; ++k) {
      gbz[k] += dz[k];
      gbr[k] += dr[k];
      gbc[k] += dc[k];
    }
  }
}

void Gru::Backward(const util::Matrix& x, const Cache& cache,
                   const util::Matrix& grad_h, util::Matrix* grad_x) {
  thread_local Grads grads;
  Backward(x, {x.rows()}, cache, grad_h, &grads, grad_x);
  AccumulateGrads(x, grads, 0, x.rows());
}

}  // namespace lncl::nn
