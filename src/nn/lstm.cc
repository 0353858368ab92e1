#include "nn/lstm.h"

#include <algorithm>

#include "nn/activations.h"
#include "nn/lanes.h"
#include "util/check.h"
#include "util/gemm_kernel.h"
#include "util/workspace.h"

namespace lncl::nn {

Lstm::Lstm(const std::string& name, int in_dim, int hidden_dim,
           util::Rng* rng)
    : wi_(name + ".wi", hidden_dim, in_dim),
      ui_(name + ".ui", hidden_dim, hidden_dim),
      bi_(name + ".bi", 1, hidden_dim),
      wf_(name + ".wf", hidden_dim, in_dim),
      uf_(name + ".uf", hidden_dim, hidden_dim),
      bf_(name + ".bf", 1, hidden_dim),
      wo_(name + ".wo", hidden_dim, in_dim),
      uo_(name + ".uo", hidden_dim, hidden_dim),
      bo_(name + ".bo", 1, hidden_dim),
      wg_(name + ".wg", hidden_dim, in_dim),
      ug_(name + ".ug", hidden_dim, hidden_dim),
      bg_(name + ".bg", 1, hidden_dim) {
  GlorotInit(rng, &wi_.value);
  GlorotInit(rng, &ui_.value);
  GlorotInit(rng, &wf_.value);
  GlorotInit(rng, &uf_.value);
  GlorotInit(rng, &wo_.value);
  GlorotInit(rng, &uo_.value);
  GlorotInit(rng, &wg_.value);
  GlorotInit(rng, &ug_.value);
  // Forget-gate bias at +1 keeps early memories alive.
  for (int k = 0; k < hidden_dim; ++k) bf_.value(0, k) = 1.0f;
}

// The gate products follow nn::Gru (see gru.cc): one input-side GEMM per
// gate over all rows with the bias fused, one [n_t, H] recurrent GEMM per
// gate and step against a pack-cache panel, and one [n_t, H] x U GEMM per
// gate and step in the backward's recurrent coupling — so any batch, and any
// split of it into lane groups, is byte-for-byte the one-lane computation.

void Lstm::Forward(const util::Matrix& x, const std::vector<int>& lengths,
                   Cache* cache, util::Matrix* h_out) const {
  const std::vector<int> offsets = LaneOffsets(lengths);
  const int rows = offsets.back();
  const int lanes = static_cast<int>(lengths.size());
  const int h_dim = hidden_dim();
  LNCL_DCHECK(x.rows() == rows);
  // An inference forward keeps its gates in per-thread scratch.
  thread_local Cache tls_gates;
  Cache* s = cache != nullptr ? cache : &tls_gates;
  util::Matrix* h = cache != nullptr ? &cache->h : h_out;
  h->ResizeNoZero(rows, h_dim);
  s->c.ResizeNoZero(rows, h_dim);
  s->i.ResizeNoZero(rows, h_dim);
  s->f.ResizeNoZero(rows, h_dim);
  s->o.ResizeNoZero(rows, h_dim);
  s->g.ResizeNoZero(rows, h_dim);

  if (rows > 0) {
    LNCL_DCHECK(x.cols() == in_dim());
    util::WorkspaceScope scope;
    util::Matrix& gx_i = scope.NewMatrix();
    util::Matrix& gx_f = scope.NewMatrix();
    util::Matrix& gx_o = scope.NewMatrix();
    util::Matrix& gx_g = scope.NewMatrix();
    util::GemmEx(1.0f, x, util::Trans::kNo, wi_.value, util::Trans::kYes,
                 0.0f, &gx_i, bi_.value.Row(0), util::Act::kNone);
    util::GemmEx(1.0f, x, util::Trans::kNo, wf_.value, util::Trans::kYes,
                 0.0f, &gx_f, bf_.value.Row(0), util::Act::kNone);
    util::GemmEx(1.0f, x, util::Trans::kNo, wo_.value, util::Trans::kYes,
                 0.0f, &gx_o, bo_.value.Row(0), util::Act::kNone);
    util::GemmEx(1.0f, x, util::Trans::kNo, wg_.value, util::Trans::kYes,
                 0.0f, &gx_g, bg_.value.Row(0), util::Act::kNone);

    // Recurrent panels hoisted out of the step loop (the loop issues only
    // non-packing kernel calls, so the pointers stay valid).
    int ldu = 0;
    const float* uip =
        util::gemm::PackedOpB(ui_.value, util::Trans::kYes, &ldu);
    const float* ufp =
        util::gemm::PackedOpB(uf_.value, util::Trans::kYes, &ldu);
    const float* uop =
        util::gemm::PackedOpB(uo_.value, util::Trans::kYes, &ldu);
    const float* ugp =
        util::gemm::PackedOpB(ug_.value, util::Trans::kYes, &ldu);

    util::Matrix& h_prev = scope.NewMatrix(lanes, h_dim);
    util::Matrix& c_prev = scope.NewMatrix(lanes, h_dim);
    h_prev.Fill(0.0f);  // zero initial states
    c_prev.Fill(0.0f);
    util::Matrix& tmp = scope.NewMatrix(lanes, h_dim);
    float* const hp_base = h_prev.data();
    float* const cp_base = c_prev.data();
    float* const tmp_base = tmp.data();
    const auto at = [h_dim](float* base, int row) {
      return base + static_cast<size_t>(row) * h_dim;
    };
    int n = lanes;  // lanes still running: a prefix of the batch
    const auto gate = [&](const float* u, const util::Matrix& gx,
                          util::Matrix* out, bool tanh_act, int t) {
      util::gemm::GemmEx(n, h_dim, h_dim, 1.0f, hp_base, h_dim,
                         util::Trans::kNo, u, ldu, util::Trans::kNo, 0.0f,
                         tmp_base, h_dim, nullptr, util::Act::kNone);
      float* const out_base = out->data();
      for (int b = 0; b < n; ++b) {
        const float* gxr = gx.Row(offsets[b] + t);
        const float* tb = at(tmp_base, b);
        float* o = at(out_base, offsets[b] + t);
        if (tanh_act) {
          for (int k = 0; k < h_dim; ++k) o[k] = Tanh(gxr[k] + tb[k]);
        } else {
          for (int k = 0; k < h_dim; ++k) o[k] = Sigmoid(gxr[k] + tb[k]);
        }
      }
    };
    for (int t = 0; t < lengths[0]; ++t) {
      while (lengths[n - 1] <= t) --n;
      gate(uip, gx_i, &s->i, false, t);
      gate(ufp, gx_f, &s->f, false, t);
      gate(uop, gx_o, &s->o, false, t);
      gate(ugp, gx_g, &s->g, true, t);
      for (int b = 0; b < n; ++b) {
        const int row = offsets[b] + t;
        const float* i = s->i.Row(row);
        const float* f = s->f.Row(row);
        const float* o = s->o.Row(row);
        const float* g = s->g.Row(row);
        float* c = s->c.Row(row);
        float* hr = h->Row(row);
        float* cp = at(cp_base, b);
        float* hp = at(hp_base, b);
        // Separate short loops: each vectorizes, where one fused loop over
        // eight streams exceeds the compiler's runtime alias-check budget.
        for (int k = 0; k < h_dim; ++k) c[k] = f[k] * cp[k] + i[k] * g[k];
        for (int k = 0; k < h_dim; ++k) hr[k] = o[k] * Tanh(c[k]);
        std::copy(c, c + h_dim, cp);
        std::copy(hr, hr + h_dim, hp);
      }
    }
  }
  if (cache != nullptr && h_out != &cache->h) *h_out = cache->h;
}

void Lstm::Backward(const util::Matrix& x, const std::vector<int>& lengths,
                    const Cache& cache, const util::Matrix& grad_h,
                    Grads* grads, util::Matrix* grad_x) const {
  const std::vector<int> offsets = LaneOffsets(lengths);
  const int rows = offsets.back();
  const int lanes = static_cast<int>(lengths.size());
  const int h_dim = hidden_dim();
  LNCL_DCHECK(x.rows() == rows && cache.h.rows() == rows);
  LNCL_DCHECK(grad_h.rows() == rows && grad_h.cols() == h_dim);
  (void)x;
  util::Matrix* const d_rows[] = {&grads->di, &grads->df, &grads->d_o,
                                  &grads->dg};
  for (util::Matrix* d : d_rows) d->ResizeNoZero(rows, h_dim);
  grads->h_prev.ResizeNoZero(rows, h_dim);

  util::WorkspaceScope scope;
  util::Matrix& dh_next = scope.NewMatrix(lanes, h_dim);
  util::Matrix& dc_next = scope.NewMatrix(lanes, h_dim);
  dh_next.Fill(0.0f);
  dc_next.Fill(0.0f);
  util::Matrix& tmp = scope.NewMatrix(lanes, h_dim);
  float* const dn_base = dh_next.data();
  float* const dcn_base = dc_next.data();
  float* const tmp_base = tmp.data();
  float* d_step[4];  // per-gate [n_t, H] operands of the coupling GEMMs
  for (float*& d : d_step) d = scope.NewMatrix(lanes, h_dim).data();
  float* const hp_rows = grads->h_prev.data();
  const auto at = [h_dim](float* base, int row) {
    return base + static_cast<size_t>(row) * h_dim;
  };
  const Parameter* const us[] = {&ui_, &uf_, &uo_, &ug_};
  util::Vector c_prev(h_dim), tanh_c(h_dim);

  int n = 0;  // lanes running at step t: grows as t falls
  for (int t = (lanes > 0 ? lengths[0] : 0) - 1; t >= 0; --t) {
    while (n < lanes && lengths[n] > t) ++n;
    for (int b = 0; b < n; ++b) {
      const int row = offsets[b] + t;
      float* h_prev = at(hp_rows, row);
      if (t > 0) {
        std::copy(cache.h.Row(row - 1), cache.h.Row(row - 1) + h_dim, h_prev);
        std::copy(cache.c.Row(row - 1), cache.c.Row(row - 1) + h_dim,
                  c_prev.begin());
      } else {
        std::fill(h_prev, h_prev + h_dim, 0.0f);
        std::fill(c_prev.begin(), c_prev.end(), 0.0f);
      }
      const float* i = cache.i.Row(row);
      const float* f = cache.f.Row(row);
      const float* o = cache.o.Row(row);
      const float* g = cache.g.Row(row);
      const float* c = cache.c.Row(row);
      const float* gh = grad_h.Row(row);
      float* dnb = at(dn_base, b);
      float* dcnb = at(dcn_base, b);
      float* di_pre = at(d_step[0], b);
      float* df_pre = at(d_step[1], b);
      float* do_pre = at(d_step[2], b);
      float* dg_pre = at(d_step[3], b);
      // tanh(c_t), recomputed exactly as Forward computed it, in its own
      // (vectorized) loop.
      for (int k = 0; k < h_dim; ++k) tanh_c[k] = Tanh(c[k]);
      for (int k = 0; k < h_dim; ++k) {
        const float dh = gh[k] + dnb[k];
        const float dok = dh * tanh_c[k];
        const float dc =
            dh * o[k] * (1.0f - tanh_c[k] * tanh_c[k]) + dcnb[k];
        const float dfk = dc * c_prev[k];
        const float dik = dc * g[k];
        const float dgk = dc * i[k];
        dcnb[k] = dc * f[k];
        di_pre[k] = dik * i[k] * (1.0f - i[k]);
        df_pre[k] = dfk * f[k] * (1.0f - f[k]);
        do_pre[k] = dok * o[k] * (1.0f - o[k]);
        dg_pre[k] = dgk * (1.0f - g[k] * g[k]);
      }
      std::fill(dnb, dnb + h_dim, 0.0f);
    }

    // Recurrent coupling into dL/dh_{t-1}: dh_next = sum_g U_g^T d_pre_g;
    // row b of D_g * U_g is MatVecTrans(U_g, d_pre_g) of lane b.
    for (int gi = 0; gi < 4; ++gi) {
      util::gemm::GemmEx(n, h_dim, h_dim, 1.0f, d_step[gi], h_dim,
                         util::Trans::kNo, us[gi]->value.data(), h_dim,
                         util::Trans::kNo, 0.0f, tmp_base, h_dim, nullptr,
                         util::Act::kNone);
      for (int b = 0; b < n; ++b) {
        const float* tb = at(tmp_base, b);
        float* dnb = at(dn_base, b);
        for (int k = 0; k < h_dim; ++k) dnb[k] += tb[k];
      }
    }

    for (int gi = 0; gi < 4; ++gi) {
      float* const dst = d_rows[gi]->data();
      for (int b = 0; b < n; ++b) {
        std::copy(at(d_step[gi], b), at(d_step[gi], b) + h_dim,
                  at(dst, offsets[b] + t));
      }
    }
  }

  if (grad_x != nullptr) {
    const Parameter* const ws[] = {&wi_, &wf_, &wo_, &wg_};
    for (int gi = 0; gi < 4; ++gi) {
      util::Gemm(1.0f, *d_rows[gi], util::Trans::kNo, ws[gi]->value,
                 util::Trans::kNo, gi == 0 ? 0.0f : 1.0f, grad_x);
    }
  }
}

void Lstm::AccumulateGrads(const util::Matrix& x, const Grads& grads, int row,
                           int rows) {
  const int h_dim = hidden_dim();
  const int i_dim = in_dim();
  const struct {
    Parameter* w;
    Parameter* u;
    Parameter* b;
    const util::Matrix* d_pre;
  } gates[] = {{&wi_, &ui_, &bi_, &grads.di},
               {&wf_, &uf_, &bf_, &grads.df},
               {&wo_, &uo_, &bo_, &grads.d_o},
               {&wg_, &ug_, &bg_, &grads.dg}};
  for (const auto& gg : gates) {
    const float* d = gg.d_pre->Row(row);
    util::GemmRaw(h_dim, i_dim, rows, 1.0f, d, h_dim, util::Trans::kYes,
                  x.Row(row), i_dim, util::Trans::kNo, 1.0f,
                  gg.w->grad.data(), i_dim);
    util::GemmRaw(h_dim, h_dim, rows, 1.0f, d, h_dim, util::Trans::kYes,
                  grads.h_prev.Row(row), h_dim, util::Trans::kNo, 1.0f,
                  gg.u->grad.data(), h_dim);
    float* gb = gg.b->grad.Row(0);
    for (int t = row; t < row + rows; ++t) {
      const float* dp = gg.d_pre->Row(t);
      for (int k = 0; k < h_dim; ++k) gb[k] += dp[k];
    }
  }
}

void Lstm::Backward(const util::Matrix& x, const Cache& cache,
                    const util::Matrix& grad_h, util::Matrix* grad_x) {
  thread_local Grads grads;
  Backward(x, {x.rows()}, cache, grad_h, &grads, grad_x);
  AccumulateGrads(x, grads, 0, x.rows());
}

}  // namespace lncl::nn
