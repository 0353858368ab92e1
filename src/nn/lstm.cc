#include "nn/lstm.h"

#include "nn/activations.h"
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

namespace {

// Per-thread scratch (see gru.cc for the rationale).
thread_local util::Matrix tls_gxi, tls_gxf, tls_gxo, tls_gxg;
thread_local util::Matrix tls_di, tls_df, tls_do, tls_dg, tls_hprev;

}  // namespace

void Lstm::Forward(const util::Matrix& x, Cache* cache,
                   util::Matrix* h_out) const {
  LNCL_DCHECK(x.cols() == in_dim());
  const int t_len = x.rows();
  const int h_dim = hidden_dim();
  cache->h.ResizeNoZero(t_len, h_dim);
  cache->c.ResizeNoZero(t_len, h_dim);
  cache->i.ResizeNoZero(t_len, h_dim);
  cache->f.ResizeNoZero(t_len, h_dim);
  cache->o.ResizeNoZero(t_len, h_dim);
  cache->g.ResizeNoZero(t_len, h_dim);

  // Every gate product runs in the NN kernel form against k-major weight
  // panels from the per-thread pack cache, with the input-side gate biases
  // fused into the GEMM epilogue; see gru.cc for the vectorization,
  // repack-once-per-step, and bit-identity rationale.
  util::GemmEx(1.0f, x, util::Trans::kNo, wi_.value, util::Trans::kYes, 0.0f,
               &tls_gxi, bi_.value.Row(0), util::Act::kNone);
  util::GemmEx(1.0f, x, util::Trans::kNo, wf_.value, util::Trans::kYes, 0.0f,
               &tls_gxf, bf_.value.Row(0), util::Act::kNone);
  util::GemmEx(1.0f, x, util::Trans::kNo, wo_.value, util::Trans::kYes, 0.0f,
               &tls_gxo, bo_.value.Row(0), util::Act::kNone);
  util::GemmEx(1.0f, x, util::Trans::kNo, wg_.value, util::Trans::kYes, 0.0f,
               &tls_gxg, bg_.value.Row(0), util::Act::kNone);

  // Recurrent panels hoisted out of the step loop (the loop issues only
  // non-packing kernel calls, so the pointers stay valid).
  int ldu = 0;
  const float* uip = util::gemm::PackedOpB(ui_.value, util::Trans::kYes, &ldu);
  const float* ufp = util::gemm::PackedOpB(uf_.value, util::Trans::kYes, &ldu);
  const float* uop = util::gemm::PackedOpB(uo_.value, util::Trans::kYes, &ldu);
  const float* ugp = util::gemm::PackedOpB(ug_.value, util::Trans::kYes, &ldu);

  util::Vector h_prev(h_dim, 0.0f), c_prev(h_dim, 0.0f);
  util::Vector b(h_dim);
  auto gate = [&](const float* u, const float* gx, float* out,
                  bool tanh_act) {
    util::gemm::GemmEx(1, h_dim, h_dim, 1.0f, h_prev.data(), h_dim,
                       util::Trans::kNo, u, h_dim, util::Trans::kNo, 0.0f,
                       b.data(), h_dim, nullptr, util::Act::kNone);
    if (tanh_act) {
      for (int k = 0; k < h_dim; ++k) out[k] = Tanh(gx[k] + b[k]);
    } else {
      for (int k = 0; k < h_dim; ++k) out[k] = Sigmoid(gx[k] + b[k]);
    }
  };
  for (int t = 0; t < t_len; ++t) {
    float* i = cache->i.Row(t);
    float* f = cache->f.Row(t);
    float* o = cache->o.Row(t);
    float* g = cache->g.Row(t);
    float* c = cache->c.Row(t);
    float* h = cache->h.Row(t);
    gate(uip, tls_gxi.Row(t), i, false);
    gate(ufp, tls_gxf.Row(t), f, false);
    gate(uop, tls_gxo.Row(t), o, false);
    gate(ugp, tls_gxg.Row(t), g, true);
    // Separate short loops: each vectorizes, where one fused loop over
    // eight streams exceeds the compiler's runtime alias-check budget.
    for (int k = 0; k < h_dim; ++k) c[k] = f[k] * c_prev[k] + i[k] * g[k];
    for (int k = 0; k < h_dim; ++k) h[k] = o[k] * Tanh(c[k]);
    std::copy(c, c + h_dim, c_prev.begin());
    std::copy(h, h + h_dim, h_prev.begin());
  }
  *h_out = cache->h;
}

void Lstm::ForwardPacked(const util::Matrix& x_packed, int batch, int t_len,
                         util::Matrix* h_packed) const {
  LNCL_DCHECK(x_packed.rows() == batch * t_len);
  LNCL_DCHECK(t_len == 0 || x_packed.cols() == in_dim());
  const int h_dim = hidden_dim();
  h_packed->ResizeNoZero(batch * t_len, h_dim);
  if (batch == 0 || t_len == 0) return;

  util::WorkspaceScope scope;
  util::Matrix& gx_i = scope.NewMatrix();
  util::Matrix& gx_f = scope.NewMatrix();
  util::Matrix& gx_o = scope.NewMatrix();
  util::Matrix& gx_g = scope.NewMatrix();
  util::GemmEx(1.0f, x_packed, util::Trans::kNo, wi_.value, util::Trans::kYes,
               0.0f, &gx_i, bi_.value.Row(0), util::Act::kNone);
  util::GemmEx(1.0f, x_packed, util::Trans::kNo, wf_.value, util::Trans::kYes,
               0.0f, &gx_f, bf_.value.Row(0), util::Act::kNone);
  util::GemmEx(1.0f, x_packed, util::Trans::kNo, wo_.value, util::Trans::kYes,
               0.0f, &gx_o, bo_.value.Row(0), util::Act::kNone);
  util::GemmEx(1.0f, x_packed, util::Trans::kNo, wg_.value, util::Trans::kYes,
               0.0f, &gx_g, bg_.value.Row(0), util::Act::kNone);

  util::Matrix& h_prev = scope.NewMatrix();
  util::Matrix& c_prev = scope.NewMatrix();
  h_prev.Resize(batch, h_dim);  // zero initial states, as in Forward
  c_prev.Resize(batch, h_dim);
  util::Matrix& is = scope.NewMatrix(batch, h_dim);
  util::Matrix& fs = scope.NewMatrix(batch, h_dim);
  util::Matrix& os = scope.NewMatrix(batch, h_dim);
  util::Matrix& gs = scope.NewMatrix(batch, h_dim);
  util::Matrix& tmp = scope.NewMatrix();
  // Row b of H_prev * Uᵀ is exactly Forward's one-row recurrent product
  // (same pack-cache panel); the elementwise gate expression is Forward's,
  // verbatim.
  auto gate = [&](const Parameter& u, const util::Matrix& gx,
                  util::Matrix* out, bool tanh_act, int t) {
    util::Gemm(1.0f, h_prev, util::Trans::kNo, u.value, util::Trans::kYes,
               0.0f, &tmp);
    for (int b = 0; b < batch; ++b) {
      const float* gxr = gx.Row(b * t_len + t);
      const float* tb = tmp.Row(b);
      float* o = out->Row(b);
      if (tanh_act) {
        for (int k = 0; k < h_dim; ++k) o[k] = Tanh(gxr[k] + tb[k]);
      } else {
        for (int k = 0; k < h_dim; ++k) o[k] = Sigmoid(gxr[k] + tb[k]);
      }
    }
  };
  for (int t = 0; t < t_len; ++t) {
    gate(ui_, gx_i, &is, false, t);
    gate(uf_, gx_f, &fs, false, t);
    gate(uo_, gx_o, &os, false, t);
    gate(ug_, gx_g, &gs, true, t);
    for (int b = 0; b < batch; ++b) {
      const float* i = is.Row(b);
      const float* f = fs.Row(b);
      const float* o = os.Row(b);
      const float* g = gs.Row(b);
      float* cp = c_prev.Row(b);
      float* hp = h_prev.Row(b);
      float* h = h_packed->Row(b * t_len + t);
      for (int k = 0; k < h_dim; ++k) cp[k] = f[k] * cp[k] + i[k] * g[k];
      for (int k = 0; k < h_dim; ++k) h[k] = o[k] * Tanh(cp[k]);
      std::copy(h, h + h_dim, hp);
    }
  }
}

void Lstm::Backward(const util::Matrix& x, const Cache& cache,
                    const util::Matrix& grad_h, util::Matrix* grad_x) {
  const int t_len = x.rows();
  const int h_dim = hidden_dim();
  LNCL_DCHECK(grad_h.rows() == t_len && grad_h.cols() == h_dim);

  tls_di.ResizeNoZero(t_len, h_dim);
  tls_df.ResizeNoZero(t_len, h_dim);
  tls_do.ResizeNoZero(t_len, h_dim);
  tls_dg.ResizeNoZero(t_len, h_dim);
  tls_hprev.ResizeNoZero(t_len, h_dim);

  util::Vector dh_next(h_dim, 0.0f), dc_next(h_dim, 0.0f);
  util::Vector d_pre(h_dim), c_prev(h_dim), tanh_c(h_dim), tmp;
  for (int t = t_len - 1; t >= 0; --t) {
    float* h_prev = tls_hprev.Row(t);
    if (t > 0) {
      std::copy(cache.h.Row(t - 1), cache.h.Row(t - 1) + h_dim, h_prev);
      std::copy(cache.c.Row(t - 1), cache.c.Row(t - 1) + h_dim,
                c_prev.begin());
    } else {
      std::fill(h_prev, h_prev + h_dim, 0.0f);
      std::fill(c_prev.begin(), c_prev.end(), 0.0f);
    }
    const float* i = cache.i.Row(t);
    const float* f = cache.f.Row(t);
    const float* o = cache.o.Row(t);
    const float* g = cache.g.Row(t);
    const float* c = cache.c.Row(t);
    const float* gh = grad_h.Row(t);

    float* di_pre = tls_di.Row(t);
    float* df_pre = tls_df.Row(t);
    float* do_pre = tls_do.Row(t);
    float* dg_pre = tls_dg.Row(t);
    // tanh(c_t), recomputed exactly as Forward computed it, in its own
    // (vectorized) loop.
    for (int k = 0; k < h_dim; ++k) tanh_c[k] = Tanh(c[k]);
    for (int k = 0; k < h_dim; ++k) {
      const float dh = gh[k] + dh_next[k];
      const float dok = dh * tanh_c[k];
      const float dc =
          dh * o[k] * (1.0f - tanh_c[k] * tanh_c[k]) + dc_next[k];
      const float dfk = dc * c_prev[k];
      const float dik = dc * g[k];
      const float dgk = dc * i[k];
      dc_next[k] = dc * f[k];
      di_pre[k] = dik * i[k] * (1.0f - i[k]);
      df_pre[k] = dfk * f[k] * (1.0f - f[k]);
      do_pre[k] = dok * o[k] * (1.0f - o[k]);
      dg_pre[k] = dgk * (1.0f - g[k] * g[k]);
    }

    // Recurrent coupling into dL/dh_{t-1}: dh_next = sum_g U_g^T d_pre_g.
    std::fill(dh_next.begin(), dh_next.end(), 0.0f);
    const Parameter* const us[] = {&ui_, &uf_, &uo_, &ug_};
    const float* const d_pres[] = {di_pre, df_pre, do_pre, dg_pre};
    for (int gi = 0; gi < 4; ++gi) {
      d_pre.assign(d_pres[gi], d_pres[gi] + h_dim);
      util::MatVecTrans(us[gi]->value, d_pre, &tmp);
      for (int k = 0; k < h_dim; ++k) dh_next[k] += tmp[k];
    }
  }

  // Parameter and input gradients, batched over the whole sequence.
  const struct {
    Parameter* w;
    Parameter* u;
    Parameter* b;
    util::Matrix* d_pre;
  } gates[] = {{&wi_, &ui_, &bi_, &tls_di},
               {&wf_, &uf_, &bf_, &tls_df},
               {&wo_, &uo_, &bo_, &tls_do},
               {&wg_, &ug_, &bg_, &tls_dg}};
  bool first = true;
  for (const auto& gg : gates) {
    util::Gemm(1.0f, *gg.d_pre, util::Trans::kYes, x, util::Trans::kNo, 1.0f,
               &gg.w->grad);
    util::Gemm(1.0f, *gg.d_pre, util::Trans::kYes, tls_hprev,
               util::Trans::kNo, 1.0f, &gg.u->grad);
    float* gb = gg.b->grad.Row(0);
    for (int t = 0; t < t_len; ++t) {
      const float* dp = gg.d_pre->Row(t);
      for (int k = 0; k < h_dim; ++k) gb[k] += dp[k];
    }
    if (grad_x != nullptr) {
      util::Gemm(1.0f, *gg.d_pre, util::Trans::kNo, gg.w->value,
                 util::Trans::kNo, first ? 0.0f : 1.0f, grad_x);
      first = false;
    }
  }
}

}  // namespace lncl::nn
