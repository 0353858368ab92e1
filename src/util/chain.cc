#include "util/chain.h"
#include "util/check.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace lncl::util {


namespace {
// alpha, beta (T x K each), a K-vector, a K x K block and the transition
// matrix in double, row-major and transposed, in one buffer per thread: the
// smoother runs once per sentence in every E-step and projection, and from
// several slots at once.
thread_local std::vector<double> tls_chain_scratch;
}  // namespace

// Every sum below adds the same double terms in the same order as the
// textbook per-element loops (sum over a of alpha * trans, over b of
// trans * emission * beta), so results are reproducible bit for bit; the
// loops are only arranged so the independent outputs sit in the inner loop
// and vectorize.
void ChainForwardBackward(const Vector& prior,
                          const Matrix& transition,
                          const Matrix& emission, Matrix* gamma,
                          Matrix* xi_sum) {
  const int t_len = emission.rows();
  const int k = emission.cols();
  LNCL_DCHECK(static_cast<int>(prior.size()) == k);
  LNCL_DCHECK(transition.rows() == k && transition.cols() == k);
  gamma->Resize(t_len, k);
  if (t_len == 0) return;

  auto normalize = [k](double* v) {
    double sum = 0.0;
    for (int m = 0; m < k; ++m) sum += v[m];
    if (sum <= 1e-300) {
      for (int m = 0; m < k; ++m) v[m] = 1.0 / k;
    } else {
      for (int m = 0; m < k; ++m) v[m] /= sum;
    }
  };

  const size_t tk = static_cast<size_t>(t_len) * k;
  const size_t kk = static_cast<size_t>(k) * k;
  tls_chain_scratch.resize(2 * tk + k + 3 * kk);
  double* const alpha = tls_chain_scratch.data();  // row t at alpha + t * k
  double* const beta = alpha + tk;
  double* const g = beta + tk;
  double* const xi = g + k;
  double* const trans = xi + kk;        // trans[a * k + b] = transition(a, b)
  double* const trans_t = trans + kk;   // trans_t[b * k + a] = transition(a, b)
  auto row = [k](double* base, int t) {
    return base + static_cast<size_t>(t) * k;
  };
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      trans[a * k + b] = trans_t[b * k + a] = transition(a, b);
    }
  }

  for (int m = 0; m < k; ++m) alpha[m] = prior[m] * emission(0, m);
  normalize(alpha);
  for (int t = 1; t < t_len; ++t) {
    const double* prev = row(alpha, t - 1);
    double* cur = row(alpha, t);
    std::fill_n(cur, k, 0.0);
    for (int a = 0; a < k; ++a) {
      const double pa = prev[a];
      const double* tr = trans + a * k;
      for (int b = 0; b < k; ++b) cur[b] += pa * tr[b];
    }
    const float* em = emission.Row(t);
    for (int b = 0; b < k; ++b) cur[b] *= em[b];
    normalize(cur);
  }
  std::fill_n(row(beta, t_len - 1), k, 1.0);
  for (int t = t_len - 2; t >= 0; --t) {
    const double* next = row(beta, t + 1);
    const float* em = emission.Row(t + 1);
    double* cur = row(beta, t);
    std::fill_n(cur, k, 0.0);
    for (int b = 0; b < k; ++b) {
      const float e = em[b];
      const double nb = next[b];
      const double* tr = trans_t + b * k;
      // transition * emission is a float product, widened for * beta.
      for (int a = 0; a < k; ++a) cur[a] += static_cast<float>(tr[a]) * e * nb;
    }
    normalize(cur);
  }

  for (int t = 0; t < t_len; ++t) {
    const double* al = row(alpha, t);
    const double* be = row(beta, t);
    for (int m = 0; m < k; ++m) g[m] = al[m] * be[m];
    normalize(g);
    float* out = gamma->Row(t);
    for (int m = 0; m < k; ++m) out[m] = static_cast<float>(g[m]);
  }

  if (xi_sum != nullptr) {
    LNCL_DCHECK(xi_sum->rows() == k && xi_sum->cols() == k);
    for (int t = 0; t + 1 < t_len; ++t) {
      const double* al = row(alpha, t);
      const double* be = row(beta, t + 1);
      const float* em = emission.Row(t + 1);
      for (int a = 0; a < k; ++a) {
        const double* tr = trans + a * k;
        double* x = xi + a * k;
        for (int b = 0; b < k; ++b) x[b] = al[a] * tr[b] * em[b] * be[b];
      }
      double total = 0.0;
      for (size_t i = 0; i < kk; ++i) total += xi[i];
      if (total <= 1e-300) continue;
      for (int a = 0; a < k; ++a) {
        const double* x = xi + a * k;
        float* out = xi_sum->Row(a);
        for (int b = 0; b < k; ++b) out[b] += static_cast<float>(x[b] / total);
      }
    }
  }
}


void ChainViterbi(const Vector& prior, const Matrix& transition,
                  const Matrix& emission, std::vector<int>* path) {
  const int t_len = emission.rows();
  const int k = emission.cols();
  path->assign(t_len, 0);
  if (t_len == 0) return;
  auto safe_log = [](double v) { return std::log(std::max(v, 1e-300)); };
  std::vector<std::vector<double>> delta(t_len, std::vector<double>(k));
  std::vector<std::vector<int>> back(t_len, std::vector<int>(k, 0));
  for (int m = 0; m < k; ++m) {
    delta[0][m] = safe_log(prior[m]) + safe_log(emission(0, m));
  }
  for (int t = 1; t < t_len; ++t) {
    for (int b = 0; b < k; ++b) {
      double best = -1e300;
      int arg = 0;
      for (int a = 0; a < k; ++a) {
        const double v = delta[t - 1][a] + safe_log(transition(a, b));
        if (v > best) {
          best = v;
          arg = a;
        }
      }
      delta[t][b] = best + safe_log(emission(t, b));
      back[t][b] = arg;
    }
  }
  int cur = 0;
  double best = -1e300;
  for (int m = 0; m < k; ++m) {
    if (delta[t_len - 1][m] > best) {
      best = delta[t_len - 1][m];
      cur = m;
    }
  }
  for (int t = t_len - 1; t >= 0; --t) {
    (*path)[t] = cur;
    cur = back[t][cur];
  }
}

}  // namespace lncl::util
