#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace lncl::util {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) {
  const size_t n = xs.size();
  if (n < 2) return 0.0;
  const double m = Mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(n - 1));
}

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

BoxplotSummary Summarize(const std::vector<double>& xs) {
  BoxplotSummary s;
  s.n = static_cast<int>(xs.size());
  if (xs.empty()) return s;
  s.min = *std::min_element(xs.begin(), xs.end());
  s.max = *std::max_element(xs.begin(), xs.end());
  s.q1 = Quantile(xs, 0.25);
  s.median = Quantile(xs, 0.5);
  s.q3 = Quantile(xs, 0.75);
  s.mean = Mean(xs);
  return s;
}

double LogGamma(double x) {
  // Lanczos approximation, g = 7, n = 9.
  static const double kCoef[9] = {
      0.99999999999980993,  676.5203681218851,   -1259.1392167224028,
      771.32342877765313,   -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
  if (x < 0.5) {
    // Reflection formula.
    return std::log(M_PI / std::sin(M_PI * x)) - LogGamma(1.0 - x);
  }
  x -= 1.0;
  double a = kCoef[0];
  const double t = x + 7.5;
  for (int i = 1; i < 9; ++i) a += kCoef[i] / (x + static_cast<double>(i));
  return 0.5 * std::log(2.0 * M_PI) + (x + 0.5) * std::log(t) - t + std::log(a);
}

double NormalQuantile(double p) {
  // Acklam's algorithm.
  static const double a[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                              -2.759285104469687e+02, 1.383577518672690e+02,
                              -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                              -1.556989798598866e+02, 6.680131188771972e+01,
                              -1.328068155288572e+01};
  static const double c[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                              -2.400758277161838e+00, -2.549732539343734e+00,
                              4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                              2.445134137142996e+00, 3.754408661907416e+00};
  p = std::clamp(p, 1e-15, 1.0 - 1e-15);
  const double p_low = 0.02425;
  double q, r;
  if (p < p_low) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - p_low) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

double ChiSquaredQuantile(double p, double df) {
  if (df <= 0.0) return 0.0;
  const double z = NormalQuantile(p);
  const double t = 2.0 / (9.0 * df);
  const double cube = 1.0 - t + z * std::sqrt(t);
  return df * cube * cube * cube;
}

namespace {

// Continued fraction for the incomplete beta function (Numerical-Recipes
// style modified Lentz algorithm).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-14;
  constexpr double kFpMin = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double RegularizedIncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = LogGamma(a + b) - LogGamma(a) - LogGamma(b) +
                          a * std::log(x) + b * std::log(1.0 - x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double StudentTCdf(double t, double df) {
  if (df <= 0.0) return 0.5;
  const double x = df / (df + t * t);
  const double p = 0.5 * RegularizedIncompleteBeta(df / 2.0, 0.5, x);
  return t > 0.0 ? 1.0 - p : p;
}

TTestResult WelchTTest(const std::vector<double>& a,
                       const std::vector<double>& b) {
  TTestResult r;
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  if (a.size() < 2 || b.size() < 2) return r;
  r.defined = true;
  const double ma = Mean(a);
  const double mb = Mean(b);
  const double va = StdDev(a) * StdDev(a);
  const double vb = StdDev(b) * StdDev(b);
  const double se2 = va / na + vb / nb;
  if (se2 <= 0.0) {
    r.t = (ma > mb) ? 1e9 : (ma < mb ? -1e9 : 0.0);
    r.df = na + nb - 2.0;
    r.p_one_sided = ma > mb ? 0.0 : 1.0;
    r.p_two_sided = ma == mb ? 1.0 : 0.0;
    return r;
  }
  r.t = (ma - mb) / std::sqrt(se2);
  const double num = se2 * se2;
  const double den = (va / na) * (va / na) / (na - 1.0) +
                     (vb / nb) * (vb / nb) / (nb - 1.0);
  r.df = den > 0.0 ? num / den : na + nb - 2.0;
  r.p_one_sided = 1.0 - StudentTCdf(r.t, r.df);
  const double tail = 1.0 - StudentTCdf(std::fabs(r.t), r.df);
  r.p_two_sided = 2.0 * tail;
  return r;
}

}  // namespace lncl::util
