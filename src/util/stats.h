#pragma once

#include <vector>

namespace lncl::util {

// Descriptive statistics over a sample of doubles.
double Mean(const std::vector<double>& xs);
// Sample standard deviation (Bessel-corrected). Returns 0 for n < 2.
double StdDev(const std::vector<double>& xs);
// Linear-interpolated quantile, q in [0, 1]. Input need not be sorted.
double Quantile(std::vector<double> xs, double q);

// Five-number summary used to print the paper's Figure 4 boxplots as text.
struct BoxplotSummary {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  int n = 0;
};
BoxplotSummary Summarize(const std::vector<double>& xs);

// Result of a two-sample Welch t-test (unequal variances).
struct TTestResult {
  double t = 0.0;        // test statistic
  double df = 0.0;       // Welch-Satterthwaite degrees of freedom
  double p_one_sided = 1.0;  // P(T > t): "a beats b" when means imply so
  double p_two_sided = 1.0;
  // False when either sample has fewer than two values: the statistic is
  // then undefined and the fields above keep their no-signal defaults.
  bool defined = false;
};

// Welch's t-test for H0: mean(a) == mean(b). The one-sided p-value tests
// mean(a) > mean(b), matching the paper's unilateral statistics.
TTestResult WelchTTest(const std::vector<double>& a,
                       const std::vector<double>& b);

// Regularized incomplete beta function I_x(a, b), used for the Student-t CDF.
// Implemented with the standard continued-fraction expansion.
double RegularizedIncompleteBeta(double a, double b, double x);

// CDF of the Student-t distribution with `df` degrees of freedom.
double StudentTCdf(double t, double df);

// Log of the gamma function (Lanczos approximation).
double LogGamma(double x);

// Inverse standard-normal CDF (Acklam's rational approximation, |err|<1e-9).
double NormalQuantile(double p);

// Chi-squared quantile via the Wilson-Hilferty cube approximation:
// chi2_q(n) ~ n * (1 - 2/(9n) + z_q * sqrt(2/(9n)))^3. Used by CATD's
// confidence-aware annotator weights.
double ChiSquaredQuantile(double p, double df);

}  // namespace lncl::util

