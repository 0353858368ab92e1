#pragma once

#include <algorithm>
#include <vector>

#include "crowd/annotation.h"
#include "data/dataset.h"
#include "util/matrix.h"

namespace lncl::crowd {

// A K x K row-stochastic annotator confusion matrix: entry (m, n) is the
// probability that the annotator reports label n when the truth is m — the
// pi^{(j)}_{mn} of Eq. 2.
class ConfusionMatrix {
 public:
  ConfusionMatrix() = default;
  // Initialized to the "diagonal prior": diag probability `diag`, the rest
  // spread uniformly. diag defaults to a mildly-better-than-random 0.7.
  explicit ConfusionMatrix(int num_classes, double diag = 0.7);

  int num_classes() const { return m_.rows(); }

  float& operator()(int truth, int reported) { return m_(truth, reported); }
  float operator()(int truth, int reported) const { return m_(truth, reported); }

  util::Matrix& matrix() { return m_; }
  const util::Matrix& matrix() const { return m_; }

  // Renormalizes each row to sum to 1 after adding `smoothing` to every cell
  // (rows that were all-zero become uniform).
  void NormalizeRows(double smoothing = 1e-6);

  // Mean diagonal value: the scalar annotator-reliability summary used in
  // the paper's Figures 6(b)/7(b).
  double Reliability() const;

  // Frobenius distance to another confusion matrix of the same size.
  double Distance(const ConfusionMatrix& other) const;

 private:
  util::Matrix m_;
};

using ConfusionSet = std::vector<ConfusionMatrix>;

// Label-major likelihood-log table of one annotator: entry (y, m) =
// float(log(max(pi(m, y), 1e-300))), so the log-likelihoods of a reported
// label y under all K truth classes form one contiguous row. EM hot loops
// build these once per iteration and add rows per label; the floats are the
// ones a per-label log produces, so the sums they feed are bit-identical.
util::Matrix LogLikelihoods(const ConfusionMatrix& pi);

// LogLikelihoods of every annotator in the set.
std::vector<util::Matrix> LogConfusions(const ConfusionSet& confusions);

// Label-major M-step accumulator for a ConfusionSet: Row(a, y) holds the K
// truth-class counts of annotator a reporting label y, so a posterior row is
// added in one contiguous pass. Store() writes the counts, transposed, into
// truth-major confusion matrices; every cell receives its additions in the
// caller's order, so the sums equal accumulating into pi(m, y) directly.
class ConfusionCounts {
 public:
  ConfusionCounts(int num_annotators, int num_classes)
      : k_(num_classes),
        counts_(static_cast<size_t>(num_annotators) * num_classes *
                num_classes) {}

  void Zero() { std::fill(counts_.begin(), counts_.end(), 0.0f); }
  float* Row(int annotator, int label) {
    return counts_.data() + (static_cast<size_t>(annotator) * k_ + label) * k_;
  }
  // Overwrites pis[a](m, y) with Row(a, y)[m] for every annotator.
  void Store(ConfusionSet* pis) const;

 private:
  int k_;
  std::vector<float> counts_;
};

// Empirical confusion matrices computed from crowd labels against ground
// truth (item granularity). Annotators with no labels get uniform rows.
ConfusionSet EmpiricalConfusions(const AnnotationSet& annotations,
                                 const data::Dataset& dataset);

}  // namespace lncl::crowd

