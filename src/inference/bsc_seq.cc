#include "inference/bsc_seq.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "crowd/confusion.h"
#include "util/chain.h"

namespace lncl::inference {

namespace {
// Collapses the annotator's previous label to a binary context:
// 0 = outside any entity (or sentence start), 1 = inside an annotation.
int Context(const std::vector<int>& labels, size_t t) {
  if (t == 0) return 0;
  return labels[t - 1] == 0 ? 0 : 1;
}
}  // namespace

std::vector<util::Matrix> BscSeq::Infer(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance, util::Rng*) const {
  const int k = annotations.num_classes();
  const int num_instances = annotations.num_instances();
  const int num_annotators = annotations.num_annotators();

  std::vector<util::Matrix> gamma =
      annotations.MajorityVote(items_per_instance);

  util::Vector prior(k, 1.0f / k);
  util::Matrix transition(k, k, 1.0f / k);
  // Context-conditioned confusions: [context][annotator] -> K x K.
  const crowd::ConfusionSet init(num_annotators,
                                 crowd::ConfusionMatrix(k, 0.7));
  std::array<crowd::ConfusionSet, 2> pis = {init, init};
  std::array<crowd::ConfusionCounts, 2> counts = {
      crowd::ConfusionCounts(num_annotators, k),
      crowd::ConfusionCounts(num_annotators, k)};

  util::Matrix emission;
  util::Matrix new_gamma;
  util::Vector lp(k);
  util::Matrix xi_sum(k, k);
  bool have_xi = false;
  for (int iter = 0; iter < options_.max_iters; ++iter) {
    // ---- M-step. ----
    util::Vector prior_counts(k, 0.5f);
    util::Matrix trans_counts(k, k,
                              static_cast<float>(options_.transition_pseudo));
    if (have_xi) trans_counts.AddScaled(xi_sum, 1.0f);
    for (auto& c : counts) c.Zero();
    for (int i = 0; i < num_instances; ++i) {
      const util::Matrix& g = gamma[i];
      if (g.rows() == 0) continue;
      for (int m = 0; m < k; ++m) prior_counts[m] += g(0, m);
      if (!have_xi) {
        for (int t = 0; t + 1 < g.rows(); ++t) {
          for (int a = 0; a < k; ++a) {
            for (int b = 0; b < k; ++b) {
              trans_counts(a, b) += g(t, a) * g(t + 1, b);
            }
          }
        }
      }
      for (const crowd::AnnotatorLabels& e : annotations.instance(i).entries) {
        for (size_t t = 0; t < e.labels.size(); ++t) {
          float* row = counts[Context(e.labels, t)].Row(e.annotator,
                                                        e.labels[t]);
          const float* gt = g.Row(static_cast<int>(t));
          for (int m = 0; m < k; ++m) row[m] += gt[m];
        }
      }
    }
    double prior_total = 0.0;
    for (float c : prior_counts) prior_total += c;
    for (int m = 0; m < k; ++m) {
      prior[m] = static_cast<float>(prior_counts[m] / prior_total);
    }
    for (int a = 0; a < k; ++a) {
      double row_total = 0.0;
      for (int b = 0; b < k; ++b) row_total += trans_counts(a, b);
      for (int b = 0; b < k; ++b) {
        transition(a, b) = static_cast<float>(trans_counts(a, b) / row_total);
      }
    }
    for (int c = 0; c < 2; ++c) {
      counts[c].Store(&pis[c]);
      for (auto& pi : pis[c]) {
        for (int m = 0; m < k; ++m) {
          pi(m, m) += static_cast<float>(options_.diag_pseudo);
        }
        pi.NormalizeRows(options_.confusion_pseudo);
      }
    }

    // ---- E-step. ----
    const std::array<std::vector<util::Matrix>, 2> log_pi = {
        crowd::LogConfusions(pis[0]), crowd::LogConfusions(pis[1])};
    double delta = 0.0;
    long items = 0;
    xi_sum.Zero();
    have_xi = true;
    for (int i = 0; i < num_instances; ++i) {
      const int t_len = items_per_instance[i];
      emission.Resize(t_len, k);
      for (int t = 0; t < t_len; ++t) {
        std::fill(lp.begin(), lp.end(), 0.0f);
        for (const crowd::AnnotatorLabels& e :
             annotations.instance(i).entries) {
          const int c = Context(e.labels, static_cast<size_t>(t));
          const float* row = log_pi[c][e.annotator].Row(e.labels[t]);
          for (int m = 0; m < k; ++m) lp[m] += row[m];
        }
        float mx = lp[0];
        for (int m = 1; m < k; ++m) mx = std::max(mx, lp[m]);
        float* em = emission.Row(t);
        for (int m = 0; m < k; ++m) em[m] = std::exp(lp[m] - mx);
      }
      util::ChainForwardBackward(prior, transition, emission, &new_gamma,
                                 &xi_sum);
      for (int t = 0; t < t_len; ++t) {
        for (int m = 0; m < k; ++m) {
          delta += std::fabs(new_gamma(t, m) - gamma[i](t, m));
        }
        ++items;
      }
      std::swap(gamma[i], new_gamma);
    }
    if (items > 0 && delta / static_cast<double>(items * k) < options_.tol) {
      break;
    }
  }
  return gamma;
}

}  // namespace lncl::inference
