#include "inference/hmm_crowd.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "crowd/confusion.h"
#include "util/chain.h"

namespace lncl::inference {

std::vector<util::Matrix> HmmCrowd::Infer(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance, util::Rng*) const {
  const int k = annotations.num_classes();
  const int num_instances = annotations.num_instances();
  const int num_annotators = annotations.num_annotators();

  // Initialize marginals by majority vote.
  std::vector<util::Matrix> gamma =
      annotations.MajorityVote(items_per_instance);

  util::Vector prior(k, 1.0f / k);
  util::Matrix transition(k, k, 1.0f / k);
  crowd::ConfusionSet pis(num_annotators, crowd::ConfusionMatrix(k, 0.7));
  crowd::ConfusionCounts counts(num_annotators, k);

  util::Matrix emission;
  util::Matrix new_gamma;
  util::Vector lp(k);
  util::Matrix xi_sum(k, k);
  bool have_xi = false;
  for (int iter = 0; iter < options_.max_iters; ++iter) {
    // ---- M-step from current marginals. ----
    util::Vector prior_counts(k, static_cast<float>(options_.smoothing));
    util::Matrix trans_counts(k, k, static_cast<float>(options_.smoothing));
    if (have_xi) trans_counts.AddScaled(xi_sum, 1.0f);
    counts.Zero();
    for (int i = 0; i < num_instances; ++i) {
      const util::Matrix& g = gamma[i];
      if (g.rows() == 0) continue;
      for (int m = 0; m < k; ++m) prior_counts[m] += g(0, m);
      // On the first iteration no exact pairwise posteriors exist yet, so
      // approximate transition counts with products of adjacent marginals;
      // later iterations use the xi counts from ChainForwardBackward.
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
          float* row = counts.Row(e.annotator, e.labels[t]);
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
    counts.Store(&pis);
    for (auto& pi : pis) pi.NormalizeRows(options_.smoothing);

    // ---- E-step: exact smoothing per sentence. ----
    const std::vector<util::Matrix> log_pi = crowd::LogConfusions(pis);
    double delta = 0.0;
    long items = 0;
    xi_sum.Zero();
    have_xi = true;
    for (int i = 0; i < num_instances; ++i) {
      const int t_len = items_per_instance[i];
      emission.Resize(t_len, k);
      // Log-space emission accumulation, exponentiated with per-row shift.
      for (int t = 0; t < t_len; ++t) {
        std::fill(lp.begin(), lp.end(), 0.0f);
        for (const crowd::AnnotatorLabels& e :
             annotations.instance(i).entries) {
          const float* row = log_pi[e.annotator].Row(e.labels[t]);
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
