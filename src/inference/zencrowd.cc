#include "inference/zencrowd.h"

#include <algorithm>
#include <cmath>

namespace lncl::inference {

ZenCrowd::Detailed ZenCrowd::RunDetailed(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance) const {
  const ItemView view = FlattenItems(annotations, items_per_instance);
  const int k = view.num_classes;
  const int num_items = static_cast<int>(view.items.size());
  const int num_annotators = view.num_annotators;

  std::vector<double> r(num_annotators, options_.r_init);
  std::vector<double> prior(k, 1.0 / k);
  std::vector<util::Vector> q(num_items, util::Vector(k, 1.0f / k));

  util::Vector log_prior(k);
  util::Vector lp(k);
  // Per annotator: log of the hit likelihood r and of the miss (1-r)/(K-1).
  std::vector<float> log_hit(num_annotators);
  std::vector<float> log_miss(num_annotators);
  for (int iter = 0; iter < options_.max_iters; ++iter) {
    // ---- E-step. ----
    for (int m = 0; m < k; ++m) {
      log_prior[m] = static_cast<float>(std::log(std::max(prior[m], 1e-300)));
    }
    for (int j = 0; j < num_annotators; ++j) {
      const double wrong = (1.0 - r[j]) / (k - 1);
      log_hit[j] = static_cast<float>(std::log(std::max(r[j], 1e-300)));
      log_miss[j] = static_cast<float>(std::log(std::max(wrong, 1e-300)));
    }
    double delta = 0.0;
    for (int i = 0; i < num_items; ++i) {
      lp = log_prior;
      for (const auto& [j, y] : view.items[i].labels) {
        const float hit = log_hit[j];
        const float miss = log_miss[j];
        for (int m = 0; m < k; ++m) lp[m] += m == y ? hit : miss;
      }
      UpdateItemPosterior(&lp, &q[i], &delta);
    }

    // ---- M-step. ----
    std::vector<double> correct(num_annotators, options_.smoothing);
    std::vector<double> total(num_annotators, 2.0 * options_.smoothing);
    std::vector<double> prior_counts(k, options_.smoothing);
    for (int i = 0; i < num_items; ++i) {
      for (int m = 0; m < k; ++m) prior_counts[m] += q[i][m];
      for (const auto& [j, y] : view.items[i].labels) {
        correct[j] += q[i][y];
        total[j] += 1.0;
      }
    }
    for (int j = 0; j < num_annotators; ++j) {
      r[j] = std::clamp(correct[j] / total[j], 1e-4, 1.0 - 1e-4);
    }
    double prior_total = 0.0;
    for (double c : prior_counts) prior_total += c;
    for (int m = 0; m < k; ++m) prior[m] = prior_counts[m] / prior_total;

    if (delta / std::max(1, num_items * k) < options_.tol) break;
  }

  Detailed out;
  out.posteriors = UnflattenPosteriors(view, q);
  out.reliability = std::move(r);
  return out;
}

std::vector<util::Matrix> ZenCrowd::Infer(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance, util::Rng*) const {
  return RunDetailed(annotations, items_per_instance).posteriors;
}

}  // namespace lncl::inference
