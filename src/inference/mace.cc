#include "inference/mace.h"

#include <algorithm>
#include <cmath>

namespace lncl::inference {

Mace::Detailed Mace::RunDetailed(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance) const {
  const ItemView view = FlattenItems(annotations, items_per_instance);
  const int k = view.num_classes;
  const int num_items = static_cast<int>(view.items.size());
  const int num_annotators = view.num_annotators;

  std::vector<double> eps(num_annotators, options_.eps_init);
  // Spam distributions, initialized uniform.
  std::vector<std::vector<double>> xi(
      num_annotators, std::vector<double>(k, 1.0 / k));
  std::vector<double> prior(k, 1.0 / k);

  std::vector<util::Vector> q(num_items, util::Vector(k, 1.0f / k));
  util::Vector log_prior(k);
  util::Vector lp(k);
  // Per (annotator, label y): log P(y | truth = y) and log P(y | truth != y).
  std::vector<float> log_hit(static_cast<size_t>(num_annotators) * k);
  std::vector<float> log_miss(log_hit.size());
  for (int iter = 0; iter < options_.max_iters; ++iter) {
    // ---- E-step: truth posteriors. ----
    for (int m = 0; m < k; ++m) {
      log_prior[m] = static_cast<float>(std::log(std::max(prior[m], 1e-300)));
    }
    for (int j = 0; j < num_annotators; ++j) {
      for (int y = 0; y < k; ++y) {
        const double spam = eps[j] * xi[j][y];
        log_hit[j * k + y] = static_cast<float>(
            std::log(std::max((1.0 - eps[j]) + spam, 1e-300)));
        log_miss[j * k + y] =
            static_cast<float>(std::log(std::max(spam, 1e-300)));
      }
    }
    double delta = 0.0;
    for (int i = 0; i < num_items; ++i) {
      lp = log_prior;
      for (const auto& [j, y] : view.items[i].labels) {
        const float hit = log_hit[j * k + y];
        const float miss = log_miss[j * k + y];
        for (int m = 0; m < k; ++m) lp[m] += m == y ? hit : miss;
      }
      UpdateItemPosterior(&lp, &q[i], &delta);
    }

    // ---- Spam responsibilities + M-step. ----
    std::vector<double> spam_mass(num_annotators, options_.smoothing);
    std::vector<double> label_mass(num_annotators, 2.0 * options_.smoothing);
    std::vector<std::vector<double>> xi_counts(
        num_annotators, std::vector<double>(k, options_.smoothing));
    std::vector<double> prior_counts(k, options_.smoothing);
    for (int i = 0; i < num_items; ++i) {
      for (int m = 0; m < k; ++m) prior_counts[m] += q[i][m];
      for (const auto& [j, y] : view.items[i].labels) {
        // r = E_q[ P(spam | T, y) ].
        double r = 0.0;
        for (int m = 0; m < k; ++m) {
          const double spam = eps[j] * xi[j][y];
          const double honest = m == y ? (1.0 - eps[j]) : 0.0;
          r += q[i][m] * spam / std::max(spam + honest, 1e-300);
        }
        spam_mass[j] += r;
        label_mass[j] += 1.0;
        xi_counts[j][y] += r;
      }
    }
    for (int j = 0; j < num_annotators; ++j) {
      eps[j] = std::clamp(spam_mass[j] / label_mass[j], 1e-4, 1.0 - 1e-4);
      double total = 0.0;
      for (int m = 0; m < k; ++m) total += xi_counts[j][m];
      for (int m = 0; m < k; ++m) xi[j][m] = xi_counts[j][m] / total;
    }
    double prior_total = 0.0;
    for (double c : prior_counts) prior_total += c;
    for (int m = 0; m < k; ++m) prior[m] = prior_counts[m] / prior_total;

    if (delta / std::max(1, num_items * k) < options_.tol) break;
  }

  Detailed out;
  out.posteriors = UnflattenPosteriors(view, q);
  out.competence.resize(num_annotators);
  for (int j = 0; j < num_annotators; ++j) out.competence[j] = 1.0 - eps[j];
  return out;
}

std::vector<util::Matrix> Mace::Infer(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance, util::Rng*) const {
  return RunDetailed(annotations, items_per_instance).posteriors;
}

}  // namespace lncl::inference
