#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/trace.h"
#include "util/check.h"

namespace lncl::core {

double RunMinibatchEpoch(const data::Dataset& dataset,
                         const std::vector<util::Matrix>& targets,
                         const std::vector<float>& weights, int batch_size,
                         models::Model* model, nn::Optimizer* optimizer,
                         util::Rng* rng, util::Parallelizer* exec) {
  LNCL_CHECK(batch_size > 0);
  LNCL_DCHECK(static_cast<int>(targets.size()) == dataset.size());
  const int n = dataset.size();
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);

  const std::vector<nn::Parameter*> params = model->Params();
  std::vector<const data::Instance*> xs;
  models::TrainHead head;
  std::vector<double> losses;
  double total_loss = 0.0;
  for (int start = 0; start < n; start += batch_size) {
    LNCL_TRACE_SPAN_ARG("minibatch", "start", start);
    const int end = std::min(n, start + batch_size);
    xs.clear();
    head.targets.clear();
    head.weights.clear();
    for (int pos = start; pos < end; ++pos) {
      const int idx = order[pos];
      xs.push_back(&dataset.instances[idx]);
      head.targets.push_back(&targets[idx]);
      if (!weights.empty()) head.weights.push_back(weights[idx]);
    }
    model->TrainBatch(xs, head, rng, exec, &losses);
    for (double loss : losses) total_loss += loss;
    optimizer->Step(params);
  }
  return n > 0 ? total_loss / n : 0.0;
}

util::Matrix ComputeQa(const util::Matrix& probs,
                       const crowd::InstanceAnnotations& annotations,
                       const crowd::ConfusionSet& confusions) {
  // Tables for this instance's annotators only: K x K logs each.
  std::vector<util::Matrix> log_pi(confusions.size());
  for (const crowd::AnnotatorLabels& e : annotations.entries) {
    log_pi[e.annotator] = crowd::LogLikelihoods(confusions[e.annotator]);
  }
  return ComputeQa(probs, annotations, log_pi);
}

util::Matrix ComputeQa(const util::Matrix& probs,
                       const crowd::InstanceAnnotations& annotations,
                       const std::vector<util::Matrix>& log_confusions) {
  const int items = probs.rows();
  const int k = probs.cols();
  util::Matrix qa(items, k);
  util::Vector lp(k);
  for (int t = 0; t < items; ++t) {
    for (int m = 0; m < k; ++m) {
      lp[m] = static_cast<float>(
          std::log(std::max(static_cast<double>(probs(t, m)), 1e-300)));
    }
    for (const crowd::AnnotatorLabels& e : annotations.entries) {
      const float* row = log_confusions[e.annotator].Row(e.labels[t]);
      for (int m = 0; m < k; ++m) lp[m] += row[m];
    }
    float mx = lp[0];
    for (int m = 1; m < k; ++m) mx = std::max(mx, lp[m]);
    float* q = qa.Row(t);
    double sum = 0.0;
    for (int m = 0; m < k; ++m) {
      q[m] = std::exp(lp[m] - mx);
      sum += q[m];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int m = 0; m < k; ++m) q[m] *= inv;
  }
  // Eq. 13: the truth posterior is a distribution per item.
  LNCL_AUDIT_SIMPLEX(qa);
  return qa;
}

void UpdateConfusions(const std::vector<util::Matrix>& qf,
                      const crowd::AnnotationSet& annotations,
                      double smoothing, crowd::ConfusionSet* confusions) {
  const int k = annotations.num_classes();
  const int num_annotators = annotations.num_annotators();
  if (confusions->size() != static_cast<size_t>(num_annotators)) {
    confusions->assign(num_annotators, crowd::ConfusionMatrix(k, 0.7));
  }
  crowd::ConfusionCounts counts(num_annotators, k);
  for (int i = 0; i < annotations.num_instances(); ++i) {
    const util::Matrix& q = qf[i];
    for (const crowd::AnnotatorLabels& e : annotations.instance(i).entries) {
      for (size_t t = 0; t < e.labels.size(); ++t) {
        const float* qt = q.Row(static_cast<int>(t));
        float* row = counts.Row(e.annotator, e.labels[t]);
        for (int m = 0; m < k; ++m) row[m] += qt[m];
      }
    }
  }
  counts.Store(confusions);
  // NormalizeRows audits each matrix row-stochastic (Eq. 12).
  for (auto& pi : *confusions) pi.NormalizeRows(smoothing);
}

bool EarlyStopper::Update(double score,
                          const std::vector<nn::Parameter*>& params) {
  ++epoch_;
  if (score > best_score_) {
    best_score_ = score;
    best_epoch_ = epoch_ - 1;
    since_best_ = 0;
    snapshot_ = nn::SnapshotValues(params);
    return false;
  }
  return ++since_best_ >= patience_;
}

void EarlyStopper::Restore(const std::vector<nn::Parameter*>& params) const {
  if (!snapshot_.empty()) nn::RestoreValues(snapshot_, params);
}

std::vector<float> AnnotatorCountWeights(const crowd::AnnotationSet& ann) {
  std::vector<float> weights(ann.num_instances());
  for (int i = 0; i < ann.num_instances(); ++i) {
    weights[i] = static_cast<float>(ann.NumAnnotators(i));
  }
  return weights;
}

}  // namespace lncl::core
