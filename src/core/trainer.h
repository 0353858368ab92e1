#pragma once

#include <vector>

#include "crowd/annotation.h"
#include "crowd/confusion.h"
#include "data/dataset.h"
#include "models/model.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace lncl::core {

// Shared machinery of the EM-style trainers (Logic-LNCL, AggNet, Raykar,
// two-stage, ablations). Kept as free functions / small value types so each
// trainer reads like its pseudo-code.

// One epoch of minibatch soft-target training: shuffles the instance order,
// and for every minibatch accumulates gradients of
//   weight_i * CE(targets[i], p(x_i))
// before an optimizer step (Eq. 11). `weights` may be empty (all ones) —
// when present it carries num(J^(i)) for the weighted objective (Eq. 10).
// Returns the mean per-instance loss. `batch_size` must be positive.
//
// This is the one epoch loop of every trainer: each minibatch is one
// Model::TrainBatch call on `exec` (null = serial). Per-instance losses and
// per-parameter gradients are summed in minibatch order whatever the thread
// count, so the trajectory is the same byte for byte on any executor.
double RunMinibatchEpoch(const data::Dataset& dataset,
                         const std::vector<util::Matrix>& targets,
                         const std::vector<float>& weights, int batch_size,
                         models::Model* model, nn::Optimizer* optimizer,
                         util::Rng* rng, util::Parallelizer* exec = nullptr);

// Truth posterior of one instance given the classifier prior `probs`
// (items x K) and the crowd labels, under the confusion-matrix likelihood —
// Eq. 13 / Eq. A.2, computed in log space per item.
util::Matrix ComputeQa(const util::Matrix& probs,
                       const crowd::InstanceAnnotations& annotations,
                       const crowd::ConfusionSet& confusions);

// The per-annotator likelihood-log tables ComputeQa adds (label-major, see
// crowd::LogLikelihoods), so an E-step evaluates each annotator's logs once
// instead of once per labeled instance.
using crowd::LogConfusions;

// ComputeQa against precomputed LogConfusions tables. Bit-identical to the
// overload above, which builds the tables of its instance's annotators and
// calls this one.
util::Matrix ComputeQa(const util::Matrix& probs,
                       const crowd::InstanceAnnotations& annotations,
                       const std::vector<util::Matrix>& log_confusions);

// Closed-form confusion-matrix update from soft truth estimates — Eq. 12.
// `smoothing` is an additive pseudo-count before row normalization. Counts
// are added to label-major crowd::ConfusionCounts rows in instance order.
void UpdateConfusions(const std::vector<util::Matrix>& qf,
                      const crowd::AnnotationSet& annotations,
                      double smoothing, crowd::ConfusionSet* confusions);

// Early stopping on a dev score with patience, snapshotting the best
// parameter values. Typical use:
//
//   EarlyStopper stopper(patience);
//   for (epoch ...) {
//     ... train ...
//     if (stopper.Update(dev_score, params)) break;
//   }
//   stopper.Restore(params);
class EarlyStopper {
 public:
  explicit EarlyStopper(int patience) : patience_(patience) {}

  // Records the epoch score; returns true when training should stop.
  bool Update(double score, const std::vector<nn::Parameter*>& params);

  // Restores the best snapshot into `params` (no-op if none yet).
  void Restore(const std::vector<nn::Parameter*>& params) const;

  double best_score() const { return best_score_; }
  int best_epoch() const { return best_epoch_; }
  int epochs_seen() const { return epoch_; }

 private:
  int patience_;
  int epoch_ = 0;
  int best_epoch_ = -1;
  int since_best_ = 0;
  double best_score_ = -1e300;
  std::vector<util::Matrix> snapshot_;
};

// Instance weights num(J^(i)) for the Eq. 10 objective.
std::vector<float> AnnotatorCountWeights(const crowd::AnnotationSet& ann);

}  // namespace lncl::core

