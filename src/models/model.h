#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "nn/parameter.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace lncl::util {
class Parallelizer;
}  // namespace lncl::util

namespace lncl::models {

// What one Model::TrainBatch call trains against, for instances xs[0..n):
// the soft-target head when `prob_grad` is empty, the prob-grad head
// otherwise.
struct TrainHead {
  // Soft-target head (Eqs. 10–11): instance b adds the gradients of
  //   weights[b] * sum_items CE(targets[b] row, p_b row)
  // and reports that loss. targets[b] must be items x K.
  std::vector<const util::Matrix*> targets;
  // Per-instance loss weights, both heads; empty means all ones.
  std::vector<float> weights;
  // Prob-grad head: called once per instance, in minibatch order, with the
  // training-mode probabilities p_b; writes dLoss/dp_b into *grad_probs
  // (handed over zeroed, items x K), which is back-propagated scaled by
  // weights[b]. The crowd-layer baselines train through this head.
  std::function<void(int b, const util::Matrix& probs,
                     util::Matrix* grad_probs)>
      prob_grad;

  float weight(int b) const { return weights.empty() ? 1.0f : weights[b]; }
};

// Common interface for trainable classifiers.
//
// The library views every task through the item lens (see data/dataset.h):
// a model maps an instance to an (items x K) matrix of class distributions —
// one row for sentence classification, one row per token for sequence
// tagging. This lets the EM-style trainers (Logic-LNCL, AggNet, Raykar,
// two-stage) and the crowd-layer baselines share a single code path across
// both of the paper's applications.
//
// Training protocol: TrainBatch runs one minibatch (dropout active) and
// accumulates its parameter gradients; the optimizer's Step() later consumes
// them. Its per-instance form is ForwardTrain (cache retained) followed by
// exactly one of the Backward* methods.
//
// Threading: the const methods (Predict) are safe to call concurrently on
// one instance — layer scratch buffers are thread-local — which is what the
// parallel E-step relies on. The mutable training entry points are not; a
// model that parallelizes TrainBatch does so internally, with results that
// never depend on the thread count (DESIGN.md §5).
class Model {
 public:
  virtual ~Model() = default;

  virtual int num_classes() const = 0;
  virtual int NumItems(const data::Instance& x) const = 0;

  // Evaluation-mode prediction (no dropout): items x K row-stochastic matrix.
  virtual util::Matrix Predict(const data::Instance& x) const = 0;

  // Batched evaluation-mode prediction: (*out)[i] is the prediction for
  // *xs[i]. The base implementation loops Predict; TextCnn and
  // LogisticRegression override it with length-bucketed packed kernels
  // (embedding gather + [B*L, .] GEMMs), NerTagger with length-sorted
  // variable-length lane batches (nn::Gru), all producing results
  // byte-for-byte equal to the per-instance path — the batch
  // dimension only adds GEMM rows, it never reorders any reduction
  // (tests/batch_predict_test.cc). Thread-safety matches Predict: batch
  // temporaries live in the per-thread util::Workspace arena.
  virtual void PredictBatch(const std::vector<const data::Instance*>& xs,
                            std::vector<util::Matrix>* out) const;

  // Convenience forms over a dataset: predictions for
  // dataset.instances[indices[...]] / for every instance.
  std::vector<util::Matrix> PredictBatch(const data::Dataset& dataset,
                                         const std::vector<int>& indices) const;
  std::vector<util::Matrix> PredictBatch(const data::Dataset& dataset) const;

  // Training-mode forward. The returned reference stays valid until the next
  // ForwardTrain call on this model.
  virtual const util::Matrix& ForwardTrain(const data::Instance& x,
                                           util::Rng* rng) = 0;

  // Accumulates gradients of  w * sum_items CE(q_row, p_row)  and returns
  // that loss. q must be items x K.
  virtual double BackwardSoftTarget(const util::Matrix& q, float w) = 0;

  // Accumulates gradients for a caller-provided dLoss/dprobs (items x K),
  // scaled by w. Used by the crowd-layer baselines.
  virtual void BackwardProbGrad(const util::Matrix& grad_probs, float w) = 0;

  // Trains on one minibatch: accumulates every instance's parameter
  // gradients under `head` (drawing dropout from `rng` in minibatch order)
  // and, for the soft-target head, writes (*losses)[b] = instance b's loss
  // (0 under the prob-grad head). Each parameter receives its per-instance
  // gradients in minibatch order, so the result equals looping ForwardTrain
  // and Backward* over xs byte for byte; this base implementation is that
  // loop. `exec` (nullable = serial) may spread the work over threads, which
  // never changes a result.
  virtual void TrainBatch(const std::vector<const data::Instance*>& xs,
                          const TrainHead& head, util::Rng* rng,
                          util::Parallelizer* exec,
                          std::vector<double>* losses);

  virtual std::vector<nn::Parameter*> Params() = 0;
};

// Builds a freshly initialized model; each call must produce independent
// parameters (weights drawn from `rng`).
using ModelFactory =
    std::function<std::unique_ptr<Model>(util::Rng* rng)>;

// Ceiling on the instances packed into one [B, L] block by the batched
// prediction kernels: bounds the workspace high-water mark (the packed
// buffers scale with B * L) without affecting results — per-row arithmetic
// is independent of the bucket composition.
inline constexpr int kMaxPredictBatch = 64;

// One equal-length group of a prediction batch: positions (into the `xs`
// span handed to PredictBatch) of the instances with `length` tokens, capped
// at kMaxPredictBatch members per bucket.
struct LengthBucket {
  int length = 0;
  std::vector<int> members;
};

// Deterministic grouping of a batch by token count (ascending length,
// positions in input order, oversize groups split at the cap).
std::vector<LengthBucket> BucketByLength(
    const std::vector<const data::Instance*>& xs);

}  // namespace lncl::models

