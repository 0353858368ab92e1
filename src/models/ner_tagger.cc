#include "models/ner_tagger.h"

#include <algorithm>
#include <numeric>

#include "nn/activations.h"
#include "nn/dropout.h"
#include "nn/lanes.h"
#include "nn/softmax.h"
#include "util/check.h"
#include "util/threadpool.h"

namespace lncl::models {

namespace {

// Lanes per prediction chunk (at most kMaxPredictBatch). Per-lane results do
// not depend on it; on the NER length mix 16 lanes predict as fast as 32 or
// 64 and keep the per-thread buffers a quarter of the size.
constexpr int kPredictLanes = std::min(16, kMaxPredictBatch);

// Positions of xs sorted by non-increasing length, ties in input order: the
// lane order of a packed batch.
std::vector<int> LaneOrder(const std::vector<const data::Instance*>& xs) {
  std::vector<int> order(xs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&xs](int a, int b) {
    return xs[a]->tokens.size() > xs[b]->tokens.size();
  });
  return order;
}

// Rows [row, row + m.rows()) of `src`, copied into m (shape preset).
void CopyRows(const util::Matrix& src, int row, util::Matrix* m) {
  const float* from = src.Row(row);
  std::copy(from, from + m->size(), m->data());
}

// The soft-target head (Eq. 10) on one instance: dL/dlogits of
// w * sum_items CE(q, p), and that loss.
double SoftTargetHead(const util::Matrix& q, const util::Matrix& probs,
                      float w, util::Matrix* grad_logits) {
  LNCL_DCHECK(q.rows() == probs.rows() && q.cols() == probs.cols());
  LNCL_AUDIT_SIMPLEX(q);
  nn::SoftmaxCrossEntropyGradRows(q, probs, w, grad_logits);
  return w * nn::CrossEntropyRows(q, probs);
}

}  // namespace

NerTagger::NerTagger(const NerTaggerConfig& config,
                     data::EmbeddingPtr embeddings, util::Rng* rng)
    : config_(config),
      embeddings_(std::move(embeddings)),
      conv_("ner.conv", config.conv_window, embeddings_->dim(),
            config.conv_features, nn::Conv1d::Padding::kSame, rng),
      fc_("ner.fc", config.gru_hidden, config.num_classes, rng) {
  if (config_.recurrent == NerTaggerConfig::Recurrent::kGru) {
    gru_ = std::make_unique<nn::Gru>("ner.gru", config.conv_features,
                                     config.gru_hidden, rng);
  } else {
    lstm_ = std::make_unique<nn::Lstm>("ner.lstm", config.conv_features,
                                       config.gru_hidden, rng);
  }
}

void NerTagger::Lanes::Assign(
    std::vector<const data::Instance*> lane_xs,
    std::vector<const std::vector<uint8_t>*> lane_masks) {
  xs = std::move(lane_xs);
  masks = std::move(lane_masks);
  lengths.clear();
  for (const data::Instance* x : xs) {
    lengths.push_back(static_cast<int>(x->tokens.size()));
  }
  offsets = nn::LaneOffsets(lengths);
}

void NerTagger::Forward(Lanes* lanes, bool train) const {
  std::vector<int> tokens;
  tokens.reserve(lanes->offsets.back());
  for (const data::Instance* x : lanes->xs) {
    tokens.insert(tokens.end(), x->tokens.begin(), x->tokens.end());
  }
  embeddings_->Lookup(tokens, &lanes->embedded);
  conv_.ForwardPacked(lanes->embedded, lanes->lengths, &lanes->conv_relu,
                      util::Act::kRelu);
  const util::Matrix* input = &lanes->conv_relu;
  if (train) {
    lanes->conv_dropped = lanes->conv_relu;
    const int f = config_.conv_features;
    for (size_t b = 0; b < lanes->xs.size(); ++b) {
      const size_t n = static_cast<size_t>(lanes->lengths[b]) * f;
      LNCL_DCHECK(lanes->masks[b]->size() == n);
      nn::DropoutApply(config_.dropout, lanes->masks[b]->data(),
                       lanes->conv_dropped.Row(lanes->offsets[b]), n);
    }
    input = &lanes->conv_dropped;
  }
  util::Matrix* hidden = &lanes->hidden;
  if (gru_ != nullptr) {
    if (train) hidden = &lanes->gru.h;
    gru_->Forward(*input, lanes->lengths, train ? &lanes->gru : nullptr,
                  hidden);
  } else {
    if (train) hidden = &lanes->lstm.h;
    lstm_->Forward(*input, lanes->lengths, train ? &lanes->lstm : nullptr,
                   hidden);
  }
  fc_.ForwardRows(*hidden, &lanes->logits);
  nn::SoftmaxRows(lanes->logits, &lanes->probs);
}

void NerTagger::Backward(Lanes* lanes) const {
  util::MatMul(lanes->grad_logits, fc_.weight().value, &lanes->grad_hidden);
  if (gru_ != nullptr) {
    gru_->Backward(lanes->conv_dropped, lanes->lengths, lanes->gru,
                   lanes->grad_hidden, &lanes->gru_grads, &lanes->grad_conv);
  } else {
    lstm_->Backward(lanes->conv_dropped, lanes->lengths, lanes->lstm,
                    lanes->grad_hidden, &lanes->lstm_grads,
                    &lanes->grad_conv);
  }
  const int f = config_.conv_features;
  for (size_t b = 0; b < lanes->xs.size(); ++b) {
    nn::DropoutApply(config_.dropout, lanes->masks[b]->data(),
                     lanes->grad_conv.Row(lanes->offsets[b]),
                     static_cast<size_t>(lanes->lengths[b]) * f);
  }
  nn::ReluBackward(lanes->conv_relu, &lanes->grad_conv);
}

void NerTagger::AccumulateConvGrads(const Lanes& lanes, int lane) {
  const int row = lanes.offsets[lane];
  conv_.AccumulateGrads(lanes.embedded.Row(row), lanes.lengths[lane],
                        lanes.grad_conv.Row(row));
}

void NerTagger::AccumulateSequenceGrads(const Lanes& lanes, int lane) {
  const int row = lanes.offsets[lane];
  const int rows = lanes.lengths[lane];
  fc_.AccumulateGrads(TrainHidden(lanes).Row(row), lanes.grad_logits.Row(row),
                      rows);
  if (gru_ != nullptr) {
    gru_->AccumulateGrads(lanes.conv_dropped, lanes.gru_grads, row, rows);
  } else {
    lstm_->AccumulateGrads(lanes.conv_dropped, lanes.lstm_grads, row, rows);
  }
}

util::Matrix NerTagger::Predict(const data::Instance& x) const {
  std::vector<util::Matrix> out;
  PredictBatch({&x}, &out);
  return std::move(out[0]);
}

void NerTagger::PredictBatch(const std::vector<const data::Instance*>& xs,
                             std::vector<util::Matrix>* out) const {
  out->resize(xs.size());
  const int k_cls = config_.num_classes;
  const std::vector<int> order = LaneOrder(xs);
  const int n = static_cast<int>(xs.size());
  // Per-thread buffers, reused across calls: const prediction stays safe
  // under the parallel E-step and allocates nothing in steady state.
  thread_local Lanes lanes;
  std::vector<const data::Instance*> chunk;
  for (int start = 0; start < n; start += kPredictLanes) {
    const int end = std::min(n, start + kPredictLanes);
    chunk.clear();
    for (int j = start; j < end; ++j) chunk.push_back(xs[order[j]]);
    lanes.Assign(chunk, {});
    Forward(&lanes, false);
    for (int j = start; j < end; ++j) {
      util::Matrix m(lanes.lengths[j - start], k_cls);
      CopyRows(lanes.probs, lanes.offsets[j - start], &m);
      (*out)[order[j]] = std::move(m);
    }
  }
}

const util::Matrix& NerTagger::ForwardTrain(const data::Instance& x,
                                            util::Rng* rng) {
  nn::DropoutMask(config_.dropout, rng,
                  x.tokens.size() * static_cast<size_t>(config_.conv_features),
                  &single_mask_);
  single_.Assign({&x}, {&single_mask_});
  Forward(&single_, true);
  return single_.probs;
}

double NerTagger::BackwardSoftTarget(const util::Matrix& q, float w) {
  const double loss = SoftTargetHead(q, single_.probs, w, &single_.grad_logits);
  Backward(&single_);
  AccumulateConvGrads(single_, 0);
  AccumulateSequenceGrads(single_, 0);
  return loss;
}

void NerTagger::BackwardProbGrad(const util::Matrix& grad_probs, float w) {
  LNCL_DCHECK(grad_probs.rows() == single_.probs.rows());
  nn::SoftmaxJacobianVecProductRows(single_.probs, grad_probs, w,
                                    &single_.grad_logits);
  Backward(&single_);
  AccumulateConvGrads(single_, 0);
  AccumulateSequenceGrads(single_, 0);
}

void NerTagger::TrainBatch(const std::vector<const data::Instance*>& xs,
                           const TrainHead& head, util::Rng* rng,
                           util::Parallelizer* exec,
                           std::vector<double>* losses) {
  const int n = static_cast<int>(xs.size());
  losses->assign(n, 0.0);
  if (n == 0) return;
  util::Parallelizer serial;
  if (exec == nullptr) exec = &serial;

  // (1) Dropout masks, in minibatch order.
  masks_.resize(n);
  for (int b = 0; b < n; ++b) {
    nn::DropoutMask(
        config_.dropout, rng,
        xs[b]->tokens.size() * static_cast<size_t>(config_.conv_features),
        &masks_[b]);
  }

  // Lane groups: contiguous runs of the length-sorted lanes, one per thread.
  const std::vector<int> order = LaneOrder(xs);
  const int groups = std::min(exec->num_threads(), n);
  groups_.resize(groups);
  std::vector<std::pair<int, int>> lane_of(n);  // position -> (group, lane)
  for (int g = 0; g < groups; ++g) {
    const auto [lo, hi] = util::Parallelizer::SlotRange(n, g, groups);
    Lanes& lanes = groups_[g];
    std::vector<const data::Instance*> lane_xs;
    std::vector<const std::vector<uint8_t>*> lane_masks;
    for (int j = lo; j < hi; ++j) {
      lane_xs.push_back(xs[order[j]]);
      lane_masks.push_back(&masks_[order[j]]);
      lane_of[order[j]] = {g, j - lo};
    }
    lanes.Assign(std::move(lane_xs), std::move(lane_masks));
    lanes.grad_logits.ResizeNoZero(lanes.offsets.back(), config_.num_classes);
  }

  // (2) Forward.
  exec->RunSlots(groups, [this](int g) { Forward(&groups_[g], true); });

  // (3) The head, in minibatch order, then the row-wise backward.
  for (int b = 0; b < n; ++b) {
    (*losses)[b] = Head(&groups_[lane_of[b].first], lane_of[b].second, b, head);
  }
  exec->RunSlots(groups, [this](int g) { Backward(&groups_[g]); });

  // (4) The parameter gradients, each summed in minibatch order.
  exec->RunSlots(2, [&](int task) {
    for (int b = 0; b < n; ++b) {
      const Lanes& lanes = groups_[lane_of[b].first];
      if (task == 0) {
        AccumulateConvGrads(lanes, lane_of[b].second);
      } else {
        AccumulateSequenceGrads(lanes, lane_of[b].second);
      }
    }
  });
}

double NerTagger::Head(Lanes* lanes, int lane, int b,
                       const TrainHead& head) const {
  thread_local util::Matrix probs, grad_probs, grad_logits;
  const int row = lanes->offsets[lane];
  probs.ResizeNoZero(lanes->lengths[lane], config_.num_classes);
  CopyRows(lanes->probs, row, &probs);
  double loss = 0.0;
  if (head.prob_grad) {
    grad_probs.Resize(probs.rows(), probs.cols());
    head.prob_grad(b, probs, &grad_probs);
    nn::SoftmaxJacobianVecProductRows(probs, grad_probs, head.weight(b),
                                      &grad_logits);
  } else {
    loss = SoftTargetHead(*head.targets[b], probs, head.weight(b),
                          &grad_logits);
  }
  std::copy(grad_logits.data(), grad_logits.data() + grad_logits.size(),
            lanes->grad_logits.Row(row));
  return loss;
}

std::vector<nn::Parameter*> NerTagger::Params() {
  std::vector<nn::Parameter*> params;
  for (nn::Parameter* p : conv_.Params()) params.push_back(p);
  if (gru_ != nullptr) {
    for (nn::Parameter* p : gru_->Params()) params.push_back(p);
  } else {
    for (nn::Parameter* p : lstm_->Params()) params.push_back(p);
  }
  for (nn::Parameter* p : fc_.Params()) params.push_back(p);
  return params;
}

ModelFactory NerTagger::Factory(const NerTaggerConfig& config,
                                data::EmbeddingPtr embeddings) {
  return [config, embeddings](util::Rng* rng) {
    return std::make_unique<NerTagger>(config, embeddings, rng);
  };
}

}  // namespace lncl::models
