#pragma once

#include <memory>

#include "data/embedding.h"
#include "models/model.h"
#include "nn/conv1d.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/lstm.h"

namespace lncl::models {

// The Rodrigues & Pereira (2018) sequence tagger used by the paper for NER:
// static word embeddings, a same-padded width-5 convolution with ReLU,
// dropout, a recurrent layer, and a per-token softmax layer. Widths default
// to a CPU-friendly scale (the paper used 512 conv features and 50 GRU
// units). The recurrent cell is a GRU as in the paper; an LSTM alternative
// is available for the recurrent-cell ablation.
struct NerTaggerConfig {
  enum class Recurrent { kGru, kLstm };

  int conv_window = 5;
  int conv_features = 64;
  int gru_hidden = 32;  // hidden size of the recurrent layer (either cell)
  Recurrent recurrent = Recurrent::kGru;
  double dropout = 0.5;
  int num_classes = 9;
};

// Every entry point — Predict, PredictBatch, ForwardTrain + Backward*, and
// TrainBatch — runs the same lane code: a packed variable-length batch
// ("lanes": instances sorted by non-increasing length, rows stored instance
// by instance), one embedding gather, one conv GEMM per instance, one
// recurrent GEMM per step over the lanes still running (a prefix of the
// sort), and one fc GEMM over all rows. Per-instance results never depend
// on the batch they ran in (tests/batch_predict_test.cc,
// tests/models_test.cc).
class NerTagger : public Model {
 public:
  NerTagger(const NerTaggerConfig& config, data::EmbeddingPtr embeddings,
            util::Rng* rng);

  int num_classes() const override { return config_.num_classes; }
  int NumItems(const data::Instance& x) const override {
    return static_cast<int>(x.tokens.size());
  }

  util::Matrix Predict(const data::Instance& x) const override;
  // Sorts xs by length and runs them in chunks of lanes.
  void PredictBatch(const std::vector<const data::Instance*>& xs,
                    std::vector<util::Matrix>* out) const override;
  const util::Matrix& ForwardTrain(const data::Instance& x,
                                   util::Rng* rng) override;
  double BackwardSoftTarget(const util::Matrix& q, float w) override;
  void BackwardProbGrad(const util::Matrix& grad_probs, float w) override;
  // One packed minibatch in four phases: (1) the dropout masks, drawn
  // serially in minibatch order — the stream ForwardTrain draws; (2) the
  // forward, over `exec->num_threads()` contiguous lane groups in parallel;
  // (3) the head, serially in minibatch order, then the row-wise backward
  // per lane group in parallel; (4) the parameter gradients — the conv layer
  // and the recurrent + fc layers as two parallel tasks, each adding its
  // per-instance gradients in minibatch order. Byte-equal to the
  // per-instance loop at every thread count.
  void TrainBatch(const std::vector<const data::Instance*>& xs,
                  const TrainHead& head, util::Rng* rng,
                  util::Parallelizer* exec,
                  std::vector<double>* losses) override;
  std::vector<nn::Parameter*> Params() override;

  static ModelFactory Factory(const NerTaggerConfig& config,
                              data::EmbeddingPtr embeddings);

 private:
  // One packed batch of lanes and every buffer a pass over it needs.
  struct Lanes {
    // Lane b is instance *xs[b]; lanes sorted by non-increasing length.
    std::vector<const data::Instance*> xs;
    std::vector<const std::vector<uint8_t>*> masks;  // training only
    std::vector<int> lengths;
    std::vector<int> offsets;  // first row of each lane, then the row count
    util::Matrix embedded;     // rows x D
    util::Matrix conv_relu;    // rows x F (post-ReLU, pre-dropout)
    util::Matrix conv_dropped; // rows x F (training recurrent input)
    nn::Gru::Cache gru;        // training caches (hidden states in .h)
    nn::Lstm::Cache lstm;
    util::Matrix hidden;       // rows x H (inference)
    util::Matrix logits;       // rows x K
    util::Matrix probs;        // rows x K
    util::Matrix grad_logits;  // rows x K, written by the head
    util::Matrix grad_hidden;  // rows x H
    util::Matrix grad_conv;    // rows x F
    nn::Gru::Grads gru_grads;
    nn::Lstm::Grads lstm_grads;

    void Assign(std::vector<const data::Instance*> lane_xs,
                std::vector<const std::vector<uint8_t>*> lane_masks);
  };

  // embed -> conv -> (dropout) -> recurrent -> fc -> softmax over all lanes;
  // `train` applies the lanes' dropout masks and keeps the caches.
  void Forward(Lanes* lanes, bool train) const;
  // Runs `head` on lane `lane` (minibatch position b) of a training Forward:
  // writes the lane's rows of lanes->grad_logits and returns its soft-target
  // loss (0 under the prob-grad head).
  double Head(Lanes* lanes, int lane, int b, const TrainHead& head) const;
  // Row-wise backward of a training Forward from lanes->grad_logits down to
  // the conv output gradient. Touches no parameter.
  void Backward(Lanes* lanes) const;
  // Parameter gradients of one lane after Backward: the conv layer, and
  // the recurrent + fc layers.
  void AccumulateConvGrads(const Lanes& lanes, int lane);
  void AccumulateSequenceGrads(const Lanes& lanes, int lane);
  const util::Matrix& TrainHidden(const Lanes& lanes) const {
    return gru_ != nullptr ? lanes.gru.h : lanes.lstm.h;
  }

  NerTaggerConfig config_;
  data::EmbeddingPtr embeddings_;
  nn::Conv1d conv_;
  std::unique_ptr<nn::Gru> gru_;    // exactly one of gru_/lstm_ is set
  std::unique_ptr<nn::Lstm> lstm_;
  nn::Linear fc_;

  // ForwardTrain / Backward* state: a batch of one lane.
  Lanes single_;
  std::vector<uint8_t> single_mask_;
  // TrainBatch state: lane groups and the masks in minibatch order.
  std::vector<Lanes> groups_;
  std::vector<std::vector<uint8_t>> masks_;
};

}  // namespace lncl::models
