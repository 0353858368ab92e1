#pragma once

#include <memory>
#include <vector>

#include "data/embedding.h"
#include "models/model.h"
#include "nn/conv1d.h"
#include "nn/embedding.h"
#include "nn/linear.h"

namespace lncl::models {

// The Kim (2014) sentence-classification CNN used by the paper for the
// sentiment task: static word embeddings, parallel convolutions with several
// filter-window sizes, ReLU, max-over-time pooling, dropout on the pooled
// feature vector, and a final softmax layer. Widths default to a
// CPU-friendly scale (the paper used 100 maps per window on 300-d
// embeddings); the architecture is identical.
struct TextCnnConfig {
  std::vector<int> windows = {3, 4, 5};
  int feature_maps = 16;  // per window size
  double dropout = 0.5;
  int num_classes = 2;
  // Kim's "non-static" channel: fine-tune a private copy of the embedding
  // table during training (the default, matching the paper, is the frozen
  // "static" version).
  bool trainable_embeddings = false;
};

class TextCnn : public Model {
 public:
  TextCnn(const TextCnnConfig& config, data::EmbeddingPtr embeddings,
          util::Rng* rng);

  int num_classes() const override { return config_.num_classes; }
  int NumItems(const data::Instance&) const override { return 1; }

  util::Matrix Predict(const data::Instance& x) const override;
  // Length-bucketed batched prediction: one packed embedding gather, one
  // convolution GEMM, and one fc GEMM per bucket instead of per instance.
  // Bit-identical to looping Predict (tests/batch_predict_test.cc).
  void PredictBatch(const std::vector<const data::Instance*>& xs,
                    std::vector<util::Matrix>* out) const override;
  const util::Matrix& ForwardTrain(const data::Instance& x,
                                   util::Rng* rng) override;
  double BackwardSoftTarget(const util::Matrix& q, float w) override;
  void BackwardProbGrad(const util::Matrix& grad_probs, float w) override;
  std::vector<nn::Parameter*> Params() override;

  // Factory matching models::ModelFactory.
  static ModelFactory Factory(const TextCnnConfig& config,
                              data::EmbeddingPtr embeddings);

 private:
  // Embeddings + convolution + pooling shared by train/eval paths. Fills
  // `feat` (pre-dropout pooled features); per-window activations/argmaxes go
  // to the output arrays when non-null (training needs them for backward).
  void FeatureForward(const data::Instance& x, util::Vector* feat,
                      std::vector<util::Matrix>* conv_post,
                      std::vector<std::vector<int>>* argmax,
                      util::Matrix* embedded) const;

  // Backward from dL/dlogits using the cache of the last ForwardTrain.
  void BackwardFromLogits(const util::Vector& grad_logits);

  TextCnnConfig config_;
  data::EmbeddingPtr embeddings_;
  std::unique_ptr<nn::Embedding> trainable_;  // non-static channel, optional
  std::vector<std::unique_ptr<nn::Conv1d>> convs_;
  nn::Linear fc_;

  // Cache of the last ForwardTrain.
  struct Cache {
    std::vector<int> tokens;                   // for the embedding backward
    util::Matrix embedded;                     // T x D
    std::vector<util::Matrix> conv_post;       // per window: rows x F (ReLU'd)
    std::vector<std::vector<int>> argmax;      // per window: F winners
    util::Vector feat_dropped;                 // 3F after dropout
    std::vector<uint8_t> dropout_mask;
    util::Matrix probs;                        // 1 x K
  };
  Cache cache_;
};

}  // namespace lncl::models

