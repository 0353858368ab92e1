#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "data/embedding.h"
#include "models/crf_tagger.h"
#include "models/logreg.h"
#include "models/model.h"
#include "models/ner_tagger.h"
#include "models/text_cnn.h"
#include "nn/gradcheck.h"
#include "nn/optimizer.h"
#include "nn/softmax.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace lncl::models {
namespace {

using util::Matrix;
using util::Rng;

data::EmbeddingPtr MakeEmbeddings(int vocab, int dim, Rng* rng) {
  auto table = std::make_shared<data::EmbeddingTable>(vocab, dim);
  for (int v = 1; v < vocab; ++v) {
    for (int d = 0; d < dim; ++d) {
      table->table()(v, d) = static_cast<float>(rng->Gaussian());
    }
  }
  return table;
}

data::Instance MakeInstance(int len, int vocab, Rng* rng, bool sequence,
                            int num_classes) {
  data::Instance x;
  for (int i = 0; i < len; ++i) x.tokens.push_back(1 + rng->UniformInt(vocab - 1));
  if (sequence) {
    for (int i = 0; i < len; ++i) x.tag_labels.push_back(rng->UniformInt(num_classes));
  } else {
    x.label = rng->UniformInt(num_classes);
  }
  return x;
}

void ExpectRowStochastic(const Matrix& p) {
  for (int r = 0; r < p.rows(); ++r) {
    double sum = 0.0;
    for (int c = 0; c < p.cols(); ++c) {
      EXPECT_GE(p(r, c), 0.0f);
      sum += p(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
}

// Generic soft-target gradient check for any Model.
void RunModelGradCheck(Model* model, const data::Instance& x,
                       const Matrix& q, Rng* rng, double tol) {
  // Deterministic loss: fixed rng clone for dropout inside forward.
  auto loss_fn = [&]() {
    Rng fixed(12345);
    const Matrix& p = model->ForwardTrain(x, &fixed);
    return nn::CrossEntropyRows(q, p);
  };
  auto compute_grads = [&]() {
    nn::ZeroGrads(model->Params());
    Rng fixed(12345);
    model->ForwardTrain(x, &fixed);
    model->BackwardSoftTarget(q, 1.0f);
  };
  const nn::GradCheckResult r = nn::CheckGradients(
      loss_fn, compute_grads, model->Params(), rng, 1e-3, 8);
  EXPECT_LT(r.max_rel_error, tol) << "abs " << r.max_abs_error;
}

// ---------------------------------------------------------------- TextCnn --

TEST(TextCnnTest, PredictShapeAndNormalization) {
  Rng rng(1);
  auto emb = MakeEmbeddings(50, 8, &rng);
  TextCnnConfig config;
  config.feature_maps = 4;
  TextCnn cnn(config, emb, &rng);
  const data::Instance x = MakeInstance(12, 50, &rng, false, 2);
  const Matrix p = cnn.Predict(x);
  EXPECT_EQ(p.rows(), 1);
  EXPECT_EQ(p.cols(), 2);
  ExpectRowStochastic(p);
  EXPECT_EQ(cnn.NumItems(x), 1);
}

TEST(TextCnnTest, HandlesShortSentences) {
  Rng rng(2);
  auto emb = MakeEmbeddings(50, 8, &rng);
  TextCnnConfig config;
  config.feature_maps = 4;
  TextCnn cnn(config, emb, &rng);
  for (int len = 1; len <= 6; ++len) {
    const data::Instance x = MakeInstance(len, 50, &rng, false, 2);
    const Matrix p = cnn.Predict(x);
    ExpectRowStochastic(p);
  }
}

TEST(TextCnnTest, GradientCheckNoDropout) {
  Rng rng(3);
  auto emb = MakeEmbeddings(40, 6, &rng);
  TextCnnConfig config;
  config.feature_maps = 3;
  config.dropout = 0.0;  // deterministic for finite differences
  TextCnn cnn(config, emb, &rng);
  const data::Instance x = MakeInstance(9, 40, &rng, false, 2);
  Matrix q(1, 2);
  q(0, 0) = 0.3f;
  q(0, 1) = 0.7f;
  RunModelGradCheck(&cnn, x, q, &rng, 2e-2);
}

TEST(TextCnnTest, GradientCheckWithFixedDropoutMask) {
  Rng rng(4);
  auto emb = MakeEmbeddings(40, 6, &rng);
  TextCnnConfig config;
  config.feature_maps = 3;
  config.dropout = 0.5;
  TextCnn cnn(config, emb, &rng);
  const data::Instance x = MakeInstance(9, 40, &rng, false, 2);
  Matrix q(1, 2);
  q(0, 0) = 1.0f;
  // The fixed-seed rng inside RunModelGradCheck makes the mask reproducible.
  RunModelGradCheck(&cnn, x, q, &rng, 2e-2);
}

TEST(TextCnnTest, TrainingReducesLossOnOneInstance) {
  Rng rng(5);
  auto emb = MakeEmbeddings(40, 8, &rng);
  TextCnnConfig config;
  config.feature_maps = 4;
  config.dropout = 0.0;
  TextCnn cnn(config, emb, &rng);
  const data::Instance x = MakeInstance(10, 40, &rng, false, 2);
  Matrix q(1, 2);
  q(0, 0) = 1.0f;
  nn::Sgd sgd(0.5);
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 30; ++step) {
    cnn.ForwardTrain(x, &rng);
    const double loss = cnn.BackwardSoftTarget(q, 1.0f);
    if (step == 0) first = loss;
    last = loss;
    sgd.Step(cnn.Params());
  }
  EXPECT_LT(last, first * 0.5);
}

TEST(TextCnnTest, FactoryProducesIndependentModels) {
  Rng rng(6);
  auto emb = MakeEmbeddings(40, 8, &rng);
  TextCnnConfig config;
  config.feature_maps = 4;
  auto factory = TextCnn::Factory(config, emb);
  auto m1 = factory(&rng);
  auto m2 = factory(&rng);
  const data::Instance x = MakeInstance(10, 40, &rng, false, 2);
  const Matrix p1 = m1->Predict(x);
  const Matrix p2 = m2->Predict(x);
  EXPECT_NE(p1(0, 0), p2(0, 0));  // different random init
}


TEST(TextCnnTest, TrainableEmbeddingsGradientCheck) {
  Rng rng(15);
  auto emb = MakeEmbeddings(40, 6, &rng);
  TextCnnConfig config;
  config.feature_maps = 3;
  config.dropout = 0.0;
  config.trainable_embeddings = true;
  TextCnn cnn(config, emb, &rng);
  // The table itself is now a parameter.
  EXPECT_EQ(cnn.Params().front()->name, "cnn.emb.table");
  const data::Instance x = MakeInstance(9, 40, &rng, false, 2);
  Matrix q(1, 2);
  q(0, 1) = 1.0f;
  RunModelGradCheck(&cnn, x, q, &rng, 2e-2);
}

TEST(TextCnnTest, TrainableEmbeddingsActuallyMove) {
  Rng rng(16);
  auto emb = MakeEmbeddings(40, 6, &rng);
  TextCnnConfig config;
  config.feature_maps = 3;
  config.dropout = 0.0;
  config.trainable_embeddings = true;
  TextCnn cnn(config, emb, &rng);
  const data::Instance x = MakeInstance(9, 40, &rng, false, 2);
  nn::Parameter* table = cnn.Params().front();
  const Matrix before = table->value;
  const Matrix shared_before = emb->table();
  Matrix q(1, 2);
  q(0, 0) = 1.0f;
  nn::Sgd sgd(0.5);
  for (int step = 0; step < 5; ++step) {
    cnn.ForwardTrain(x, &rng);
    cnn.BackwardSoftTarget(q, 1.0f);
    sgd.Step(cnn.Params());
  }
  // Some embedding row used by the instance moved...
  double moved = 0.0;
  for (int v = 0; v < table->value.rows(); ++v) {
    for (int d = 0; d < table->value.cols(); ++d) {
      moved += std::fabs(table->value(v, d) - before(v, d));
    }
  }
  EXPECT_GT(moved, 1e-4);
  // ...while the shared static table is untouched.
  for (int v = 0; v < shared_before.rows(); ++v) {
    for (int d = 0; d < shared_before.cols(); ++d) {
      ASSERT_FLOAT_EQ(emb->table()(v, d), shared_before(v, d));
    }
  }
}

// -------------------------------------------------------------- NerTagger --

TEST(NerTaggerTest, PredictShape) {
  Rng rng(7);
  auto emb = MakeEmbeddings(60, 8, &rng);
  NerTaggerConfig config;
  config.conv_features = 6;
  config.gru_hidden = 5;
  NerTagger tagger(config, emb, &rng);
  const data::Instance x = MakeInstance(11, 60, &rng, true, 9);
  const Matrix p = tagger.Predict(x);
  EXPECT_EQ(p.rows(), 11);
  EXPECT_EQ(p.cols(), 9);
  ExpectRowStochastic(p);
  EXPECT_EQ(tagger.NumItems(x), 11);
}

TEST(NerTaggerTest, GradientCheckNoDropout) {
  Rng rng(8);
  auto emb = MakeEmbeddings(30, 5, &rng);
  NerTaggerConfig config;
  config.conv_features = 4;
  config.gru_hidden = 3;
  config.dropout = 0.0;
  config.num_classes = 4;
  NerTagger tagger(config, emb, &rng);
  const data::Instance x = MakeInstance(6, 30, &rng, true, 4);
  Matrix q(6, 4);
  Rng qrng(9);
  for (int t = 0; t < 6; ++t) {
    float sum = 0.0f;
    for (int c = 0; c < 4; ++c) {
      q(t, c) = static_cast<float>(qrng.Uniform(0.1, 1.0));
      sum += q(t, c);
    }
    for (int c = 0; c < 4; ++c) q(t, c) /= sum;
  }
  RunModelGradCheck(&tagger, x, q, &rng, 3e-2);
}

TEST(NerTaggerTest, GradientCheckWithDropout) {
  Rng rng(10);
  auto emb = MakeEmbeddings(30, 5, &rng);
  NerTaggerConfig config;
  config.conv_features = 4;
  config.gru_hidden = 3;
  config.dropout = 0.4;
  config.num_classes = 3;
  NerTagger tagger(config, emb, &rng);
  const data::Instance x = MakeInstance(5, 30, &rng, true, 3);
  Matrix q(5, 3);
  for (int t = 0; t < 5; ++t) q(t, t % 3) = 1.0f;
  RunModelGradCheck(&tagger, x, q, &rng, 3e-2);
}

TEST(NerTaggerTest, LearnsConstantTag) {
  Rng rng(11);
  auto emb = MakeEmbeddings(30, 6, &rng);
  NerTaggerConfig config;
  config.conv_features = 6;
  config.gru_hidden = 4;
  config.dropout = 0.0;
  config.num_classes = 3;
  NerTagger tagger(config, emb, &rng);
  const data::Instance x = MakeInstance(8, 30, &rng, true, 3);
  Matrix q(8, 3);
  for (int t = 0; t < 8; ++t) q(t, 1) = 1.0f;
  nn::Adam adam(0.02);
  for (int step = 0; step < 60; ++step) {
    tagger.ForwardTrain(x, &rng);
    tagger.BackwardSoftTarget(q, 1.0f);
    adam.Step(tagger.Params());
  }
  const Matrix p = tagger.Predict(x);
  for (int t = 0; t < 8; ++t) EXPECT_GT(p(t, 1), 0.8f);
}


TEST(NerTaggerTest, LstmVariantGradientCheck) {
  Rng rng(30);
  auto emb = MakeEmbeddings(30, 5, &rng);
  NerTaggerConfig config;
  config.conv_features = 4;
  config.gru_hidden = 3;
  config.dropout = 0.0;
  config.num_classes = 4;
  config.recurrent = NerTaggerConfig::Recurrent::kLstm;
  NerTagger tagger(config, emb, &rng);
  const data::Instance x = MakeInstance(6, 30, &rng, true, 4);
  Matrix q(6, 4);
  for (int t = 0; t < 6; ++t) q(t, t % 4) = 1.0f;
  RunModelGradCheck(&tagger, x, q, &rng, 3e-2);
}

TEST(NerTaggerTest, LstmVariantPredictShape) {
  Rng rng(31);
  auto emb = MakeEmbeddings(30, 5, &rng);
  NerTaggerConfig config;
  config.conv_features = 4;
  config.gru_hidden = 3;
  config.recurrent = NerTaggerConfig::Recurrent::kLstm;
  NerTagger tagger(config, emb, &rng);
  const data::Instance x = MakeInstance(7, 30, &rng, true, 9);
  const Matrix p = tagger.Predict(x);
  EXPECT_EQ(p.rows(), 7);
  EXPECT_EQ(p.cols(), 9);
  ExpectRowStochastic(p);
}

// ------------------------------------------------- NerTagger::TrainBatch --

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// dCE(q, p)/dp = -q / p, floored like the crowd layer's clipped scores.
void CrossEntropyProbGrad(const Matrix& q, const Matrix& p, Matrix* grad) {
  for (int r = 0; r < p.rows(); ++r) {
    for (int c = 0; c < p.cols(); ++c) {
      (*grad)(r, c) = -q(r, c) / std::max(p(r, c), 1e-6f);
    }
  }
}

// (recurrent cell, prob-grad head?, reversed minibatch?)
class NerTrainBatchTest
    : public testing::TestWithParam<
          std::tuple<NerTaggerConfig::Recurrent, bool, bool>> {};

TEST_P(NerTrainBatchTest, MatchesPerInstanceLoopBytewise) {
  const auto [recurrent, prob_grad, reversed] = GetParam();
  Rng data_rng(90);
  auto emb = MakeEmbeddings(40, 6, &data_rng);
  NerTaggerConfig config;
  config.conv_features = 8;
  config.gru_hidden = 5;
  config.dropout = 0.3;
  config.num_classes = 4;
  config.recurrent = recurrent;
  // Mixed lengths: a length-1 sentence, equal-length runs split apart in
  // minibatch order, and the longest ones not first.
  std::vector<int> lengths = {3, 1, 7, 3, 3, 5, 7, 2, 5, 4, 3};
  if (reversed) std::reverse(lengths.begin(), lengths.end());
  const int n = static_cast<int>(lengths.size());
  std::vector<data::Instance> xs;
  std::vector<Matrix> qs;
  std::vector<float> weights;
  for (int len : lengths) {
    xs.push_back(MakeInstance(len, 40, &data_rng, true, 4));
    Matrix q(len, 4);
    for (int t = 0; t < len; ++t) {
      double sum = 0.0;
      for (int c = 0; c < 4; ++c) sum += q(t, c) = 0.1f + data_rng.Uniform();
      for (int c = 0; c < 4; ++c) q(t, c) = static_cast<float>(q(t, c) / sum);
    }
    qs.push_back(std::move(q));
    weights.push_back(static_cast<float>(1 + data_rng.UniformInt(4)));
  }
  std::vector<const data::Instance*> batch;
  for (const data::Instance& x : xs) batch.push_back(&x);

  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    Rng init_a(5), init_b(5);
    NerTagger batched(config, emb, &init_a);
    NerTagger looped(config, emb, &init_b);
    Rng rng_a(77), rng_b(77);

    TrainHead head;
    head.weights = weights;
    std::vector<Matrix> batch_probs(n);
    if (prob_grad) {
      head.prob_grad = [&](int b, const Matrix& p, Matrix* grad) {
        batch_probs[b] = p;
        CrossEntropyProbGrad(qs[b], p, grad);
      };
    } else {
      for (const Matrix& q : qs) head.targets.push_back(&q);
    }
    util::Parallelizer exec(threads);
    std::vector<double> losses;
    batched.TrainBatch(batch, head, &rng_a, &exec, &losses);
    ASSERT_EQ(static_cast<int>(losses.size()), n);

    for (int b = 0; b < n; ++b) {
      const Matrix& p = looped.ForwardTrain(xs[b], &rng_b);
      if (prob_grad) {
        EXPECT_TRUE(SameBytes(p, batch_probs[b])) << "probs of " << b;
        Matrix grad(p.rows(), p.cols());
        CrossEntropyProbGrad(qs[b], p, &grad);
        looped.BackwardProbGrad(grad, weights[b]);
        EXPECT_EQ(losses[b], 0.0);
      } else {
        const double loss = looped.BackwardSoftTarget(qs[b], weights[b]);
        EXPECT_EQ(loss, losses[b]) << "loss of " << b;
      }
    }
    const std::vector<nn::Parameter*> pa = batched.Params();
    const std::vector<nn::Parameter*> pb = looped.Params();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_TRUE(SameBytes(pa[i]->grad, pb[i]->grad)) << pa[i]->name;
    }
    EXPECT_TRUE(rng_a.engine() == rng_b.engine()) << "dropout stream";
  }
}

INSTANTIATE_TEST_SUITE_P(
    CellsHeadsOrders, NerTrainBatchTest,
    testing::Combine(testing::Values(NerTaggerConfig::Recurrent::kGru,
                                     NerTaggerConfig::Recurrent::kLstm),
                     testing::Bool(), testing::Bool()));

TEST(NerTrainBatchTest, BaseClassLoopMatchesTextCnn) {
  // Models without their own TrainBatch run the base-class loop: the same
  // ForwardTrain / BackwardSoftTarget sequence, losses reported per instance.
  Rng data_rng(91);
  auto emb = MakeEmbeddings(40, 6, &data_rng);
  TextCnnConfig config;
  config.feature_maps = 4;
  std::vector<data::Instance> xs;
  std::vector<Matrix> qs;
  for (int len : {6, 2, 9}) {
    xs.push_back(MakeInstance(len, 40, &data_rng, false, 2));
    Matrix q(1, 2);
    q(0, 0) = 0.25f;
    q(0, 1) = 0.75f;
    qs.push_back(q);
  }
  Rng init_a(6), init_b(6), rng_a(8), rng_b(8);
  TextCnn batched(config, emb, &init_a);
  TextCnn looped(config, emb, &init_b);
  TrainHead head;
  std::vector<const data::Instance*> batch;
  for (size_t b = 0; b < xs.size(); ++b) {
    batch.push_back(&xs[b]);
    head.targets.push_back(&qs[b]);
  }
  std::vector<double> losses;
  batched.TrainBatch(batch, head, &rng_a, nullptr, &losses);
  for (size_t b = 0; b < xs.size(); ++b) {
    looped.ForwardTrain(xs[b], &rng_b);
    EXPECT_EQ(looped.BackwardSoftTarget(qs[b], 1.0f), losses[b]);
  }
  for (size_t i = 0; i < batched.Params().size(); ++i) {
    EXPECT_TRUE(SameBytes(batched.Params()[i]->grad, looped.Params()[i]->grad));
  }
}

// ----------------------------------------------------- LogisticRegression --

TEST(LogisticRegressionTest, PredictAndGradCheck) {
  Rng rng(12);
  auto emb = MakeEmbeddings(30, 6, &rng);
  LogisticRegression lr(3, emb, &rng);
  const data::Instance x = MakeInstance(7, 30, &rng, false, 3);
  const Matrix p = lr.Predict(x);
  EXPECT_EQ(p.rows(), 1);
  EXPECT_EQ(p.cols(), 3);
  ExpectRowStochastic(p);

  Matrix q(1, 3);
  q(0, 2) = 1.0f;
  RunModelGradCheck(&lr, x, q, &rng, 1e-2);
}

TEST(LogisticRegressionTest, EmptyTokenListSafe) {
  Rng rng(13);
  auto emb = MakeEmbeddings(30, 6, &rng);
  LogisticRegression lr(2, emb, &rng);
  data::Instance x;
  x.label = 0;
  const Matrix p = lr.Predict(x);
  ExpectRowStochastic(p);
}

TEST(ModelProbGradTest, BackwardProbGradMatchesSoftTargetDirection) {
  // For loss CE(q, p), dL/dp = -q/p. Feeding that through BackwardProbGrad
  // must match BackwardSoftTarget gradients.
  Rng rng(14);
  auto emb = MakeEmbeddings(30, 6, &rng);
  LogisticRegression lr(2, emb, &rng);
  const data::Instance x = MakeInstance(5, 30, &rng, false, 2);
  Matrix q(1, 2);
  q(0, 0) = 0.4f;
  q(0, 1) = 0.6f;

  Rng fixed(999);
  nn::ZeroGrads(lr.Params());
  const Matrix& p = lr.ForwardTrain(x, &fixed);
  lr.BackwardSoftTarget(q, 1.0f);
  Matrix grad_soft = lr.Params()[0]->grad;

  nn::ZeroGrads(lr.Params());
  Rng fixed2(999);
  lr.ForwardTrain(x, &fixed2);
  Matrix grad_p(1, 2);
  grad_p(0, 0) = -q(0, 0) / p(0, 0);
  grad_p(0, 1) = -q(0, 1) / p(0, 1);
  lr.BackwardProbGrad(grad_p, 1.0f);
  Matrix grad_prob_path = lr.Params()[0]->grad;

  for (int r = 0; r < grad_soft.rows(); ++r) {
    for (int c = 0; c < grad_soft.cols(); ++c) {
      EXPECT_NEAR(grad_soft(r, c), grad_prob_path(r, c), 1e-4);
    }
  }
}


// -------------------------------------------------------------- CrfTagger --

TEST(CrfTaggerTest, MarginalsAreRowStochastic) {
  Rng rng(20);
  auto emb = MakeEmbeddings(40, 6, &rng);
  CrfTaggerConfig config;
  config.conv_features = 5;
  config.gru_hidden = 4;
  config.num_classes = 4;
  CrfTagger crf(config, emb, &rng);
  const data::Instance x = MakeInstance(7, 40, &rng, true, 4);
  const Matrix p = crf.Predict(x);
  EXPECT_EQ(p.rows(), 7);
  EXPECT_EQ(p.cols(), 4);
  ExpectRowStochastic(p);
}

TEST(CrfTaggerTest, GradientCheckNllAgainstFiniteDifferences) {
  Rng rng(21);
  auto emb = MakeEmbeddings(30, 5, &rng);
  CrfTaggerConfig config;
  config.conv_features = 4;
  config.gru_hidden = 3;
  config.dropout = 0.0;
  config.num_classes = 3;
  CrfTagger crf(config, emb, &rng);
  const data::Instance x = MakeInstance(5, 30, &rng, true, 3);
  Matrix q(5, 3);
  for (int t = 0; t < 5; ++t) q(t, (t * 2) % 3) = 1.0f;

  auto loss_fn = [&]() {
    // BackwardSoftTarget both computes the loss and accumulates grads; the
    // checker compares against the grads from compute_grads, so save and
    // restore them around the probe evaluation.
    const std::vector<nn::Parameter*> params = crf.Params();
    std::vector<Matrix> saved;
    for (nn::Parameter* p : params) saved.push_back(p->grad);
    Rng fixed(7);
    crf.ForwardTrain(x, &fixed);
    const double loss = crf.BackwardSoftTarget(q, 1.0f);
    for (size_t i = 0; i < params.size(); ++i) params[i]->grad = saved[i];
    return loss;
  };
  auto compute_grads = [&]() {
    nn::ZeroGrads(crf.Params());
    Rng fixed(7);
    crf.ForwardTrain(x, &fixed);
    crf.BackwardSoftTarget(q, 1.0f);
  };
  const nn::GradCheckResult r = nn::CheckGradients(
      loss_fn, compute_grads, crf.Params(), &rng, 1e-3, 8);
  EXPECT_LT(r.max_rel_error, 3e-2) << "abs " << r.max_abs_error;
}

TEST(CrfTaggerTest, LearnsTransitionStructure) {
  // Supervision where class 1 is ALWAYS followed by class 2. After training,
  // the learned transition score T(1, 2) should dominate row 1.
  Rng rng(22);
  auto emb = MakeEmbeddings(30, 6, &rng);
  CrfTaggerConfig config;
  config.conv_features = 6;
  config.gru_hidden = 4;
  config.dropout = 0.0;
  config.num_classes = 3;
  CrfTagger crf(config, emb, &rng);
  nn::Adam adam(0.05);
  for (int step = 0; step < 120; ++step) {
    data::Instance x = MakeInstance(6, 30, &rng, true, 3);
    Matrix q(6, 3);
    for (int t = 0; t < 6; ++t) {
      const int label = t % 2 == 0 ? 1 : 2;  // 1 2 1 2 ...
      q(t, label) = 1.0f;
    }
    crf.ForwardTrain(x, &rng);
    crf.BackwardSoftTarget(q, 1.0f);
    adam.Step(crf.Params());
  }
  // Inspect the transition parameter through Params() (index: conv 2 +
  // gru 9 + fc 2 = 13 -> transition at 13).
  const nn::Parameter* transition = crf.Params()[13];
  ASSERT_EQ(transition->name, "crf.transition");
  EXPECT_GT(transition->value(1, 2), transition->value(1, 0));
  EXPECT_GT(transition->value(1, 2), transition->value(1, 1));
}

TEST(CrfTaggerTest, ViterbiAgreesWithMarginalsOnConfidentInput) {
  Rng rng(23);
  auto emb = MakeEmbeddings(40, 6, &rng);
  CrfTaggerConfig config;
  config.conv_features = 5;
  config.gru_hidden = 4;
  config.num_classes = 4;
  CrfTagger crf(config, emb, &rng);
  const data::Instance x = MakeInstance(6, 40, &rng, true, 4);
  const std::vector<int> viterbi = crf.Decode(x);
  ASSERT_EQ(viterbi.size(), 6u);
  for (int v : viterbi) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 4);
  }
}

TEST(CrfTaggerDeathTest, ProbGradPathAborts) {
  Rng rng(24);
  auto emb = MakeEmbeddings(20, 4, &rng);
  CrfTaggerConfig config;
  config.conv_features = 3;
  config.gru_hidden = 3;
  config.num_classes = 3;
  CrfTagger crf(config, emb, &rng);
  const data::Instance x = MakeInstance(4, 20, &rng, true, 3);
  crf.ForwardTrain(x, &rng);
  Matrix g(4, 3);
  EXPECT_DEATH(crf.BackwardProbGrad(g, 1.0f), "CrfTagger");
}

}  // namespace
}  // namespace lncl::models
