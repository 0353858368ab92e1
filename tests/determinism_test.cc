// Bit-identity regression tests for intra-model parallelism (DESIGN.md §5).
// Training with any config.threads (0, 1, 4) must produce byte-for-byte
// identical final parameters, loss curves, dev curves, posteriors q_f, and
// confusion estimates: the E-step partitions work over Parallelizer::kSlots
// fixed slots, and the M-step splits each minibatch's lanes across threads
// while every gradient, loss and count still sums in minibatch / instance
// order, so the thread count only changes who computes a row, never what is
// summed in which order.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/logic_lncl.h"
#include "core/ner_rules.h"
#include "crowd/simulator.h"
#include "data/ner_gen.h"
#include "data/sentiment_gen.h"
#include "models/ner_tagger.h"
#include "models/text_cnn.h"
#include "util/gemm_kernel.h"
#include "util/rng.h"

namespace lncl {
namespace {

using util::Rng;

// Byte-level snapshot of every parameter value matrix.
std::vector<std::vector<float>> SnapshotParams(models::Model* model) {
  std::vector<std::vector<float>> out;
  for (nn::Parameter* p : model->Params()) {
    out.emplace_back(p->value.data(), p->value.data() + p->value.size());
  }
  return out;
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool BitEqual(const util::Matrix& a, const util::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

struct FitSnapshot {
  core::LogicLnclResult result;
  std::vector<std::vector<float>> params;
  std::vector<util::Matrix> qf;
  std::vector<util::Matrix> confusions;
};

void ExpectBitIdentical(const FitSnapshot& a, const FitSnapshot& b) {
  // Exact double equality is intentional: the guarantee is bit-identity,
  // not closeness.
  ASSERT_EQ(a.result.loss_curve.size(), b.result.loss_curve.size());
  for (size_t i = 0; i < a.result.loss_curve.size(); ++i) {
    EXPECT_EQ(a.result.loss_curve[i], b.result.loss_curve[i])
        << "loss diverges at epoch " << i;
  }
  ASSERT_EQ(a.result.dev_curve.size(), b.result.dev_curve.size());
  for (size_t i = 0; i < a.result.dev_curve.size(); ++i) {
    EXPECT_EQ(a.result.dev_curve[i], b.result.dev_curve[i])
        << "dev score diverges at epoch " << i;
  }
  EXPECT_EQ(a.result.best_epoch, b.result.best_epoch);
  EXPECT_EQ(a.result.best_dev_score, b.result.best_dev_score);

  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t i = 0; i < a.params.size(); ++i) {
    EXPECT_TRUE(BitEqual(a.params[i], b.params[i]))
        << "parameter " << i << " differs";
  }
  ASSERT_EQ(a.qf.size(), b.qf.size());
  for (size_t i = 0; i < a.qf.size(); ++i) {
    EXPECT_TRUE(BitEqual(a.qf[i], b.qf[i])) << "q_f[" << i << "] differs";
  }
  ASSERT_EQ(a.confusions.size(), b.confusions.size());
  for (size_t i = 0; i < a.confusions.size(); ++i) {
    EXPECT_TRUE(BitEqual(a.confusions[i], b.confusions[i]))
        << "confusion " << i << " differs";
  }
}

// ------------------------------------------------------- sentiment TextCnn

class SentimentDeterminismTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    data::SentimentGenConfig gcfg;
    corpus_ = data::GenerateSentimentCorpus(gcfg, 200, 60, 60, &rng);
    crowd::CrowdConfig ccfg;
    ccfg.num_annotators = 15;
    auto sim = crowd::CrowdSimulator::MakeClassification(ccfg, 2, &rng);
    annotations_ = std::make_unique<crowd::AnnotationSet>(
        sim.Annotate(corpus_.train, &rng));
    models::TextCnnConfig mcfg;
    mcfg.feature_maps = 8;
    factory_ = models::TextCnn::Factory(mcfg, corpus_.embeddings);
  }

  FitSnapshot Run(int threads) const {
    core::LogicLnclConfig config;
    config.epochs = 4;
    config.batch_size = 32;
    config.patience = 4;
    config.k_schedule = core::SentimentKSchedule();
    config.optimizer.kind = "adadelta";
    config.optimizer.lr = 1.0;
    config.threads = threads;
    Rng rng(1);
    core::LogicLncl learner(config, factory_, nullptr);
    FitSnapshot snap;
    snap.result = learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
    snap.params = SnapshotParams(learner.model());
    snap.qf = learner.qf();
    for (const auto& c : learner.confusions()) {
      snap.confusions.push_back(c.matrix());
    }
    return snap;
  }

  data::SentimentCorpus corpus_;
  std::unique_ptr<crowd::AnnotationSet> annotations_;
  models::ModelFactory factory_;
};

TEST_F(SentimentDeterminismTest, OneVsFourThreadsBitIdentical) {
  const FitSnapshot one = Run(1);
  const FitSnapshot four = Run(4);
  ExpectBitIdentical(one, four);
}

TEST_F(SentimentDeterminismTest, ZeroVsFourThreadsBitIdentical) {
  const FitSnapshot zero = Run(0);
  const FitSnapshot four = Run(4);
  ExpectBitIdentical(zero, four);
}

TEST_F(SentimentDeterminismTest, RepeatedRunsBitIdentical) {
  // Same thread count twice: a parallel fit must also be reproducible
  // run-to-run (no address-dependent or scheduling-dependent state leaks).
  const FitSnapshot a = Run(4);
  const FitSnapshot b = Run(4);
  ExpectBitIdentical(a, b);
}

TEST_F(SentimentDeterminismTest, ScalarKernelOverrideBitIdentical) {
  // Whole-fit analogue of the LNCL_GEMM_KERNEL=scalar override: the scalar
  // GEMM backend must reproduce the SIMD trajectory byte-for-byte
  // (DESIGN.md §9 — one sequential-fma accumulator per output element in
  // both backends).
  if (!util::gemm::SimdCompiled()) {
    GTEST_SKIP() << "no SIMD kernel in this build";
  }
  util::gemm::SetActiveKindForTest(util::gemm::Kind::kSimd);
  const FitSnapshot simd = Run(1);
  util::gemm::SetActiveKindForTest(util::gemm::Kind::kScalar);
  const FitSnapshot scalar = Run(1);
  util::gemm::SetActiveKindForTest(util::gemm::ParseKindEnv());
  ExpectBitIdentical(simd, scalar);
}

// ------------------------------------------------------------- NER tagger

class NerDeterminismTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4048);
    data::NerGenConfig gcfg;
    corpus_ = data::GenerateNerCorpus(gcfg, 120, 40, 40, &rng);
    crowd::CrowdConfig ccfg;
    ccfg.num_annotators = 10;
    auto sim = crowd::CrowdSimulator::MakeSequence(ccfg, &rng);
    annotations_ = std::make_unique<crowd::AnnotationSet>(
        sim.AnnotateSequences(corpus_.train, &rng));
    models::NerTaggerConfig mcfg;
    mcfg.conv_features = 16;
    mcfg.gru_hidden = 8;
    factory_ = models::NerTagger::Factory(mcfg, corpus_.embeddings);
    projector_ = core::MakeNerRuleProjector();
  }

  FitSnapshot Run(int threads) const {
    core::LogicLnclConfig config;
    config.epochs = 3;
    config.batch_size = 16;
    config.patience = 3;
    config.weighted_loss = true;
    config.k_schedule = core::NerKSchedule();
    config.optimizer.kind = "adam";
    config.optimizer.lr = 0.002;
    config.threads = threads;
    Rng rng(1);
    core::LogicLncl learner(config, factory_, projector_.get());
    FitSnapshot snap;
    snap.result = learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
    snap.params = SnapshotParams(learner.model());
    snap.qf = learner.qf();
    for (const auto& c : learner.confusions()) {
      snap.confusions.push_back(c.matrix());
    }
    return snap;
  }

  data::NerCorpus corpus_;
  std::unique_ptr<crowd::AnnotationSet> annotations_;
  models::ModelFactory factory_;
  std::unique_ptr<logic::SequenceRuleProjector> projector_;
};

TEST_F(NerDeterminismTest, OneVsFourThreadsBitIdentical) {
  const FitSnapshot one = Run(1);
  const FitSnapshot four = Run(4);
  ExpectBitIdentical(one, four);
}

TEST_F(NerDeterminismTest, ZeroVsFourThreadsBitIdentical) {
  // threads = 0 is the serial trajectory; four threads split each
  // minibatch's lanes into four groups and must not move a bit.
  const FitSnapshot zero = Run(0);
  const FitSnapshot four = Run(4);
  ExpectBitIdentical(zero, four);
}

}  // namespace
}  // namespace lncl
