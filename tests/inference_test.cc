#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "crowd/simulator.h"
#include "data/bio.h"
#include "data/ner_gen.h"
#include "data/sentiment_gen.h"
#include "eval/metrics.h"
#include "inference/bsc_seq.h"
#include "inference/catd.h"
#include "inference/dawid_skene.h"
#include "inference/glad.h"
#include "inference/hmm_crowd.h"
#include "inference/ibcc.h"
#include "inference/mace.h"
#include "inference/majority_vote.h"
#include "inference/pm.h"
#include "inference/truth_inference.h"
#include "inference/zencrowd.h"
#include "util/chain.h"
#include "util/rng.h"

namespace lncl::inference {
namespace {

using util::Rng;

// Shared fixture: a classification corpus with a simulated crowd.
class ClassificationInferenceTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(123);
    data::SentimentGenConfig gcfg;
    corpus_ = new data::SentimentCorpus(
        data::GenerateSentimentCorpus(gcfg, 600, 50, 50, rng_));
    crowd::CrowdConfig ccfg;
    ccfg.num_annotators = 40;
    sim_ = new crowd::CrowdSimulator(
        crowd::CrowdSimulator::MakeClassification(ccfg, 2, rng_));
    annotations_ = new crowd::AnnotationSet(
        sim_->Annotate(corpus_->train, rng_));
    items_ = new std::vector<int>(ItemsPerInstance(corpus_->train));
  }
  static void TearDownTestSuite() {
    delete items_;
    delete annotations_;
    delete sim_;
    delete corpus_;
    delete rng_;
  }

  static double RunAccuracy(const TruthInference& method) {
    Rng rng(7);
    const auto posteriors = method.Infer(*annotations_, *items_, &rng);
    return eval::PosteriorAccuracy(posteriors, corpus_->train);
  }

  static Rng* rng_;
  static data::SentimentCorpus* corpus_;
  static crowd::CrowdSimulator* sim_;
  static crowd::AnnotationSet* annotations_;
  static std::vector<int>* items_;
};

Rng* ClassificationInferenceTest::rng_ = nullptr;
data::SentimentCorpus* ClassificationInferenceTest::corpus_ = nullptr;
crowd::CrowdSimulator* ClassificationInferenceTest::sim_ = nullptr;
crowd::AnnotationSet* ClassificationInferenceTest::annotations_ = nullptr;
std::vector<int>* ClassificationInferenceTest::items_ = nullptr;

TEST_F(ClassificationInferenceTest, FlattenRoundTrip) {
  const ItemView view = FlattenItems(*annotations_, *items_);
  EXPECT_EQ(view.items.size(), static_cast<size_t>(corpus_->train.size()));
  EXPECT_EQ(view.num_classes, 2);
  long labels = 0;
  for (const auto& item : view.items) labels += item.labels.size();
  EXPECT_EQ(labels, annotations_->TotalAnnotations());
}

TEST_F(ClassificationInferenceTest, MajorityVoteBetterThanChance) {
  MajorityVote mv;
  EXPECT_GT(RunAccuracy(mv), 0.62);  // default crowd config is quite noisy
}

TEST_F(ClassificationInferenceTest, DawidSkeneBeatsMajorityVote) {
  MajorityVote mv;
  DawidSkene ds;
  EXPECT_GT(RunAccuracy(ds), RunAccuracy(mv));
}

TEST_F(ClassificationInferenceTest, GladBeatsMajorityVote) {
  MajorityVote mv;
  Glad glad;
  EXPECT_GT(RunAccuracy(glad), RunAccuracy(mv));
}

TEST_F(ClassificationInferenceTest, IbccCompetitiveWithDs) {
  DawidSkene ds;
  Ibcc ibcc;
  EXPECT_GT(RunAccuracy(ibcc), RunAccuracy(ds) - 0.02);
}

TEST_F(ClassificationInferenceTest, PmAndCatdBeatMajorityVote) {
  MajorityVote mv;
  Pm pm;
  Catd catd;
  const double mv_acc = RunAccuracy(mv);
  EXPECT_GE(RunAccuracy(pm), mv_acc - 0.005);
  EXPECT_GE(RunAccuracy(catd), mv_acc - 0.005);
}

TEST_F(ClassificationInferenceTest, DsRecoversAnnotatorReliabilityOrdering) {
  DawidSkene ds;
  const ItemView view = FlattenItems(*annotations_, *items_);
  crowd::ConfusionSet confusions;
  ds.Run(view, 0.0, &confusions);
  const crowd::ConfusionSet empirical =
      crowd::EmpiricalConfusions(*annotations_, corpus_->train);
  const auto labels = annotations_->LabelsPerAnnotator();
  // Estimated reliabilities should correlate with the empirical truth.
  double cov = 0.0, ve = 0.0, va = 0.0, me = 0.0, ma = 0.0;
  int n = 0;
  for (size_t j = 0; j < confusions.size(); ++j) {
    if (labels[j] < 30) continue;
    me += confusions[j].Reliability();
    ma += empirical[j].Reliability();
    ++n;
  }
  ASSERT_GT(n, 5);
  me /= n;
  ma /= n;
  for (size_t j = 0; j < confusions.size(); ++j) {
    if (labels[j] < 30) continue;
    const double de = confusions[j].Reliability() - me;
    const double da = empirical[j].Reliability() - ma;
    cov += de * da;
    ve += de * de;
    va += da * da;
  }
  EXPECT_GT(cov / std::sqrt(ve * va), 0.7);
}

TEST_F(ClassificationInferenceTest, GladEstimatesAbilityOrdering) {
  Glad glad;
  const auto detailed = glad.RunDetailed(*annotations_, *items_);
  const crowd::ConfusionSet empirical =
      crowd::EmpiricalConfusions(*annotations_, corpus_->train);
  const auto labels = annotations_->LabelsPerAnnotator();
  // The most able annotator (by alpha) among heavy labelers should have
  // above-average empirical accuracy.
  int best = -1;
  double best_alpha = -1e9;
  for (size_t j = 0; j < detailed.ability.size(); ++j) {
    if (labels[j] < 50) continue;
    if (detailed.ability[j] > best_alpha) {
      best_alpha = detailed.ability[j];
      best = static_cast<int>(j);
    }
  }
  ASSERT_GE(best, 0);
  EXPECT_GT(empirical[best].Reliability(), 0.7);
}


TEST_F(ClassificationInferenceTest, MaceBeatsMajorityVote) {
  MajorityVote mv;
  Mace mace;
  EXPECT_GT(RunAccuracy(mace), RunAccuracy(mv));
}


TEST_F(ClassificationInferenceTest, ZenCrowdBeatsMajorityVote) {
  MajorityVote mv;
  ZenCrowd zc;
  EXPECT_GT(RunAccuracy(zc), RunAccuracy(mv));
}

TEST(ZenCrowdToyTest, ReliabilityOrderingRecovered) {
  Rng rng(15);
  const int n = 400;
  crowd::AnnotationSet ann(n, 3, 3);
  data::Dataset d;
  d.num_classes = 3;
  for (int i = 0; i < n; ++i) {
    data::Instance x;
    x.tokens = {1};
    x.label = rng.UniformInt(3);
    d.instances.push_back(x);
    const int truth = d.instances[i].label;
    auto noisy = [&](double p) {
      if (rng.Bernoulli(p)) return truth;
      int other = rng.UniformInt(2);
      if (other >= truth) ++other;
      return other;
    };
    ann.instance(i).entries.push_back({0, {noisy(0.95)}});
    ann.instance(i).entries.push_back({1, {noisy(0.7)}});
    ann.instance(i).entries.push_back({2, {noisy(0.4)}});
  }
  ZenCrowd zc;
  const auto detailed = zc.RunDetailed(ann, std::vector<int>(n, 1));
  EXPECT_GT(detailed.reliability[0], detailed.reliability[1]);
  EXPECT_GT(detailed.reliability[1], detailed.reliability[2]);
  EXPECT_NEAR(detailed.reliability[0], 0.95, 0.07);
  EXPECT_GT(eval::PosteriorAccuracy(detailed.posteriors, d), 0.9);
}

TEST(MaceToyTest, DetectsConstantClassSpammer) {
  Rng rng(8);
  const int n = 300;
  crowd::AnnotationSet ann(n, 3, 2);
  data::Dataset d;
  d.num_classes = 2;
  for (int i = 0; i < n; ++i) {
    data::Instance x;
    x.tokens = {1};
    x.label = rng.UniformInt(2);
    d.instances.push_back(x);
    const int truth = d.instances[i].label;
    ann.instance(i).entries.push_back({0, {truth}});  // competent
    const int noisy = rng.Bernoulli(0.8) ? truth : 1 - truth;
    ann.instance(i).entries.push_back({1, {noisy}});  // decent
    ann.instance(i).entries.push_back({2, {1}});      // constant-1 spammer
  }
  Mace mace;
  const auto detailed = mace.RunDetailed(ann, std::vector<int>(n, 1));
  // MACE's competence is known to be downward-biased (a spamming annotator
  // can emit the correct label too), so assert the ordering plus loose
  // absolute bands.
  // (with only 3 annotators the 100% and 80% annotators are near-
  // indistinguishable; what matters is that both dominate the spammer)
  EXPECT_GT(detailed.competence[0], 0.7);
  EXPECT_GT(detailed.competence[1], detailed.competence[2]);
  EXPECT_LT(detailed.competence[2], 0.35);
  EXPECT_GT(eval::PosteriorAccuracy(detailed.posteriors, d), 0.85);
}

TEST(MaceToyTest, SpamDistributionIgnoredForHonestCrowd) {
  // Everyone perfect: competence should approach 1 for all.
  Rng rng(9);
  const int n = 150;
  crowd::AnnotationSet ann(n, 4, 3);
  for (int i = 0; i < n; ++i) {
    const int truth = rng.UniformInt(3);
    for (int j = 0; j < 4; ++j) {
      ann.instance(i).entries.push_back({j, {truth}});
    }
  }
  Mace mace;
  const auto detailed = mace.RunDetailed(ann, std::vector<int>(n, 1));
  for (double c : detailed.competence) EXPECT_GT(c, 0.8);
}

// --------------------------------------------------------------- Chain --

TEST(ChainTest, UniformEverythingGivesUniformMarginals) {
  const int k = 3;
  util::Vector prior(k, 1.0f / k);
  util::Matrix transition(k, k, 1.0f / k);
  util::Matrix emission(4, k, 1.0f);
  util::Matrix gamma;
  util::ChainForwardBackward(prior, transition, emission, &gamma, nullptr);
  for (int t = 0; t < 4; ++t) {
    for (int m = 0; m < k; ++m) EXPECT_NEAR(gamma(t, m), 1.0 / k, 1e-5);
  }
}

TEST(ChainTest, StrongEmissionDominates) {
  const int k = 2;
  util::Vector prior(k, 0.5f);
  util::Matrix transition(k, k, 0.5f);
  util::Matrix emission(3, k, 1e-3f);
  emission(0, 0) = 1.0f;
  emission(1, 1) = 1.0f;
  emission(2, 0) = 1.0f;
  util::Matrix gamma;
  util::ChainForwardBackward(prior, transition, emission, &gamma, nullptr);
  EXPECT_GT(gamma(0, 0), 0.95f);
  EXPECT_GT(gamma(1, 1), 0.95f);
  EXPECT_GT(gamma(2, 0), 0.95f);
}

TEST(ChainTest, TransitionSmoothsAmbiguousStep) {
  // Middle step has flat emission; sticky transitions should pull it toward
  // the neighbors' state.
  const int k = 2;
  util::Vector prior(k, 0.5f);
  util::Matrix transition(k, k);
  transition(0, 0) = 0.9f; transition(0, 1) = 0.1f;
  transition(1, 0) = 0.1f; transition(1, 1) = 0.9f;
  util::Matrix emission(3, k, 1.0f);
  emission(0, 1) = 0.01f;
  emission(2, 1) = 0.01f;
  util::Matrix gamma;
  util::ChainForwardBackward(prior, transition, emission, &gamma, nullptr);
  EXPECT_GT(gamma(1, 0), 0.9f);
}

TEST(ChainTest, XiSumsAccumulate) {
  const int k = 2;
  util::Vector prior(k, 0.5f);
  util::Matrix transition(k, k, 0.5f);
  util::Matrix emission(4, k, 1.0f);
  util::Matrix gamma;
  util::Matrix xi(k, k);
  util::ChainForwardBackward(prior, transition, emission, &gamma, &xi);
  double total = 0.0;
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) total += xi(a, b);
  }
  EXPECT_NEAR(total, 3.0, 1e-4);  // T-1 pairwise distributions
}

// ----------------------------------------------------- Sequence methods --

class SequenceInferenceTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(321);
    data::NerGenConfig gcfg;
    corpus_ = new data::NerCorpus(
        data::GenerateNerCorpus(gcfg, 250, 30, 30, &rng));
    crowd::CrowdConfig ccfg;
    ccfg.num_annotators = 25;
    auto sim = crowd::CrowdSimulator::MakeSequence(ccfg, &rng);
    annotations_ = new crowd::AnnotationSet(
        sim.AnnotateSequences(corpus_->train, &rng));
    items_ = new std::vector<int>(ItemsPerInstance(corpus_->train));
  }
  static void TearDownTestSuite() {
    delete items_;
    delete annotations_;
    delete corpus_;
  }

  static double RunF1(const TruthInference& method) {
    Rng rng(7);
    const auto posteriors = method.Infer(*annotations_, *items_, &rng);
    return eval::PosteriorSpanF1(posteriors, corpus_->train).f1;
  }

  static data::NerCorpus* corpus_;
  static crowd::AnnotationSet* annotations_;
  static std::vector<int>* items_;
};

data::NerCorpus* SequenceInferenceTest::corpus_ = nullptr;
crowd::AnnotationSet* SequenceInferenceTest::annotations_ = nullptr;
std::vector<int>* SequenceInferenceTest::items_ = nullptr;

TEST_F(SequenceInferenceTest, TokenMethodsBetterThanNothing) {
  MajorityVote mv;
  EXPECT_GT(RunF1(mv), 0.35);
}

TEST_F(SequenceInferenceTest, DsBeatsMvOnSequences) {
  MajorityVote mv;
  DawidSkene ds;
  EXPECT_GT(RunF1(ds), RunF1(mv));
}

TEST_F(SequenceInferenceTest, HmmCrowdBeatsTokenMv) {
  MajorityVote mv;
  HmmCrowd hmm;
  EXPECT_GT(RunF1(hmm), RunF1(mv));
}

TEST_F(SequenceInferenceTest, BscSeqCompetitiveWithHmmCrowd) {
  HmmCrowd hmm;
  BscSeq bsc;
  EXPECT_GT(RunF1(bsc), RunF1(hmm) - 0.03);
}

TEST_F(SequenceInferenceTest, PosteriorsRowStochastic) {
  Rng rng(7);
  HmmCrowd hmm;
  const auto posteriors = hmm.Infer(*annotations_, *items_, &rng);
  for (size_t i = 0; i < posteriors.size(); i += 40) {
    for (int t = 0; t < posteriors[i].rows(); ++t) {
      double sum = 0.0;
      for (int c = 0; c < posteriors[i].cols(); ++c) {
        sum += posteriors[i](t, c);
      }
      EXPECT_NEAR(sum, 1.0, 1e-4);
    }
  }
}


TEST(PmToyTest, DownWeightsPersistentlyWrongSource) {
  Rng rng(11);
  const int n = 400;
  crowd::AnnotationSet ann(n, 3, 2);
  data::Dataset d;
  d.num_classes = 2;
  for (int i = 0; i < n; ++i) {
    data::Instance x;
    x.tokens = {1};
    x.label = rng.UniformInt(2);
    d.instances.push_back(x);
    const int truth = d.instances[i].label;
    ann.instance(i).entries.push_back({0, {truth}});
    ann.instance(i).entries.push_back(
        {1, {rng.Bernoulli(0.9) ? truth : 1 - truth}});
    ann.instance(i).entries.push_back({2, {1 - truth}});  // always wrong
  }
  Pm pm;
  Rng run(1);
  const auto q = pm.Infer(ann, std::vector<int>(n, 1), &run);
  // Despite the adversary, weighted voting stays close to the reliable
  // annotators' ceiling (the 3-vote committee cannot fully mute it).
  EXPECT_GT(eval::PosteriorAccuracy(q, d), 0.88);
}

TEST(CatdToyTest, LowVolumeSourceGetsConservativeWeight) {
  // Annotator 2 is perfect but labeled only 5 items; annotator 1 is 85%
  // accurate over everything. CATD must still aggregate sensibly.
  Rng rng(12);
  const int n = 300;
  crowd::AnnotationSet ann(n, 3, 2);
  data::Dataset d;
  d.num_classes = 2;
  for (int i = 0; i < n; ++i) {
    data::Instance x;
    x.tokens = {1};
    x.label = rng.UniformInt(2);
    d.instances.push_back(x);
    const int truth = d.instances[i].label;
    ann.instance(i).entries.push_back({0, {truth}});
    ann.instance(i).entries.push_back(
        {1, {rng.Bernoulli(0.85) ? truth : 1 - truth}});
    if (i < 5) ann.instance(i).entries.push_back({2, {truth}});
  }
  Catd catd;
  Rng run(1);
  const auto q = catd.Infer(ann, std::vector<int>(n, 1), &run);
  EXPECT_GT(eval::PosteriorAccuracy(q, d), 0.85);
}

TEST(IbccToyTest, PriorStabilizesSparseAnnotators) {
  // Sparse labels per annotator: plain DS overfits its confusion estimates;
  // IBCC's diagonal prior must keep the posterior accuracy reasonable.
  Rng rng(13);
  const int n = 120;
  const int annotators = 40;  // each labels ~9 items
  crowd::AnnotationSet ann(n, annotators, 2);
  data::Dataset d;
  d.num_classes = 2;
  for (int i = 0; i < n; ++i) {
    data::Instance x;
    x.tokens = {1};
    x.label = rng.UniformInt(2);
    d.instances.push_back(x);
    for (int j : rng.SampleWithoutReplacement(annotators, 3)) {
      const int truth = d.instances[i].label;
      ann.instance(i).entries.push_back(
          {j, {rng.Bernoulli(0.75) ? truth : 1 - truth}});
    }
  }
  Ibcc ibcc;
  Rng run(1);
  const auto q = ibcc.Infer(ann, std::vector<int>(n, 1), &run);
  EXPECT_GT(eval::PosteriorAccuracy(q, d), 0.75);
}

TEST(HmmCrowdToyTest, TransitionsRepairIsolatedTokenErrors) {
  // Truth: long runs of state 0 with occasional 1s; a noisy annotator flips
  // isolated tokens. The chain prior should smooth isolated flips better
  // than token-wise DS.
  Rng rng(14);
  const int n = 80;
  data::Dataset d;
  d.num_classes = 2;
  d.sequence = true;
  crowd::AnnotationSet ann(n, 4, 2);
  for (int i = 0; i < n; ++i) {
    data::Instance x;
    const int len = 12;
    x.tokens.assign(len, 1);
    x.tag_labels.assign(len, 0);
    // one run of 1s of length 3
    const int start = rng.UniformInt(len - 3);
    for (int t = start; t < start + 3; ++t) x.tag_labels[t] = 1;
    d.instances.push_back(x);
    for (int j = 0; j < 4; ++j) {
      crowd::AnnotatorLabels e;
      e.annotator = j;
      for (int t = 0; t < len; ++t) {
        const int truth = d.instances[i].tag_labels[t];
        e.labels.push_back(rng.Bernoulli(0.8) ? truth : 1 - truth);
      }
      ann.instance(i).entries.push_back(std::move(e));
    }
  }
  HmmCrowd hmm;
  DawidSkene ds;
  Rng run(1);
  const auto items = ItemsPerInstance(d);
  const double hmm_acc =
      eval::PosteriorAccuracy(hmm.Infer(ann, items, &run), d);
  const double ds_acc = eval::PosteriorAccuracy(ds.Infer(ann, items, &run), d);
  EXPECT_GE(hmm_acc, ds_acc - 0.01);
  EXPECT_GT(hmm_acc, 0.9);
}

// ---------------------------------------------- Small planted sanity set --

// Three annotators: two perfect, one adversarial. DS must learn to discount
// the adversary; MV cannot when the adversary teams with one noisy labeler.
TEST(DawidSkeneToyTest, DiscountsAdversarialAnnotator) {
  Rng rng(5);
  const int n = 200;
  data::Dataset d;
  d.num_classes = 2;
  crowd::AnnotationSet ann(n, 3, 2);
  for (int i = 0; i < n; ++i) {
    data::Instance x;
    x.tokens = {1};
    x.label = rng.UniformInt(2);
    d.instances.push_back(x);
    const int truth = d.instances[i].label;
    ann.instance(i).entries.push_back({0, {truth}});  // perfect
    // Good-but-noisy annotator (85%).
    const int noisy = rng.Bernoulli(0.85) ? truth : 1 - truth;
    ann.instance(i).entries.push_back({1, {noisy}});
    // Adversary: always wrong.
    ann.instance(i).entries.push_back({2, {1 - truth}});
  }
  DawidSkene ds;
  Rng run_rng(1);
  const auto q = ds.Infer(ann, std::vector<int>(n, 1), &run_rng);
  EXPECT_GT(eval::PosteriorAccuracy(q, d), 0.97);

  // And the confusion estimate of the adversary has a low diagonal.
  const ItemView view = FlattenItems(ann, std::vector<int>(n, 1));
  crowd::ConfusionSet confusions;
  ds.Run(view, 0.0, &confusions);
  EXPECT_LT(confusions[2].Reliability(), 0.2);
  EXPECT_GT(confusions[0].Reliability(), 0.9);
}

TEST(GladToyTest, HardItemsGetHigherDifficulty) {
  // Annotators agree on easy items, disagree on hard ones.
  Rng rng(6);
  const int n_easy = 100, n_hard = 100;
  crowd::AnnotationSet ann(n_easy + n_hard, 6, 2);
  for (int i = 0; i < n_easy + n_hard; ++i) {
    const bool hard = i >= n_easy;
    for (int j = 0; j < 6; ++j) {
      const int label = hard ? rng.UniformInt(2) : 0;
      ann.instance(i).entries.push_back({j, {label}});
    }
  }
  Glad glad;
  const auto detailed =
      glad.RunDetailed(ann, std::vector<int>(n_easy + n_hard, 1));
  double mean_easy = 0.0, mean_hard = 0.0;
  for (int i = 0; i < n_easy; ++i) mean_easy += detailed.difficulty[i];
  for (int i = n_easy; i < n_easy + n_hard; ++i) {
    mean_hard += detailed.difficulty[i];
  }
  EXPECT_GT(mean_hard / n_hard, mean_easy / n_easy);
}

// ------------------------------------ Hoisted-log bit-equality references --
//
// Compact copies of the per-label-log E-steps the zoo used before its
// likelihood logs were hoisted into per-iteration tables, and of the
// nested-vector chain smoother. The library must reproduce them byte for
// byte: the tables hold the same floats, added in the same order.

template <typename T>
bool BytesEqual(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool BytesEqual(const util::Matrix& a, const util::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// The shared normalize-and-delta block, as each method spelled it.
void RefNormalize(const util::Vector& lp, util::Vector* q, double* delta) {
  const int k = static_cast<int>(lp.size());
  float mx = lp[0];
  for (int m = 1; m < k; ++m) mx = std::max(mx, lp[m]);
  double sum = 0.0;
  util::Vector nq(k);
  for (int m = 0; m < k; ++m) {
    nq[m] = std::exp(lp[m] - mx);
    sum += nq[m];
  }
  for (int m = 0; m < k; ++m) {
    nq[m] = static_cast<float>(nq[m] / sum);
    *delta += std::fabs(nq[m] - (*q)[m]);
  }
  *q = nq;
}

std::vector<util::Vector> RefDawidSkene(const ItemView& view, int iters,
                                        double smoothing, double diag) {
  const int k = view.num_classes;
  std::vector<util::Vector> q(view.items.size());
  for (size_t i = 0; i < view.items.size(); ++i) {
    q[i].assign(k, 0.0f);
    if (view.items[i].labels.empty()) {
      for (float& v : q[i]) v = 1.0f / k;
      continue;
    }
    for (const auto& [j, y] : view.items[i].labels) q[i][y] += 1.0f;
    const float inv = 1.0f / static_cast<float>(view.items[i].labels.size());
    for (float& v : q[i]) v *= inv;
  }
  crowd::ConfusionSet pis(view.num_annotators, crowd::ConfusionMatrix(k));
  std::vector<double> prior(k);
  for (int iter = 0; iter < iters; ++iter) {
    for (auto& pi : pis) pi.matrix().Zero();
    std::vector<double> counts(k, smoothing);
    for (size_t i = 0; i < view.items.size(); ++i) {
      for (int m = 0; m < k; ++m) counts[m] += q[i][m];
      for (const auto& [j, y] : view.items[i].labels) {
        for (int m = 0; m < k; ++m) pis[j](m, y) += q[i][m];
      }
    }
    for (auto& pi : pis) {
      for (int m = 0; m < k && diag > 0.0; ++m) {
        pi(m, m) += static_cast<float>(diag);
      }
      pi.NormalizeRows(smoothing);
    }
    double total = 0.0;
    for (double c : counts) total += c;
    for (int m = 0; m < k; ++m) prior[m] = counts[m] / total;
    double delta = 0.0;
    for (size_t i = 0; i < view.items.size(); ++i) {
      util::Vector lp(k);
      for (int m = 0; m < k; ++m) {
        lp[m] = static_cast<float>(std::log(std::max(prior[m], 1e-300)));
      }
      for (const auto& [j, y] : view.items[i].labels) {
        for (int m = 0; m < k; ++m) {
          lp[m] += static_cast<float>(
              std::log(std::max(static_cast<double>(pis[j](m, y)), 1e-300)));
        }
      }
      RefNormalize(lp, &q[i], &delta);
    }
  }
  return q;
}

std::vector<util::Vector> RefMace(const ItemView& view,
                                  const Mace::Options& o) {
  const int k = view.num_classes;
  const int a = view.num_annotators;
  std::vector<double> eps(a, o.eps_init);
  std::vector<std::vector<double>> xi(a, std::vector<double>(k, 1.0 / k));
  std::vector<double> prior(k, 1.0 / k);
  std::vector<util::Vector> q(view.items.size(), util::Vector(k, 1.0f / k));
  for (int iter = 0; iter < o.max_iters; ++iter) {
    double delta = 0.0;
    for (size_t i = 0; i < view.items.size(); ++i) {
      util::Vector lp(k);
      for (int m = 0; m < k; ++m) {
        lp[m] = static_cast<float>(std::log(std::max(prior[m], 1e-300)));
      }
      for (const auto& [j, y] : view.items[i].labels) {
        for (int m = 0; m < k; ++m) {
          const double like =
              (m == y ? (1.0 - eps[j]) : 0.0) + eps[j] * xi[j][y];
          lp[m] += static_cast<float>(std::log(std::max(like, 1e-300)));
        }
      }
      RefNormalize(lp, &q[i], &delta);
    }
    std::vector<double> spam_mass(a, o.smoothing);
    std::vector<double> label_mass(a, 2.0 * o.smoothing);
    std::vector<std::vector<double>> xi_counts(
        a, std::vector<double>(k, o.smoothing));
    std::vector<double> prior_counts(k, o.smoothing);
    for (size_t i = 0; i < view.items.size(); ++i) {
      for (int m = 0; m < k; ++m) prior_counts[m] += q[i][m];
      for (const auto& [j, y] : view.items[i].labels) {
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
    for (int j = 0; j < a; ++j) {
      eps[j] = std::clamp(spam_mass[j] / label_mass[j], 1e-4, 1.0 - 1e-4);
      double total = 0.0;
      for (int m = 0; m < k; ++m) total += xi_counts[j][m];
      for (int m = 0; m < k; ++m) xi[j][m] = xi_counts[j][m] / total;
    }
    double total = 0.0;
    for (double c : prior_counts) total += c;
    for (int m = 0; m < k; ++m) prior[m] = prior_counts[m] / total;
  }
  return q;
}

void RefChain(const util::Vector& prior, const util::Matrix& transition,
              const util::Matrix& emission, util::Matrix* gamma,
              util::Matrix* xi_sum) {
  const int t_len = emission.rows();
  const int k = emission.cols();
  gamma->Resize(t_len, k);
  auto normalize = [k](std::vector<double>* v) {
    double sum = 0.0;
    for (double x : *v) sum += x;
    for (double& x : *v) x = sum <= 1e-300 ? 1.0 / k : x / sum;
  };
  std::vector<std::vector<double>> alpha(t_len, std::vector<double>(k));
  std::vector<std::vector<double>> beta(t_len, std::vector<double>(k, 1.0));
  for (int m = 0; m < k; ++m) alpha[0][m] = prior[m] * emission(0, m);
  normalize(&alpha[0]);
  for (int t = 1; t < t_len; ++t) {
    for (int b = 0; b < k; ++b) {
      double s = 0.0;
      for (int a = 0; a < k; ++a) s += alpha[t - 1][a] * transition(a, b);
      alpha[t][b] = s * emission(t, b);
    }
    normalize(&alpha[t]);
  }
  for (int t = t_len - 2; t >= 0; --t) {
    for (int a = 0; a < k; ++a) {
      double s = 0.0;
      for (int b = 0; b < k; ++b) {
        s += transition(a, b) * emission(t + 1, b) * beta[t + 1][b];
      }
      beta[t][a] = s;
    }
    normalize(&beta[t]);
  }
  for (int t = 0; t < t_len; ++t) {
    std::vector<double> g(k);
    for (int m = 0; m < k; ++m) g[m] = alpha[t][m] * beta[t][m];
    normalize(&g);
    for (int m = 0; m < k; ++m) (*gamma)(t, m) = static_cast<float>(g[m]);
  }
  for (int t = 0; t + 1 < t_len; ++t) {
    double total = 0.0;
    std::vector<double> xi(static_cast<size_t>(k) * k);
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        xi[a * k + b] = alpha[t][a] * transition(a, b) * emission(t + 1, b) *
                        beta[t + 1][b];
        total += xi[a * k + b];
      }
    }
    if (total <= 1e-300) continue;
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        (*xi_sum)(a, b) += static_cast<float>(xi[a * k + b] / total);
      }
    }
  }
}

TEST_F(SequenceInferenceTest, DawidSkeneMatchesPerLabelLogReference) {
  const ItemView view = FlattenItems(*annotations_, *items_);
  DawidSkene::Options o;
  o.max_iters = 6;
  o.tol = 0.0;
  for (double diag : {0.0, 2.0}) {  // plain DS, then IBCC's diagonal prior
    const std::vector<util::Vector> got =
        DawidSkene(o).Run(view, diag, nullptr);
    const std::vector<util::Vector> want =
        RefDawidSkene(view, o.max_iters, o.smoothing, diag);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(BytesEqual(got[i], want[i])) << "item " << i;
    }
  }
}

TEST_F(SequenceInferenceTest, MaceMatchesPerLabelLogReference) {
  const ItemView view = FlattenItems(*annotations_, *items_);
  Mace::Options o;
  o.max_iters = 6;
  o.tol = 0.0;
  const std::vector<util::Matrix> got =
      Mace(o).RunDetailed(*annotations_, *items_).posteriors;
  const std::vector<util::Matrix> want =
      UnflattenPosteriors(view, RefMace(view, o));
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(BytesEqual(got[i], want[i])) << "instance " << i;
  }
}

TEST(ChainTest, MatchesNestedVectorReference) {
  // Random chains of several lengths (1 exercises the no-pair path) with
  // xi_sum accumulated across calls, as an EM E-step does.
  Rng rng(99);
  const int k = 9;
  util::Vector prior(k);
  util::Matrix transition(k, k);
  for (int a = 0; a < k; ++a) {
    prior[a] = static_cast<float>(rng.Uniform(0.1, 1.0));
    for (int b = 0; b < k; ++b) {
      transition(a, b) = static_cast<float>(rng.Uniform(0.01, 1.0));
    }
  }
  util::Matrix got_xi(k, k), want_xi(k, k);
  for (int t_len : {13, 1, 2, 30, 13}) {
    util::Matrix emission(t_len, k);
    for (int t = 0; t < t_len; ++t) {
      for (int m = 0; m < k; ++m) {
        emission(t, m) = static_cast<float>(rng.Uniform(1e-4, 1.0));
      }
    }
    util::Matrix got, want;
    util::ChainForwardBackward(prior, transition, emission, &got, &got_xi);
    RefChain(prior, transition, emission, &want, &want_xi);
    EXPECT_TRUE(BytesEqual(got, want)) << "T = " << t_len;
    EXPECT_TRUE(BytesEqual(got_xi, want_xi)) << "T = " << t_len;
  }
}

}  // namespace
}  // namespace lncl::inference
