#pragma once

// The benchmark's three workloads and the operations it times on them. Every
// function here calls the library's public API only; the harness records
// its own spans around those calls (spans.h) and never changes src/.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/crowd_layer.h"
#include "bench_common.h"
#include "core/logic_lncl.h"
#include "core/sentiment_rules.h"
#include "logic/sequence_rules.h"
#include "spans.h"

namespace lncl::perfbench {

enum class Kind { kSentimentEm, kNerEm, kCrowdBaselines };

struct Workload {
  const char* name;
  Kind kind;
  int threads;  // intra-model threads: LogicLnclConfig.threads on *-em
};

// The workloads by name; null for an unknown name.
const Workload* FindWorkload(const std::string& name);

// Generated inputs of one workload: corpus, simulated crowd, model factory
// and the NER transition rule. `small` is the reduced size of the
// repeatability self-test.
struct Inputs {
  bench::Scale scale;
  std::unique_ptr<bench::SentimentSetup> sentiment;  // sentiment-em
  std::unique_ptr<bench::NerSetup> ner;              // ner-em, crowd-baselines
  models::ModelFactory factory;
  std::unique_ptr<logic::SequenceRuleProjector> ner_rule;

  const data::Dataset& train() const;
  const data::Dataset& dev() const;
  const data::Dataset& test() const;
  const crowd::AnnotationSet& annotations() const;
};

// Corpus generation + crowd simulation + construction of one model: what
// setup_s times. Deterministic in `seed`.
Inputs MakeInputs(const Workload& w, uint64_t seed, bool small);

// Split timing of the two halves of MakeInputs for the traced run: corpus
// generation (regenerated from `seed`, checked equal to inputs' corpus) and
// one crowd simulation pass over the training split.
struct SetupLayers {
  double generate_s = 0.0;
  double simulate_s = 0.0;
  long labels = 0;       // item-level crowd labels on the training split
  bool corpus_equal = false;
};
SetupLayers TimeSetupLayers(const Workload& w, const Inputs& inputs,
                            uint64_t seed);

// One fitted learner: Logic-LNCL on *-em, the crowd layer (MW) otherwise.
struct Fitted {
  // Declared before `lncl`, which holds a pointer to it.
  std::unique_ptr<core::SentimentButRule> but_rule;
  std::unique_ptr<core::LogicLncl> lncl;
  std::unique_ptr<baselines::CrowdLayer> crowd_layer;
  core::LogicLnclResult result;  // *-em only
  int epochs_run = 0;            // training epochs, pre-training included
  double fit_s = 0.0;            // the Fit call alone
  std::string digest;            // FitDigest on *-em, OutputDigest otherwise
  std::vector<util::Matrix> train_posteriors;  // qf() / TrainPosteriors
};

// One full Fit from a fresh model seeded with `fit_seed`. Early stopping is
// disabled (patience = epochs) so every fit does the same amount of work.
Fitted Fit(const Workload& w, const Inputs& inputs, uint64_t fit_seed);

// Prediction passes over the test split.
std::vector<util::Matrix> PredictStudent(const Fitted& f,
                                         const Inputs& inputs);
std::vector<util::Matrix> PredictTeacher(const Workload& w, const Fitted& f,
                                         const Inputs& inputs);

// One truth-inference sweep over the training crowd: every zoo method on
// crowd-baselines, MV alone (Algorithm 1's q_f initialisation) on *-em.
struct Inferred {
  std::string method;  // metric key: lower case, '-' -> '_'
  std::vector<util::Matrix> posteriors;
  double seconds = 0.0;
};
std::vector<Inferred> InferSweep(const Workload& w, const Inputs& inputs,
                                 uint64_t seed, SpanRecorder* spans);

// Metric keys of every zoo method, in sweep order.
std::vector<std::string> ZooMethods();

// One epoch driven through the public layer calls, each under its own span
// (see README.md for the tree). Trains `f`'s model further.
struct ReplayStats {
  double m_step_s = 0.0;           // wall time of the replayed M-step
  uint64_t m_step_gemm_flops = 0;  // gemm.flops it added (Metrics on)
  double dev_score = 0.0;
};
ReplayStats ReplayEpoch(const Workload& w, const Inputs& inputs, Fitted* f,
                        int epoch, uint64_t seed, SpanRecorder* spans);

// Output checks. CheckPosteriors returns "" when `p` holds one finite,
// row-stochastic (items x K) matrix per instance of `d`, else the defect.
std::string CheckPosteriors(const std::vector<util::Matrix>& p,
                            const data::Dataset& d);
// Accuracy (classification) or strict span-F1 (sequences) of `p` on `d`.
double Score(const std::vector<util::Matrix>& p, const data::Dataset& d);
// The score a label-blind predictor gets: 1/K accuracy, 0 span-F1 (all-O).
double ChanceScore(const data::Dataset& d);

// FNV-1a over the exact bytes of a posterior set, as 16 hex digits.
std::string OutputDigest(const std::vector<util::Matrix>& p);

}  // namespace lncl::perfbench
