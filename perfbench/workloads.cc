#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>

#include "core/ner_rules.h"
#include "core/trainer.h"
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
#include "inference/zencrowd.h"
#include "obs/metrics.h"
#include "util/threadpool.h"
#include "util/timer.h"

namespace lncl::perfbench {

namespace {

using Span = SpanRecorder::Span;

const Workload kWorkloads[] = {
    {"sentiment-em", Kind::kSentimentEm, 0},
    {"ner-em", Kind::kNerEm, 2},
    {"crowd-baselines", Kind::kCrowdBaselines, 1},
};

// Table II / Table III scales of the table benches (their defaults), or the
// self-test's reduced size. patience = epochs: early stopping never fires,
// so the work per fit does not depend on the seed.
bench::Scale ScaleFor(const Workload& w, bool small) {
  const util::Config none;
  bench::Scale s = w.kind == Kind::kSentimentEm ? bench::SentimentScale(none)
                                                : bench::NerScale(none);
  if (small) {
    s.train /= 2;
    s.dev /= 4;
    s.test /= 4;
    s.epochs = 6;
  }
  s.patience = s.epochs;
  s.intra_threads = w.kind == Kind::kCrowdBaselines ? 0 : w.threads;
  return s;
}

core::LogicLnclConfig LnclConfig(const Workload& w, const Inputs& in) {
  core::LogicLnclConfig c = w.kind == Kind::kSentimentEm
                                ? bench::SentimentLnclConfig(in.scale)
                                : bench::NerLnclConfig(in.scale);
  c.patience = in.scale.patience;
  return c;
}

// Table III's CL (MW, 5) row: MW crowd layer after 5 epochs of MV
// pre-training (2 at the self-test's size, which runs 6 epochs).
baselines::CrowdLayerConfig CrowdLayerConfigFor(const bench::Scale& scale) {
  baselines::CrowdLayerConfig c;
  c.kind = baselines::CrowdLayerConfig::Kind::kMW;
  c.pretrain_epochs = std::min(5, std::max(1, scale.epochs / 3));
  c.epochs = scale.epochs;
  c.batch_size = scale.batch;
  c.patience = scale.patience;
  c.optimizer = bench::NerOptimizer();
  return c;
}

// The Logic-LNCL rule of a fitted *-em learner.
const logic::RuleProjector* RuleOf(const Fitted& f, const Inputs& in) {
  if (f.but_rule != nullptr) return f.but_rule.get();
  return in.ner_rule.get();
}

bool SameInstances(const data::Dataset& a, const data::Dataset& b) {
  if (a.size() != b.size()) return false;
  for (int i = 0; i < a.size(); ++i) {
    const data::Instance& x = a.instances[i];
    const data::Instance& y = b.instances[i];
    if (x.tokens != y.tokens || x.label != y.label ||
        x.tag_labels != y.tag_labels) {
      return false;
    }
  }
  return true;
}

struct ZooEntry {
  const char* key;
  const char* span;  // literal for obs::TraceSpan
  std::function<inference::TruthInferencePtr()> make;
};

// Convergence tolerance 0: every method runs its max_iters, so a sweep's
// work does not depend on the seed (as patience = epochs does for fits).
template <typename T>
inference::TruthInferencePtr Make() {
  typename T::Options options;
  if constexpr (requires { options.tol; }) options.tol = 0.0;
  return std::make_unique<T>(options);
}

// MajorityVote has no options.
template <>
inference::TruthInferencePtr Make<inference::MajorityVote>() {
  return std::make_unique<inference::MajorityVote>();
}

const std::vector<ZooEntry>& Zoo() {
  static const std::vector<ZooEntry> zoo = {
      {"mv", "inference.mv", Make<inference::MajorityVote>},
      {"ds", "inference.ds", Make<inference::DawidSkene>},
      {"glad", "inference.glad", Make<inference::Glad>},
      {"ibcc", "inference.ibcc", Make<inference::Ibcc>},
      {"zencrowd", "inference.zencrowd", Make<inference::ZenCrowd>},
      {"mace", "inference.mace", Make<inference::Mace>},
      {"catd", "inference.catd", Make<inference::Catd>},
      {"pm", "inference.pm", Make<inference::Pm>},
      {"bsc_seq", "inference.bsc_seq", Make<inference::BscSeq>},
      {"hmm_crowd", "inference.hmm_crowd", Make<inference::HmmCrowd>},
  };
  return zoo;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const data::Dataset& Inputs::train() const {
  return sentiment ? sentiment->corpus.train : ner->corpus.train;
}
const data::Dataset& Inputs::dev() const {
  return sentiment ? sentiment->corpus.dev : ner->corpus.dev;
}
const data::Dataset& Inputs::test() const {
  return sentiment ? sentiment->corpus.test : ner->corpus.test;
}
const crowd::AnnotationSet& Inputs::annotations() const {
  return sentiment ? sentiment->annotations : ner->annotations;
}

Inputs MakeInputs(const Workload& w, uint64_t seed, bool small) {
  Inputs in;
  in.scale = ScaleFor(w, small);
  if (w.kind == Kind::kSentimentEm) {
    in.sentiment = std::make_unique<bench::SentimentSetup>(
        bench::MakeSentimentSetup(in.scale, seed));
    in.factory = models::TextCnn::Factory(bench::SentimentModelConfig(),
                                          in.sentiment->corpus.embeddings);
  } else {
    in.ner = std::make_unique<bench::NerSetup>(
        bench::MakeNerSetup(in.scale, seed));
    in.factory = models::NerTagger::Factory(bench::NerModelConfig(),
                                            in.ner->corpus.embeddings);
    in.ner_rule = core::MakeNerRuleProjector();
  }
  // Model construction is part of set-up; every fit builds its own.
  util::Rng model_rng(seed);
  in.factory(&model_rng);
  return in;
}

SetupLayers TimeSetupLayers(const Workload& w, const Inputs& inputs,
                            uint64_t seed) {
  SetupLayers out;
  util::Rng rng(seed);  // the stream MakeInputs' corpus came from
  const bench::Scale& s = inputs.scale;
  const auto same_corpus = [&inputs](const auto& corpus) {
    return SameInstances(corpus.train, inputs.train()) &&
           SameInstances(corpus.dev, inputs.dev()) &&
           SameInstances(corpus.test, inputs.test());
  };
  util::Stopwatch sw;
  if (w.kind == Kind::kSentimentEm) {
    const data::SentimentCorpus corpus = data::GenerateSentimentCorpus(
        data::SentimentGenConfig(), s.train, s.dev, s.test, &rng);
    out.generate_s = sw.Lap();
    inputs.sentiment->simulator->Annotate(corpus.train, &rng);
    out.simulate_s = sw.Lap();
    out.corpus_equal = same_corpus(corpus);
  } else {
    const data::NerCorpus corpus = data::GenerateNerCorpus(
        data::NerGenConfig(), s.train, s.dev, s.test, &rng);
    out.generate_s = sw.Lap();
    inputs.ner->simulator->AnnotateSequences(corpus.train, &rng);
    out.simulate_s = sw.Lap();
    out.corpus_equal = same_corpus(corpus);
  }
  for (long n : inputs.annotations().LabelsPerAnnotator()) out.labels += n;
  return out;
}

Fitted Fit(const Workload& w, const Inputs& in, uint64_t fit_seed) {
  Fitted f;
  util::Rng rng(fit_seed);
  if (w.kind == Kind::kCrowdBaselines) {
    const baselines::CrowdLayerConfig c = CrowdLayerConfigFor(in.scale);
    f.crowd_layer = std::make_unique<baselines::CrowdLayer>(c, in.factory);
    util::Stopwatch sw;
    f.crowd_layer->Fit(in.train(), in.annotations(), in.dev(), &rng);
    f.fit_s = sw.Seconds();
    f.epochs_run = c.pretrain_epochs + c.epochs;
    f.train_posteriors = f.crowd_layer->TrainPosteriors(in.train());
    f.digest = OutputDigest(f.train_posteriors);
    return f;
  }
  std::unique_ptr<models::Model> model = in.factory(&rng);
  const logic::RuleProjector* rule = in.ner_rule.get();
  if (w.kind == Kind::kSentimentEm) {
    // The "but" rule consults the very model being trained.
    f.but_rule = std::make_unique<core::SentimentButRule>(
        model.get(), in.sentiment->corpus.but_token);
    rule = f.but_rule.get();
  }
  f.lncl = std::make_unique<core::LogicLncl>(LnclConfig(w, in),
                                             std::move(model), rule,
                                             in.factory);
  util::Stopwatch sw;
  f.result = f.lncl->Fit(in.train(), in.annotations(), in.dev(), &rng);
  f.fit_s = sw.Seconds();
  f.epochs_run = f.result.epochs_run;
  f.train_posteriors = f.lncl->qf();
  f.digest = bench::FitDigest(f.result);
  return f;
}

std::vector<util::Matrix> PredictStudent(const Fitted& f,
                                         const Inputs& inputs) {
  if (f.lncl != nullptr) return f.lncl->PredictStudentBatch(inputs.test());
  return f.crowd_layer->model()->PredictBatch(inputs.test());
}

std::vector<util::Matrix> PredictTeacher(const Workload& w, const Fitted& f,
                                         const Inputs& inputs) {
  if (f.lncl != nullptr) return f.lncl->PredictTeacherBatch(inputs.test());
  // The crowd layer has no teacher of its own: project its student through
  // the same NER transition rule, at Logic-LNCL's C.
  std::vector<const data::Instance*> xs;
  for (const data::Instance& x : inputs.test().instances) xs.push_back(&x);
  std::vector<util::Matrix> probs;
  f.crowd_layer->model()->PredictBatch(xs, &probs);
  inputs.ner_rule->ProjectBatch(xs, &probs, LnclConfig(w, inputs).C);
  return probs;
}

std::vector<std::string> ZooMethods() {
  std::vector<std::string> keys;
  for (const ZooEntry& e : Zoo()) keys.push_back(e.key);
  return keys;
}

std::vector<Inferred> InferSweep(const Workload& w, const Inputs& inputs,
                                 uint64_t seed, SpanRecorder* spans) {
  const std::vector<int> items = inference::ItemsPerInstance(inputs.train());
  const size_t methods = w.kind == Kind::kCrowdBaselines ? Zoo().size() : 1;
  std::vector<Inferred> out;
  for (size_t m = 0; m < methods; ++m) {
    const ZooEntry& e = Zoo()[m];
    const inference::TruthInferencePtr method = e.make();
    util::Rng rng(seed + m);
    Inferred r;
    r.method = e.key;
    util::Stopwatch sw;
    {
      Span span(spans, e.span);
      r.posteriors = method->Infer(inputs.annotations(), items, &rng);
    }
    r.seconds = sw.Seconds();
    out.push_back(std::move(r));
  }
  return out;
}

ReplayStats ReplayEpoch(const Workload& w, const Inputs& in, Fitted* f,
                        int epoch, uint64_t seed, SpanRecorder* spans) {
  const data::Dataset& train = in.train();
  const crowd::AnnotationSet& ann = in.annotations();
  const bool em = f->lncl != nullptr;
  models::Model* model = em ? f->lncl->model() : f->crowd_layer->model();
  const std::vector<nn::Parameter*> params = model->Params();
  const core::LogicLnclConfig cfg = LnclConfig(w, in);
  const baselines::CrowdLayerConfig cl = CrowdLayerConfigFor(in.scale);
  const int batch = em ? cfg.batch_size : cl.batch_size;
  std::unique_ptr<nn::Optimizer> optimizer =
      nn::MakeOptimizer(em ? cfg.optimizer : cl.optimizer);
  // EM trains on the fitted q_f; the crowd-layer replay uses the MV
  // posteriors its pre-training starts from, through the prob-grad path.
  const std::vector<util::Matrix> targets =
      em ? f->train_posteriors
         : ann.MajorityVote(inference::ItemsPerInstance(train));
  const std::vector<float> weights =
      em && cfg.weighted_loss ? core::AnnotatorCountWeights(ann)
                              : std::vector<float>();
  obs::Counter* const flops = obs::Metrics::GetCounter("gemm.flops");
  util::Rng rng(seed);
  ReplayStats stats;

  Span epoch_span(spans, "replay.epoch");
  {
    const uint64_t flops_before = flops->Total();
    util::Stopwatch sw;
    Span m_step(spans, "core.run_minibatch_epoch");
    std::vector<int> order(train.size());
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(&order);
    int in_batch = 0;
    util::Matrix grad;
    for (int idx : order) {
      const float weight = weights.empty() ? 1.0f : weights[idx];
      const util::Matrix* probs = nullptr;
      {
        Span s(spans, "models.forward_train");
        probs = &model->ForwardTrain(train.instances[idx], &rng);
      }
      if (em) {
        Span s(spans, "models.backward");
        model->BackwardSoftTarget(targets[idx], weight);
      } else {
        // dCE(q, p)/dp = -q / p, with p floored like the crowd layer's
        // clipped scores.
        grad.Resize(probs->rows(), probs->cols());
        for (int r = 0; r < probs->rows(); ++r) {
          for (int c = 0; c < probs->cols(); ++c) {
            grad(r, c) =
                -targets[idx](r, c) / std::max((*probs)(r, c), 1e-6f);
          }
        }
        Span s(spans, "models.backward");
        model->BackwardProbGrad(grad, weight);
      }
      if (++in_batch == batch) {
        Span s(spans, "nn.optimizer_step");
        optimizer->Step(params);
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      Span s(spans, "nn.optimizer_step");
      optimizer->Step(params);
    }
    stats.m_step_s = sw.Seconds();
    stats.m_step_gemm_flops = flops->Total() - flops_before;
  }

  if (em) {
    crowd::ConfusionSet confusions;
    {
      Span s(spans, "core.update_confusions");
      core::UpdateConfusions(f->train_posteriors, ann,
                             cfg.confusion_smoothing, &confusions);
    }
    // The E-step in the fit's slot order: PredictBatch, q_a, q_b, blend.
    Span e_step(spans, "replay.e_step");
    const std::vector<util::Matrix> log_pi = core::LogConfusions(confusions);
    const double k = cfg.k_schedule(epoch);
    const logic::RuleProjector* rule = RuleOf(*f, in);
    constexpr int kSlots = util::Parallelizer::kSlots;
    for (int slot = 0; slot < kSlots; ++slot) {
      const auto [begin, end] =
          util::Parallelizer::SlotRange(train.size(), slot, kSlots);
      if (begin >= end) continue;
      std::vector<const data::Instance*> xs;
      for (int i = begin; i < end; ++i) xs.push_back(&train.instances[i]);
      std::vector<util::Matrix> probs;
      {
        Span s(spans, "models.predict_batch");
        model->PredictBatch(xs, &probs);
      }
      std::vector<util::Matrix> qa(xs.size());
      {
        Span s(spans, "core.compute_qa");
        for (int i = begin; i < end; ++i) {
          qa[i - begin] =
              core::ComputeQa(probs[i - begin], ann.instance(i), log_pi);
        }
      }
      if (rule != nullptr && k > 0.0) {
        std::vector<util::Matrix> qb = qa;
        {
          Span s(spans, "logic.project_batch");
          rule->ProjectBatch(xs, &qb, cfg.C);
        }
        for (size_t j = 0; j < qa.size(); ++j) {
          for (int t = 0; t < qa[j].rows(); ++t) {
            for (int c = 0; c < qa[j].cols(); ++c) {
              qa[j](t, c) = static_cast<float>((1.0 - k) * qa[j](t, c) +
                                               k * qb[j](t, c));
            }
          }
        }
      }
      for (int i = begin; i < end; ++i) {
        f->train_posteriors[i] = std::move(qa[i - begin]);
      }
    }
  } else {
    // The crowd layer's truth estimate is its classifier on the training
    // split (TrainPosteriors), here through the batched path.
    Span s(spans, "models.predict_batch");
    f->train_posteriors = model->PredictBatch(train);
  }

  {
    Span s(spans, "eval.dev_score");
    stats.dev_score = eval::DevScore(*model, in.dev());
  }
  return stats;
}

std::string CheckPosteriors(const std::vector<util::Matrix>& p,
                            const data::Dataset& d) {
  if (static_cast<int>(p.size()) != d.size()) {
    return "instance count " + std::to_string(p.size()) + " != " +
           std::to_string(d.size());
  }
  for (int i = 0; i < d.size(); ++i) {
    const util::Matrix& m = p[i];
    if (m.rows() != d.NumItems(i) || m.cols() != d.num_classes) {
      return "instance " + std::to_string(i) + " has shape " +
             std::to_string(m.rows()) + "x" + std::to_string(m.cols());
    }
    for (int r = 0; r < m.rows(); ++r) {
      double sum = 0.0;
      for (int c = 0; c < m.cols(); ++c) {
        const float v = m(r, c);
        if (!std::isfinite(v)) {
          return "instance " + std::to_string(i) + " is non-finite";
        }
        if (v < 0.0f || v > 1.0f + 1e-5f) {
          return "instance " + std::to_string(i) + " leaves [0, 1]";
        }
        sum += v;
      }
      if (std::abs(sum - 1.0) > 1e-3) {
        return "instance " + std::to_string(i) + " is not row-stochastic";
      }
    }
  }
  return "";
}

double Score(const std::vector<util::Matrix>& p, const data::Dataset& d) {
  return d.sequence ? eval::PosteriorSpanF1(p, d).f1
                    : eval::PosteriorAccuracy(p, d);
}

double ChanceScore(const data::Dataset& d) {
  return d.sequence ? 0.0 : 1.0 / d.num_classes;
}

std::string OutputDigest(const std::vector<util::Matrix>& p) {
  uint64_t h = 14695981039346656037ull;
  for (const util::Matrix& m : p) {
    const unsigned char* bytes =
        reinterpret_cast<const unsigned char*>(m.data());
    for (size_t i = 0; i < m.size() * sizeof(float); ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace lncl::perfbench
