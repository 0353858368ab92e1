// Reproduces Table III: performance (%) on the CoNLL-2003 NER (MTurk)
// synthetic stand-in — strict-span precision/recall/F1 for prediction (test
// split) and inference (training split), averaged over --runs runs.
#include <iostream>
#include <map>
#include <mutex>

#include "baselines/crowd_layer.h"
#include "baselines/dl_dn.h"
#include "baselines/two_stage.h"
#include "bench_common.h"
#include "bench_history.h"
#include "core/ner_rules.h"
#include "eval/metrics.h"
#include "inference/bsc_seq.h"
#include "inference/dawid_skene.h"
#include "inference/hmm_crowd.h"
#include "inference/ibcc.h"
#include "inference/majority_vote.h"
#include "obs/mem_stats.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/run_log.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/threadpool.h"
#include "util/timer.h"

namespace lncl::bench {
namespace {

class Collector {
 public:
  void Add(const std::string& name, const eval::PrF1& prediction,
           const eval::PrF1& inference, bool has_pred = true,
           bool has_inf = true) {
    std::unique_lock<std::mutex> lock(mu_);
    MethodScores& s = scores_[name];
    s.name = name;
    if (has_pred) {
      s.precision.push_back(prediction.precision);
      s.recall.push_back(prediction.recall);
      s.prediction.push_back(prediction.f1);
    }
    if (has_inf) {
      s.inf_precision.push_back(inference.precision);
      s.inf_recall.push_back(inference.recall);
      s.inference.push_back(inference.f1);
    }
  }
  const MethodScores& Get(const std::string& name) {
    std::unique_lock<std::mutex> lock(mu_);
    return scores_[name];
  }

 private:
  std::mutex mu_;
  std::map<std::string, MethodScores> scores_;
};

void Run(int argc, char** argv) {
  util::Stopwatch bench_timer;
  const util::Config config(argc, argv);
  const Scale scale = NerScale(config);
  PrintConfigBanner("Table III — CoNLL-2003 NER (MTurk, synthetic stand-in)",
                    scale, config);

  const NerSetup setup = MakeNerSetup(scale, 2);
  const data::Dataset& train = setup.corpus.train;
  const data::Dataset& dev = setup.corpus.dev;
  const data::Dataset& test = setup.corpus.test;
  const crowd::AnnotationSet& ann = setup.annotations;
  const auto items = inference::ItemsPerInstance(train);
  const models::ModelFactory tagger =
      models::NerTagger::Factory(NerModelConfig(), setup.corpus.embeddings);
  const auto projector = core::MakeNerRuleProjector();

  Collector collect;

  // ---- Truth-inference rows. ----
  const inference::MajorityVote mv;
  std::vector<util::Matrix> mv_posteriors;
  {
    util::Rng rng(13);
    mv_posteriors = mv.Infer(ann, items, &rng);
    collect.Add("MV", {}, eval::PosteriorSpanF1(mv_posteriors, train),
                /*has_pred=*/false);
    collect.Add("DS", {},
                eval::PosteriorSpanF1(
                    inference::DawidSkene().Infer(ann, items, &rng), train),
                false);
    collect.Add("IBCC", {},
                eval::PosteriorSpanF1(
                    inference::Ibcc().Infer(ann, items, &rng), train),
                false);
    collect.Add("BSC-seq", {},
                eval::PosteriorSpanF1(
                    inference::BscSeq().Infer(ann, items, &rng), train),
                false);
    collect.Add("HMM-Crowd", {},
                eval::PosteriorSpanF1(
                    inference::HmmCrowd().Infer(ann, items, &rng), train),
                false);
  }

  util::ThreadPool pool(config.GetInt("threads", 0));
  for (int r = 0; r < scale.runs; ++r) {
    const uint64_t seed = 7000003ULL * (r + 1);

    // MV-Classifier.
    pool.Submit([&, seed] {
      util::Rng rng(seed ^ 0x11);
      baselines::TwoStageConfig ts;
      ts.epochs = scale.epochs;
      ts.batch_size = scale.batch;
      ts.patience = scale.patience;
      ts.optimizer = NerOptimizer();
      baselines::TwoStage m(ts, tagger);
      m.FitOnTargets(train, baselines::HardenTargets(mv_posteriors), dev,
                     &rng);
      collect.Add("MV-Classifier",
                  eval::SpanF1(*m.model(), test),
                  eval::PosteriorSpanF1(mv_posteriors, train));
    });

    // AggNet.
    pool.Submit([&, seed] {
      util::Rng rng(seed ^ 0x22);
      core::LogicLnclConfig lcfg = NerLnclConfig(scale);
      lcfg.k_schedule = core::ConstantK(0.0);
      core::LogicLncl m(lcfg, tagger, nullptr);
      m.Fit(train, ann, dev, &rng);
      collect.Add("AggNet",
                  eval::PosteriorSpanF1(m.PredictStudentBatch(test), test),
                  eval::PosteriorSpanF1(m.qf(), train));
    });

    // Crowd layers (with the paper's MV pre-training counts).
    struct ClVariant {
      const char* name;
      baselines::CrowdLayerConfig::Kind kind;
      int pretrain;
    };
    const ClVariant variants[] = {
        {"CL (VW, 5)", baselines::CrowdLayerConfig::Kind::kVW, 5},
        {"CL (VW-B, 5)", baselines::CrowdLayerConfig::Kind::kVWB, 5},
        {"CL (MW, 5)", baselines::CrowdLayerConfig::Kind::kMW, 5},
        {"CL (MW, 1)", baselines::CrowdLayerConfig::Kind::kMW, 1},
    };
    for (const ClVariant& v : variants) {
      pool.Submit([&, seed, v] {
        util::Rng rng(seed ^ (0x40 + static_cast<int>(v.kind) * 4 +
                              v.pretrain));
        baselines::CrowdLayerConfig clcfg;
        clcfg.kind = v.kind;
        clcfg.pretrain_epochs = v.pretrain;
        clcfg.epochs = scale.epochs;
        clcfg.batch_size = scale.batch;
        clcfg.patience = scale.patience;
        clcfg.optimizer = NerOptimizer();
        baselines::CrowdLayer m(clcfg, tagger);
        m.Fit(train, ann, dev, &rng);
        collect.Add(v.name,
                    eval::SpanF1(*m.model(), test),
                    eval::PosteriorSpanF1(m.TrainPosteriors(train), train));
      });
    }

    // DL-DN / DL-WDN (prediction only, as in the paper).
    pool.Submit([&, seed] {
      util::Rng rng(seed ^ 0x88);
      baselines::DlDnConfig dcfg;
      dcfg.epochs = scale.epochs * 2;
      dcfg.batch_size = 8;
      dcfg.patience = scale.epochs * 2;  // tiny per-net data: never stop early
      dcfg.optimizer = NerOptimizer();
      baselines::DlDn m(dcfg, tagger);
      m.Fit(train, ann, dev, &rng);
      collect.Add("DL-DN",
                  eval::SpanF1(
                      [&m](const data::Instance& x) { return m.Predict(x); },
                      test),
                  {}, true, false);
      collect.Add("DL-WDN",
                  eval::SpanF1(
                      [&m](const data::Instance& x) {
                        return m.PredictWeighted(x);
                      },
                      test),
                  {}, true, false);
    });

    // Logic-LNCL (student + teacher from one fit).
    pool.Submit([&, seed] {
      util::Rng rng(seed ^ 0x66);
      const core::LogicLnclConfig lcfg = NerLnclConfig(scale);
      core::LogicLncl m(lcfg, tagger, projector.get());
      m.Fit(train, ann, dev, &rng);
      const eval::PrF1 inference = eval::PosteriorSpanF1(m.qf(), train);
      collect.Add("Logic-LNCL-student",
                  eval::PosteriorSpanF1(m.PredictStudentBatch(test), test),
                  inference);
      collect.Add("Logic-LNCL-teacher",
                  eval::PosteriorSpanF1(m.PredictTeacherBatch(test), test),
                  inference);
    });

    // Gold upper bound.
    pool.Submit([&, seed] {
      util::Rng rng(seed ^ 0x77);
      baselines::TwoStageConfig ts;
      ts.epochs = scale.epochs;
      ts.batch_size = scale.batch;
      ts.patience = scale.patience;
      ts.optimizer = NerOptimizer();
      baselines::TwoStage m(ts, tagger);
      m.FitOnTargets(train, baselines::GoldTargets(train), dev, &rng);
      collect.Add("Gold (Upper Bound)",
                  eval::SpanF1(*m.model(), test),
                  {1.0, 1.0, 1.0});
    });
  }
  pool.Wait();

  util::Table table("Table III: CoNLL-2003 NER (strict span, %)");
  table.SetHeader({"Paradigm", "Method", "Pred-P", "Pred-R", "Pred-F1",
                   "Inf-P", "Inf-R", "Inf-F1", "Avg F1"});
  auto add_row = [&](const std::string& paradigm, const std::string& name) {
    const MethodScores& s = collect.Get(name);
    std::string avg = "-";
    if (!s.prediction.empty() && !s.inference.empty()) {
      avg = util::FormatFixed(
          (util::Mean(s.prediction) + util::Mean(s.inference)) * 50.0, 2);
    }
    table.AddRow({paradigm, name, Pct(s.precision), Pct(s.recall),
                  Pct(s.prediction, true), Pct(s.inf_precision),
                  Pct(s.inf_recall), Pct(s.inference), avg});
  };
  add_row("Two-stage LNCL", "MV-Classifier");
  table.AddSeparator();
  add_row("One-stage LNCL", "AggNet");
  add_row("One-stage LNCL", "CL (VW, 5)");
  add_row("One-stage LNCL", "CL (VW-B, 5)");
  add_row("One-stage LNCL", "CL (MW, 5)");
  add_row("One-stage LNCL", "CL (MW, 1)");
  add_row("One-stage LNCL", "Logic-LNCL-student");
  add_row("One-stage LNCL", "Logic-LNCL-teacher");
  add_row("One-stage LNCL", "DL-DN");
  add_row("One-stage LNCL", "DL-WDN");
  table.AddSeparator();
  add_row("Truth Inference", "MV");
  add_row("Truth Inference", "DS");
  add_row("Truth Inference", "IBCC");
  add_row("Truth Inference", "BSC-seq");
  add_row("Truth Inference", "HMM-Crowd");
  table.AddSeparator();
  add_row("-", "Gold (Upper Bound)");
  EmitTable(&table, "table3_ner");

  const MethodScores& cl_mw = collect.Get("CL (MW, 5)");
  for (const std::string& ours :
       {std::string("Logic-LNCL-student"), std::string("Logic-LNCL-teacher")}) {
    const MethodScores& s = collect.Get(ours);
    const util::TTestResult pred =
        util::WelchTTest(s.prediction, cl_mw.prediction);
    std::cout << ours << " vs CL (MW, 5): prediction-F1 " << FormatTTest(pred)
              << "\n";
  }

  // ---- Timed end-to-end fit (fixed seed 424242).
  // --telemetry (default on) additionally records a trace of the fit, its
  // per-epoch run log, and a metrics snapshot — all observation-only (the
  // digest in BENCH_table3.json is unaffected).
  // --prof (default: follow --telemetry) arms perf-counter span attribution
  // over the timed fit (results/prof_table3.json).
  const bool telemetry = config.GetBool("telemetry", true);
  const bool prof = config.GetBool("prof", telemetry);
  std::unique_ptr<obs::JsonlRunLogger> run_log;
  if (telemetry) {
    obs::Metrics::Enable(true);
    obs::Metrics::Reset();
    obs::Trace::Start("results/trace_table3.json");
    run_log = std::make_unique<obs::JsonlRunLogger>(
        "results/runlog_table3.jsonl", "table3/batched");
  }
  if (prof) obs::Prof::Start();
  std::cout << "--- timed Logic-LNCL fit ---\n";
  std::vector<TimedFit> fits;
  {
    util::Rng rng(424242);
    core::LogicLnclConfig lcfg = NerLnclConfig(scale);
    lcfg.run_observer = run_log.get();
    core::LogicLncl m(lcfg, tagger, projector.get());
    core::LogicLnclResult res;
    {
      LNCL_TRACE_SPAN("timed_fit");
      res = m.Fit(train, ann, dev, &rng);
    }
    PrintPhaseSeconds("Logic-LNCL fit (batched)", res.phase_seconds);
    fits.push_back({"batched", res});
  }
  if (prof) {
    obs::Prof::Stop();
    obs::Prof::WriteJson("results/prof_table3.json");
    std::cout << "[prof: results/prof_table3.json (hw counters "
              << (obs::Prof::HwCountersAvailable() ? "on" : "unavailable")
              << ")]\n";
  }
  if (telemetry) {
    obs::SampleMemStatsToMetrics();
    obs::Trace::Stop();
    obs::Metrics::WriteSnapshotJson("results/metrics_table3.json");
    std::cout << "[telemetry: results/trace_table3.json "
                 "results/runlog_table3.jsonl results/metrics_table3.json]\n";
  }
  EmitBenchJson("table3", bench_timer.Seconds(), fits);
  AppendBenchHistory("table3", bench_timer.Seconds(), fits);
}

}  // namespace
}  // namespace lncl::bench

int main(int argc, char** argv) {
  lncl::util::SetLogLevel(lncl::util::LogLevel::kWarning);
  lncl::bench::Run(argc, argv);
  return 0;
}
