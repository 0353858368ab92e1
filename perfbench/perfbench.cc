// lncl_perfbench: the repository benchmark's harness (see README.md).
//
//   lncl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--small] [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics in a closed loop with every
// observability switch off; --trace 1 is the separate traced run that gives
// the per-layer metrics. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it carries
// the run context and the repeatability summary. perfbench/run.py builds
// this binary, runs it and validates that line against BENCHMARK.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_history.h"
#include "calibrate.h"
#include "inference/truth_inference.h"
#include "obs/mem_stats.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/timer.h"
#include "workloads.h"

namespace lncl::perfbench {
namespace {

// Independent subsets per end-to-end run: each has its own corpus, crowd
// and fit seed, all drawn from --seed. Scores are their mean and timings
// pool their operations, so one run averages over several inputs and its
// scores spread less from seed to seed.
constexpr int kSubsets = 4;
// Set-ups per subset; setup_s reads all of them.
constexpr int kSetupRepeats = 5;
// Prediction passes (and MV sweeps) per fit, so the short operations get
// enough samples for a steady reading.
constexpr int kShortRepeats = 3;
// Untraced/traced fit pairs behind obs.trace_overhead.
constexpr int kOverheadPairs = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string out_dir = ".bench_build/perfbench/out";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key == "--small") {
      o->small = true;
      continue;
    }
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::cerr << "missing value for " << key << "\n";
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      o->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (key == "--out-dir") {
      o->out_dir = value;
    } else {
      std::cerr << "unknown argument " << key << "\n";
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::cerr << "bad number for " << key << ": " << value << "\n";
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0.0;
}

double Median(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : util::Quantile(xs, 0.5);
}

// One timing metric's samples: host-normalized, which the result reports,
// and raw wall-clock, whose median is printed next to it for comparison.
struct Timing {
  std::vector<double> normalized;
  std::vector<double> wall;
  void Add(double normalized_value, double wall_value) {
    normalized.push_back(normalized_value);
    wall.push_back(wall_value);
  }
};

// Median, sample count, and the highest percentile with at least ten
// samples beyond it (when there are enough samples for one).
std::string Describe(const std::vector<double>& xs) {
  std::ostringstream os;
  os << "median " << Median(xs) << " (n=" << xs.size();
  const int n = static_cast<int>(xs.size());
  if (n >= 20) {
    const int pct = 100 * (n - 10) / n;
    os << ", p" << pct << " " << util::Quantile(xs, pct / 100.0);
  }
  if (n > 0) {
    os << ", min " << *std::min_element(xs.begin(), xs.end()) << ", max "
       << *std::max_element(xs.begin(), xs.end());
  }
  os << ")";
  return os.str();
}

std::string Describe(const Timing& t) {
  std::ostringstream os;
  os << Describe(t.normalized) << "; raw wall median " << Median(t.wall);
  return os.str();
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  // Counts one attempted operation; `error` empty means it passed.
  void Op(const std::string& op, const std::string& error) {
    ++attempted_;
    if (error.empty()) return;
    ++failed_;
    std::cout << "FAILED " << op << ": " << error << "\n";
  }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

  std::string ResultJson() const {
    std::ostringstream os;
    os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true"
                                                              : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      os << (i ? ", " : "") << JsonString(m.name) << ": {\"value\": "
         << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit)
         << "}";
    }
    os << "}}";
    return os.str();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  int attempted_ = 0;
  int failed_ = 0;
};

// Repeatability summary printed next to the run context: the same seed must
// reproduce every field; another seed must change the scores.
struct Summary {
  std::vector<std::string> fit_digests;  // one per subset
  double student_score = 0.0;
  double teacher_score = 0.0;
  double inference_score = 0.0;
};

std::string ContextJson(const Workload& w, const Options& o,
                        const Inputs& in, const Summary& s) {
  // GitRevision walks up from the working directory; read it only when
  // that directory is itself a checkout, so the run stays inside it.
  const std::string rev = std::filesystem::exists(".git")
                              ? bench::GitRevision()
                              : std::string("unknown");
  std::ostringstream os;
  os << "{\"context\": {\"git_rev\": " << JsonString(rev)
     << ", \"host\": " << JsonString(obs::HostFingerprint())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"workload\": " << JsonString(w.name)
     << ", \"threads\": " << w.threads << ", \"seed\": " << o.seed
     << ", \"seconds\": " << JsonNumber(o.seconds)
     << ", \"trace\": " << (o.trace ? 1 : 0)
     << ", \"small\": " << (o.small ? "true" : "false")
     << ", \"train\": " << in.train().size()
     << ", \"test\": " << in.test().size()
     << ", \"epochs\": " << in.scale.epochs << "}, \"summary\": {"
     << "\"fit_digests\": [";
  for (size_t i = 0; i < s.fit_digests.size(); ++i) {
    os << (i ? ", " : "") << JsonString(s.fit_digests[i]);
  }
  os << "], \"student_score\": " << JsonNumber(s.student_score)
     << ", \"teacher_score\": " << JsonNumber(s.teacher_score)
     << ", \"inference_score\": " << JsonNumber(s.inference_score) << "}}";
  return os.str();
}

// "" when `p` is well formed and scores above chance on `d`.
std::string CheckScored(const std::vector<util::Matrix>& p,
                        const data::Dataset& d, double* score) {
  const std::string defect = CheckPosteriors(p, d);
  if (!defect.empty()) return defect;
  *score = Score(p, d);
  if (!(*score > ChanceScore(d))) {
    return "score " + JsonNumber(*score) + " at or below chance";
  }
  return "";
}

// A later repetition of an operation must reproduce the first one exactly.
std::string CheckSame(const std::string& what, double first, double now) {
  return now == first ? "" : what + " differs from the first repetition";
}

uint64_t SubsetSeed(uint64_t seed, int subset) {
  return seed * kSubsets + subset;
}
uint64_t FitSeed(uint64_t subset_seed) {
  return subset_seed * 0x9e3779b97f4a7c15ULL + 17;
}

// ---- --trace 0: end-to-end metrics, every observability switch off. ----
int RunEndToEnd(const Workload& w, const Options& o) {
  if (obs::Trace::active() || obs::Metrics::enabled() ||
      obs::Prof::active()) {
    std::cerr << "observability is on; end-to-end timing needs it off\n";
    return 1;
  }
  Report report;
  Timing setup_s;
  std::vector<Inputs> inputs;
  for (int s = 0; s < kSubsets; ++s) {
    std::string first_digest;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      util::Stopwatch sw;
      Inputs next = MakeInputs(w, SubsetSeed(o.seed, s), o.small);
      const double seconds = sw.Seconds();
      setup_s.Add(Normalized(seconds), seconds);
      const std::string digest = OutputDigest(next.annotations().MajorityVote(
          inference::ItemsPerInstance(next.train())));
      if (rep == 0) {
        first_digest = digest;
        inputs.push_back(std::move(next));
      }
      report.Op("setup", digest == first_digest
                             ? ""
                             : "crowd differs from the first set-up");
    }
  }

  // The first repetition of each subset's operations; later repetitions
  // must reproduce it exactly.
  struct Reference {
    std::string digest;
    double student = 0.0;
    double teacher = 0.0;
    double inference = 0.0;
    std::vector<double> sweep;
  };
  std::vector<Reference> refs(kSubsets);
  Timing fit_s, infer_s;
  Timing epoch_items, predict, teacher;  // items per second
  util::Stopwatch run;
  for (int cycle = 0; cycle < kSubsets || run.Seconds() < o.seconds;
       ++cycle) {
    const int subset = cycle % kSubsets;
    const bool first = cycle < kSubsets;
    const Inputs& in = inputs[subset];
    Reference& ref = refs[subset];
    const data::Dataset& train = in.train();
    const data::Dataset& test = in.test();

    // Fit.
    Fitted f = Fit(w, in, FitSeed(SubsetSeed(o.seed, subset)));
    double score = 0.0;
    std::string error = CheckScored(f.train_posteriors, train, &score);
    if (first) {
      ref.digest = f.digest;
      ref.inference = score;
    } else if (error.empty() && f.digest != ref.digest) {
      error = "fit digest differs from the first fit";
    }
    report.Op("fit", error);
    const double fit_n = Normalized(f.fit_s, std::max(1, w.threads));
    const double items =
        static_cast<double>(train.TotalItems()) * f.epochs_run;
    fit_s.Add(fit_n, f.fit_s);
    epoch_items.Add(items / fit_n, items / f.fit_s);

    // Prediction passes over the test split: student, then teacher.
    for (int rep = 0; rep < kShortRepeats; ++rep) {
      for (const bool is_teacher : {false, true}) {
        util::Stopwatch sw;
        const std::vector<util::Matrix> p =
            is_teacher ? PredictTeacher(w, f, in) : PredictStudent(f, in);
        const double seconds = sw.Seconds();
        const double items = test.TotalItems();
        (is_teacher ? teacher : predict)
            .Add(items / Normalized(seconds), items / seconds);
        double s = 0.0;
        error = CheckScored(p, test, &s);
        double& expected = is_teacher ? ref.teacher : ref.student;
        if (first && rep == 0) {
          expected = s;
        } else if (error.empty()) {
          error = CheckSame("score", expected, s);
        }
        report.Op(is_teacher ? "teacher" : "predict", error);
      }
    }

    // Truth-inference sweeps (the zoo's is long: one per cycle).
    const int sweeps = w.kind == Kind::kCrowdBaselines ? 1 : kShortRepeats;
    for (int rep = 0; rep < sweeps; ++rep) {
      util::Stopwatch sw;
      const std::vector<Inferred> sweep =
          InferSweep(w, in, SubsetSeed(o.seed, subset), nullptr);
      const double seconds = sw.Seconds();
      infer_s.Add(Normalized(seconds), seconds);
      error.clear();
      for (size_t m = 0; m < sweep.size(); ++m) {
        double s = 0.0;
        std::string e = CheckScored(sweep[m].posteriors, train, &s);
        if (first && rep == 0) {
          ref.sweep.push_back(s);
        } else if (e.empty()) {
          e = CheckSame("score", ref.sweep[m], s);
        }
        if (!e.empty() && error.empty()) error = sweep[m].method + ": " + e;
      }
      report.Op("infer", error);
    }
  }

  Summary summary;
  for (const Reference& ref : refs) {
    summary.fit_digests.push_back(ref.digest);
    summary.student_score += ref.student / kSubsets;
    summary.teacher_score += ref.teacher / kSubsets;
    summary.inference_score += ref.inference / kSubsets;
  }
  std::cout << "fit_s " << Describe(fit_s) << "\n"
            << "epoch_items_per_s " << Describe(epoch_items) << "\n"
            << "predict_items_per_s " << Describe(predict) << "\n"
            << "teacher_items_per_s " << Describe(teacher) << "\n"
            << "infer_s " << Describe(infer_s) << "\n"
            << "setup_s " << Describe(setup_s) << "\n";

  report.Add("setup_s", Median(setup_s.normalized), "s");
  report.Add("fit_s", Median(fit_s.normalized), "s");
  report.Add("epoch_items_per_s", Median(epoch_items.normalized), "items/s");
  report.Add("predict_items_per_s", Median(predict.normalized), "items/s");
  report.Add("teacher_items_per_s", Median(teacher.normalized), "items/s");
  report.Add("infer_s", Median(infer_s.normalized), "s");
  report.Add("student_score", summary.student_score, "fraction");
  report.Add("teacher_score", summary.teacher_score, "fraction");
  report.Add("inference_score", summary.inference_score, "fraction");
  report.Add("peak_rss_mb", obs::ReadSelfStatus().vm_hwm_kb / 1024.0, "MB");
  report.Add("ok_op_frac",
             static_cast<double>(report.attempted() - report.failed()) /
                 report.attempted(),
             "fraction");
  std::cout << ContextJson(w, o, inputs[0], summary) << "\n"
            << report.ResultJson() << std::endl;
  return 0;
}

// ---- --trace 1: the traced run and its per-layer metrics. ----
int RunTraced(const Workload& w, const Options& o) {
  Report report;
  const bool em = w.kind != Kind::kCrowdBaselines;
  // Subset 0 of the end-to-end run at the same seed: its fit digest must
  // match that run's first one.
  const uint64_t seed = SubsetSeed(o.seed, 0);
  const Inputs in = MakeInputs(w, seed, o.small);
  const data::Dataset& train = in.train();
  const SetupLayers setup = TimeSetupLayers(w, in, seed);
  report.Op("setup", setup.corpus_equal
                         ? ""
                         : "regenerated corpus differs from the set-up's");

  util::Stopwatch run;
  const Fitted plain = Fit(w, in, FitSeed(seed));

  std::filesystem::create_directories(o.out_dir);
  const std::string trace_path =
      o.out_dir + "/trace_" + std::string(w.name) + ".json";
  obs::Metrics::Enable(true);
  obs::Metrics::Reset();
  obs::Trace::Start(trace_path);
  Fitted traced;
  {
    SpanRecorder::Span span(nullptr, "bench.fit");
    traced = Fit(w, in, FitSeed(seed));
  }
  const uint64_t fit_flops =
      obs::Metrics::GetCounter("gemm.flops")->Total();
  const int64_t workspace_bytes =
      obs::Metrics::GetGauge("workspace.pool_bytes_high_water")->Value();
  Summary summary;
  summary.fit_digests = {traced.digest};
  double score = 0.0;
  std::string error = CheckScored(traced.train_posteriors, train, &score);
  summary.inference_score = score;
  if (error.empty() && traced.digest != plain.digest) {
    error = "traced fit digest " + traced.digest + " != untraced " +
            plain.digest;
  }
  report.Op("fit", error);
  report.Op("predict",
            CheckScored(PredictStudent(traced, in), in.test(),
                        &summary.student_score));
  report.Op("teacher",
            CheckScored(PredictTeacher(w, traced, in), in.test(),
                        &summary.teacher_score));

  SpanRecorder sweep_spans;
  const std::vector<Inferred> sweep =
      InferSweep(w, in, seed, &sweep_spans);
  std::vector<double> sweep_scores;
  error.clear();
  for (const Inferred& r : sweep) {
    double s = 0.0;
    const std::string e = CheckScored(r.posteriors, train, &s);
    if (!e.empty() && error.empty()) error = r.method + ": " + e;
    sweep_scores.push_back(s);
  }
  report.Op("infer", error);

  // Replay epochs until the run's time is used; each is one operation.
  std::map<std::string, std::vector<double>> self_s;  // per span, per epoch
  // Per epoch: the library calls' self time, and the replay's own glue
  // (shuffle, slot loop, Eq. 9 blend), which is the unattributed remainder.
  std::vector<double> layers_s, glue_s, epoch_s, gflops;
  for (int epoch = traced.epochs_run;
       epoch == traced.epochs_run || run.Seconds() < o.seconds; ++epoch) {
    SpanRecorder spans;
    const ReplayStats st =
        ReplayEpoch(w, in, &traced, epoch, seed + epoch, &spans);
    double layers = 0.0;
    double glue = 0.0;
    for (const auto& [name, s] : spans.self_seconds()) {
      self_s[name].push_back(s);
      const bool is_glue = name == "core.run_minibatch_epoch" ||
                           name == "replay.e_step" || name == "replay.epoch";
      (is_glue ? glue : layers) += s;
    }
    layers_s.push_back(layers);
    glue_s.push_back(glue);
    epoch_s.push_back(layers + glue);
    gflops.push_back(st.m_step_gemm_flops / st.m_step_s / 1e9);
    const std::string defect = CheckPosteriors(traced.train_posteriors, train);
    report.Op("replay_epoch",
              !defect.empty() ? defect
              : st.dev_score > ChanceScore(in.dev())
                  ? ""
                  : "dev score at or below chance");
    // The trace file keeps the fit, the sweep and the first replay epoch;
    // later epochs would overflow its per-thread buffers.
    if (obs::Trace::active()) {
      obs::Trace::Stop();
      std::cout << "trace: " << trace_path << " (dropped events "
                << obs::Trace::dropped_events() << ")\n";
    }
  }
  obs::Metrics::Enable(false);

  // obs.trace_overhead: the untraced and the main traced fit are the first
  // pair; more pairs follow, alternating which side runs first, and the median
  // of the per-pair ratios is reported, so host-speed drift across one pair
  // cancels rather than reading as overhead.
  std::vector<double> overhead = {traced.fit_s / plain.fit_s};
  const std::string overhead_path = o.out_dir + "/trace_overhead.json";
  for (int pair = 1; pair < kOverheadPairs; ++pair) {
    double seconds[2] = {0.0, 0.0};  // untraced, traced
    for (const bool on : {pair % 2 == 1, pair % 2 == 0}) {
      if (on) {
        obs::Metrics::Enable(true);
        obs::Trace::Start(overhead_path);
      }
      const Fitted f = Fit(w, in, FitSeed(seed));
      if (on) {
        obs::Trace::Stop();
        obs::Metrics::Enable(false);
      }
      seconds[on ? 1 : 0] = f.fit_s;
      report.Op("fit", f.digest == plain.digest
                           ? ""
                           : "fit digest " + f.digest + " != untraced " +
                                 plain.digest);
    }
    overhead.push_back(seconds[1] / seconds[0]);
  }
  auto med = [&](const std::string& name) {
    const auto it = self_s.find(name);
    return it == self_s.end() ? 0.0 : Median(it->second);
  };
  const double replay_epoch_s = Median(epoch_s);
  const double replay_layers_s = Median(layers_s);

  // The traced fit's mean epoch. phase_seconds stays zero for the crowd
  // layer, whose reference is its Fit time per epoch instead.
  const core::PhaseSeconds& ph = traced.result.phase_seconds;
  const double epochs = std::max(1, traced.epochs_run);
  const double fit_epoch_s =
      em ? (ph.m_step + ph.confusion + ph.e_step + ph.dev_eval) / epochs
         : traced.fit_s / epochs;
  std::printf(
      "replay: %zu epoch(s) on 1 thread; fit: %d epochs, threads=%d\n"
      "%-10s %12s  %s\n",
      epoch_s.size(), traced.epochs_run, w.threads, "phase",
      "fit/epoch s", "replay self times, s (median over epochs)");
  std::printf("%-10s %12.6f  forward_train %.6f backward %.6f "
              "optimizer_step %.6f loop %.6f\n",
              "m_step", ph.m_step / epochs, med("models.forward_train"),
              med("models.backward"), med("nn.optimizer_step"),
              med("core.run_minibatch_epoch"));
  std::printf("%-10s %12.6f  update_confusions %.6f\n", "confusion",
              ph.confusion / epochs, med("core.update_confusions"));
  std::printf("%-10s %12.6f  predict_batch %.6f compute_qa %.6f "
              "project_batch %.6f blend %.6f\n",
              "e_step", ph.e_step / epochs, med("models.predict_batch"),
              med("core.compute_qa"), med("logic.project_batch"),
              med("replay.e_step"));
  std::printf("%-10s %12.6f  dev_score %.6f\n", "dev_eval",
              ph.dev_eval / epochs, med("eval.dev_score"));
  std::printf("%-10s %12.6f  layers %.6f of replay epoch %.6f; "
              "unattributed %.6f (vs replay) %.6f (vs fit)\n",
              "total", fit_epoch_s, replay_layers_s, replay_epoch_s,
              Median(glue_s), fit_epoch_s - replay_layers_s);

  report.Add("data.generate_s", setup.generate_s, "s");
  report.Add("crowd.simulate_s", setup.simulate_s, "s");
  report.Add("crowd.labels", static_cast<double>(setup.labels), "count");
  report.Add("core.m_step_s", ph.m_step, "s");
  report.Add("core.e_step_s", ph.e_step, "s");
  report.Add("core.confusion_s", ph.confusion, "s");
  report.Add("core.dev_eval_s", ph.dev_eval, "s");
  report.Add("core.epochs_run", traced.epochs_run, "count");
  for (const char* name :
       {"core.run_minibatch_epoch", "core.compute_qa",
        "core.update_confusions", "logic.project_batch", "eval.dev_score",
        "models.forward_train", "models.backward", "nn.optimizer_step",
        "models.predict_batch"}) {
    report.Add(std::string(name) + "_s", med(name), "s");
  }
  report.Add("replay.epoch_s", replay_epoch_s, "s");
  report.Add("replay.fit_epoch_s", fit_epoch_s, "s");
  report.Add("replay.unattributed_s", Median(glue_s), "s");
  const std::vector<std::string> zoo = ZooMethods();
  for (const std::string& m : zoo) {
    double seconds = 0.0;
    double s = 0.0;
    for (size_t i = 0; i < sweep.size(); ++i) {
      if (sweep[i].method == m) {
        seconds = sweep[i].seconds;
        s = sweep_scores[i];
      }
    }
    report.Add("inference." + m + "_s", seconds, "s");
    report.Add("inference." + m + ".score", s, "fraction");
  }
  report.Add("baselines.crowd_layer_fit_s", em ? 0.0 : traced.fit_s, "s");
  report.Add("util.gemm_flops", static_cast<double>(fit_flops), "count");
  report.Add("util.m_step_gflops", Median(gflops), "GFLOP/s");
  report.Add("util.workspace_high_water_bytes",
             static_cast<double>(workspace_bytes), "bytes");
  report.Add("obs.trace_overhead", Median(overhead), "ratio");
  std::cout << ContextJson(w, o, in, summary) << "\n"
            << report.ResultJson() << std::endl;
  return 0;
}

}  // namespace
}  // namespace lncl::perfbench

int main(int argc, char** argv) {
  using namespace lncl::perfbench;
  lncl::util::SetLogLevel(lncl::util::LogLevel::kWarning);
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::cerr << "usage: lncl_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--small] [--out-dir <dir>]\n";
    return 2;
  }
  const Workload* w = FindWorkload(o.workload);
  if (w == nullptr) {
    std::cerr << "unknown workload " << o.workload << "\n";
    return 2;
  }
  return o.trace ? RunTraced(*w, o) : RunEndToEnd(*w, o);
}
