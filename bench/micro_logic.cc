// google-benchmark micro-benchmarks for the logic substrate and the
// EM-adjacent kernels: Eq. 15 projection, forward-backward sequence
// projection, the chain smoother, q_a computation and the confusion update.
#include <benchmark/benchmark.h>

#include "core/ner_rules.h"
#include "core/trainer.h"
#include "crowd/confusion.h"
#include "logic/posterior_reg.h"
#include "logic/sequence_rules.h"
#include "util/chain.h"
#include "util/rng.h"

namespace lncl {
namespace {

util::Matrix RandomDistributions(int rows, int k, util::Rng* rng) {
  util::Matrix q(rows, k);
  for (int r = 0; r < rows; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < k; ++c) {
      q(r, c) = static_cast<float>(rng->Uniform(0.05, 1.0));
      sum += q(r, c);
    }
    for (int c = 0; c < k; ++c) q(r, c) /= sum;
  }
  return q;
}

void BM_ProjectIndependent(benchmark::State& state) {
  util::Rng rng(1);
  const int rows = static_cast<int>(state.range(0));
  const util::Matrix q = RandomDistributions(rows, 2, &rng);
  util::Matrix pen(rows, 2);
  for (int r = 0; r < rows; ++r) pen(r, 0) = 0.5f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(logic::ProjectIndependent(q, pen, 5.0));
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ProjectIndependent)->Arg(1)->Arg(64)->Arg(1024);

void BM_SequenceProjection(benchmark::State& state) {
  util::Rng rng(2);
  const int t_len = static_cast<int>(state.range(0));
  const logic::SequenceRuleProjector projector(
      core::BuildNerTransitionPenalty());
  const util::Matrix q = RandomDistributions(t_len, 9, &rng);
  data::Instance x;
  for (auto _ : state) {
    benchmark::DoNotOptimize(projector.Project(x, q, 5.0));
  }
  state.SetItemsProcessed(state.iterations() * t_len);
}
BENCHMARK(BM_SequenceProjection)->Arg(8)->Arg(16)->Arg(32);

// The NER teacher pass: a batch of 64 sentences of 8-20 tokens through
// ProjectBatch. Each iteration first restores the batch from the source
// copies (a few hundred bytes per sentence). time_per_sentence is the
// cost of one sentence.
void BM_SequenceProjectBatch(benchmark::State& state) {
  util::Rng rng(6);
  const int sentences = 64;
  const logic::SequenceRuleProjector projector(
      core::BuildNerTransitionPenalty());
  std::vector<util::Matrix> source;
  for (int i = 0; i < sentences; ++i) {
    source.push_back(RandomDistributions(8 + rng.UniformInt(13), 9, &rng));
  }
  const std::vector<data::Instance> xs(sentences);
  std::vector<const data::Instance*> ptrs;
  for (const data::Instance& x : xs) ptrs.push_back(&x);
  std::vector<util::Matrix> batch(sentences);
  for (auto _ : state) {
    for (int i = 0; i < sentences; ++i) batch[i] = source[i];
    projector.ProjectBatch(ptrs, &batch, 5.0);
    benchmark::DoNotOptimize(batch.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * sentences);
  state.counters["time_per_sentence"] = benchmark::Counter(
      static_cast<double>(sentences),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_SequenceProjectBatch);

// Exact chain smoothing as the sequence aggregators call it: one 13-token
// sentence over the 9 BIO tags, accumulating the pairwise xi counts.
void BM_ChainForwardBackward(benchmark::State& state) {
  util::Rng rng(5);
  const int t_len = 13;
  const int k = 9;
  const util::Matrix prior_rows = RandomDistributions(1, k, &rng);
  const util::Vector prior(prior_rows.Row(0), prior_rows.Row(0) + k);
  const util::Matrix transition = RandomDistributions(k, k, &rng);
  const util::Matrix emission = RandomDistributions(t_len, k, &rng);
  util::Matrix gamma;
  util::Matrix xi_sum(k, k);
  for (auto _ : state) {
    util::ChainForwardBackward(prior, transition, emission, &gamma, &xi_sum);
    benchmark::DoNotOptimize(gamma.data());
    benchmark::DoNotOptimize(xi_sum.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * t_len);
}
BENCHMARK(BM_ChainForwardBackward);

void BM_ComputeQa(benchmark::State& state) {
  util::Rng rng(3);
  const int t_len = 14;
  const int annotators = static_cast<int>(state.range(0));
  const util::Matrix probs = RandomDistributions(t_len, 9, &rng);
  crowd::ConfusionSet confusions(annotators, crowd::ConfusionMatrix(9, 0.8));
  crowd::InstanceAnnotations ann;
  for (int j = 0; j < annotators; ++j) {
    crowd::AnnotatorLabels e;
    e.annotator = j;
    for (int t = 0; t < t_len; ++t) e.labels.push_back(rng.UniformInt(9));
    ann.entries.push_back(std::move(e));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComputeQa(probs, ann, confusions));
  }
  state.SetItemsProcessed(state.iterations() * t_len * annotators);
}
BENCHMARK(BM_ComputeQa)->Arg(1)->Arg(5)->Arg(20);

void BM_UpdateConfusions(benchmark::State& state) {
  util::Rng rng(4);
  const int instances = static_cast<int>(state.range(0));
  const int annotators = 50;
  crowd::AnnotationSet ann(instances, annotators, 2);
  std::vector<util::Matrix> qf;
  for (int i = 0; i < instances; ++i) {
    for (int j = 0; j < 5; ++j) {
      crowd::AnnotatorLabels e;
      e.annotator = rng.UniformInt(annotators);
      e.labels.push_back(rng.UniformInt(2));
      ann.instance(i).entries.push_back(std::move(e));
    }
    qf.push_back(RandomDistributions(1, 2, &rng));
  }
  crowd::ConfusionSet confusions;
  for (auto _ : state) {
    core::UpdateConfusions(qf, ann, 0.01, &confusions);
    benchmark::DoNotOptimize(confusions.data());
  }
  state.SetItemsProcessed(state.iterations() * instances);
}
BENCHMARK(BM_UpdateConfusions)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace lncl

#ifndef LNCL_MICRO_COMBINED
BENCHMARK_MAIN();
#endif
