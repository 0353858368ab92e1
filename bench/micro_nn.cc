// google-benchmark micro-benchmarks for the neural-network substrate:
// forward/backward costs of the layers that dominate Logic-LNCL training,
// plus microkernel-level GEMM cases at the exact shapes those layers issue
// (GFLOP/s reported per case; see src/util/gemm_kernel.h).
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.h"
#include "data/embedding.h"
#include "models/ner_tagger.h"
#include "models/text_cnn.h"
#include "nn/conv1d.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/softmax.h"
#include "util/gemm_kernel.h"
#include "util/rng.h"

namespace lncl {
namespace {

util::Matrix RandomMatrix(int rows, int cols, util::Rng* rng) {
  util::Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      m(r, c) = static_cast<float>(rng->Gaussian());
    }
  }
  return m;
}

std::vector<float> RandomBuffer(size_t n, util::Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->Gaussian());
  return v;
}

// Raw microkernel GEMM at the shapes the model forwards actually issue:
//   14x16x160   Kim-CNN conv interior rows (T=18, window 5, 32-dim emb)
//   14x64x160   NER conv interior rows (window 5)
//   14x32x64    GRU per-gate input product gx = X W^T
//   64x32x32    GRU recurrent gate over a 64-row length bucket
//   1x32x32     GRU recurrent gate, per-instance serving
//   1x2x48      Kim-CNN fc head, per-instance serving
// Bias + ReLU ride the fused epilogue, as in the layer code.
void GemmShapeBench(benchmark::State& state, util::gemm::Kind kind) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  if (kind == util::gemm::Kind::kSimd && !util::gemm::SimdCompiled()) {
    state.SkipWithError("no SIMD kernel in this build");
    return;
  }
  util::Rng rng(7);
  const std::vector<float> a = RandomBuffer(static_cast<size_t>(m) * k, &rng);
  const std::vector<float> b = RandomBuffer(static_cast<size_t>(k) * n, &rng);
  const std::vector<float> bias = RandomBuffer(n, &rng);
  std::vector<float> c(static_cast<size_t>(m) * n);
  util::gemm::SetActiveKindForTest(kind);
  for (auto _ : state) {
    util::gemm::GemmEx(m, n, k, 1.0f, a.data(), k, util::Trans::kNo,
                       b.data(), n, util::Trans::kNo, 0.0f, c.data(), n,
                       bias.data(), util::Act::kRelu);
    benchmark::DoNotOptimize(c.data());
  }
  util::gemm::SetActiveKindForTest(util::gemm::ParseKindEnv());
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * m * n * k * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_GemmMicrokernel(benchmark::State& state) {
  GemmShapeBench(state, util::gemm::Kind::kSimd);
}
BENCHMARK(BM_GemmMicrokernel)
    ->Args({14, 16, 160})
    ->Args({14, 64, 160})
    ->Args({14, 32, 64})
    ->Args({64, 32, 32})
    ->Args({1, 32, 32})
    ->Args({1, 2, 48});

void BM_GemmScalarRef(benchmark::State& state) {
  GemmShapeBench(state, util::gemm::Kind::kScalar);
}
BENCHMARK(BM_GemmScalarRef)->Args({14, 16, 160})->Args({14, 64, 160});

void BM_LinearForward(benchmark::State& state) {
  util::Rng rng(1);
  const int dim = static_cast<int>(state.range(0));
  nn::Linear layer("fc", dim, dim, &rng);
  util::Vector x(dim, 0.5f), y;
  for (auto _ : state) {
    layer.Forward(x, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * dim * dim);
}
BENCHMARK(BM_LinearForward)->Arg(32)->Arg(128)->Arg(512);

void BM_Conv1dForwardBackward(benchmark::State& state) {
  util::Rng rng(2);
  const int t_len = static_cast<int>(state.range(0));
  nn::Conv1d conv("conv", 5, 32, 64, nn::Conv1d::Padding::kSame, &rng);
  const util::Matrix x = RandomMatrix(t_len, 32, &rng);
  util::Matrix y;
  for (auto _ : state) {
    conv.Forward(x, &y);
    conv.Backward(x, y, nullptr);
    nn::ZeroGrads(conv.Params());
  }
  state.SetItemsProcessed(state.iterations() * t_len);
}
BENCHMARK(BM_Conv1dForwardBackward)->Arg(10)->Arg(20)->Arg(40);

void BM_GruForwardBackward(benchmark::State& state) {
  util::Rng rng(3);
  const int t_len = static_cast<int>(state.range(0));
  nn::Gru gru("gru", 64, 32, &rng);
  const util::Matrix x = RandomMatrix(t_len, 64, &rng);
  nn::Gru::Cache cache;
  util::Matrix h, grad_h(t_len, 32, 0.01f);
  for (auto _ : state) {
    gru.Forward(x, &cache, &h);
    gru.Backward(x, cache, grad_h, nullptr);
    nn::ZeroGrads(gru.Params());
  }
  state.SetItemsProcessed(state.iterations() * t_len);
}
BENCHMARK(BM_GruForwardBackward)->Arg(10)->Arg(20)->Arg(40);

// The batched inference recurrence (E-step / dev-eval PredictBatch): B
// equal-length lanes per call, items = tokens. B = 1 is the per-instance
// cost, so the pair shows what packing buys per token.
void BM_GruForwardPacked(benchmark::State& state) {
  util::Rng rng(3);
  const int batch = static_cast<int>(state.range(0));
  const int t_len = static_cast<int>(state.range(1));
  nn::Gru gru("gru", 64, 32, &rng);
  const util::Matrix x = RandomMatrix(batch * t_len, 64, &rng);
  const std::vector<int> lengths(batch, t_len);
  util::Matrix h;
  for (auto _ : state) {
    gru.Forward(x, lengths, nullptr, &h);
    benchmark::DoNotOptimize(h.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch * t_len);
}
BENCHMARK(BM_GruForwardPacked)->Args({1, 13})->Args({16, 13});

void BM_SoftmaxRows(benchmark::State& state) {
  util::Rng rng(4);
  const util::Matrix logits =
      RandomMatrix(static_cast<int>(state.range(0)), 9, &rng);
  util::Matrix probs;
  for (auto _ : state) {
    nn::SoftmaxRows(logits, &probs);
    benchmark::DoNotOptimize(probs.data());
  }
}
BENCHMARK(BM_SoftmaxRows)->Arg(16)->Arg(128);

void BM_TextCnnTrainStep(benchmark::State& state) {
  util::Rng rng(5);
  auto emb = std::make_shared<data::EmbeddingTable>(500, 32);
  for (int v = 1; v < 500; ++v) {
    for (int d = 0; d < 32; ++d) {
      emb->table()(v, d) = static_cast<float>(rng.Gaussian());
    }
  }
  models::TextCnnConfig config;
  models::TextCnn cnn(config, emb, &rng);
  data::Instance x;
  for (int i = 0; i < 18; ++i) x.tokens.push_back(1 + rng.UniformInt(499));
  util::Matrix q(1, 2);
  q(0, 0) = 0.7f;
  q(0, 1) = 0.3f;
  for (auto _ : state) {
    cnn.ForwardTrain(x, &rng);
    cnn.BackwardSoftTarget(q, 1.0f);
    nn::ZeroGrads(cnn.Params());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TextCnnTrainStep);

void BM_NerTaggerTrainStep(benchmark::State& state) {
  util::Rng rng(6);
  auto emb = std::make_shared<data::EmbeddingTable>(500, 32);
  for (int v = 1; v < 500; ++v) {
    for (int d = 0; d < 32; ++d) {
      emb->table()(v, d) = static_cast<float>(rng.Gaussian());
    }
  }
  models::NerTaggerConfig config;
  models::NerTagger tagger(config, emb, &rng);
  data::Instance x;
  const int t_len = 14;
  for (int i = 0; i < t_len; ++i) x.tokens.push_back(1 + rng.UniformInt(499));
  util::Matrix q(t_len, 9);
  for (int t = 0; t < t_len; ++t) q(t, t % 9) = 1.0f;
  for (auto _ : state) {
    tagger.ForwardTrain(x, &rng);
    tagger.BackwardSoftTarget(q, 1.0f);
    nn::ZeroGrads(tagger.Params());
  }
  state.SetItemsProcessed(state.iterations() * t_len);
}
BENCHMARK(BM_NerTaggerTrainStep);

// One 16-sentence minibatch through NerTagger::TrainBatch (the M-step's
// unit of work) on one thread, lengths drawn from the NER generator's range
// (8-18 tokens). us_per_sentence is comparable with BM_NerTaggerTrainStep's
// per-sentence time.
void BM_NerTaggerTrainBatch(benchmark::State& state) {
  util::Rng rng(6);
  auto emb = std::make_shared<data::EmbeddingTable>(500, 32);
  for (int v = 1; v < 500; ++v) {
    for (int d = 0; d < 32; ++d) {
      emb->table()(v, d) = static_cast<float>(rng.Gaussian());
    }
  }
  models::NerTaggerConfig config;
  models::NerTagger tagger(config, emb, &rng);
  constexpr int kBatch = 16;
  std::vector<data::Instance> xs(kBatch);
  std::vector<util::Matrix> qs;
  models::TrainHead head;
  std::vector<const data::Instance*> batch;
  for (data::Instance& x : xs) {
    const int t_len = 8 + rng.UniformInt(11);
    for (int i = 0; i < t_len; ++i) x.tokens.push_back(1 + rng.UniformInt(499));
    util::Matrix q(t_len, 9);
    for (int t = 0; t < t_len; ++t) q(t, t % 9) = 1.0f;
    qs.push_back(std::move(q));
    batch.push_back(&x);
  }
  for (const util::Matrix& q : qs) head.targets.push_back(&q);
  std::vector<double> losses;
  for (auto _ : state) {
    tagger.TrainBatch(batch, head, &rng, nullptr, &losses);
    nn::ZeroGrads(tagger.Params());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.counters["us_per_sentence"] = benchmark::Counter(
      kBatch * 1e-6, benchmark::Counter::kIsIterationInvariantRate |
                        benchmark::Counter::kInvert);
}
BENCHMARK(BM_NerTaggerTrainBatch);

// One Adam update over the NER tagger's parameters (the bench model config).
// Step() zeroes the gradients it consumes, so each iteration first restores
// a fixed random gradient; that copy is part of the timed loop.
void BM_AdamStep(benchmark::State& state) {
  util::Rng rng(8);
  auto emb = std::make_shared<data::EmbeddingTable>(500, 32);
  models::NerTagger tagger(bench::NerModelConfig(), emb, &rng);
  const std::vector<nn::Parameter*> params = tagger.Params();
  std::vector<util::Matrix> grads;
  size_t weights = 0;
  for (const nn::Parameter* p : params) {
    grads.push_back(RandomMatrix(p->value.rows(), p->value.cols(), &rng));
    weights += p->value.size();
  }
  auto opt = nn::MakeOptimizer(bench::NerOptimizer());
  for (auto _ : state) {
    for (size_t i = 0; i < params.size(); ++i) params[i]->grad = grads[i];
    opt->Step(params);
    benchmark::DoNotOptimize(params[0]->value.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(weights));
}
BENCHMARK(BM_AdamStep);

}  // namespace
}  // namespace lncl

#ifndef LNCL_MICRO_COMBINED
BENCHMARK_MAIN();
#endif
