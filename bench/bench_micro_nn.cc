// Microbenchmarks of the neural-network substrate (google-benchmark):
// dense kernels, RNN steps, full model forward/backward, inference
// throughput, and the data-preparation / sampling pipeline stages.

#include <benchmark/benchmark.h>

#include "core/inference.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/dictionary.h"
#include "data/encoding.h"
#include "data/prepare.h"
#include "datagen/datasets.h"
#include "nn/graph.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/recurrent.h"
#include "sampling/sampler.h"
#include "util/rng.h"

namespace birnn {
namespace {

// The three GEMM kernels on the model's shapes, as (n, k, m): the RNN
// step's 75-cell batches at input widths 32/64/128 with 64 hidden units,
// the GRU's three stacked gates (m = 192), the batched input projection
// over a 4096-cell step, a 256-cell sweep batch, and the 1- and 3-row
// steps of a memo miss at batch 1 and 3. MatMul computes
// (n,k)*(k,m), MatMulTransposeAAcc (n,k)^T*(n,m) and MatMulTransposeBAcc
// (n,k)*(m,k)^T; each reports GFLOP/s at 2*n*k*m flops per call.
enum class Gemm { kMatMul, kTransposeA, kTransposeB };

template <Gemm kKernel>
void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int m = static_cast<int>(state.range(2));
  Rng rng(1);
  nn::Tensor a(n, k);
  nn::Tensor b = kKernel == Gemm::kMatMul        ? nn::Tensor(k, m)
                 : kKernel == Gemm::kTransposeA ? nn::Tensor(n, m)
                                                : nn::Tensor(m, k);
  nn::NormalInit(&a, 1.0f, &rng);
  nn::NormalInit(&b, 1.0f, &rng);
  nn::Tensor c = kKernel == Gemm::kTransposeA ? nn::Tensor(k, m)
                                              : nn::Tensor(n, m);
  for (auto _ : state) {
    if constexpr (kKernel == Gemm::kMatMul) {
      nn::MatMul(a, b, &c);
    } else if constexpr (kKernel == Gemm::kTransposeA) {
      nn::MatMulTransposeAAcc(a, b, &c);
    } else {
      nn::MatMulTransposeBAcc(a, b, &c);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP"] = benchmark::Counter(
      2e-9 * n * k * m, benchmark::Counter::kIsIterationInvariantRate);
}

void GemmShapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"n", "k", "m"});
  b->Args({75, 32, 64});
  b->Args({75, 64, 64});
  b->Args({75, 64, 192});
  b->Args({4096, 32, 64});
  b->Args({256, 64, 64});
  b->Args({1, 64, 64});
  b->Args({3, 64, 64});
  b->Args({1, 32, 64});
}
BENCHMARK_TEMPLATE(BM_MatMul, Gemm::kMatMul)->Apply(GemmShapes);
BENCHMARK_TEMPLATE(BM_MatMul, Gemm::kTransposeA)->Apply(GemmShapes);
BENCHMARK_TEMPLATE(BM_MatMul, Gemm::kTransposeB)->Apply(GemmShapes);

void BM_RnnStepForward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Rng rng(2);
  nn::RecurrentCell cell(nn::CellType::kVanilla, "c", 32, 64, &rng);
  nn::Tensor x(batch, 32);
  nn::NormalInit(&x, 1.0f, &rng);
  const nn::RecurrentTensors h = cell.InitialTensors(batch);
  nn::RecurrentTensors out;
  nn::StepScratch scratch;
  for (auto _ : state) {
    cell.StepForward(x, h, &out, &scratch);
    benchmark::DoNotOptimize(out.h.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_RnnStepForward)->Arg(32)->Arg(256);

void BM_BiRnnSequenceForward(benchmark::State& state) {
  const int t_steps = static_cast<int>(state.range(0));
  Rng rng(3);
  nn::StackedBiRecurrent rnn(nn::CellType::kVanilla, "r", 32, 64, 2, true,
                            &rng);
  std::vector<nn::Tensor> steps(static_cast<size_t>(t_steps),
                                nn::Tensor(64, 32));
  for (auto& s : steps) nn::NormalInit(&s, 1.0f, &rng);
  nn::Tensor out;
  for (auto _ : state) {
    rnn.ApplyForward(steps, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BiRnnSequenceForward)->Arg(16)->Arg(64);

// A one-cell memo miss in the paper's value RNN: batch 1, a 5-character
// cell in 30 padded steps, through the inference entry over id columns.
// Level 0's projections are gathered from per-character tables (vocab 68);
// the forward chain runs all 30 steps (the pad tail included); the backward
// chain runs 5, warm-started from the shared pad prefix.
void BM_BiRnnBucketedBatch1(benchmark::State& state) {
  constexpr int kSteps = 5;
  constexpr int kMaxLen = 30;
  constexpr int kVocab = 68;
  Rng rng(6);
  nn::StackedBiRecurrent rnn(nn::CellType::kVanilla, "r", 32, 64, 2, true,
                            &rng);
  nn::Tensor table(kVocab, 32);
  nn::NormalInit(&table, 1.0f, &rng);
  std::vector<nn::Tensor> proj;
  rnn.ProjectInputTable(table, &proj);
  nn::Tensor pad_step(1, 32);
  std::copy(table.data(), table.data() + 32, pad_step.data());
  nn::PadPrefixTrajectory traj;
  rnn.ComputeBackwardPadPrefix(pad_step, kMaxLen, &traj);
  std::vector<std::vector<int>> ids;
  for (int t = 0; t < kSteps; ++t) ids.push_back({1 + 7 * t % (kVocab - 1)});
  nn::StackedBiRecurrent::ForwardScratch scratch;
  nn::Tensor out;
  for (auto _ : state) {
    rnn.ApplyForwardIds(ids.data(), kSteps, kMaxLen, proj, traj, &out,
                        &scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BiRnnBucketedBatch1);

// A one-cell memo miss through the engine on a beers-shaped ETSB model
// (vocab 68, max_len 30, 11 attributes, the paper's widths): the cell's
// effective length is the argument (3, 17, or the full 30). The engine
// does not memoize, so every call runs the batch-1 forward pass.
void BM_ModelPredictBatch1(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  core::ModelConfig config;
  config.vocab = 68;
  config.max_len = 30;
  config.n_attrs = 11;
  config.enriched = true;
  config.seed = 4;
  const core::ErrorDetectionModel model(config);
  data::EncodedDataset ds;
  ds.max_len = config.max_len;
  ds.vocab = config.vocab;
  ds.n_attrs = config.n_attrs;
  ds.seqs.assign(static_cast<size_t>(config.max_len), 0);
  for (int t = 0; t < len; ++t) {
    ds.seqs[static_cast<size_t>(t)] = 1 + 7 * t % (config.vocab - 1);
  }
  ds.attrs = {3};
  ds.length_norm = {0.25f};
  ds.labels = {0};
  ds.row_ids = {0};
  core::InferenceOptions options;
  options.memoize = false;
  core::InferenceEngine engine(model, options);
  const std::vector<int64_t> cells = {0};
  std::vector<float> p;
  for (auto _ : state) {
    engine.PredictProbs(ds, cells, &p);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelPredictBatch1)->Arg(3)->Arg(17)->Arg(30);

core::ModelConfig BenchModelConfig(bool enriched) {
  core::ModelConfig config;
  config.vocab = 80;
  config.max_len = 24;
  config.n_attrs = 11;
  config.enriched = enriched;
  config.seed = 4;
  return config;
}

core::BatchInput BenchBatch(const core::ModelConfig& config, int batch) {
  Rng rng(5);
  core::BatchInput b;
  b.batch = batch;
  b.char_steps.assign(static_cast<size_t>(config.max_len),
                      std::vector<int>(static_cast<size_t>(batch)));
  for (auto& step : b.char_steps) {
    for (auto& id : step) {
      id = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(config.vocab)));
    }
  }
  for (int i = 0; i < batch; ++i) {
    b.attr_ids.push_back(static_cast<int>(rng.UniformInt(11)));
    b.length_norm.push_back(rng.UniformFloat(0.0f, 1.0f));
    b.labels.push_back(static_cast<int>(rng.UniformInt(2)));
  }
  return b;
}

void BM_ModelInference(benchmark::State& state) {
  const bool enriched = state.range(0) != 0;
  const core::ModelConfig config = BenchModelConfig(enriched);
  core::ErrorDetectionModel model(config);
  const core::BatchInput batch = BenchBatch(config, 128);
  std::vector<float> probs;
  for (auto _ : state) {
    model.PredictProbs(batch, &probs);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(state.iterations() * 128);  // cells per second
}
BENCHMARK(BM_ModelInference)->Arg(0)->Arg(1);

void BM_ModelTrainStep(benchmark::State& state) {
  const bool enriched = state.range(0) != 0;
  const core::ModelConfig config = BenchModelConfig(enriched);
  core::ErrorDetectionModel model(config);
  const core::BatchInput batch = BenchBatch(config, 55);
  std::vector<nn::Parameter*> params = model.Params();
  nn::RmsProp opt(1e-3f);
  nn::Graph g;  // arena: reused across steps, as in Trainer::Fit
  for (auto _ : state) {
    g.Reset();
    nn::Graph::Var logits = model.Forward(&g, batch, true);
    nn::Graph::Var loss = g.SoftmaxCrossEntropy(logits, batch.labels);
    nn::ZeroGrads(params);
    g.Backward(loss);
    opt.Step(params);
    benchmark::DoNotOptimize(g.value(loss).scalar());
  }
  state.SetItemsProcessed(state.iterations() * 55);
}
BENCHMARK(BM_ModelTrainStep)->Arg(0)->Arg(1);

void BM_PreparePipeline(benchmark::State& state) {
  datagen::GenOptions gen;
  gen.scale = 0.2;
  const datagen::DatasetPair pair = datagen::MakeBeers(gen);
  for (auto _ : state) {
    auto frame = data::PrepareData(pair.dirty, pair.clean);
    benchmark::DoNotOptimize(frame->num_cells());
  }
}
BENCHMARK(BM_PreparePipeline);

void BM_DiverSetSampling(benchmark::State& state) {
  datagen::GenOptions gen;
  gen.scale = 0.2;
  const datagen::DatasetPair pair = datagen::MakeBeers(gen);
  auto frame = data::PrepareData(pair.dirty, pair.clean);
  sampling::DiverSetSampler sampler;
  uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    auto ids = sampler.Select(*frame, 20, &rng);
    benchmark::DoNotOptimize(ids->size());
  }
}
BENCHMARK(BM_DiverSetSampling);

void BM_RahaSetSampling(benchmark::State& state) {
  datagen::GenOptions gen;
  gen.scale = 0.1;
  const datagen::DatasetPair pair = datagen::MakeBeers(gen);
  auto frame = data::PrepareData(pair.dirty, pair.clean);
  sampling::RahaSetSampler sampler;
  uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    auto ids = sampler.Select(*frame, 20, &rng);
    benchmark::DoNotOptimize(ids->size());
  }
}
BENCHMARK(BM_RahaSetSampling);

void BM_EncodeCells(benchmark::State& state) {
  datagen::GenOptions gen;
  gen.scale = 0.2;
  const datagen::DatasetPair pair = datagen::MakeBeers(gen);
  auto frame = data::PrepareData(pair.dirty, pair.clean);
  const data::CharIndex chars = data::CharIndex::Build(*frame);
  for (auto _ : state) {
    data::EncodedDataset ds = data::EncodeCells(*frame, chars);
    benchmark::DoNotOptimize(ds.num_cells());
  }
}
BENCHMARK(BM_EncodeCells);

}  // namespace
}  // namespace birnn

BENCHMARK_MAIN();
