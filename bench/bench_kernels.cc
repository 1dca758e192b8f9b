// google-benchmark microbenchmarks of the library's hot kernels: dense
// matmul, attention/encoder forward, WordPiece tokenization, table
// serialization, Sherlock feature extraction, and k-means.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "doduo/baselines/sherlock_features.h"
#include "doduo/cluster/kmeans.h"
#include "doduo/core/annotator.h"
#include "doduo/nn/ops.h"
#include "doduo/table/serializer.h"
#include "doduo/text/wordpiece_trainer.h"
#include "doduo/transformer/bert.h"
#include "doduo/util/env.h"
#include "doduo/util/metrics.h"
#include "doduo/util/thread_pool.h"

namespace {

using doduo::nn::Tensor;

// GEMM at a fixed thread-pool size; Args are (matrix size, threads).
// threads=1 is the serial path (the parallel dispatch gate sees a
// single-thread pool and runs inline), so BM_MatMul/256/1 vs /256/4 is the
// serial-vs-parallel comparison. Every benchmark that runs on more than one
// thread uses UseRealTime(): the default rate divides by the main thread's
// CPU time, which excludes the pool workers and overstates throughput.
void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  doduo::util::SetComputeThreads(static_cast<int>(state.range(1)));
  doduo::util::Rng rng(1);
  Tensor a({n, n});
  Tensor b({n, n});
  a.FillNormal(&rng, 1.0f);
  b.FillNormal(&rng, 1.0f);
  Tensor c;
  for (auto _ : state) {
    doduo::nn::MatMul(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  doduo::util::SetComputeThreads(1);
}
BENCHMARK(BM_MatMul)
    ->ArgPair(64, 1)
    ->ArgPair(128, 1)
    ->ArgPair(256, 1)
    ->ArgPair(256, 2)
    ->ArgPair(256, 4)
    ->ArgPair(256, 8)
    ->UseRealTime();

void BM_MatMulTransposedB(benchmark::State& state) {
  const int64_t n = state.range(0);
  doduo::util::SetComputeThreads(static_cast<int>(state.range(1)));
  doduo::util::Rng rng(1);
  Tensor a({n, n});
  Tensor b({n, n});
  a.FillNormal(&rng, 1.0f);
  b.FillNormal(&rng, 1.0f);
  Tensor c;
  for (auto _ : state) {
    doduo::nn::MatMulTransposedB(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  doduo::util::SetComputeThreads(1);
}
BENCHMARK(BM_MatMulTransposedB)
    ->ArgPair(256, 1)
    ->ArgPair(256, 4)
    ->UseRealTime();

void BM_SoftmaxRows(benchmark::State& state) {
  doduo::util::Rng rng(2);
  Tensor logits({128, 128});
  logits.FillNormal(&rng, 1.0f);
  Tensor probs;
  for (auto _ : state) {
    doduo::nn::SoftmaxRows(logits, &probs);
    benchmark::DoNotOptimize(probs.data());
  }
}
BENCHMARK(BM_SoftmaxRows);

// Attention forward at (seq, fused): fused=1 is the strided-view packed-QKV
// path, fused=0 the retained copy-based reference (the pre-fusion kernel
// sequence). Reports allocs_per_iter — Tensor heap allocations per forward —
// which must be 0 at steady state in DODUO_COUNT_ALLOCS builds.
void BM_AttentionForward(benchmark::State& state) {
  const int seq = static_cast<int>(state.range(0));
  const bool fused = state.range(1) != 0;
  doduo::util::Rng rng(11);
  doduo::transformer::TransformerConfig config;
  config.max_positions = seq;
  config.hidden_dim = 64;
  config.num_heads = 4;
  config.ffn_dim = 256;
  config.num_layers = 1;
  config.dropout = 0.0f;
  doduo::transformer::MultiHeadSelfAttention attn("bench", config, &rng);
  attn.set_use_fused(fused);
  Tensor x({seq, config.hidden_dim});
  x.FillNormal(&rng, 1.0f);
  attn.Forward(x, nullptr);  // warm up buffers
  doduo::nn::ResetTensorAllocCount();
  for (auto _ : state) {
    const Tensor& y = attn.Forward(x, nullptr);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(doduo::nn::TensorAllocCount()),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * seq);
}
BENCHMARK(BM_AttentionForward)
    ->ArgPair(64, 1)
    ->ArgPair(64, 0)
    ->ArgPair(128, 1)
    ->ArgPair(128, 0)
    ->ArgPair(512, 1)
    ->ArgPair(512, 0);

doduo::transformer::TransformerConfig BenchEncoderConfig() {
  doduo::transformer::TransformerConfig config;
  config.vocab_size = 2000;
  config.max_positions = 192;
  config.hidden_dim = 64;
  config.num_layers = 2;
  config.num_heads = 4;
  config.ffn_dim = 256;
  config.dropout = 0.0f;
  return config;
}

// Full encoder stack (attention + fused bias/GELU FFN) at (seq, fused),
// with the allocations-per-forward report.
void BM_EncoderForward(benchmark::State& state) {
  const int seq = static_cast<int>(state.range(0));
  const bool fused = state.range(1) != 0;
  doduo::util::Rng rng(12);
  doduo::transformer::TransformerConfig config = BenchEncoderConfig();
  config.max_positions = seq;
  doduo::transformer::Encoder encoder("bench", config, &rng);
  encoder.set_use_fused(fused);
  encoder.set_training(false);
  Tensor x({seq, config.hidden_dim});
  x.FillNormal(&rng, 1.0f);
  encoder.Forward(x, nullptr);  // warm up buffers
  doduo::nn::ResetTensorAllocCount();
  for (auto _ : state) {
    const Tensor& y = encoder.Forward(x, nullptr);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(doduo::nn::TensorAllocCount()),
      benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * seq);
}
BENCHMARK(BM_EncoderForward)
    ->ArgPair(64, 1)
    ->ArgPair(64, 0)
    ->ArgPair(128, 1)
    ->ArgPair(128, 0)
    ->ArgPair(512, 1)
    ->ArgPair(512, 0);

void BM_BertForward(benchmark::State& state) {
  const int seq = static_cast<int>(state.range(0));
  doduo::util::Rng rng(3);
  doduo::transformer::BertModel model("bench", BenchEncoderConfig(), &rng);
  model.set_training(false);
  std::vector<int> ids(static_cast<size_t>(seq));
  for (int i = 0; i < seq; ++i) {
    ids[static_cast<size_t>(i)] = 5 + static_cast<int>(rng.NextUint64(1900));
  }
  for (auto _ : state) {
    const Tensor& hidden = model.Forward(ids);
    benchmark::DoNotOptimize(hidden.data());
  }
  state.SetItemsProcessed(state.iterations() * seq);
}
BENCHMARK(BM_BertForward)->Arg(32)->Arg(96)->Arg(160);

void BM_BertForwardBackward(benchmark::State& state) {
  const int seq = 96;
  doduo::util::Rng rng(4);
  doduo::transformer::BertModel model("bench", BenchEncoderConfig(), &rng);
  std::vector<int> ids(static_cast<size_t>(seq));
  for (int i = 0; i < seq; ++i) {
    ids[static_cast<size_t>(i)] = 5 + static_cast<int>(rng.NextUint64(1900));
  }
  Tensor grad({seq, 64});
  grad.FillNormal(&rng, 0.1f);
  for (auto _ : state) {
    model.Forward(ids);
    model.Backward(grad);
  }
  state.SetItemsProcessed(state.iterations() * seq);
}
BENCHMARK(BM_BertForwardBackward);

struct TokenizerFixture {
  TokenizerFixture() {
    std::vector<std::string> lines;
    for (int i = 0; i < 200; ++i) {
      lines.push_back("george miller directed happy feet in nineteen " +
                      std::to_string(i));
    }
    doduo::text::WordPieceTrainer trainer({.vocab_size = 500,
                                           .min_pair_frequency = 2});
    vocab = trainer.TrainFromLines(lines);
  }
  doduo::text::Vocab vocab;
};

void BM_WordPieceEncode(benchmark::State& state) {
  static TokenizerFixture fixture;
  doduo::text::WordPieceTokenizer tokenizer(&fixture.vocab);
  const std::string text =
      "george miller directed happy feet and produced mad max in 1979";
  for (auto _ : state) {
    auto ids = tokenizer.Encode(text);
    benchmark::DoNotOptimize(ids.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_WordPieceEncode);

void BM_SerializeTable(benchmark::State& state) {
  static TokenizerFixture fixture;
  doduo::text::WordPieceTokenizer tokenizer(&fixture.vocab);
  doduo::table::TableSerializer serializer(&tokenizer, {});
  doduo::table::Table table("bench");
  for (int c = 0; c < 5; ++c) {
    doduo::table::Column column;
    column.name = "col" + std::to_string(c);
    for (int r = 0; r < 6; ++r) {
      column.values.push_back("george miller " + std::to_string(r));
    }
    table.AddColumn(std::move(column));
  }
  for (auto _ : state) {
    auto serialized = serializer.SerializeTable(table).value();
    benchmark::DoNotOptimize(serialized.token_ids.data());
  }
}
BENCHMARK(BM_SerializeTable);

void BM_SherlockFeatures(benchmark::State& state) {
  doduo::table::Column column;
  doduo::util::Rng rng(5);
  for (int r = 0; r < 20; ++r) {
    column.values.push_back("value " + std::to_string(rng.NextUint64(1000)));
  }
  for (auto _ : state) {
    auto features = doduo::baselines::ExtractSherlockFeatures(column);
    benchmark::DoNotOptimize(features.data());
  }
}
BENCHMARK(BM_SherlockFeatures);

// Batched annotation throughput (tables/sec): AnnotateTypesBatch over a
// fleet of tables at a given pool size, vs. the threads=1 row which is the
// sequential-loop equivalent.
struct BatchAnnotateFixture {
  BatchAnnotateFixture() : tokenizer(&shared().vocab) {
    config.encoder.vocab_size = shared().vocab.size();
    config.encoder.max_positions = 128;
    config.encoder.hidden_dim = 64;
    config.encoder.num_layers = 2;
    config.encoder.num_heads = 4;
    config.encoder.ffn_dim = 256;
    config.encoder.dropout = 0.0f;
    config.serializer.max_total_tokens = 128;
    config.num_types = 8;
    config.num_relations = 0;
    config.tasks = doduo::core::TaskSet::kTypesOnly;
    for (int t = 0; t < config.num_types; ++t) {
      types.AddLabel("type" + std::to_string(t));
    }
    doduo::util::Rng rng(7);
    model = std::make_unique<doduo::core::DoduoModel>(config, &rng);
    model->set_training(false);
    serializer = std::make_unique<doduo::table::TableSerializer>(
        &tokenizer, config.serializer);
    for (int t = 0; t < 16; ++t) {
      doduo::table::Table table("bench" + std::to_string(t));
      for (int c = 0; c < 4; ++c) {
        doduo::table::Column column;
        column.name = "col" + std::to_string(c);
        for (int r = 0; r < 6; ++r) {
          column.values.push_back("george miller " + std::to_string(t + r));
        }
        table.AddColumn(std::move(column));
      }
      tables.push_back(std::move(table));
    }
  }

  static TokenizerFixture& shared() {
    static TokenizerFixture fixture;
    return fixture;
  }

  doduo::text::WordPieceTokenizer tokenizer;
  doduo::core::DoduoConfig config;
  doduo::table::LabelVocab types;
  std::unique_ptr<doduo::core::DoduoModel> model;
  std::unique_ptr<doduo::table::TableSerializer> serializer;
  std::vector<doduo::table::Table> tables;
};

void BM_AnnotateTypesBatch(benchmark::State& state) {
  static BatchAnnotateFixture fixture;
  doduo::util::SetComputeThreads(static_cast<int>(state.range(0)));
  doduo::core::Annotator annotator(fixture.model.get(),
                                   fixture.serializer.get(), &fixture.types,
                                   nullptr);
  for (auto _ : state) {
    auto results = annotator.AnnotateTypesBatch(fixture.tables).value();
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.tables.size()));
  doduo::util::SetComputeThreads(1);
}
BENCHMARK(BM_AnnotateTypesBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_KMeans(benchmark::State& state) {
  doduo::util::Rng rng(6);
  Tensor points({200, 64});
  points.FillNormal(&rng, 1.0f);
  doduo::cluster::KMeans::Options options;
  options.k = 15;
  options.restarts = 1;
  doduo::cluster::KMeans kmeans(options);
  for (auto _ : state) {
    auto assignment = kmeans.Cluster(points);
    benchmark::DoNotOptimize(assignment.data());
  }
}
BENCHMARK(BM_KMeans);

}  // namespace

// BENCHMARK_MAIN plus an optional pipeline-metrics dump: run with
// DODUO_BENCH_METRICS=1 to get the per-stage latency histograms and
// counters (DESIGN §10) as JSON on stderr after the benchmark table.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (doduo::util::GetEnvInt("DODUO_BENCH_METRICS", 0) != 0) {
    std::fprintf(stderr, "%s\n", doduo::util::MetricsToJson().c_str());
  }
  return 0;
}
