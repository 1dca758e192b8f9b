#include "probe.h"

#include <algorithm>
#include <cstdio>

#include "doduo/nn/activations.h"
#include "doduo/nn/embedding.h"
#include "doduo/nn/layer_norm.h"
#include "doduo/nn/linear.h"
#include "doduo/nn/ops.h"
#include "doduo/serve/protocol.h"
#include "doduo/table/sanitizer.h"
#include "doduo/transformer/attention.h"
#include "doduo/util/rng.h"

namespace perfbench {

namespace {

double ElapsedUs(Clock::time_point start) {
  return MicrosBetween(start, Clock::now());
}

// Replayed ops in encoder order; the GEMM-shaped ones also report GFLOP/s.
constexpr const char* kReplayOps[] = {"embed",     "qkv",    "attn_core",
                                      "out_proj",  "layernorm", "ffn_in",
                                      "gelu",      "ffn_out"};

}  // namespace

std::string EncodeOutcomes(
    const std::vector<doduo::core::ColumnOutcome>& outcomes) {
  std::string bytes;
  doduo::serve::EncodeOutcomesPayload(outcomes, &bytes);
  return bytes;
}

SerializedShape SerializeLikeAnnotator(
    const doduo::table::Table& table,
    const doduo::table::TableSerializer& serializer,
    const doduo::core::AnnotateOptions& options, Tracer* tracer,
    uint64_t id) {
  Tracer disabled(false);
  if (tracer == nullptr) tracer = &disabled;
  SerializedShape out;
  const doduo::table::Table* effective = &table;
  doduo::table::SanitizeResult sanitized;
  std::vector<int> annotatable;
  auto start = Clock::now();
  if (options.sanitize) {
    Tracer::Scope span(tracer, "table.sanitizer", id);
    sanitized =
        doduo::table::ColumnSanitizer(options.sanitizer).Sanitize(table);
    if (sanitized.any_modified) effective = &sanitized.table;
    out.skipped_columns = static_cast<int>(sanitized.num_skipped());
  }
  for (int c = 0; c < table.num_columns(); ++c) {
    if (!options.sanitize || sanitized.columns[static_cast<size_t>(c)].skip ==
                                 doduo::table::SkipReason::kNone) {
      annotatable.push_back(c);
    }
  }
  out.sanitize_us = ElapsedUs(start);

  // The column chunking of Annotator::AnnotateTypesRobust.
  start = Clock::now();
  Tracer::Scope span(tracer, "table.serializer", id);
  const size_t cap = static_cast<size_t>(
      std::max(1, (serializer.options().max_total_tokens - 1) / 2));
  for (size_t begin = 0; begin < annotatable.size(); begin += cap) {
    const size_t end = std::min(annotatable.size(), begin + cap);
    doduo::table::Table subset;
    const doduo::table::Table* chunk = effective;
    if (end - begin != static_cast<size_t>(effective->num_columns())) {
      subset.set_id(effective->id());
      for (size_t i = begin; i < end; ++i) {
        subset.AddColumn(effective->column(annotatable[i]));
      }
      chunk = &subset;
    }
    auto serialized = serializer.SerializeTable(*chunk);
    if (serialized.ok()) out.chunks.push_back(std::move(serialized).value());
  }
  out.serialize_us = ElapsedUs(start);
  return out;
}

double EncoderFlops(const doduo::transformer::TransformerConfig& config,
                    int64_t seq) {
  const double s = static_cast<double>(seq);
  const double d = config.hidden_dim;
  const double f = config.ffn_dim;
  const double per_layer = 2.0 * s * d * (3.0 * d + d + 2.0 * f) +
                           4.0 * s * s * d;
  return per_layer * config.num_layers;
}

Prober::Prober(doduo::core::LoadedModel* model, Tracer* tracer)
    : model_(model), annotator_(model->MakeAnnotator()), tracer_(tracer) {}

std::string Prober::Probe(const doduo::table::Table& table,
                          const doduo::core::AnnotateOptions& options,
                          uint64_t id) {
  Tracer::Scope root(tracer_, "probe.table", id);
  SerializedShape shape = SerializeLikeAnnotator(
      table, *model_->serializer, options, tracer_, id);
  doduo::core::DoduoModel* model = model_->model.get();
  double tokens = 0.0;
  for (const auto& chunk : shape.chunks) {
    const int64_t seq = static_cast<int64_t>(chunk.token_ids.size());
    tokens += static_cast<double>(seq);
    totals_.seq_lengths.push_back(static_cast<int>(seq));
    totals_.forward_flops += EncoderFlops(model->config().encoder, seq);
    auto start = Clock::now();
    {
      Tracer::Scope span(tracer_, "transformer.forward", id);
      model->encoder()->Forward(chunk.token_ids, nullptr);
    }
    totals_.forward_us += ElapsedUs(start);
    start = Clock::now();
    {
      Tracer::Scope span(tracer_, "core.forward_types", id);
      model->ForwardTypes(chunk);
    }
    totals_.forward_types_us += ElapsedUs(start);
  }
  const auto start = Clock::now();
  std::vector<doduo::core::ColumnOutcome> outcomes;
  {
    Tracer::Scope span(tracer_, "core.annotate", id);
    outcomes = annotator_.AnnotateTypesRobust(table, options);
  }
  totals_.annotate_us += ElapsedUs(start);
  totals_.sanitize_us += shape.sanitize_us;
  totals_.serialize_us += shape.serialize_us;
  totals_.tokens.push_back(tokens);
  totals_.columns += table.num_columns();
  totals_.skipped_columns += shape.skipped_columns;
  ++totals_.tables;
  return EncodeOutcomes(outcomes);
}

ReplayTotals ReplayShapes(const doduo::transformer::TransformerConfig& config,
                          const std::vector<int>& seq_lengths, uint64_t seed,
                          Tracer* tracer) {
  namespace nn = doduo::nn;
  const int64_t d = config.hidden_dim;
  const int64_t f = config.ffn_dim;
  doduo::util::Rng rng(seed);
  nn::Embedding token("replay.token", config.vocab_size, d, &rng);
  nn::Embedding position("replay.position", config.max_positions, d, &rng);
  nn::LayerNorm embed_norm("replay.embed_norm", d);
  nn::LayerNorm norm("replay.norm", d);
  nn::Linear qkv("replay.qkv", d, 3 * d, &rng);
  nn::Linear out_proj("replay.out", d, d, &rng);
  nn::Linear ffn_in("replay.ffn_in", d, f, &rng);
  nn::Linear ffn_out("replay.ffn_out", f, d, &rng);
  doduo::transformer::MultiHeadSelfAttention attention("replay.attn", config,
                                                       &rng);

  std::vector<int> position_ids(static_cast<size_t>(config.max_positions));
  std::vector<int> all_ids(static_cast<size_t>(config.max_positions));
  for (size_t i = 0; i < all_ids.size(); ++i) {
    position_ids[i] = static_cast<int>(i);
    all_ids[i] = 5 + static_cast<int>(rng.NextUint64(
                         static_cast<uint64_t>(config.vocab_size - 5)));
  }

  ReplayTotals totals;
  for (const char* op : kReplayOps) totals.us[op] = 0.0;
  nn::Tensor x;
  nn::Tensor summed;
  nn::Tensor act;
  for (int seq : seq_lengths) {
    if (seq <= 0 || seq > config.max_positions) continue;
    const int64_t s = seq;
    x = nn::Tensor({s, d});
    x.FillNormal(&rng, 1.0f);
    const std::vector<int> ids(all_ids.begin(), all_ids.begin() + s);
    Tracer::Scope root(tracer, "replay.forward", static_cast<uint64_t>(s));

    auto start = Clock::now();
    {
      Tracer::Scope span(tracer, "transformer.embed", 0);
      const nn::Tensor& tokens = token.Forward(ids);
      const nn::Tensor& positions = position.Forward(position_ids.data(), s);
      nn::Add(tokens, positions, &summed);
      embed_norm.Forward(summed);
    }
    totals.us["embed"] += ElapsedUs(start);

    for (int layer = 0; layer < config.num_layers; ++layer) {
      start = Clock::now();
      {
        Tracer::Scope span(tracer, "transformer.qkv", 0);
        qkv.Forward(x);
      }
      const double qkv_us = ElapsedUs(start);
      start = Clock::now();
      {
        Tracer::Scope span(tracer, "transformer.attention", 0);
        attention.Forward(x, nullptr);
      }
      const double attention_us = ElapsedUs(start);
      start = Clock::now();
      {
        Tracer::Scope span(tracer, "transformer.out_proj", 0);
        out_proj.Forward(x);
      }
      const double out_us = ElapsedUs(start);
      totals.us["qkv"] += qkv_us;
      totals.us["out_proj"] += out_us;
      // MultiHeadSelfAttention::Forward runs its own QKV and out-proj GEMMs
      // at the same shapes; the rest is the attention core.
      totals.us["attn_core"] += std::max(0.0, attention_us - qkv_us - out_us);

      start = Clock::now();
      {
        Tracer::Scope span(tracer, "transformer.layernorm", 0);
        norm.Forward(x);
        norm.Forward(x);
      }
      totals.us["layernorm"] += ElapsedUs(start);

      start = Clock::now();
      nn::Tensor* pre = nullptr;
      {
        Tracer::Scope span(tracer, "transformer.ffn_in", 0);
        pre = &ffn_in.ForwardNoBias(x);
      }
      totals.us["ffn_in"] += ElapsedUs(start);
      start = Clock::now();
      {
        Tracer::Scope span(tracer, "transformer.gelu", 0);
        nn::BiasGeluForward(pre, ffn_in.bias().value, &act);
      }
      totals.us["gelu"] += ElapsedUs(start);
      start = Clock::now();
      {
        Tracer::Scope span(tracer, "transformer.ffn_out", 0);
        ffn_out.Forward(act);
      }
      totals.us["ffn_out"] += ElapsedUs(start);

      const double sd = static_cast<double>(s) * static_cast<double>(d);
      totals.flops["qkv"] += 2.0 * sd * 3.0 * static_cast<double>(d);
      totals.flops["out_proj"] += 2.0 * sd * static_cast<double>(d);
      totals.flops["ffn_in"] += 2.0 * sd * static_cast<double>(f);
      totals.flops["ffn_out"] += 2.0 * sd * static_cast<double>(f);
      totals.flops["attn_core"] += 4.0 * sd * static_cast<double>(s);
    }
  }
  return totals;
}

void AddProbeMetrics(const LayerProbe& probe, const ReplayTotals& replay,
                     Metrics* metrics) {
  const double n = std::max<double>(1.0, static_cast<double>(probe.tables));
  auto& m = *metrics;
  auto gflops = [](double flops, double us) {
    return us > 0.0 ? flops / (us * 1e3) : 0.0;
  };
  m["table.sanitizer.us_per_table"] = {probe.sanitize_us / n, "us"};
  m["table.sanitizer.cols_skipped_frac"] = {
      probe.columns > 0 ? static_cast<double>(probe.skipped_columns) /
                              static_cast<double>(probe.columns)
                        : 0.0,
      "ratio"};
  m["table.serializer.us_per_table"] = {probe.serialize_us / n, "us"};
  m["table.serializer.tokens_per_table"] = {Mean(probe.tokens), "tokens"};
  m["table.serializer.tokens_p99"] = {Quantile(probe.tokens, 0.99), "tokens"};
  m["transformer.us_per_table"] = {probe.forward_us / n, "us"};
  m["transformer.gflops"] = {gflops(probe.forward_flops, probe.forward_us),
                             "GFLOP/s"};
  double replayed_us = 0.0;
  for (const char* op : kReplayOps) {
    const double us = replay.us.count(op) ? replay.us.at(op) : 0.0;
    replayed_us += us;
    m[std::string("transformer.") + op + ".us_per_table"] = {us / n, "us"};
    if (replay.flops.count(op)) {
      m[std::string("transformer.") + op + ".gflops"] = {
          gflops(replay.flops.at(op), us), "GFLOP/s"};
    }
  }
  m["transformer.replay_coverage"] = {
      probe.forward_us > 0.0 ? replayed_us / probe.forward_us : 0.0, "ratio"};
  m["core.heads.us_per_table"] = {
      std::max(0.0, probe.forward_types_us - probe.forward_us) / n, "us"};
  m["core.annotate_overhead.us_per_table"] = {
      (probe.annotate_us - probe.sanitize_us - probe.serialize_us -
       probe.forward_types_us) /
          n,
      "us"};

}

void PrintLayerTable(const Metrics& metrics, double root_us_per_table) {
  // µs per table, share of the root (one table's trip from its input to its
  // outcomes), achieved GFLOP/s.
  std::fprintf(stderr, "%-40s %12s %8s %9s\n", "layer", "us/table", "% root",
               "GFLOP/s");
  for (const auto& [name, metric] : metrics) {
    const bool per_table = name.size() > 12 &&
                           name.compare(name.size() - 12, 12, "us_per_table") == 0;
    if (!per_table && name.rfind("serve.client.", 0) != 0) continue;
    const std::string stem = name.substr(0, name.rfind('.'));
    double rate = 0.0;
    if (auto it = metrics.find(stem + ".gflops"); it != metrics.end()) {
      rate = it->second.value;
    }
    std::fprintf(stderr, "%-40s %12.2f %7.1f%% %9.2f\n", name.c_str(),
                 metric.value,
                 root_us_per_table > 0.0
                     ? 100.0 * metric.value / root_us_per_table
                     : 0.0,
                 rate);
  }
}

}  // namespace perfbench
