#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <unordered_set>

#include <unistd.h>

#include "common.h"
#include "probe.h"
#include "doduo/core/model.h"
#include "doduo/core/model_io.h"
#include "doduo/serve/protocol.h"
#include "doduo/synth/corpus_generator.h"
#include "doduo/synth/knowledge_base.h"
#include "doduo/synth/table_generator.h"
#include "doduo/table/sanitizer.h"
#include "doduo/text/wordpiece_trainer.h"
#include "doduo/util/csv.h"
#include "doduo/util/rng.h"

namespace perfbench {

namespace fs = std::filesystem;
using doduo::util::Rng;

namespace {

// The three workloads. max_rate sizes the input pool (about 1.4x the rate
// measured at the seed commit on a 4-vCPU x86 VM); slo_ms is the per-table
// latency limit L, about 1.3x the seed commit's median p99 on that VM
// (lake_small ~62 ms, lake_big ~913 ms, serve_small ~15 ms), so a tail
// regression of a third moves slo_met_frac.
constexpr WorkloadSpec kWorkloads[] = {
    {"lake_small", Kind::kLakeSmall, 64, 1800.0, 80.0},
    {"lake_big", Kind::kLakeBig, 16, 30.0, 1200.0},
    {"serve_small", Kind::kServeSmall, 1, 1600.0, 20.0},
};

// lake_big table shape: wide and tall enough that every table overflows the
// 512-token budget, so the front end parses and scans rows the encoder
// never sees.
constexpr int kBigMinCols = 10;
constexpr int kBigMaxCols = 30;
constexpr int kBigMinRows = 700;
constexpr int kBigMaxRows = 2000;

// Index space of the warm-up tables, disjoint from the measured ones.
constexpr uint64_t kWarmupIndexBase = uint64_t{1} << 40;

const doduo::synth::KnowledgeBase& Kb(uint64_t seed) {
  static std::map<uint64_t, std::unique_ptr<doduo::synth::KnowledgeBase>>
      cache;
  auto& slot = cache[seed];
  if (!slot) {
    slot = std::make_unique<doduo::synth::KnowledgeBase>(
        doduo::synth::KnowledgeBase::BuildWikiTableKb(seed));
  }
  return *slot;
}

void AppendCell(std::string* out, const std::string& cell) {
  if (cell.find_first_of(",\"\r\n") == std::string::npos) {
    *out += cell;
    return;
  }
  *out += '"';
  for (char c : cell) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

std::string RenderCsv(const std::vector<doduo::table::Column>& columns,
                      int64_t rows, const char* eol, bool bom) {
  std::string out = bom ? "\xEF\xBB\xBF" : "";
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += ',';
    AppendCell(&out, columns[c].name);
  }
  out += eol;
  for (int64_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) out += ',';
      const auto& values = columns[c].values;
      if (r < static_cast<int64_t>(values.size())) {
        AppendCell(&out, values[static_cast<size_t>(r)]);
      }
    }
    out += eol;
  }
  return out;
}

GeneratedTable SmallTable(uint64_t seed, uint64_t index) {
  doduo::synth::TableGeneratorOptions options;
  options.num_tables = 1;
  options.with_relations = false;
  options.multi_label = true;
  const doduo::synth::TableGenerator generator(&Kb(seed), options);
  Rng rng(Mix(seed, index));
  const auto dataset = generator.Generate(&rng);
  const doduo::table::Table& table = dataset.tables.front().table;
  GeneratedTable out;
  out.columns = table.num_columns();
  out.rows = table.num_rows();
  out.cells = out.columns * out.rows;
  out.csv = RenderCsv(table.columns(), out.rows, "\n", false);
  return out;
}

// lake_big: cells are sampled with replacement from the KB entity pools, so
// row counts are not capped by pool sizes. Some tables carry each kind of
// dirt the front end repairs or skips.
GeneratedTable BigTable(uint64_t seed, uint64_t index) {
  const doduo::synth::KnowledgeBase& kb = Kb(seed);
  Rng rng(Mix(seed, index));
  const auto& topic = kb.topics()[rng.NextUint64(kb.topics().size())];
  const int num_cols =
      static_cast<int>(rng.UniformInt(kBigMinCols, kBigMaxCols));
  const int64_t rows = rng.UniformInt(kBigMinRows, kBigMaxRows);

  std::vector<int> types;
  if (topic.key_type >= 0) types.push_back(topic.key_type);
  for (int t : topic.other_types) {
    if (static_cast<int>(types.size()) < num_cols) types.push_back(t);
  }
  while (static_cast<int>(types.size()) < num_cols) {
    types.push_back(static_cast<int>(rng.NextUint64(kb.num_types())));
  }

  enum class Dirt { kNone, kNulls, kHeaderEcho, kBadUtf8, kLongCells };
  std::vector<Dirt> dirt(static_cast<size_t>(num_cols), Dirt::kNone);
  auto mark = [&](double p, Dirt d) {
    if (rng.Bernoulli(p)) dirt[rng.NextUint64(dirt.size())] = d;
  };
  mark(0.35, Dirt::kNulls);
  mark(0.25, Dirt::kHeaderEcho);
  mark(0.30, Dirt::kBadUtf8);
  mark(0.20, Dirt::kLongCells);

  static const char* kNullMarkers[] = {"null", "N/A", "", "-", "NaN", "none"};
  static const char* kBadBytes[] = {"\xFF", "\xC3", "\xE2\x82", "\xED\xA0\x80"};

  GeneratedTable out;
  out.columns = num_cols;
  out.rows = rows;
  out.cells = num_cols * rows;
  std::vector<doduo::table::Column> columns(static_cast<size_t>(num_cols));
  for (int c = 0; c < num_cols; ++c) {
    auto& column = columns[static_cast<size_t>(c)];
    const auto& type = kb.type(types[static_cast<size_t>(c)]);
    column.name = doduo::synth::KnowledgeBase::LeafWord(type.name) + " " +
                  std::to_string(c);
    column.values.reserve(static_cast<size_t>(rows));
    const Dirt d = dirt[static_cast<size_t>(c)];
    for (int64_t r = 0; r < rows; ++r) {
      std::string value = type.entities[rng.NextUint64(type.entities.size())];
      bool dirty = true;
      if (d == Dirt::kNulls && rng.Bernoulli(0.95)) {
        value = kNullMarkers[rng.NextUint64(6)];
      } else if (d == Dirt::kHeaderEcho && rng.Bernoulli(0.8)) {
        value = column.name;
      } else if (d == Dirt::kBadUtf8 && rng.Bernoulli(0.05)) {
        value.insert(rng.NextUint64(value.size() + 1), kBadBytes[rng.NextUint64(4)]);
      } else if (d == Dirt::kLongCells && rng.Bernoulli(0.004)) {
        const size_t target = static_cast<size_t>(rng.UniformInt(4500, 9000));
        std::string long_value;
        while (long_value.size() < target) long_value += value + " ";
        value = std::move(long_value);
      } else {
        dirty = false;
      }
      out.dirty_cells += dirty ? 1 : 0;
      column.values.push_back(std::move(value));
    }
  }
  const double ending = rng.UniformDouble();
  const char* eol = ending < 0.5 ? "\n" : ending < 0.85 ? "\r\n" : "\r";
  out.csv = RenderCsv(columns, rows, eol, rng.Bernoulli(0.3));
  return out;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

doduo::util::Status BuildModelDir(uint64_t seed, const std::string& dir) {
  const doduo::synth::KnowledgeBase& kb = Kb(seed);
  doduo::synth::CorpusOptions corpus_options;
  corpus_options.seed = seed;
  const std::vector<std::string> corpus =
      doduo::synth::CorpusGenerator(&kb).Generate(corpus_options);
  const doduo::text::Vocab vocab =
      doduo::text::WordPieceTrainer({.vocab_size = 2000,
                                     .min_pair_frequency = 2})
          .TrainFromLines(corpus);

  doduo::synth::TableGeneratorOptions table_options;
  table_options.num_tables = 1;
  table_options.with_relations = false;
  Rng label_rng(seed);
  const auto labels =
      doduo::synth::TableGenerator(&kb, table_options).Generate(&label_rng);

  doduo::core::DoduoConfig config;
  config.encoder.vocab_size = vocab.size();
  config.encoder.max_positions = kMaxTokens;
  config.encoder.hidden_dim = kHidden;
  config.encoder.num_layers = kLayers;
  config.encoder.num_heads = kHeads;
  config.encoder.ffn_dim = kFfn;
  config.encoder.dropout = 0.0f;
  config.serializer.max_total_tokens = kMaxTokens;
  config.num_types = labels.type_vocab.size();
  config.num_relations = 0;
  config.multi_label = true;
  config.tasks = doduo::core::TaskSet::kTypesOnly;
  config.calibration_temperature = kCalibrationTemperature;
  config.Validate();

  Rng rng(Mix(seed, 0xD0D0));
  doduo::core::DoduoModel model(config, &rng);
  // An untrained head scores about half of the types above the multi-label
  // threshold. A negative output bias gives the one or two labels per column
  // a trained model predicts, so decoding and response sizes are realistic.
  doduo::nn::Parameter* bias = model.Parameters().back();
  for (int64_t i = 0; i < bias->value.size(); ++i) {
    bias->value.data()[i] = -1.5f;
  }
  bias->BumpRevision();
  return doduo::core::SaveModelDir(dir, &model, vocab, labels.type_vocab,
                                   doduo::table::LabelVocab());
}

GeneratedTable GenerateTable(Kind kind, uint64_t seed, uint64_t index) {
  return kind == Kind::kLakeBig ? BigTable(seed, index)
                                : SmallTable(seed, index);
}

std::string RequestFrame(const doduo::table::Table& table, uint64_t seed,
                         uint64_t request_id) {
  const double threshold =
      kAbstainThresholds[Mix(seed ^ 0xAB5, request_id) %
                         std::size(kAbstainThresholds)];
  doduo::serve::Frame frame;
  frame.type = doduo::serve::FrameType::kAnnotateRobustRequest;
  frame.request_id = request_id;
  doduo::serve::EncodeRobustRequestPayload(table, /*sanitize=*/true,
                                           threshold, &frame.payload);
  std::string out;
  if (!doduo::serve::EncodeFrame(frame, &out).ok()) return "";
  return out;
}

doduo::util::Result<doduo::table::Table> TableFromCsv(const std::string& csv,
                                                      const std::string& id) {
  auto rows = doduo::util::ParseCsv(csv);
  if (!rows.ok()) return rows.status();
  return doduo::table::TableFromCsvRows(rows.value(), /*has_header=*/true, id);
}

int Prepare(const WorkloadSpec& spec, uint64_t seed, double seconds,
            const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir + "/inputs", ec);
  fs::create_directories(dir + "/warmup", ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", dir.c_str());
    return 1;
  }
  const std::string model_dir = dir + "/model";
  if (auto status = BuildModelDir(seed, model_dir); !status.ok()) {
    std::fprintf(stderr, "perfbench: model: %s\n", status.ToString().c_str());
    return 1;
  }
  auto loaded = doduo::core::LoadModelDir(model_dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const doduo::table::TableSerializer& serializer = *loaded.value()->serializer;

  const bool serve = spec.kind == Kind::kServeSmall;
  const int64_t count = static_cast<int64_t>(std::ceil(spec.max_rate * seconds));
  const int64_t warmup = serve ? 32 : spec.batch_tables;
  // Token lengths and skip shares come from a seeded sample on lake_big,
  // whose tables are expensive to scan; from every table otherwise.
  const int64_t shape_stride = spec.kind == Kind::kLakeBig ? 16 : 1;

  std::unordered_set<uint64_t> seen;
  std::vector<uint64_t> source_index;  // generator index of each input
  std::string frames;
  std::vector<double> tokens;
  int64_t columns = 0, rows = 0, cells = 0, dirty = 0, bytes = 0;
  int64_t duplicates = 0, shape_columns = 0, shape_skipped = 0;
  int64_t request_id = 0;
  auto emit = [&](uint64_t index, int64_t slot, bool is_warmup) -> bool {
    GeneratedTable t = GenerateTable(spec.kind, seed, index);
    if (!seen.insert(Fnv1a(t.csv)).second) {
      ++duplicates;  // never feed the same table twice in one run
      return false;
    }
    char name[32];
    std::snprintf(name, sizeof(name), "%06lld", static_cast<long long>(slot));
    if (serve) {
      auto table = TableFromCsv(t.csv, name);
      if (!table.ok()) return false;
      if (!is_warmup) {
        frames += RequestFrame(table.value(), seed, ++request_id);
      } else {
        WriteFile(dir + "/warmup/" + name + ".frame",
                  RequestFrame(table.value(), seed, 1000000000 + slot));
      }
    } else {
      WriteFile(dir + (is_warmup ? "/warmup/" : "/inputs/") + name + ".csv",
                t.csv);
    }
    if (is_warmup) return true;
    source_index.push_back(index);
    columns += t.columns;
    rows += t.rows;
    cells += t.cells;
    dirty += t.dirty_cells;
    bytes += static_cast<int64_t>(t.csv.size());
    if (slot % shape_stride == 0) {
      auto table = TableFromCsv(t.csv, name);
      if (table.ok()) {
        SerializedShape shape = SerializeLikeAnnotator(
            table.value(), serializer, doduo::core::AnnotateOptions{});
        double n = 0;
        for (const auto& chunk : shape.chunks) n += chunk.token_ids.size();
        tokens.push_back(n);
        shape_columns += table.value().num_columns();
        shape_skipped += shape.skipped_columns;
      }
    }
    return true;
  };
  uint64_t next = 0;
  for (int64_t slot = 0; slot < count; ++next) {
    if (emit(next, slot, false)) ++slot;
  }
  uint64_t next_warmup = kWarmupIndexBase;
  for (int64_t slot = 0; slot < warmup; ++next_warmup) {
    if (emit(next_warmup, slot, true)) ++slot;
  }
  if (serve) WriteFile(dir + "/inputs/frames.bin", frames);
  // Flush the freshly written inputs now, so disk writeback does not run
  // inside the measured window.
  ::sync();

  // Determinism: regenerate a seeded sample from scratch and compare bytes
  // with what was written.
  int64_t checked = 0, mismatched = 0;
  for (int k = 0; k < 8; ++k) {
    const size_t slot = Mix(seed, 77 + k) % source_index.size();
    const GeneratedTable again =
        GenerateTable(spec.kind, seed, source_index[slot]);
    char name[32];
    std::snprintf(name, sizeof(name), "%06zu", slot);
    std::string expected;
    if (serve) {
      auto table = TableFromCsv(again.csv, name);
      expected = table.ok() ? RequestFrame(table.value(), seed, slot + 1) : "";
      doduo::serve::FrameDecoder decoder;
      decoder.Feed(frames);
      doduo::serve::Frame frame;
      std::string written;
      for (size_t i = 0; i <= slot; ++i) {
        auto got = decoder.Next(&frame);
        if (!got.ok() || !got.value()) break;
        if (i == slot) doduo::serve::EncodeFrame(frame, &written).ok();
      }
      mismatched += written != expected ? 1 : 0;
    } else {
      std::string written;
      ReadFile(dir + "/inputs/" + name + ".csv", &written);
      mismatched += written != again.csv ? 1 : 0;
    }
    ++checked;
  }

  const double n = static_cast<double>(source_index.size());
  Json props;
  props.Str("workload", spec.name)
      .Int("seed", static_cast<int64_t>(seed))
      .Int("tables", static_cast<int64_t>(source_index.size()))
      .Int("warmup_tables", warmup)
      .Int("columns", columns)
      .Num("columns_per_table", static_cast<double>(columns) / n)
      .Int("rows", rows)
      .Num("rows_per_table", static_cast<double>(rows) / n)
      .Num("csv_mb", static_cast<double>(bytes) / 1e6)
      .Num("tokens_p50", Quantile(tokens, 0.5))
      .Num("tokens_p99", Quantile(tokens, 0.99))
      .Num("tokens_mean", Mean(tokens))
      .Int("token_sample_tables", static_cast<int64_t>(tokens.size()))
      .Num("dirty_cell_share",
           cells > 0 ? static_cast<double>(dirty) / static_cast<double>(cells)
                     : 0.0)
      .Num("skipped_column_share",
           shape_columns > 0 ? static_cast<double>(shape_skipped) /
                                   static_cast<double>(shape_columns)
                             : 0.0)
      .Num("repeated_table_share", 0.0)
      .Int("duplicates_regenerated", duplicates)
      .Int("determinism_checked", checked)
      .Int("determinism_mismatches", mismatched)
      .Bool("deterministic", mismatched == 0);
  std::printf("%s\n", Json().Raw("properties", props.Dump()).Dump().c_str());
  return mismatched == 0 ? 0 : 1;
}

}  // namespace perfbench
