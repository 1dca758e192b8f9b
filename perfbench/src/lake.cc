// lake_small / lake_big: the in-process bulk caller. CSV files are read one
// batch at a time with util::ReadCsvFile + table::TableFromCsvRows and
// annotated with Annotator::AnnotateTypesRobustBatch on the compute pool,
// in a closed loop until the run's time is up.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "doduo/core/model_io.h"
#include "doduo/core/replica_pool.h"
#include "doduo/nn/tensor.h"
#include "doduo/util/csv.h"
#include "doduo/util/thread_pool.h"
#include "probe.h"
#include "runs.h"
#include "trace.h"

namespace perfbench {

namespace fs = std::filesystem;
using doduo::core::AnnotateOptions;
using doduo::core::Annotator;
using doduo::core::ColumnOutcome;

namespace {

// Compute threads of the traced run's fan-out pass: the smallest pool at
// which each batch call builds a ReplicaPool and fans out.
int FanoutThreads() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                    2);
}

struct LakeInput {
  std::vector<std::string> paths;
  std::vector<double> bytes;
};

LakeInput ListInputs(const std::string& dir) {
  LakeInput input;
  input.paths = ListFiles(dir, ".csv");
  for (const std::string& path : input.paths) {
    std::error_code ec;
    input.bytes.push_back(static_cast<double>(fs::file_size(path, ec)));
  }
  return input;
}

doduo::table::Table ReadTable(const std::string& path, bool* ok) {
  auto rows = doduo::util::ReadCsvFile(path);
  const std::string id = fs::path(path).stem().string();
  if (rows.ok()) {
    auto table = doduo::table::TableFromCsvRows(rows.value(),
                                                /*has_header=*/true, id);
    if (table.ok()) {
      *ok = true;
      return std::move(table).value();
    }
  }
  *ok = false;
  return doduo::table::Table(id);
}

struct LakePass {
  int64_t tables = 0;
  int64_t batches = 0;
  int64_t read_failures = 0;
  bool drained = false;
  double wall_s = 0.0;
  double csv_us = 0.0;
  double csv_bytes = 0.0;
  std::vector<double> latency_ms;     // per table: read start -> outcomes
  std::vector<double> batch_s;        // per batch: first read -> outcomes
  std::vector<double> batch_cpu_s;    // per batch: process CPU
  std::vector<std::string> outcomes;  // per table, EncodeOutcomes bytes
};

// The end-to-end figures of a pass: each is computed over kWindows
// consecutive groups of batches and the median over the groups is reported.
// Per-table latency goes to the notes (quantiles: the mean over the groups;
// slo_met_frac: over the whole pass).
void AddEndToEnd(const LakePass& pass, const WorkloadSpec& spec,
                 int64_t failed, Metrics* metrics, Json* notes) {
  std::vector<double> rate, cpu, p50, p99;
  const size_t nb = pass.batch_s.size();
  // Tables are appended batch by batch; every batch but the last is full.
  const size_t per = static_cast<size_t>(spec.batch_tables);
  for (int w = 0; w < kWindows; ++w) {
    const size_t b0 = nb * static_cast<size_t>(w) / kWindows;
    const size_t b1 = nb * static_cast<size_t>(w + 1) / kWindows;
    if (b1 <= b0) continue;
    double seconds = 0.0, cpu_s = 0.0;
    for (size_t b = b0; b < b1; ++b) {
      seconds += pass.batch_s[b];
      cpu_s += pass.batch_cpu_s[b];
    }
    const size_t t0 = b0 * per;
    const size_t t1 = std::min(pass.latency_ms.size(), b1 * per);
    const std::vector<double> lat(pass.latency_ms.begin() + t0,
                                  pass.latency_ms.begin() + t1);
    const double n = static_cast<double>(lat.size());
    rate.push_back(n / seconds);
    cpu.push_back(cpu_s * 1e3 / n);
    p50.push_back(Quantile(lat, 0.5));
    p99.push_back(Quantile(lat, 0.99));
  }
  double within = 0.0;
  for (double ms : pass.latency_ms) within += ms <= spec.slo_ms ? 1.0 : 0.0;
  auto& m = *metrics;
  m["tables_per_s"] = {Quantile(rate, 0.5), "tables/s"};
  m["cpu_ms_per_table"] = {Quantile(cpu, 0.5), "ms"};
  // slo_met_frac: failed outputs miss the limit.
  notes->Num("latency_p50_ms", Mean(p50))
      .Num("latency_p99_ms", Mean(p99))
      .Num("slo_met_frac",
           std::max(0.0, within - static_cast<double>(failed)) /
               std::max<double>(1.0, static_cast<double>(pass.tables)));
}

// Closed loop over `input` in order: stops when `seconds` have passed, or
// after `max_batches` batches when that is non-negative.
LakePass RunPass(const Annotator& annotator, const LakeInput& input,
                 int batch, double seconds, int64_t max_batches,
                 Tracer* tracer) {
  const AnnotateOptions options;
  LakePass pass;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<doduo::table::Table> tables;
  std::vector<Clock::time_point> read_start;
  size_t next = 0;
  while (true) {
    if (next >= input.paths.size()) {
      pass.drained = true;
      break;
    }
    if (max_batches >= 0 ? pass.batches >= max_batches
                         : Clock::now() >= deadline) {
      break;
    }
    Tracer::Scope root(tracer, "lake.batch",
                       static_cast<uint64_t>(pass.batches));
    tables.clear();
    read_start.clear();
    const Clock::time_point batch_start = Clock::now();
    const double batch_cpu0 = ProcessCpuSeconds(0);
    const size_t end =
        std::min(input.paths.size(), next + static_cast<size_t>(batch));
    for (; next < end; ++next) {
      const Clock::time_point t0 = Clock::now();
      read_start.push_back(t0);
      bool ok = false;
      {
        Tracer::Scope span(tracer, "util.csv", next);
        tables.push_back(ReadTable(input.paths[next], &ok));
      }
      pass.csv_us += MicrosBetween(t0, Clock::now());
      pass.csv_bytes += input.bytes[next];
      pass.read_failures += ok ? 0 : 1;
    }
    std::vector<std::vector<ColumnOutcome>> out;
    {
      Tracer::Scope span(tracer, "core.annotate_batch",
                         static_cast<uint64_t>(pass.batches));
      out = annotator.AnnotateTypesRobustBatch(tables, options);
    }
    const Clock::time_point b1 = Clock::now();
    pass.batch_s.push_back(MicrosBetween(batch_start, b1) / 1e6);
    pass.batch_cpu_s.push_back(ProcessCpuSeconds(0) - batch_cpu0);
    for (size_t i = 0; i < out.size(); ++i) {
      pass.latency_ms.push_back(MicrosBetween(read_start[i], b1) / 1e3);
      pass.outcomes.push_back(EncodeOutcomes(out[i]));
    }
    pass.tables += static_cast<int64_t>(out.size());
    ++pass.batches;
  }
  pass.wall_s = SecondsSince(start);
  return pass;
}

std::unique_ptr<doduo::core::LoadedModel> Load(const std::string& dir) {
  auto loaded = doduo::core::LoadModelDir(dir + "/model");
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 loaded.status().ToString().c_str());
    return nullptr;
  }
  return std::move(loaded).value();
}

void WarmUp(const Annotator& annotator, const std::string& dir) {
  std::vector<doduo::table::Table> tables;
  for (const std::string& path : ListFiles(dir + "/warmup", ".csv")) {
    bool ok = false;
    tables.push_back(ReadTable(path, &ok));
  }
  annotator.AnnotateTypesRobustBatch(tables);
}

}  // namespace

int SetupLake(const RunConfig& config) {
  const Clock::time_point start = Clock::now();
  doduo::util::SetComputeThreads(kLakeThreads);
  auto loaded = Load(config.dir);
  if (loaded == nullptr) return 1;
  WarmUp(loaded->MakeAnnotator(), config.dir);
  std::printf("%s\n", Json().Num("setup_s", SecondsSince(start)).Dump().c_str());
  return 0;
}

int RunLake(const RunConfig& config) {
  const WorkloadSpec& spec = *config.spec;
  const int threads = kLakeThreads;
  doduo::util::SetComputeThreads(threads);
  const LakeInput input = ListInputs(config.dir + "/inputs");
  auto loaded = Load(config.dir);
  if (loaded == nullptr || input.paths.empty()) return 1;
  const Annotator annotator = loaded->MakeAnnotator();
  WarmUp(annotator, config.dir);

  Tracer off(false);
  Metrics metrics;
  Json notes;
  notes.Int("threads", threads).Int("batch_tables", spec.batch_tables);

  if (!config.trace) {
    const LakePass pass = RunPass(annotator, input, spec.batch_tables,
                                  config.seconds, -1, &off);
    const double rss_mb = PeakRssMb(0);
    std::vector<size_t> every(pass.outcomes.size());
    uint64_t digest = Fnv1a("");
    for (size_t k = 0; k < pass.outcomes.size(); ++k) {
      digest = Fnv1a(pass.outcomes[k], digest);
      every[k] = k;
    }
    const int64_t checked = static_cast<int64_t>(every.size());
    const std::vector<char> matched = CheckWithOracle(
        config.dir + "/model", every,
        [&](const Annotator& oracle, size_t k) {
          bool ok = false;
          const doduo::table::Table table = ReadTable(input.paths[k], &ok);
          return OutcomesMatch(pass.outcomes[k],
                               EncodeOutcomes(oracle.AnnotateTypesRobust(
                                   table, AnnotateOptions{})));
        });
    const int64_t mismatches =
        checked - std::count(matched.begin(), matched.end(), 1);
    const int64_t failed = pass.read_failures + mismatches;
    const double n = std::max<double>(1.0, static_cast<double>(pass.tables));
    AddEndToEnd(pass, spec, failed, &metrics, &notes);
    metrics["peak_rss_mb"] = {rss_mb, "MB"};
    std::vector<double> batch_ms;
    for (double s : pass.batch_s) batch_ms.push_back(s * 1e3);
    notes.Int("tables", pass.tables)
        .Int("batches", pass.batches)
        .Num("batch_ms_p50", Quantile(batch_ms, 0.5))
        .Num("batch_ms_p90", Quantile(batch_ms, 0.9))
        .Num("batch_ms_p99", Quantile(batch_ms, 0.99))
        .Num("batch_ms_max", Quantile(batch_ms, 1.0))
        .Num("wall_s", pass.wall_s)
        .Bool("input_drained", pass.drained)
        .Int("checked", checked)
        .Int("mismatches", mismatches)
        .Num("failed_frac", static_cast<double>(failed) / n)
        .Num("slo_ms", spec.slo_ms)
        .Int("latency_samples", static_cast<int64_t>(pass.latency_ms.size()))
        .Str("output_digest", Hex64(digest));
    PrintResult(pass.tables, failed, failed == 0 && checked > 0, metrics,
                notes.Dump());
    return 0;
  }

  // Traced run: an untraced pass, then the same batches again with spans on.
  // The traced outputs must match the untraced ones byte for byte.
  const LakePass base = RunPass(annotator, input, spec.batch_tables,
                                config.seconds / 2, -1, &off);
  Tracer tracer(true);
  const LakePass traced =
      RunPass(annotator, input, spec.batch_tables,
              std::numeric_limits<double>::infinity(), base.batches, &tracer);
  int64_t trace_mismatches = 0;
  for (int64_t k = 0; k < traced.tables; ++k) {
    const size_t i = static_cast<size_t>(k);
    if (traced.outcomes[i] != base.outcomes[i]) {
      ++trace_mismatches;
    }
  }

  // Layer attribution on evenly spaced batches of the traced pass, within a
  // time budget, single-threaded like one replica inside the batch call.
  auto probe_model = Load(config.dir);
  if (probe_model == nullptr) return 1;
  Prober prober(probe_model.get(), &tracer);
  const int64_t stride = std::max<int64_t>(1, traced.batches / 8);
  const Clock::time_point probe_start = Clock::now();
  std::vector<int64_t> probed_batches;
  double busy_us = 0.0;
  int64_t probe_mismatches = 0;
  auto batch_tables = [&](int64_t b) {
    std::vector<doduo::table::Table> tables;
    const int64_t first = b * spec.batch_tables;
    const int64_t last =
        std::min<int64_t>(traced.tables, first + spec.batch_tables);
    for (int64_t k = first; k < last; ++k) {
      bool ok = false;
      tables.push_back(ReadTable(input.paths[static_cast<size_t>(k)], &ok));
    }
    return tables;
  };
  for (int64_t b = 0; b < traced.batches; b += stride) {
    if (SecondsSince(probe_start) > config.seconds / 2) break;
    probed_batches.push_back(b);
    const double annotate_before = prober.totals().annotate_us;
    const std::vector<doduo::table::Table> tables = batch_tables(b);
    for (size_t i = 0; i < tables.size(); ++i) {
      const size_t k = static_cast<size_t>(b * spec.batch_tables) + i;
      const std::string single =
          prober.Probe(tables[i], AnnotateOptions{}, k);
      probe_mismatches += OutcomesMatch(traced.outcomes[k], single) ? 0 : 1;
    }
    busy_us += prober.totals().annotate_us - annotate_before;
  }

  // Fan-out: the probed batches again on FanoutThreads() threads, where
  // each batch call builds a ReplicaPool and fans out. The kernels are
  // bit-identical across thread counts, so the outputs must still match.
  const int fanout_threads = FanoutThreads();
  doduo::util::SetComputeThreads(fanout_threads);
  double fanout_wall_us = 0.0;
  uint64_t fanout_allocs = 0;
  double fanout_tables = 0.0;
  for (int64_t b : probed_batches) {
    const std::vector<doduo::table::Table> tables = batch_tables(b);
    const uint64_t a0 = doduo::nn::TensorAllocCount();
    const Clock::time_point t0 = Clock::now();
    const auto out = annotator.AnnotateTypesRobustBatch(tables);
    fanout_wall_us += fanout_threads * MicrosBetween(t0, Clock::now());
    fanout_allocs += doduo::nn::TensorAllocCount() - a0;
    fanout_tables += static_cast<double>(out.size());
    for (size_t i = 0; i < out.size(); ++i) {
      const size_t k = static_cast<size_t>(b * spec.batch_tables) + i;
      probe_mismatches += EncodeOutcomes(out[i]) == traced.outcomes[k] ? 0 : 1;
    }
  }

  // core.replica_pool: the snapshot + replicas one fanned-out batch call
  // builds, timed standalone; Tensor allocations of a build give the unit
  // in which the fan-out calls' own allocations are counted.
  std::vector<double> build_us;
  uint64_t build_allocs = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const uint64_t a0 = doduo::nn::TensorAllocCount();
    const Clock::time_point t0 = Clock::now();
    auto pool = std::make_unique<doduo::core::ReplicaPool>(
        probe_model->model.get(), probe_model->serializer.get(),
        &probe_model->types, probe_model->relation_vocab(), fanout_threads);
    build_us.push_back(MicrosBetween(t0, Clock::now()));
    build_allocs = doduo::nn::TensorAllocCount() - a0;
  }
  std::vector<double> load_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    auto again = Load(config.dir);
    load_ms.push_back(MicrosBetween(t0, Clock::now()) / 1e3);
  }
  const ReplayTotals replay =
      ReplayShapes(probe_model->model->config().encoder,
                   prober.totals().seq_lengths, config.seed, &tracer);

  const double n = std::max<double>(1.0, static_cast<double>(traced.tables));
  AddProbeMetrics(prober.totals(), replay, &metrics);
  metrics["util.csv.us_per_table"] = {traced.csv_us / n, "us"};
  metrics["util.csv.mb_per_s"] = {
      traced.csv_us > 0 ? traced.csv_bytes / traced.csv_us : 0.0, "MB/s"};
  metrics["core.replica_pool.build_us"] = {Quantile(build_us, 0.5), "us"};
  metrics["core.replica_pool.builds_per_table"] = {
      build_allocs > 0 && fanout_tables > 0
          ? static_cast<double>(fanout_allocs) /
                static_cast<double>(build_allocs) / fanout_tables
          : 0.0,
      "count"};
  metrics["core.fanout.efficiency"] = {
      fanout_wall_us > 0 ? busy_us / fanout_wall_us : 0.0, "ratio"};
  metrics["core.load_ms"] = {Quantile(load_ms, 0.5), "ms"};
  metrics["trace.overhead_frac"] = {traced.wall_s / base.wall_s - 1.0,
                                    "ratio"};

  const double probed =
      std::max<double>(1.0, static_cast<double>(prober.totals().tables));
  PrintLayerTable(metrics, traced.csv_us / n +
                               prober.totals().annotate_us / probed);
  std::fprintf(stderr, "trace.overhead_frac %.4f  replay_coverage %.3f\n",
               metrics["trace.overhead_frac"].value,
               metrics["transformer.replay_coverage"].value);
  tracer.PrintTotals();
  const bool exported = tracer.ExportChrome(config.trace_path);
  const int64_t failed =
      trace_mismatches + probe_mismatches + traced.read_failures;
  notes.Int("tables", traced.tables)
      .Int("batches", traced.batches)
      .Int("probed_tables", prober.totals().tables)
      .Int("trace_mismatches", trace_mismatches)
      .Int("probe_mismatches", probe_mismatches)
      .Int("spans", static_cast<int64_t>(tracer.num_spans()))
      .Str("trace_file", exported ? config.trace_path : "");
  PrintResult(traced.tables, failed,
              failed == 0 && prober.totals().tables > 0, metrics,
              notes.Dump());
  return 0;
}

}  // namespace perfbench
