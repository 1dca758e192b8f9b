// Workload definitions and input generation. Every input is a pure function
// of (seed, table index), so the same seed yields byte-identical CSV files
// and wire frames; the program under test only ever sees those bytes.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "doduo/core/annotator.h"
#include "doduo/table/serializer.h"
#include "doduo/table/table.h"
#include "doduo/util/status.h"

namespace perfbench {

enum class Kind { kLakeSmall, kLakeBig, kServeSmall };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  /// Lake: tables per AnnotateTypesRobustBatch call.
  int batch_tables;
  /// Generous upper bound on tables/s on a 4-core machine; sizes the input
  /// pool so no table repeats within a run. A run that drains its pool
  /// ends early and says so.
  double max_rate;
  /// Fixed per-table latency limit L of slo_met_frac, in ms.
  double slo_ms;
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// The benchmark model (ROADMAP bench shape): d=64, 2 layers, 4 heads,
// ffn 256, 512 positions and a 512-token serializer budget.
inline constexpr int kHidden = 64;
inline constexpr int kLayers = 2;
inline constexpr int kHeads = 4;
inline constexpr int kFfn = 256;
inline constexpr int kMaxTokens = 512;
inline constexpr double kCalibrationTemperature = 1.7;

/// Abstention thresholds a serve_small request carries, picked per request
/// by a seeded draw. 0 never abstains; the others abstain on part of the
/// columns of the benchmark model.
inline constexpr double kAbstainThresholds[] = {0.0, 0.0, 0.2, 0.3};

/// Compute threads of the in-process workloads. On a shared VM a batch call
/// that fans out waits for whichever vCPU the host preempted, so the
/// in-process throughput of a fanned-out run swung by up to 2x between
/// runs; single-threaded it tracks the CPU time per table. The traced run
/// measures fan-out separately (core.fanout.efficiency).
inline constexpr int kLakeThreads = 1;

/// The daemon's --threads/--replicas in serve_small. With one replica its
/// phase-B throughput tracks its CPU time per table; with two, on the same
/// shared VM, throughput also swung with host scheduling (up to 2x between
/// runs at an unchanged CPU time per table).
inline constexpr int kServeThreads = 1;

/// Builds the seeded benchmark model (WikiTable KB types, multi-label,
/// types only, WordPiece vocab trained on the generated corpus) and saves
/// it as a v2 fp32 model directory.
doduo::util::Status BuildModelDir(uint64_t seed, const std::string& dir);

/// Per-table generator output.
struct GeneratedTable {
  std::string csv;      // the bytes the program reads
  int64_t columns = 0;
  int64_t rows = 0;
  int64_t cells = 0;
  int64_t dirty_cells = 0;  // null markers, header echoes, bad UTF-8, long
};

/// The CSV of table `index` of `kind` under `seed` (serve_small uses the
/// lake_small generator).
GeneratedTable GenerateTable(Kind kind, uint64_t seed, uint64_t index);

/// The wire frame of serve request `request_id` (1-based) carrying `table`.
std::string RequestFrame(const doduo::table::Table& table, uint64_t seed,
                         uint64_t request_id);

/// Reads a CSV through the public front end exactly as a lake caller does:
/// util::ParseCsv + table::TableFromCsvRows with a header row.
doduo::util::Result<doduo::table::Table> TableFromCsv(const std::string& csv,
                                                      const std::string& id);

/// Writes the model and the inputs of `spec` for a run of `seconds` into
/// `dir`, checks that regenerating a seeded sample reproduces the bytes,
/// and prints the workload properties as one JSON line.
int Prepare(const WorkloadSpec& spec, uint64_t seed, double seconds,
            const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
