// The measured runs. Each prints one JSON line {"result": {...}} with the
// attempted/failed counts, the correctness verdict and the metrics of its
// mode (end-to-end with tracing off, per-layer with tracing on).
#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "doduo/core/annotator.h"
#include "doduo/serve/protocol.h"
#include "workload.h"

namespace perfbench {

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;         // prepared inputs (see Prepare)
  std::string trace_path;  // Chrome trace output of a traced run
  std::string serve_bin;   // the doduo_serve binary (serve_small)
};

int RunLake(const RunConfig& config);
int RunServe(const RunConfig& config);

/// One cold start, timed in a fresh process: lake = LoadModelDir + the
/// first warm-up batch; serve = daemon spawn -> "listening on" -> first
/// warm-up response. Prints {"setup_s": ...}.
int SetupLake(const RunConfig& config);
int SetupServe(const RunConfig& config);

/// Shows that the output check counts corrupted responses as failed.
int SelfTest(const std::string& dir);

/// Compares `got` with the oracle's encoded outcomes; false on any
/// difference in labels, confidence bits, skip reasons or abstention, and
/// on a payload that does not decode.
bool OutcomesMatch(const std::string& got, const std::string& expected);

/// A served response is correct when it is a robust-annotate response with
/// OK status whose payload matches the oracle's; refusals and error frames
/// count as failed.
bool ResponseMatches(const doduo::serve::Frame& response,
                     const std::string& expected);

/// The oracle: sequential single-table AnnotateTypesRobust, run outside
/// every timed window. One thread per CPU (at most 4) each loads
/// `model_dir` itself and calls `matches(oracle, index)` for its share of
/// `indices`; returns one flag per index, set when that output matched.
std::vector<char> CheckWithOracle(
    const std::string& model_dir, const std::vector<size_t>& indices,
    const std::function<bool(const doduo::core::Annotator&, size_t)>& matches);

/// End-to-end figures are computed per window and reported as the median
/// over this many consecutive windows of a run, so one disturbed second of
/// a shared machine does not move the result. The latency quantiles are the
/// mean of the windows' quantiles instead: when the machine's speed switches
/// between states that last seconds, the median of window quantiles jumps
/// with whichever state held most windows, while their mean moves with the
/// share of each.
inline constexpr int kWindows = 5;

/// Prints the result line.
void PrintResult(int64_t attempted, int64_t failed, bool correct,
                 const Metrics& metrics, const std::string& notes_json);

/// Sorted list of `dir`'s regular files with the given extension.
std::vector<std::string> ListFiles(const std::string& dir,
                                   const std::string& extension);

}  // namespace perfbench

#endif  // PERFBENCH_RUNS_H_
