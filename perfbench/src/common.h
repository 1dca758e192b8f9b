// Shared helpers of the benchmark program: clocks, statistics, JSON output,
// /proc readers and content digests. Nothing here touches the library.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linearly interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// 64-bit FNV-1a, chained through `seed` so several buffers fold into one
/// digest.
uint64_t Fnv1a(std::string_view bytes, uint64_t seed = 1469598103934665603ull);
/// SplitMix64 finalizer: derives independent sub-seeds from (seed, index).
uint64_t Mix(uint64_t seed, uint64_t index);
std::string Hex64(uint64_t value);

/// CPU seconds (user + sys) of a process, from /proc/<pid>/stat; pid 0 means
/// this process (getrusage, which includes every thread). -1 on error.
double ProcessCpuSeconds(pid_t pid);
/// Peak resident set (VmHWM) of a process in MB; pid 0 means this process.
/// -1 on error.
double PeakRssMb(pid_t pid);

bool ReadFile(const std::string& path, std::string* out);
bool WriteFile(const std::string& path, std::string_view bytes);

/// An ordered JSON object builder with full-precision numbers.
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, int64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Bool(const std::string& key, bool value);
  Json& Raw(const std::string& key, const std::string& json);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonQuote(std::string_view text);
std::string JsonNumber(double value);

/// A metric as the result line carries it.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;
std::string MetricsJson(const Metrics& metrics);

/// Minimal command-line reader: `--key value` pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string Get(const std::string& key, const std::string& fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
