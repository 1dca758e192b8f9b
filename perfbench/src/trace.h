// In-memory span recorder of the traced runs. Spans are recorded from the
// benchmark's own files around the calls it makes into each module; the
// program under test carries no instrumentation for them. One thread
// records (the benchmark's main thread); spans of one table or request share
// an id.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span under the innermost open one; -1 while disabled.
  int Begin(const char* name, uint64_t id);
  void End(int span);

  /// A request span whose lifetime overlaps others (serve requests in
  /// flight); exported as an async pair, never a parent.
  void AddAsync(const char* name, uint64_t id, Clock::time_point start,
                Clock::time_point end);

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t id)
        : tracer_(tracer), span_(tracer->Begin(name, id)) {}
    ~Scope() { tracer_->End(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int span_;
  };

  /// Total and self (duration minus child coverage) µs per span name.
  struct Totals {
    double total_us = 0.0;
    double self_us = 0.0;
    int64_t count = 0;
  };
  std::map<std::string, Totals> TotalsByName() const;

  /// Prints TotalsByName() to stderr: count, total and self ms per span.
  void PrintTotals() const;

  /// Writes the spans as Chrome trace-event JSON (opens in Perfetto).
  bool ExportChrome(const std::string& path) const;

  size_t num_spans() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t id;
    int parent;
    bool async;
  };
  int64_t Ns(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
