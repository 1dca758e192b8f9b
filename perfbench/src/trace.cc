#include "trace.h"

#include <cstdio>

namespace perfbench {

// Bounds the memory a long traced run spends on spans; later spans are
// dropped (their callers still time the calls themselves).
constexpr size_t kMaxSpans = 400000;

int64_t Tracer::Ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int Tracer::Begin(const char* name, uint64_t id) {
  if (!enabled_ || spans_.size() >= kMaxSpans) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, Ns(Clock::now()), 0, id, parent, false});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end_ns = Ns(Clock::now());
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::AddAsync(const char* name, uint64_t id, Clock::time_point start,
                      Clock::time_point end) {
  if (!enabled_ || spans_.size() >= kMaxSpans) return;
  spans_.push_back({name, Ns(start), Ns(end), id, -1, true});
}

std::map<std::string, Tracer::Totals> Tracer::TotalsByName() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    Totals& t = totals[s.name];
    t.total_us += dur / 1e3;
    t.self_us += (dur - child_ns[i]) / 1e3;
    ++t.count;
  }
  return totals;
}

void Tracer::PrintTotals() const {
  std::fprintf(stderr, "%-32s %8s %12s %12s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [name, t] : TotalsByName()) {
    std::fprintf(stderr, "%-32s %8lld %12.3f %12.3f\n", name.c_str(),
                 static_cast<long long>(t.count), t.total_us / 1e3,
                 t.self_us / 1e3);
  }
}

bool Tracer::ExportChrome(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = static_cast<double>(s.start_ns) / 1e3;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    if (s.async) {
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\","
                   "\"id\":%llu,\"ts\":%.3f,\"pid\":1,\"tid\":2}",
                   first ? "" : ",\n", s.name,
                   static_cast<unsigned long long>(s.id), ts);
      std::fprintf(out,
                   ",\n{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\","
                   "\"id\":%llu,\"ts\":%.3f,\"pid\":1,\"tid\":2}",
                   s.name, static_cast<unsigned long long>(s.id), ts + dur);
    } else {
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                   "\"args\":{\"id\":%llu,\"parent\":%d}}",
                   first ? "" : ",\n", s.name, ts, dur,
                   static_cast<unsigned long long>(s.id), s.parent);
    }
    first = false;
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
