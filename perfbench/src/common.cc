#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t Fnv1a(std::string_view bytes, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Mix(uint64_t seed, uint64_t index) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double ProcessCpuSeconds(pid_t pid) {
  if (pid == 0) {
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return -1.0;
    auto seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
  }
  std::string stat;
  if (!ReadFile("/proc/" + std::to_string(pid) + "/stat", &stat)) return -1.0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && (in >> field); ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  return static_cast<double>(utime + stime) / ticks;
}

double PeakRssMb(pid_t pid) {
  std::string status;
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  if (!ReadFile(path, &status)) return -1.0;
  const size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return -1.0;
  const double kb = std::strtod(status.c_str() + at + 6, nullptr);
  return kb / 1024.0;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::string JsonQuote(std::string_view text) {
  std::string out = "\"";
  for (unsigned char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

Json& Json::Num(const std::string& key, double value) {
  fields_.emplace_back(key, JsonNumber(value));
  return *this;
}

Json& Json::Int(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, JsonQuote(value));
  return *this;
}

Json& Json::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

Json& Json::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string Json::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonQuote(fields_[i].first) + ":" + fields_[i].second;
  }
  return out + "}";
}

std::string MetricsJson(const Metrics& metrics) {
  Json json;
  for (const auto& [name, metric] : metrics) {
    json.Raw(name, Json().Num("value", metric.value)
                       .Str("unit", metric.unit)
                       .Dump());
  }
  return json.Dump();
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) == 0) values_[argv[i] + 2] = argv[i + 1];
  }
}

std::string Args::Get(const std::string& key,
                      const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int64_t Args::GetInt(const std::string& key, int64_t fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::stoll(it->second);
}

double Args::GetDouble(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::stod(it->second);
}

}  // namespace perfbench
