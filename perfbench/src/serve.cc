// serve_small: the real doduo_serve daemon, spawned as a child process and
// driven over loopback by one load-generator thread holding kConnections
// connection(s). Requests are pipelined on the wire (serve::EncodeFrame /
// FrameDecoder), never sent one at a time.
//   Phase A: open loop, Poisson arrivals at the fixed rate kOpenRate; each
//            request is timed from its scheduled send time.
//   Phase B: closed loop at saturation, kWindow requests in flight per
//            connection (kept below the daemon's queue depth of 256).
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>

#include "doduo/core/model_io.h"
#include "doduo/serve/protocol.h"
#include "doduo/serve/socket_io.h"
#include "doduo/util/rng.h"
#include "doduo/util/thread_pool.h"
#include "probe.h"
#include "runs.h"
#include "trace.h"

extern char** environ;

namespace perfbench {

namespace serve = doduo::serve;

namespace {

constexpr int kConnections = 1;
// R: a bit under half the saturation rate the seed commit reaches with one
// replica on a 4-vCPU x86 VM (phase B: ~1100-1300 tables/s). The sockets
// keep their default options, as the repository's own client does, so a
// pipelined response can wait on Nagle's algorithm until the client's next
// request carries the ACK; at 400/s those waits made phase-A latency swing
// about three times as much between runs as at this rate (five seeds each).
constexpr double kOpenRate = 550.0;
constexpr int kWindow = 64;
// A phase-A run whose sends left this late (p99) measured the generator,
// not the daemon; it is reported invalid.
constexpr double kLagLimitMs = 10.0;
constexpr uint64_t kStatsId = uint64_t{1} << 62;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// The daemon child: spawned with stdout on a pipe, stopped with SIGTERM
// (SIGKILL after a grace period) and always reaped.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  bool Start(const std::string& bin, const std::string& model_dir,
             int threads) {
    int fds[2];
    if (pipe(fds) != 0) return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    const std::string t = std::to_string(threads);
    std::vector<std::string> args = {bin,       "--model",   model_dir,
                                     "--port",  "0",         "--threads",
                                     t,         "--replicas", t};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      return false;
    }
    // Wait for "listening on host:port".
    std::string text;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    while (Clock::now() < deadline) {
      pollfd p{out_fd_, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      char buf[512];
      const ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      text.append(buf, static_cast<size_t>(n));
      const size_t at = text.find("listening on ");
      if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
        const size_t colon = text.rfind(':', text.find('\n', at));
        port_ = std::atoi(text.c_str() + colon + 1);
        return port_ > 0;
      }
    }
    return false;
  }

  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      const Clock::time_point deadline =
          Clock::now() + std::chrono::seconds(10);
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (Clock::now() > deadline) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      close(out_fd_);
      out_fd_ = -1;
    }
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

// Gives the load generator a CPU of its own. Constructed before the daemon
// is spawned: the calling thread's mask drops one CPU, so the daemon inherits
// the others; Generator() then pins the calling (generator) thread to the CPU
// left out. Sharing CPUs, the generator's wake-ups queued behind daemon
// threads for up to ~10 ms, so its phase-A sends left late; on its own CPU
// it can busy-poll through phase A without taking CPU time from the daemon.
// With a single CPU nothing changes. The destructor restores the original
// mask, so the oracle's threads get every CPU.
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0 ||
        CPU_COUNT(&original_) < 2) {
      return;
    }
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &original_)) {
        generator_cpu_ = cpu;
        break;
      }
    }
    cpu_set_t daemon = original_;
    CPU_CLR(generator_cpu_, &daemon);
    if (sched_setaffinity(0, sizeof(daemon), &daemon) != 0) generator_cpu_ = -1;
  }
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;
  ~CpuSplit() { Restore(); }

  void Generator() {
    if (generator_cpu_ < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(generator_cpu_, &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }
  void Restore() {
    if (generator_cpu_ < 0) return;
    (void)sched_setaffinity(0, sizeof(original_), &original_);
    generator_cpu_ = -1;
  }
  int generator_cpu() const { return generator_cpu_; }

 private:
  cpu_set_t original_;
  int generator_cpu_ = -1;
};

struct Record {
  Clock::time_point scheduled{};
  Clock::time_point sent{};
  Clock::time_point received{};
  bool is_sent = false;
  bool done = false;
  serve::Frame response;
};

// One generator thread, kConnections pipelined connections.
class LoadGen {
 public:
  LoadGen(std::vector<std::string>* frames, Tracer* tracer)
      : frames_(frames), records_(frames->size()), tracer_(tracer) {}

  bool Connect(int port) {
    for (int c = 0; c < kConnections; ++c) {
      auto fd = serve::ConnectTcp("127.0.0.1", port);
      if (!fd.ok()) return false;
      conns_.push_back(std::make_unique<Conn>());
      conns_.back()->fd = std::move(fd).value();
    }
    return true;
  }

  // Sends `bytes` as-is on connection c (warm-up and stats frames).
  bool SendRaw(int c, const std::string& bytes) {
    return serve::SendAll(conns_[static_cast<size_t>(c)]->fd.get(),
                          bytes.data(), bytes.size())
        .ok();
  }

  bool Send(size_t index, int c) {
    Record& r = records_[index];
    const std::string& bytes = (*frames_)[index];
    Conn& conn = *conns_[static_cast<size_t>(c)];
    if (!conn.alive ||
        !serve::SendAll(conn.fd.get(), bytes.data(), bytes.size()).ok()) {
      conn.alive = false;
      return false;
    }
    r.sent = Clock::now();
    // Closed-loop requests are due the moment they are sent.
    if (r.scheduled == Clock::time_point{}) r.scheduled = r.sent;
    r.is_sent = true;
    ++outstanding_;
    outstanding_max_ = std::max(outstanding_max_, outstanding_);
    request_bytes_ += static_cast<double>(bytes.size());
    ++requests_sent_;
    return true;
  }

  // Waits up to `timeout` for data and dispatches every complete frame:
  // measured responses go to their record and `on_response(conn, index)`,
  // anything else to others_.
  void Pump(Clock::duration timeout,
            const std::function<void(int, size_t)>& on_response) {
    pollfd fds[kConnections];
    for (int c = 0; c < kConnections; ++c) {
      fds[c] = {conns_[static_cast<size_t>(c)]->alive
                    ? conns_[static_cast<size_t>(c)]->fd.get()
                    : -1,
                POLLIN, 0};
    }
    const auto ns = std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(timeout)
               .count());
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    if (ppoll(fds, kConnections, &ts, nullptr) <= 0) return;
    for (int c = 0; c < kConnections; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = *conns_[static_cast<size_t>(c)];
      auto got = serve::RecvSome(conn.fd.get(), buffer_, sizeof(buffer_), 0);
      if (!got.ok() || got.value().event == serve::IoEvent::kEof) {
        conn.alive = false;
        continue;
      }
      if (got.value().event != serve::IoEvent::kData) continue;
      const Clock::time_point now = Clock::now();
      conn.decoder.Feed(std::string_view(buffer_, got.value().bytes));
      while (true) {
        serve::Frame frame;
        const Clock::time_point d0 = Clock::now();
        bool more = false;
        {
          Tracer::Scope span(tracer_, "serve.client.frame_decode", 0);
          auto next = conn.decoder.Next(&frame);
          more = next.ok() && next.value();
          if (!next.ok()) conn.alive = false;
        }
        if (!more) break;
        frame_decode_us_ += MicrosBetween(d0, Clock::now());
        const uint64_t id = frame.request_id;
        if (id >= 1 && id <= records_.size() && !records_[id - 1].done) {
          Record& r = records_[id - 1];
          r.received = now;
          r.done = true;
          r.response = std::move(frame);
          --outstanding_;
          if (r.is_sent) {
            tracer_->AddAsync("serve.request", id, r.scheduled, now);
          }
          on_response(c, id - 1);
        } else {
          others_.push_back(std::move(frame));
        }
      }
    }
  }

  // Sends one frame with a fresh id on connection 0 and pumps until its
  // answer (matched by id) arrives; empty on timeout.
  std::string RoundTrip(serve::FrameType type, const std::string& payload) {
    serve::Frame frame;
    frame.type = type;
    frame.request_id = kStatsId + (++stats_calls_);
    frame.payload = payload;
    std::string bytes;
    if (!serve::EncodeFrame(frame, &bytes).ok() || !SendRaw(0, bytes)) {
      return "";
    }
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
      Pump(std::chrono::milliseconds(20), [](int, size_t) {});
      for (auto it = others_.begin(); it != others_.end(); ++it) {
        if (it->request_id == frame.request_id) {
          std::string out = std::move(it->payload);
          others_.erase(it);
          return out;
        }
      }
    }
    return "";
  }

  // Sends `frames` round-robin and waits until each one is answered.
  bool WarmUp(const std::vector<std::string>& frames) {
    for (size_t i = 0; i < frames.size(); ++i) {
      if (!SendRaw(static_cast<int>(i % kConnections), frames[i])) {
        return false;
      }
    }
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
    while (others_.size() < frames.size() && Clock::now() < deadline) {
      Pump(std::chrono::milliseconds(20), [](int, size_t) {});
    }
    bool ok = others_.size() == frames.size();
    for (const serve::Frame& frame : others_) {
      ok = ok && frame.type == serve::FrameType::kAnnotateRobustResponse;
    }
    others_.clear();
    return ok;
  }

  std::string Stats() {
    return RoundTrip(serve::FrameType::kStatsRequest, "");
  }

  std::vector<Record>& records() { return records_; }
  int outstanding() const { return outstanding_; }
  int outstanding_max() const { return outstanding_max_; }
  void reset_outstanding_max() { outstanding_max_ = outstanding_; }
  double mean_request_bytes() const {
    return requests_sent_ > 0 ? request_bytes_ / requests_sent_ : 0.0;
  }
  double frame_decode_us() const { return frame_decode_us_; }

 private:
  struct Conn {
    serve::UniqueFd fd;
    serve::FrameDecoder decoder;
    bool alive = true;
  };
  std::vector<std::string>* frames_;
  std::vector<Record> records_;
  Tracer* tracer_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<serve::Frame> others_;
  int outstanding_ = 0;
  int outstanding_max_ = 0;
  double request_bytes_ = 0.0;
  double requests_sent_ = 0.0;
  double frame_decode_us_ = 0.0;
  uint64_t stats_calls_ = 0;
  char buffer_[1 << 16];
};

// Sum/count of a daemon histogram, or a counter's value, from the STATS
// JSON text ({"counters":{...},"histograms":{"name":{"count":..,
// "sum_us":..}}}).
struct StatsView {
  std::string json;
  double Counter(const std::string& name) const {
    const size_t at = json.find("\"" + name + "\":");
    return at == std::string::npos
               ? 0.0
               : std::strtod(json.c_str() + at + name.size() + 3, nullptr);
  }
  double HistField(const std::string& name, const char* field) const {
    const size_t at = json.find("\"" + name + "\":{");
    if (at == std::string::npos) return 0.0;
    const size_t f = json.find(std::string("\"") + field + "\":", at);
    return f == std::string::npos
               ? 0.0
               : std::strtod(json.c_str() + f + std::strlen(field) + 3,
                             nullptr);
  }
};

double DeltaMean(const StatsView& a, const StatsView& b,
                 const std::string& name) {
  const double count =
      b.HistField(name, "count") - a.HistField(name, "count");
  const double sum = b.HistField(name, "sum_us") - a.HistField(name, "sum_us");
  return count > 0 ? sum / count : 0.0;
}

std::string WindowsJson(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? "," : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

bool LoadFrames(const std::string& path, std::vector<std::string>* frames) {
  std::string bytes;
  if (!ReadFile(path, &bytes)) return false;
  size_t off = 0;
  while (off + serve::kFrameHeaderBytes <= bytes.size()) {
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + off + 16, sizeof(len));  // little-endian
    const size_t size = serve::kFrameHeaderBytes + len;
    if (off + size > bytes.size()) return false;
    frames->push_back(bytes.substr(off, size));
    off += size;
  }
  return off == bytes.size();
}

std::vector<std::string> WarmupFrames(const std::string& dir) {
  std::vector<std::string> frames;
  for (const std::string& path : ListFiles(dir + "/warmup", ".frame")) {
    std::string bytes;
    if (ReadFile(path, &bytes)) frames.push_back(bytes);
  }
  return frames;
}

struct PhaseResult {
  size_t first = 0;
  size_t end = 0;  // requests [first, end) belong to the phase
  // Phase B: length of the measured window and completions within it.
  double window_s = 0.0;
  int64_t completed_in_window = 0;
  // Phase B per sub-window: completions per second and daemon CPU ms per
  // completed table.
  std::vector<double> window_rate;
  std::vector<double> window_cpu_ms;
  std::vector<double> lag_ms;
  int outstanding_max = 0;
  bool drained = false;
};

// Phase A: open loop at `rate` over requests [first, first + count).
PhaseResult OpenLoop(LoadGen* gen, size_t first, size_t count, double rate,
                     uint64_t seed) {
  PhaseResult phase;
  phase.first = first;
  phase.end = std::min(gen->records().size(), first + count);
  doduo::util::Rng rng(Mix(seed, 0xA11));
  auto& records = gen->records();
  Clock::time_point t = Clock::now() + std::chrono::milliseconds(20);
  for (size_t i = phase.first; i < phase.end; ++i) {
    t += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<
        double>(-std::log(1.0 - rng.UniformDouble()) / rate));
    records[i].scheduled = t;
  }
  gen->reset_outstanding_max();
  size_t next = phase.first;
  const auto ignore = [](int, size_t) {};
  Clock::time_point drain_deadline = Clock::time_point::max();
  while (true) {
    Clock::time_point now = Clock::now();
    while (next < phase.end && records[next].scheduled <= now) {
      if (gen->Send(next, static_cast<int>(next % kConnections))) {
        phase.lag_ms.push_back(
            Ms(records[next].sent - records[next].scheduled));
      }
      ++next;
      now = Clock::now();
    }
    if (next >= phase.end) {
      if (gen->outstanding() == 0) break;
      if (drain_deadline == Clock::time_point::max()) {
        drain_deadline = now + std::chrono::seconds(10);
      }
      if (now > drain_deadline) break;
    }
    // Until the last send, poll without sleeping: an idle virtual CPU can
    // take several ms to wake for a timer (measured on a 4-vCPU VM: p99
    // send lag 2-6 ms sleeping, usually under 0.1 ms polling).
    gen->Pump(next < phase.end ? Clock::duration::zero()
                               : std::chrono::milliseconds(20),
              ignore);
  }
  phase.outstanding_max = gen->outstanding_max();
  return phase;
}

// Phase B: closed loop, kWindow in flight per connection, for `seconds`,
// split into kWindows equal sub-windows.
PhaseResult ClosedLoop(LoadGen* gen, size_t first, double seconds,
                       pid_t daemon) {
  PhaseResult phase;
  phase.first = first;
  auto& records = gen->records();
  size_t next = first;
  const Clock::time_point start = Clock::now();
  std::vector<Clock::time_point> bounds;
  for (int w = 0; w <= kWindows; ++w) {
    bounds.push_back(start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     seconds * w / kWindows)));
  }
  const Clock::time_point end = bounds.back();
  // Daemon CPU and time at each sub-window boundary as the loop crosses it;
  // completions count towards the sub-window open when they arrive.
  std::vector<double> cpu_at = {ProcessCpuSeconds(daemon)};
  std::vector<Clock::time_point> time_at = {start};
  std::vector<int64_t> completed(kWindows, 0);
  size_t window = 0;
  for (int c = 0; c < kConnections; ++c) {
    for (int w = 0; w < kWindow && next < records.size(); ++w) {
      gen->Send(next++, c);
    }
  }
  const auto refill = [&](int c, size_t index) {
    if (index < phase.first) return;
    const Clock::time_point now = Clock::now();
    if (now < end) {
      ++completed[std::min<size_t>(window, kWindows - 1)];
      if (next < records.size()) gen->Send(next++, c);
    }
  };
  const Clock::time_point drain_deadline = end + std::chrono::seconds(10);
  while (true) {
    const Clock::time_point now = Clock::now();
    while (window < static_cast<size_t>(kWindows) && now >= bounds[window + 1]) {
      cpu_at.push_back(ProcessCpuSeconds(daemon));
      time_at.push_back(now);
      ++window;
    }
    if (window == static_cast<size_t>(kWindows) &&
        (gen->outstanding() == 0 || now > drain_deadline)) {
      break;
    }
    if (window < static_cast<size_t>(kWindows) && next >= records.size() &&
        gen->outstanding() == 0) {
      phase.drained = true;  // input ran out before the phase ended
      break;
    }
    gen->Pump(std::min<Clock::duration>(
                  std::chrono::milliseconds(5),
                  window < static_cast<size_t>(kWindows)
                      ? bounds[window + 1] - now
                      : drain_deadline - now),
              refill);
  }
  for (size_t w = 0; w + 1 < cpu_at.size(); ++w) {
    const double window_s =
        std::chrono::duration<double>(time_at[w + 1] - time_at[w]).count();
    phase.window_rate.push_back(static_cast<double>(completed[w]) / window_s);
    phase.window_cpu_ms.push_back(
        (cpu_at[w + 1] - cpu_at[w]) * 1e3 /
        std::max<double>(1.0, static_cast<double>(completed[w])));
    phase.completed_in_window += completed[w];
  }
  phase.window_s =
      std::chrono::duration<double>(time_at.back() - time_at.front()).count();
  phase.end = next;
  return phase;
}

doduo::util::Result<serve::RobustRequest> DecodeRequest(
    const std::string& frame_bytes) {
  serve::Frame request;
  serve::FrameDecoder decoder;
  decoder.Feed(frame_bytes);
  auto next = decoder.Next(&request);
  if (!next.ok() || !next.value()) {
    return doduo::util::Status::InvalidArgument("bad request frame");
  }
  return serve::DecodeRobustRequestPayload(request.payload);
}

doduo::core::AnnotateOptions OptionsOf(const serve::RobustRequest& request) {
  doduo::core::AnnotateOptions options;
  options.sanitize = request.sanitize;
  options.abstain_below = request.abstain_below;
  return options;
}

struct ServeSession {
  std::vector<std::string> frames;
  std::vector<std::string> warmup;
  // Declared before the daemon, so the daemon is stopped first.
  CpuSplit cpus;
  Daemon daemon;
};

bool StartSession(const RunConfig& config, ServeSession* s) {
  if (!LoadFrames(config.dir + "/inputs/frames.bin", &s->frames) ||
      s->frames.empty()) {
    std::fprintf(stderr, "perfbench: cannot read the request frames\n");
    return false;
  }
  s->warmup = WarmupFrames(config.dir);
  if (!s->daemon.Start(config.serve_bin, config.dir + "/model",
                       kServeThreads)) {
    std::fprintf(stderr, "perfbench: doduo_serve did not start\n");
    return false;
  }
  s->cpus.Generator();
  return true;
}

}  // namespace

int SetupServe(const RunConfig& config) {
  ServeSession s;
  s.warmup = WarmupFrames(config.dir);
  if (s.warmup.empty()) return 1;
  const std::string& first = s.warmup.front();
  const Clock::time_point start = Clock::now();
  if (!s.daemon.Start(config.serve_bin, config.dir + "/model",
                      kServeThreads)) {
    return 1;
  }
  s.cpus.Generator();
  auto fd = serve::ConnectTcp("127.0.0.1", s.daemon.port());
  if (!fd.ok()) return 1;
  if (!serve::SendAll(fd.value().get(), first.data(), first.size()).ok()) {
    return 1;
  }
  serve::FrameDecoder decoder;
  char buf[1 << 14];
  serve::Frame frame;
  while (true) {
    auto got = serve::RecvSome(fd.value().get(), buf, sizeof(buf), 30000);
    if (!got.ok() || got.value().event != serve::IoEvent::kData) return 1;
    decoder.Feed(std::string_view(buf, got.value().bytes));
    auto next = decoder.Next(&frame);
    if (!next.ok()) return 1;
    if (next.value()) break;
  }
  const double setup_s = SecondsSince(start);
  if (frame.type != serve::FrameType::kAnnotateRobustResponse) return 1;
  std::printf("%s\n", Json().Num("setup_s", setup_s).Dump().c_str());
  return 0;
}


int RunServe(const RunConfig& config) {
  const WorkloadSpec& spec = *config.spec;
  ServeSession s;
  if (!StartSession(config, &s)) return 1;
  const pid_t pid = s.daemon.pid();
  // A traced run makes an untraced pass and a traced pass over the same
  // requests, each half as long. Each phase gets half of a pass, so a
  // 20-second run has 5 latency windows of 1100 requests; phase B is that
  // long because the daemon's CPU time per table shifts between states
  // that last several seconds.
  const double pass_s = config.trace ? config.seconds / 2 : config.seconds;
  const double phase_b_s = pass_s / 2;
  const size_t count_a =
      static_cast<size_t>(kOpenRate * (pass_s - phase_b_s));

  Tracer off(false);
  LoadGen gen(&s.frames, &off);
  if (!gen.Connect(s.daemon.port()) || !gen.WarmUp(s.warmup)) {
    std::fprintf(stderr, "perfbench: warm-up against doduo_serve failed\n");
    return 1;
  }
  const StatsView st0{gen.Stats()};
  const PhaseResult a =
      OpenLoop(&gen, 0, count_a, kOpenRate, config.seed);
  const StatsView st1{gen.Stats()};
  const PhaseResult b = ClosedLoop(&gen, a.end, phase_b_s, pid);
  const StatsView st2{gen.Stats()};
  const double rss_mb = PeakRssMb(pid);
  const double lag_p99 = Quantile(a.lag_ms, 0.99);
  const bool valid = lag_p99 <= kLagLimitMs;
  std::vector<Record>& records = gen.records();

  Metrics metrics;
  Json notes;
  notes.Int("daemon_threads", kServeThreads)
      .Int("connections", kConnections)
      .Num("open_rate_per_s", kOpenRate)
      .Int("closed_window_per_connection", kWindow)
      .Num("slo_ms", spec.slo_ms)
      .Int("loadgen_cpu", s.cpus.generator_cpu())
      .Num("loadgen_lag_p50_ms", Quantile(a.lag_ms, 0.5))
      .Num("loadgen_lag_p99_ms", lag_p99)
      .Num("loadgen_lag_max_ms", Quantile(a.lag_ms, 1.0))
      .Int("loadgen_outstanding_max", a.outstanding_max)
      .Bool("valid", valid)
      .Int("phase_a_requests", static_cast<int64_t>(a.end - a.first))
      .Int("phase_b_requests", static_cast<int64_t>(b.end - b.first))
      .Bool("input_drained", b.drained)
      .Raw("phase_b_window_rates", WindowsJson(b.window_rate));

  // Traced pass: client-side encode of the same requests, then phases A and
  // B again on fresh connections with spans on.
  Tracer tracer(config.trace);
  int64_t trace_mismatches = 0;
  double encode_us = 0.0;
  double payload_decode_us = 0.0;
  double traced_rate = 0.0;
  double decoded_responses = 0.0;
  LoadGen traced_gen(&s.frames, &tracer);
  if (config.trace) {
    for (size_t i = 0; i < b.end; ++i) {
      auto decoded = DecodeRequest(s.frames[i]);
      if (!decoded.ok()) continue;
      const Clock::time_point t0 = Clock::now();
      std::string bytes;
      {
        Tracer::Scope span(&tracer, "serve.client.encode", i + 1);
        bytes = RequestFrame(decoded.value().table, config.seed, i + 1);
      }
      encode_us += MicrosBetween(t0, Clock::now());
      trace_mismatches += bytes != s.frames[i] ? 1 : 0;
    }
    if (!traced_gen.Connect(s.daemon.port())) return 1;
    OpenLoop(&traced_gen, 0, count_a, kOpenRate, config.seed);
    const PhaseResult tb = ClosedLoop(&traced_gen, a.end, phase_b_s, pid);
    traced_rate = static_cast<double>(tb.completed_in_window) /
                  std::max(1e-9, tb.window_s);
    for (size_t i = 0; i < tb.end && i < b.end; ++i) {
      const Record& t = traced_gen.records()[i];
      if (!t.done || !records[i].done) continue;
      if (t.response.payload != records[i].response.payload) {
        ++trace_mismatches;
      }
      const Clock::time_point t0 = Clock::now();
      {
        Tracer::Scope span(&tracer, "serve.client.payload_decode", i + 1);
        (void)serve::DecodeOutcomesPayload(t.response.payload);
      }
      payload_decode_us += MicrosBetween(t0, Clock::now());
      decoded_responses += 1.0;
    }
  }
  s.daemon.Stop();
  s.cpus.Restore();

  // Every request of both phases was attempted; a send that failed counts
  // as failed. Every answered request is checked against the oracle with
  // the request's own options.
  std::vector<size_t> sample;
  std::vector<char> ok(b.end, 0);
  const int64_t attempted = static_cast<int64_t>(b.end);
  for (size_t i = 0; i < b.end; ++i) {
    const Record& r = records[i];
    ok[i] = r.done &&
            r.response.type == serve::FrameType::kAnnotateRobustResponse &&
            r.response.status == doduo::util::StatusCode::kOk;
    if (ok[i]) sample.push_back(i);
  }
  const std::vector<char> matched = CheckWithOracle(
      config.dir + "/model", sample,
      [&](const doduo::core::Annotator& oracle, size_t i) {
        auto decoded = DecodeRequest(s.frames[i]);
        return decoded.ok() &&
               ResponseMatches(records[i].response,
                               EncodeOutcomes(oracle.AnnotateTypesRobust(
                                   decoded.value().table,
                                   OptionsOf(decoded.value()))));
      });
  for (size_t j = 0; j < sample.size(); ++j) ok[sample[j]] = matched[j];
  int64_t failed = 0;
  uint64_t digest = Fnv1a("");
  for (size_t i = 0; i < b.end; ++i) {
    failed += ok[i] ? 0 : 1;
    if (records[i].done) digest = Fnv1a(records[i].response.payload, digest);
  }
  // Phase A latency from each request's scheduled send time, in windows of
  // at least 1000 requests (so >= 10 samples lie beyond each p99); the
  // means of the window p50s and p99s are reported.
  // slo_met_frac counts the whole phase; a failed request misses the limit.
  std::vector<double> p50, p99, sent_latency_ms;
  double slo_met = 0.0;
  const size_t n_a = a.end - a.first;
  const size_t windows =
      std::clamp<size_t>(n_a / 1000, 1, static_cast<size_t>(kWindows));
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> latency_ms;
    const size_t i0 = a.first + n_a * w / windows;
    const size_t i1 = a.first + n_a * (w + 1) / windows;
    for (size_t i = i0; i < i1; ++i) {
      const Record& r = records[i];
      if (!r.done) continue;
      const double ms = Ms(r.received - r.scheduled);
      latency_ms.push_back(ms);
      sent_latency_ms.push_back(Ms(r.received - r.sent));
      slo_met += ok[i] && ms <= spec.slo_ms ? 1.0 : 0.0;
    }
    p50.push_back(Quantile(latency_ms, 0.5));
    p99.push_back(Quantile(latency_ms, 0.99));
  }
  notes.Int("checked", static_cast<int64_t>(sample.size()))
      .Num("failed_frac", static_cast<double>(failed) /
                              std::max<double>(1.0, attempted))
      .Int("latency_windows", static_cast<int64_t>(windows))
      .Raw("latency_window_p50_ms", WindowsJson(p50))
      .Raw("latency_window_p99_ms", WindowsJson(p99))
      .Int("latency_samples", static_cast<int64_t>(sent_latency_ms.size()))
      .Str("output_digest", Hex64(digest));
  // Phase-A latency is a per-layer figure, not an end-to-end one: on the
  // shared VM it moved with the host by up to 3x between runs (see
  // perfbench/README.md). The untraced run prints it in its notes.
  const double latency_p50_ms = Mean(p50);
  const double latency_p99_ms = Mean(p99);
  const double slo_met_frac =
      slo_met / std::max<double>(1.0, static_cast<double>(n_a));
  notes.Num("latency_p50_ms", latency_p50_ms)
      .Num("latency_p99_ms", latency_p99_ms)
      .Num("slo_met_frac", slo_met_frac);

  if (!config.trace) {
    metrics["tables_per_s"] = {Quantile(b.window_rate, 0.5), "tables/s"};
    metrics["cpu_ms_per_table"] = {Quantile(b.window_cpu_ms, 0.5), "ms"};
    metrics["peak_rss_mb"] = {rss_mb, "MB"};
    if (!valid) {
      std::fprintf(stderr,
                   "perfbench: run invalid: the load generator ran %.3f ms "
                   "late at p99 (limit %.1f ms)\n",
                   lag_p99, kLagLimitMs);
    }
    PrintResult(attempted, failed, failed == 0 && !sample.empty() && valid,
                metrics, notes.Dump());
    return 0;
  }

  // Per-layer: daemon-side means of phase A from the STATS frames, client
  // calls, then layer attribution on a sample of the phase-A tables.
  const double server_e2e_ms = DeltaMean(st0, st1, "serve.e2e_us") / 1e3;
  const double requests =
      st1.Counter("serve.requests_total") - st0.Counter("serve.requests_total");
  metrics["serve.queue_wait_ms_mean"] = {
      DeltaMean(st0, st1, "serve.queue_wait_us") / 1e3, "ms"};
  metrics["serve.batch_size_mean"] = {
      DeltaMean(st0, st1, "serve.batch_size"), "tables"};
  metrics["serve.saturated.batch_size_mean"] = {
      DeltaMean(st1, st2, "serve.batch_size"), "tables"};
  metrics["serve.inference_ms_mean"] = {
      DeltaMean(st0, st1, "serve.inference_us") / 1e3, "ms"};
  metrics["serve.batch_assembly_ms_mean"] = {
      DeltaMean(st0, st1, "serve.batch_assembly_us") / 1e3, "ms"};
  metrics["serve.server_e2e_ms_mean"] = {server_e2e_ms, "ms"};
  metrics["serve.rejected_frac"] = {
      requests > 0 ? (st1.Counter("serve.requests_rejected") -
                      st0.Counter("serve.requests_rejected")) /
                         requests
                   : 0.0,
      "ratio"};
  metrics["serve.batch_fallbacks"] = {
      st1.Counter("serve.batch_fallbacks") -
          st0.Counter("serve.batch_fallbacks"),
      "count"};
  metrics["serve.latency_p50_ms"] = {latency_p50_ms, "ms"};
  metrics["serve.latency_p99_ms"] = {latency_p99_ms, "ms"};
  metrics["serve.slo_met_frac"] = {slo_met_frac, "ratio"};
  metrics["serve.outside_server_ms_mean"] = {
      Mean(sent_latency_ms) - server_e2e_ms, "ms"};
  const double encoded = std::max<double>(1.0, static_cast<double>(b.end));
  metrics["serve.client.encode_us"] = {encode_us / encoded, "us"};
  metrics["serve.client.decode_us"] = {
      decoded_responses > 0
          ? (traced_gen.frame_decode_us() + payload_decode_us) /
                decoded_responses
          : 0.0,
      "us"};
  metrics["serve.request_bytes"] = {gen.mean_request_bytes(), "bytes"};
  metrics["loadgen.lag_p99_ms"] = {lag_p99, "ms"};
  metrics["loadgen.outstanding_max"] = {
      static_cast<double>(a.outstanding_max), "count"};
  const double untraced_rate =
      static_cast<double>(b.completed_in_window) / b.window_s;
  metrics["trace.overhead_frac"] = {
      traced_rate > 0 ? untraced_rate / traced_rate - 1.0 : 0.0, "ratio"};

  doduo::util::SetComputeThreads(1);
  auto probe_model = doduo::core::LoadModelDir(config.dir + "/model");
  if (!probe_model.ok()) return 1;
  Prober prober(probe_model.value().get(), &tracer);
  int64_t probe_mismatches = 0;
  const Clock::time_point probe_start = Clock::now();
  for (size_t i = 0; i < a.end; ++i) {
    if (SecondsSince(probe_start) > config.seconds / 4) break;
    if (!records[i].done) continue;
    auto decoded = DecodeRequest(s.frames[i]);
    if (!decoded.ok()) continue;
    const std::string single = prober.Probe(
        decoded.value().table, OptionsOf(decoded.value()), i + 1);
    probe_mismatches += ResponseMatches(records[i].response, single) ? 0 : 1;
  }
  std::vector<double> load_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    auto again = doduo::core::LoadModelDir(config.dir + "/model");
    load_ms.push_back(MicrosBetween(t0, Clock::now()) / 1e3);
  }
  metrics["core.load_ms"] = {Quantile(load_ms, 0.5), "ms"};
  const ReplayTotals replay =
      ReplayShapes(probe_model.value()->model->config().encoder,
                   prober.totals().seq_lengths, config.seed, &tracer);
  AddProbeMetrics(prober.totals(), replay, &metrics);

  PrintLayerTable(metrics, Mean(sent_latency_ms) * 1e3);  // root: a request
  std::fprintf(stderr, "trace.overhead_frac %.4f  replay_coverage %.3f\n",
               metrics["trace.overhead_frac"].value,
               metrics["transformer.replay_coverage"].value);
  tracer.PrintTotals();
  const bool exported = tracer.ExportChrome(config.trace_path);
  failed += trace_mismatches + probe_mismatches;
  notes.Int("probed_tables", prober.totals().tables)
      .Int("trace_mismatches", trace_mismatches)
      .Int("probe_mismatches", probe_mismatches)
      .Int("spans", static_cast<int64_t>(tracer.num_spans()))
      .Str("trace_file", exported ? config.trace_path : "");
  PrintResult(attempted, failed,
              failed == 0 && prober.totals().tables > 0 && valid, metrics,
              notes.Dump());
  return 0;
}

}  // namespace perfbench
