// doduo_serve — long-running annotation daemon (DESIGN §12).
//
//   doduo_serve --model <dir> [--host H] [--port P] [--replicas N]
//               [--max-batch N] [--max-wait-us N] [--queue-depth N]
//
// Loads a saved model directory once, builds a ReplicaPool (one immutable
// shared weight snapshot, per-replica forward workspaces), and serves the
// length-prefixed binary protocol of serve/protocol.h over TCP. Concurrent
// single-table requests are coalesced into batches by the dynamic batcher;
// when the queue is full new requests are rejected with kResourceExhausted
// (backpressure) instead of queuing without bound.
//
// --replicas defaults to the compute pool size (DODUO_NUM_THREADS /
// --threads). Query live metrics with `doduo_cli stats --server host:port`.
// SIGINT/SIGTERM drain in-flight requests and exit cleanly.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "doduo/core/model_io.h"
#include "doduo/core/replica_pool.h"
#include "doduo/serve/server.h"
#include "doduo/util/env.h"
#include "doduo/util/thread_pool.h"

namespace {

// Polled by the main loop between Server::WaitFor ticks. The handler only
// stores a flag: Server::Stop() locks, and taking a lock (or spawning a
// thread) in async-signal context is undefined behavior — the main thread
// runs the actual shutdown.
std::atomic<bool> g_shutdown{false};

void HandleSignal(int /*signum*/) { g_shutdown.store(true); }

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

const char* kUsage =
    "usage: doduo_serve --model <dir> [--host H] [--port P] [--replicas N]\n"
    "                   [--max-batch N] [--max-wait-us N] [--queue-depth N]\n"
    "                   [--threads N]\n";

}  // namespace

int main(int argc, char** argv) {
  std::string model_dir;
  doduo::serve::ServerOptions options;
  options.port = 8642;
  int replicas = 0;  // 0 = compute pool size
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--model") == 0 && has_value) {
      model_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--host") == 0 && has_value) {
      options.host = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0 && has_value) {
      options.port = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--replicas") == 0 && has_value) {
      replicas = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--max-batch") == 0 && has_value) {
      options.batcher.max_batch_size =
          static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--max-wait-us") == 0 && has_value) {
      options.batcher.max_wait_us = std::strtol(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--queue-depth") == 0 && has_value) {
      options.batcher.max_queue_depth =
          static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--threads") == 0 && has_value) {
      doduo::util::SetComputeThreads(
          static_cast<int>(std::strtol(argv[++i], nullptr, 10)));
    } else {
      std::fputs(kUsage, stderr);
      return 2;
    }
  }
  if (model_dir.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  auto loaded = doduo::core::LoadModelDir(model_dir);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  doduo::core::LoadedModel& m = *loaded.value();

  if (replicas <= 0) {
    replicas = doduo::util::ComputePool()->num_threads();
  }
  doduo::core::ReplicaPool pool(m.model.get(), m.serializer.get(), &m.types,
                                m.relation_vocab(), replicas);
  options.batcher.num_workers = pool.num_replicas();

  doduo::serve::Server server(&pool, options);
  if (doduo::util::Status started = server.Start(); !started.ok()) {
    return Fail(started.ToString());
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::printf("doduo_serve: %d replica(s), batch<=%d, wait<=%ldus\n",
              pool.num_replicas(), options.batcher.max_batch_size,
              static_cast<long>(options.batcher.max_wait_us));
  std::printf("listening on %s:%d\n", options.host.c_str(), server.port());
  std::fflush(stdout);

  // Park until a signal arrives or someone else stopped the server. The
  // 200ms tick is the signal-to-shutdown latency bound.
  while (!g_shutdown.load() && !server.WaitFor(/*timeout_us=*/200 * 1000)) {
  }
  server.Stop();
  std::printf("doduo_serve: drained, exiting\n");
  return 0;
}
