// perfbench: the repository benchmark program (see perfbench/README.md).
//
//   perfbench prepare  --workload W --seed N --seconds S --dir D
//   perfbench setup    --workload W --dir D [--serve-bin B]
//   perfbench run      --workload W --seed N --seconds S --trace 0|1 --dir D
//                      [--trace-out F] [--serve-bin B]
//   perfbench selftest --dir D
//   perfbench env
//
// perfbench/run.py drives these steps; each prints JSON lines on stdout.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "runs.h"
#include "workload.h"

extern char** environ;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// A run under a different build type, or with a DODUO_* override in the
// environment, would measure a different program than the one that ships.
bool RefuseToMeasure() {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: build type is %s, not Release\n",
                 PERFBENCH_BUILD_TYPE);
    return true;
  }
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DODUO_", 6) == 0) {
      std::fprintf(stderr, "perfbench: refusing to measure with %s set\n", *e);
      return true;
    }
  }
  return false;
}

int Usage() {
  std::fputs(
      "usage: perfbench prepare|setup|run|selftest|env --workload W "
      "--seed N --seconds S --trace 0|1 --dir D [--trace-out F] "
      "[--serve-bin B]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  if (command == "env") {
    std::printf("%s\n",
                Json()
                    .Raw("env", Json()
                                    .Str("compiler", __VERSION__)
                                    .Str("build_type", PERFBENCH_BUILD_TYPE)
                                    .Int("lake_threads", kLakeThreads)
                                    .Int("serve_threads", kServeThreads)
                                    .Dump())
                    .Dump()
                    .c_str());
    return 0;
  }
  if (RefuseToMeasure()) return 3;
  if (command == "selftest") return SelfTest(args.Get("dir", "."));

  RunConfig config;
  config.spec = FindWorkload(args.Get("workload", ""));
  if (config.spec == nullptr) return Usage();
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  config.seconds = args.GetDouble("seconds", 10.0);
  config.trace = args.GetInt("trace", 0) != 0;
  config.dir = args.Get("dir", "");
  config.trace_path = args.Get("trace-out", config.dir + "/trace.json");
  config.serve_bin = args.Get("serve-bin", "");
  if (config.dir.empty() || config.seconds <= 0) return Usage();
  const bool serve = config.spec->kind == Kind::kServeSmall;

  if (command == "prepare") {
    return Prepare(*config.spec, config.seed, config.seconds, config.dir);
  }
  if (command == "setup") {
    return serve ? SetupServe(config) : SetupLake(config);
  }
  if (command == "run") return serve ? RunServe(config) : RunLake(config);
  return Usage();
}
