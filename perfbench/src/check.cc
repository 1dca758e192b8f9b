// Output checking shared by every workload, and the self-test showing that
// a corrupted response is counted as failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "doduo/core/model_io.h"
#include "doduo/serve/protocol.h"
#include "probe.h"
#include "runs.h"

namespace perfbench {

namespace fs = std::filesystem;

bool OutcomesMatch(const std::string& got, const std::string& expected) {
  return doduo::serve::DecodeOutcomesPayload(got).ok() && got == expected;
}

bool ResponseMatches(const doduo::serve::Frame& response,
                     const std::string& expected) {
  return response.type == doduo::serve::FrameType::kAnnotateRobustResponse &&
         response.status == doduo::util::StatusCode::kOk &&
         OutcomesMatch(response.payload, expected);
}

void PrintResult(int64_t attempted, int64_t failed, bool correct,
                 const Metrics& metrics, const std::string& notes_json) {
  Json result;
  result.Bool("correct", correct)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Raw("metrics", MetricsJson(metrics))
      .Raw("notes", notes_json);
  std::printf("%s\n", Json().Raw("result", result.Dump()).Dump().c_str());
}

std::vector<std::string> ListFiles(const std::string& dir,
                                   const std::string& extension) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == extension) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::vector<char> CheckWithOracle(
    const std::string& model_dir, const std::vector<size_t>& indices,
    const std::function<bool(const doduo::core::Annotator&, size_t)>& matches) {
  const int threads =
      std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  std::vector<char> ok(indices.size(), 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto loaded = doduo::core::LoadModelDir(model_dir);
      if (!loaded.ok()) return;
      const doduo::core::Annotator oracle = loaded.value()->MakeAnnotator();
      for (size_t j = static_cast<size_t>(t); j < indices.size();
           j += static_cast<size_t>(threads)) {
        ok[j] = matches(oracle, indices[j]) ? 1 : 0;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return ok;
}

int SelfTest(const std::string& dir) {
  auto loaded = doduo::core::LoadModelDir(dir + "/model");
  if (!loaded.ok()) return 1;
  const doduo::core::Annotator annotator = loaded.value()->MakeAnnotator();
  auto table = TableFromCsv(GenerateTable(Kind::kLakeSmall, 1, 0).csv, "t");
  if (!table.ok()) return 1;
  const std::vector<doduo::core::ColumnOutcome> truth =
      annotator.AnnotateTypesRobust(table.value());
  const std::string expected = EncodeOutcomes(truth);

  auto frame_of = [](std::string payload) {
    doduo::serve::Frame frame;
    frame.type = doduo::serve::FrameType::kAnnotateRobustResponse;
    frame.payload = std::move(payload);
    return frame;
  };
  std::vector<std::pair<const char*, doduo::serve::Frame>> corrupted;
  auto mutate = [&](const char* name, auto&& change) {
    std::vector<doduo::core::ColumnOutcome> outcomes = truth;
    change(&outcomes.front());
    corrupted.emplace_back(name, frame_of(EncodeOutcomes(outcomes)));
  };
  mutate("confidence_last_bit", [](doduo::core::ColumnOutcome* o) {
    o->confidence = std::nextafter(o->confidence, 2.0);
  });
  mutate("label", [](doduo::core::ColumnOutcome* o) {
    o->labels.assign(1, "not.a.type");
  });
  mutate("abstained", [](doduo::core::ColumnOutcome* o) {
    o->labels.clear();
    o->abstained = true;
  });
  mutate("skip_reason", [](doduo::core::ColumnOutcome* o) {
    o->labels.clear();
    o->skipped_reason = "mostly_null";
  });
  corrupted.emplace_back("truncated",
                         frame_of(expected.substr(0, expected.size() - 3)));
  std::string flipped = expected;
  flipped[flipped.size() / 2] ^= 0x01;
  corrupted.emplace_back("flipped_byte", frame_of(flipped));
  doduo::serve::Frame refused = frame_of("");
  refused.type = doduo::serve::FrameType::kErrorResponse;
  refused.status = doduo::util::StatusCode::kResourceExhausted;
  corrupted.emplace_back("refused", refused);
  doduo::serve::Frame wrong_status = frame_of(expected);
  wrong_status.status = doduo::util::StatusCode::kIoError;
  corrupted.emplace_back("error_status", wrong_status);

  int counted_failed = 0;
  for (const auto& [name, frame] : corrupted) {
    if (ResponseMatches(frame, expected)) {
      std::fprintf(stderr, "perfbench selftest: corrupted '%s' passed\n",
                   name);
    } else {
      ++counted_failed;
    }
  }
  const bool intact_passes = ResponseMatches(frame_of(expected), expected);
  const bool ok = intact_passes &&
                  counted_failed == static_cast<int>(corrupted.size());
  std::printf(
      "%s\n",
      Json()
          .Raw("selftest",
               Json()
                   .Int("corrupted_cases", static_cast<int64_t>(corrupted.size()))
                   .Int("counted_failed", counted_failed)
                   .Bool("intact_passes", intact_passes)
                   .Bool("ok", ok)
                   .Dump())
          .Dump()
          .c_str());
  return ok ? 0 : 1;
}

}  // namespace perfbench
