// Cross-commit drift detector (ROADMAP aim 3): a tiny checked-in v2 model
// directory (tests/data/golden/model) annotates the dirty-input fixtures
// plus a few clean tables through AnnotateTypesRobust, and every outcome —
// labels, the bit pattern of the calibrated confidence, skip reason and
// abstention — is byte-compared with tests/data/golden/expected_outcomes.txt.
//
// Any change to fp32 numerics, the sanitizer, the serializer or the
// checkpoint reader shows up here as a red test. There is deliberately no
// regeneration switch: on a mismatch the test prints the actual text between
// markers, and updating the expected file is a manual copy that the change
// log must record.

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "doduo/core/annotator.h"
#include "doduo/core/model_io.h"
#include "doduo/table/table.h"
#include "doduo/util/csv.h"
#include "doduo/util/thread_pool.h"
#include "gtest/gtest.h"

namespace doduo::core {
namespace {

const std::string kGoldenDir = std::string(DODUO_TEST_DATA_DIR) + "/golden";

struct NamedTable {
  std::string name;
  table::Table table;
};

table::Table LoadCsv(const std::string& path, const std::string& name) {
  auto rows = util::ReadCsvFile(path);
  EXPECT_TRUE(rows.ok()) << path << ": " << rows.status().ToString();
  auto table = table::TableFromCsvRows(rows.value(), /*has_header=*/true, name);
  EXPECT_TRUE(table.ok()) << path << ": " << table.status().ToString();
  return std::move(table).value();
}

/// The dirty-input fixtures, then the clean golden tables, each group in
/// file-name order so the expected file has a stable layout.
std::vector<NamedTable> LoadTables() {
  std::vector<NamedTable> tables;
  for (const std::string& dir :
       {std::string(DODUO_TEST_DATA_DIR) + "/dirty", kGoldenDir + "/tables"}) {
    std::vector<std::filesystem::path> paths;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".csv") paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());
    for (const auto& path : paths) {
      const std::string name = path.parent_path().filename().string() + "/" +
                               path.filename().string();
      tables.push_back({name, LoadCsv(path.string(), name)});
    }
  }
  return tables;
}

/// The option sets pinned by the expected file: defaults, an abstention
/// threshold that splits the golden outcomes, and the sanitizer switched
/// off.
std::vector<std::pair<std::string, AnnotateOptions>> OptionSets() {
  AnnotateOptions abstain;
  abstain.abstain_below = 0.2;
  AnnotateOptions raw;
  raw.sanitize = false;
  return {{"default", AnnotateOptions{}},
          {"abstain_below=0.2", abstain},
          {"no_sanitize", raw}};
}

/// One line per column: table, column, labels, confidence bits (with a
/// rounded decimal for readers), skip reason, abstained flag.
void RenderTable(const std::string& name,
                 const std::vector<ColumnOutcome>& outcomes,
                 std::ostringstream* out) {
  for (size_t c = 0; c < outcomes.size(); ++c) {
    const ColumnOutcome& outcome = outcomes[c];
    std::string labels;
    for (const std::string& label : outcome.labels) {
      if (!labels.empty()) labels += "|";
      labels += label;
    }
    char confidence[64];
    std::snprintf(confidence, sizeof(confidence), "0x%016" PRIx64 " (%.6f)",
                  std::bit_cast<uint64_t>(outcome.confidence),
                  outcome.confidence);
    *out << name << "\t" << c << "\t" << (labels.empty() ? "-" : labels)
         << "\t" << confidence << "\t"
         << (outcome.skipped_reason.empty() ? "-" : outcome.skipped_reason)
         << "\t" << (outcome.abstained ? "abstained" : "-") << "\n";
  }
}

std::string ReadExpected() {
  std::ifstream in(kGoldenDir + "/expected_outcomes.txt", std::ios::binary);
  EXPECT_TRUE(in) << "missing " << kGoldenDir << "/expected_outcomes.txt";
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void ExpectMatchesGolden(const std::string& actual, const std::string& what) {
  const std::string expected = ReadExpected();
  if (actual == expected) return;
  std::cout << "---- actual golden outcomes (" << what << ") ----\n"
            << actual << "---- end actual golden outcomes ----\n";
  ADD_FAILURE() << what << ": outcomes differ from "
                << "tests/data/golden/expected_outcomes.txt (actual printed "
                << "above)";
}

class GoldenOutcomesTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    util::SetComputeThreads(GetParam());
    auto loaded = LoadModelDir(kGoldenDir + "/model");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    model_ = std::move(loaded).value();
    tables_ = LoadTables();
  }
  void TearDown() override { util::SetComputeThreads(1); }

  std::unique_ptr<LoadedModel> model_;
  std::vector<NamedTable> tables_;
};

TEST_P(GoldenOutcomesTest, SingleTableMatchesExpectedBytes) {
  const Annotator annotator = model_->MakeAnnotator();
  std::ostringstream out;
  for (const auto& [label, options] : OptionSets()) {
    out << "# options: " << label << "\n";
    for (const NamedTable& named : tables_) {
      RenderTable(named.name,
                  annotator.AnnotateTypesRobust(named.table, options), &out);
    }
  }
  ExpectMatchesGolden(out.str(), "AnnotateTypesRobust, " +
                                     std::to_string(GetParam()) + " threads");
}

TEST_P(GoldenOutcomesTest, BatchMatchesExpectedBytes) {
  const Annotator annotator = model_->MakeAnnotator();
  std::vector<table::Table> tables;
  for (const NamedTable& named : tables_) tables.push_back(named.table);
  std::ostringstream out;
  for (const auto& [label, options] : OptionSets()) {
    out << "# options: " << label << "\n";
    const auto outcomes = annotator.AnnotateTypesRobustBatch(tables, options);
    ASSERT_EQ(outcomes.size(), tables_.size());
    for (size_t t = 0; t < tables_.size(); ++t) {
      RenderTable(tables_[t].name, outcomes[t], &out);
    }
  }
  ExpectMatchesGolden(out.str(), "AnnotateTypesRobustBatch, " +
                                     std::to_string(GetParam()) + " threads");
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenOutcomesTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace doduo::core
