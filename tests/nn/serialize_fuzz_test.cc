// Checkpoint-loader fuzzing, in the style of csv_fuzz_test/
// tokenizer_fuzz_test: seeded random byte mutations and truncations of a
// checkpoint must always come back as a clean util::Status — never a crash,
// hang, or blow-up allocation. Two corpora: a file in the retired v1 layout
// (which must always be refused) and a valid v2 file. Complements the
// exhaustive every-byte-prefix sweeps of serialize_test and
// serialize_v2_test (DESIGN §10) with randomized depth.

#include "doduo/nn/serialize.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "doduo/nn/parameter.h"
#include "doduo/util/rng.h"
#include "gtest/gtest.h"
#include "nn/legacy_checkpoint.h"

namespace doduo::nn {
namespace {

// Pid-suffixed: ctest runs the four seed instances of each fuzz test as
// concurrent processes, and a shared victim path would let one process
// truncate a file another has mmapped (SIGBUS), which is a harness
// artifact, not a loader bug.
std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name + "." + std::to_string(getpid());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A small but structurally interesting model: several named parameters of
/// different ranks, so mutations can land in magic, counts, name bytes,
/// shape dims, or float payload.
std::vector<Parameter> MakeParams() {
  std::vector<Parameter> params;
  params.emplace_back("encoder.layer0.wqkv", std::vector<int64_t>{4, 12});
  params.emplace_back("encoder.layer0.bias", std::vector<int64_t>{12});
  params.emplace_back("head.types.w", std::vector<int64_t>{4, 3});
  params.emplace_back("head.types.b", std::vector<int64_t>{3});
  return params;
}

ParameterList AsList(std::vector<Parameter>& params) {
  ParameterList list;
  for (Parameter& p : params) list.push_back(&p);
  return list;
}

/// v1 corpus: the same model in the retired stream layout, so mutations land
/// in its magic, version, counts, name bytes, shape dims, or float payload.
std::string LegacyCheckpointBytes() {
  util::Rng rng(7);
  std::vector<Parameter> params = MakeParams();
  for (Parameter& p : params) p.value.FillNormal(&rng, 1.0f);
  return LegacyV1CheckpointBytes(AsList(params));
}

/// v2 corpus: the same model in the mmap-able format, so mutations can land
/// in the header, TOC dims, and section offset fields.
std::string ValidV2CheckpointBytes(const char* name) {
  util::Rng rng(7);
  std::vector<Parameter> params = MakeParams();
  for (Parameter& p : params) p.value.FillNormal(&rng, 1.0f);
  const std::string path = TempPath(name);
  const auto saved = SaveParametersV2(path, AsList(params));
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return ReadFileBytes(path);
}

class SerializeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializeFuzzTest, RandomByteMutationsNeverCrash) {
  const std::string valid = LegacyCheckpointBytes();
  ASSERT_GT(valid.size(), 0u);
  const std::string path = TempPath("fuzz_mutate_victim.bin");
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = valid;
    const size_t flips = 1 + rng.NextUint64(8);
    for (size_t f = 0; f < flips; ++f) {
      const size_t pos = rng.NextUint64(bytes.size());
      bytes[pos] = static_cast<char>(rng.NextUint64(256));
    }
    WriteFileBytes(path, bytes);
    std::vector<Parameter> params = MakeParams();
    // A mutated v1 file is still not a v2 file: it is always refused, with
    // a message, whether the flips hit the version field or not.
    const util::Status status = LoadParameters(path, AsList(params));
    ASSERT_FALSE(status.ok()) << "trial " << trial;
    ASSERT_FALSE(status.message().empty()) << "trial " << trial;
  }
}

TEST_P(SerializeFuzzTest, RandomTruncationsAlwaysFailCleanly) {
  const std::string valid = LegacyCheckpointBytes();
  ASSERT_GT(valid.size(), 0u);
  const std::string path = TempPath("fuzz_trunc_victim.bin");
  util::Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t cut = rng.NextUint64(valid.size());  // strict prefix
    WriteFileBytes(path, valid.substr(0, cut));
    std::vector<Parameter> params = MakeParams();
    const util::Status status = LoadParameters(path, AsList(params));
    ASSERT_FALSE(status.ok()) << "prefix of " << cut << " bytes loaded";
    ASSERT_FALSE(status.message().empty());
  }
}

TEST_P(SerializeFuzzTest, MutatedTruncationsNeverCrash) {
  const std::string valid = LegacyCheckpointBytes();
  ASSERT_GT(valid.size(), 0u);
  const std::string path = TempPath("fuzz_both_victim.bin");
  util::Rng rng(GetParam() + 2);
  for (int trial = 0; trial < 100; ++trial) {
    std::string bytes = valid.substr(0, rng.NextUint64(valid.size() + 1));
    for (size_t f = 0, flips = rng.NextUint64(6); f < flips; ++f) {
      if (bytes.empty()) break;
      bytes[rng.NextUint64(bytes.size())] =
          static_cast<char>(rng.NextUint64(256));
    }
    WriteFileBytes(path, bytes);
    std::vector<Parameter> params = MakeParams();
    const util::Status status = LoadParameters(path, AsList(params));
    ASSERT_FALSE(status.ok()) << "trial " << trial;
    ASSERT_FALSE(status.message().empty()) << "trial " << trial;
  }
}

#ifdef DODUO_COUNT_ALLOCS
// A mutated size field must not translate into a giant allocation: the
// loader's plausibility caps reject implausible counts/dims BEFORE any
// buffer is sized (DESIGN §10). Allocation growth across a whole fuzzing
// sweep stays within what the small valid model itself needs.
TEST_P(SerializeFuzzTest, MutationsNeverOverAllocate) {
  const std::string valid = LegacyCheckpointBytes();
  const std::string path = TempPath("fuzz_alloc_victim.bin");
  util::Rng rng(GetParam() + 3);
  for (int trial = 0; trial < 100; ++trial) {
    std::string bytes = valid;
    // Target the structural prefix (header + first entry descriptor),
    // where size fields live.
    const size_t window = std::min<size_t>(bytes.size(), 64);
    bytes[rng.NextUint64(window)] = static_cast<char>(rng.NextUint64(256));
    WriteFileBytes(path, bytes);
    std::vector<Parameter> params = MakeParams();
    const uint64_t before = TensorAllocCount();
    const util::Status status = LoadParameters(path, AsList(params));
    const uint64_t grown = TensorAllocCount() - before;
    // A runaway (implausible-dim) allocation would be orders of magnitude
    // more than this loose per-trial cap.
    ASSERT_LE(grown, 64u) << "trial " << trial << ": "
                          << (status.ok() ? "ok" : status.ToString());
  }
}
#endif  // DODUO_COUNT_ALLOCS

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzzTest,
                         ::testing::Values(1u, 42u, 777u, 31337u));

// --- v2 (mmap) format ------------------------------------------------------
//
// The v2 loader validates every TOC extent against the fstat size before it
// dereferences the mapping, so the same properties must hold: any mutation,
// truncation, or misalignment yields a clean Status — including offsets that
// point outside the file or sections that overlap the end.

class SerializeV2FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializeV2FuzzTest, RandomByteMutationsNeverCrash) {
  const std::string valid = ValidV2CheckpointBytes("fuzz_v2_mutate.bin");
  ASSERT_GT(valid.size(), 0u);
  const std::string path = TempPath("fuzz_v2_mutate_victim.bin");
  util::Rng rng(GetParam() + 10);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = valid;
    const size_t flips = 1 + rng.NextUint64(8);
    for (size_t f = 0; f < flips; ++f) {
      bytes[rng.NextUint64(bytes.size())] =
          static_cast<char>(rng.NextUint64(256));
    }
    WriteFileBytes(path, bytes);
    std::vector<Parameter> params = MakeParams();
    const util::Status status = LoadParameters(path, AsList(params));
    if (!status.ok()) {
      ASSERT_FALSE(status.message().empty()) << "trial " << trial;
    }
  }
}

TEST_P(SerializeV2FuzzTest, StructuralMutationsNeverCrash) {
  // Concentrate every flip on the header + TOC region, where offsets, byte
  // counts, dims, and dtypes live — the fields an attacker-controlled file
  // would use to walk the loader out of bounds or misalign a section.
  const std::string valid = ValidV2CheckpointBytes("fuzz_v2_struct.bin");
  ASSERT_GT(valid.size(), 0u);
  const std::string path = TempPath("fuzz_v2_struct_victim.bin");
  const size_t toc_end = std::min<size_t>(valid.size(), 64 + 4 * 136);
  util::Rng rng(GetParam() + 11);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = valid;
    const size_t flips = 1 + rng.NextUint64(12);
    for (size_t f = 0; f < flips; ++f) {
      bytes[rng.NextUint64(toc_end)] = static_cast<char>(rng.NextUint64(256));
    }
    WriteFileBytes(path, bytes);
    std::vector<Parameter> params = MakeParams();
    const util::Status status = LoadParameters(path, AsList(params));
    if (!status.ok()) {
      ASSERT_FALSE(status.message().empty()) << "trial " << trial;
    }
  }
}

TEST_P(SerializeV2FuzzTest, RandomTruncationsAlwaysFailCleanly) {
  // v2 records its own file size, so EVERY strict prefix must be rejected —
  // there is no "lucky" truncation that still parses.
  const std::string valid = ValidV2CheckpointBytes("fuzz_v2_trunc.bin");
  ASSERT_GT(valid.size(), 0u);
  const std::string path = TempPath("fuzz_v2_trunc_victim.bin");
  util::Rng rng(GetParam() + 12);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t cut = rng.NextUint64(valid.size());  // strict prefix
    WriteFileBytes(path, valid.substr(0, cut));
    std::vector<Parameter> params = MakeParams();
    const util::Status status = LoadParameters(path, AsList(params));
    ASSERT_FALSE(status.ok()) << "prefix of " << cut << " bytes loaded";
    ASSERT_FALSE(status.message().empty());
  }
}

#ifdef DODUO_COUNT_ALLOCS
TEST_P(SerializeV2FuzzTest, StructuralMutationsNeverOverAllocate) {
  // A corrupt dim or byte count must be rejected by the overflow-safe
  // extent checks; a load that borrows the mapping allocates no tensor
  // storage at all.
  const std::string valid = ValidV2CheckpointBytes("fuzz_v2_alloc.bin");
  const std::string path = TempPath("fuzz_v2_alloc_victim.bin");
  const size_t toc_end = std::min<size_t>(valid.size(), 64 + 4 * 136);
  util::Rng rng(GetParam() + 13);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = valid;
    bytes[rng.NextUint64(toc_end)] = static_cast<char>(rng.NextUint64(256));
    WriteFileBytes(path, bytes);
    std::vector<Parameter> params = MakeParams();
    const uint64_t before = TensorAllocCount();
    const util::Status status = LoadParameters(path, AsList(params));
    const uint64_t grown = TensorAllocCount() - before;
    ASSERT_LE(grown, 64u) << "trial " << trial << ": "
                          << (status.ok() ? "ok" : status.ToString());
  }
}
#endif  // DODUO_COUNT_ALLOCS

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeV2FuzzTest,
                         ::testing::Values(1u, 42u, 777u, 31337u));

}  // namespace
}  // namespace doduo::nn
