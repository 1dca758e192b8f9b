// LoadParameters' error contract (DESIGN §10, §14): round trips are
// bit-exact, and every malformed input — a mismatched model, a missing or
// garbage file, a hand-corrupted v2 header or TOC entry, or a checkpoint in
// the retired v1 layout — comes back as a clean, specific Status.

#include "doduo/nn/serialize.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include "doduo/util/rng.h"
#include "gtest/gtest.h"
#include "nn/legacy_checkpoint.h"

namespace doduo::nn {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
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

// Byte offsets into a one-parameter v2 file: the 64-byte header, then the
// 136-byte TOC entry (name[64], dtype, ndim, reserved, dims[4], ...).
constexpr size_t kParamCountOffset = 8;
constexpr size_t kEntryNameOffset = 64;
constexpr size_t kEntryNdimOffset = 64 + 65;
constexpr size_t kEntryDimsOffset = 64 + 72;

template <typename T>
void Patch(std::string* bytes, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(value), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

// A valid v2 file holding one [2, 3] parameter named "p", for the tests
// below to corrupt field by field.
std::string ValidOneParamBytes(const char* name) {
  util::Rng rng(4);
  Parameter p("p", {2, 3});
  p.value.FillNormal(&rng, 1.0f);
  const std::string path = TempPath(name);
  EXPECT_TRUE(SaveParametersV2(path, {&p}).ok());
  std::string bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

util::Status LoadBytes(const char* name, const std::string& bytes) {
  const std::string path = TempPath(name);
  WriteFileBytes(path, bytes);
  Parameter p("p", {2, 3});
  util::Status status = LoadParameters(path, {&p});
  std::remove(path.c_str());
  return status;
}

TEST(SerializeTest, RoundTrip) {
  // Every supported rank, bit-exact.
  util::Rng rng(1);
  Parameter a("layer.w", {2, 3});
  Parameter b("layer.b", {3});
  Parameter c("conv.k", {2, 2, 3});
  Parameter d("conv.k4", {1, 2, 2, 3});
  for (Parameter* p : {&a, &b, &c, &d}) p->value.FillNormal(&rng, 1.0f);
  const std::string path = TempPath("ckpt_roundtrip.bin");
  ASSERT_TRUE(SaveParametersV2(path, {&a, &b, &c, &d}).ok());

  Parameter a2("layer.w", {2, 3});
  Parameter b2("layer.b", {3});
  Parameter c2("conv.k", {2, 2, 3});
  Parameter d2("conv.k4", {1, 2, 2, 3});
  // Loading is by name, so the model's order need not match the file's.
  ASSERT_TRUE(LoadParameters(path, {&d2, &c2, &b2, &a2}).ok());
  const std::pair<Parameter*, Parameter*> pairs[] = {
      {&a, &a2}, {&b, &b2}, {&c, &c2}, {&d, &d2}};
  for (const auto& [src, dst] : pairs) {
    ASSERT_EQ(dst->value.shape(), src->value.shape()) << src->name;
    for (int64_t i = 0; i < src->value.size(); ++i) {
      EXPECT_EQ(std::as_const(dst->value).data()[i],
                std::as_const(src->value).data()[i])
          << src->name << "[" << i << "]";
    }
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, V1CheckpointIsRefusedNamingItsVersion) {
  util::Rng rng(2);
  Parameter a("layer.w", {2, 3});
  a.value.FillNormal(&rng, 1.0f);
  const std::string path = TempPath("ckpt_v1.bin");
  WriteFileBytes(path, LegacyV1CheckpointBytes({&a}));
  Parameter fresh("layer.w", {2, 3});
  const util::Status status = LoadParameters(path, {&fresh});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version 1"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(SerializeTest, NameMismatchFails) {
  Parameter a("correct", {2});
  const std::string path = TempPath("ckpt_name.bin");
  ASSERT_TRUE(SaveParametersV2(path, {&a}).ok());
  Parameter wrong("wrong", {2});
  EXPECT_FALSE(LoadParameters(path, {&wrong}).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchFails) {
  Parameter a("p", {2, 2});
  const std::string path = TempPath("ckpt_shape.bin");
  ASSERT_TRUE(SaveParametersV2(path, {&a}).ok());
  Parameter wrong("p", {4});
  EXPECT_FALSE(LoadParameters(path, {&wrong}).ok());
  Parameter wrong2("p", {2, 3});
  EXPECT_FALSE(LoadParameters(path, {&wrong2}).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, CountMismatchFails) {
  Parameter a("p", {2});
  const std::string path = TempPath("ckpt_count.bin");
  ASSERT_TRUE(SaveParametersV2(path, {&a}).ok());
  Parameter b("q", {2});
  EXPECT_FALSE(LoadParameters(path, {&a, &b}).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileFails) {
  Parameter a("p", {2});
  EXPECT_FALSE(LoadParameters("/nonexistent/ckpt.bin", {&a}).ok());
}

TEST(SerializeTest, EveryTruncatedPrefixFailsCleanly) {
  // A v1 file, whole or cut at ANY byte, must yield a clean error — never a
  // crash, hang, or silent partial load. (SerializeV2Test sweeps the
  // prefixes of a v2 file the same way.)
  util::Rng rng(4);
  Parameter a("layer.w", {3, 2});
  a.value.FillNormal(&rng, 1.0f);
  const std::string bytes = LegacyV1CheckpointBytes({&a});
  const std::string truncated_path = TempPath("ckpt_trunc.bin");
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    WriteFileBytes(truncated_path, bytes.substr(0, cut));
    Parameter fresh("layer.w", {3, 2});
    const util::Status status = LoadParameters(truncated_path, {&fresh});
    ASSERT_FALSE(status.ok()) << "prefix of " << cut << " bytes loaded";
    ASSERT_FALSE(status.message().empty());
  }
  std::remove(truncated_path.c_str());
}

TEST(SerializeTest, ImplausibleParameterCountFails) {
  std::string bytes = ValidOneParamBytes("ckpt_huge_count_src.bin");
  Patch(&bytes, kParamCountOffset, uint64_t{1} << 40);
  const util::Status status = LoadBytes("ckpt_huge_count.bin", bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("parameter count"), std::string::npos)
      << status.ToString();
}

TEST(SerializeTest, ImplausibleNameLengthFails) {
  // A name field with no terminating NUL claims a name longer than the
  // field; it must be rejected before any string is built from it.
  std::string bytes = ValidOneParamBytes("ckpt_huge_name_src.bin");
  for (size_t i = 0; i < 64; ++i) bytes[kEntryNameOffset + i] = 'p';
  const util::Status status = LoadBytes("ckpt_huge_name.bin", bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("parameter name"), std::string::npos)
      << status.ToString();
}

TEST(SerializeTest, ImplausibleDimCountFails) {
  std::string bytes = ValidOneParamBytes("ckpt_huge_ndim_src.bin");
  Patch(&bytes, kEntryNdimOffset, uint8_t{200});
  const util::Status status = LoadBytes("ckpt_huge_ndim.bin", bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("rank"), std::string::npos)
      << status.ToString();
}

TEST(SerializeTest, OverflowingShapeFails) {
  // Two extents whose product overflows must be rejected by the volume
  // check, not turned into a section size.
  std::string bytes = ValidOneParamBytes("ckpt_overflow_shape_src.bin");
  Patch(&bytes, kEntryDimsOffset, uint64_t{1} << 30);
  Patch(&bytes, kEntryDimsOffset + 8, uint64_t{1} << 30);
  const util::Status status = LoadBytes("ckpt_overflow_shape.bin", bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bad shape"), std::string::npos)
      << status.ToString();
}

TEST(SerializeTest, GarbageFileFails) {
  const std::string path = TempPath("ckpt_garbage.bin");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a checkpoint", f);
  std::fclose(f);
  Parameter a("p", {2});
  EXPECT_FALSE(LoadParameters(path, {&a}).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace doduo::nn
