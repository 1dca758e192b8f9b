#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "doduo/nn/serialize.h"
#include "doduo/nn/tensor.h"
#include "doduo/util/rng.h"
#include "gtest/gtest.h"

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

// A small parameter set exercising 1-D and 2-D shapes.
struct Params {
  Params() : w("enc.dense.w", {12, 8}), b("enc.dense.b", {8}),
             table("emb.table", {10, 8}) {
    util::Rng rng(5);
    w.value.FillNormal(&rng, 0.4f);
    b.value.FillNormal(&rng, 0.4f);
    table.value.FillNormal(&rng, 0.4f);
  }
  ParameterList list() { return {&w, &b, &table}; }
  Parameter w, b, table;
};

TEST(SerializeV2Test, RoundTripThroughGenericLoader) {
  Params src;
  const std::string path = TempPath("v2_roundtrip.bin");
  ASSERT_TRUE(SaveParametersV2(path, src.list()).ok());

  Params dst;
  for (Parameter* p : dst.list()) p->value.Fill(0.0f);
  ASSERT_TRUE(LoadParameters(path, dst.list()).ok());
  for (int64_t i = 0; i < src.w.value.size(); ++i) {
    EXPECT_EQ(std::as_const(dst.w.value).data()[i],
              std::as_const(src.w.value).data()[i]);
  }
  for (int64_t i = 0; i < src.b.value.size(); ++i) {
    EXPECT_EQ(std::as_const(dst.b.value).data()[i],
              std::as_const(src.b.value).data()[i]);
  }
  std::remove(path.c_str());
}

TEST(SerializeV2Test, Fp32TensorsBorrowTheMapping) {
  Params src;
  const std::string path = TempPath("v2_borrow.bin");
  ASSERT_TRUE(SaveParametersV2(path, src.list()).ok());

  Params dst;
  ASSERT_TRUE(LoadParameters(path, dst.list()).ok());
  // Zero-copy: every value aliases the mapped file instead of owning a heap
  // buffer, and the revision moved to record the overwrite.
  for (Parameter* p : dst.list()) {
    EXPECT_TRUE(p->value.borrowed()) << p->name;
    EXPECT_GT(p->revision, 0u) << p->name;
  }
  // Two loads of the same file into two models share nothing with each
  // other (separate mappings) but each is internally consistent.
  Tensor owned = dst.w.value.MaterializeOwned();
  EXPECT_FALSE(owned.borrowed());
  for (int64_t i = 0; i < owned.size(); ++i) {
    EXPECT_EQ(owned.data()[i], std::as_const(dst.w.value).data()[i]);
  }
  std::remove(path.c_str());
}

TEST(SerializeV2Test, HeapFallbackWhenMmapDisabled) {
  Params src;
  const std::string path = TempPath("v2_no_mmap.bin");
  ASSERT_TRUE(SaveParametersV2(path, src.list()).ok());

  ASSERT_EQ(setenv("DODUO_MMAP", "0", 1), 0);
  Params dst;
  const util::Status status = LoadParameters(path, dst.list());
  ASSERT_EQ(unsetenv("DODUO_MMAP"), 0);
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (int64_t i = 0; i < src.w.value.size(); ++i) {
    EXPECT_EQ(std::as_const(dst.w.value).data()[i],
              std::as_const(src.w.value).data()[i]);
  }
  std::remove(path.c_str());
}

TEST(SerializeV2Test, EveryTruncatedPrefixFailsCleanly) {
  Params src;
  const std::string path = TempPath("v2_trunc_src.bin");
  ASSERT_TRUE(SaveParametersV2(path, src.list()).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 0u);

  const std::string truncated = TempPath("v2_trunc.bin");
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteFileBytes(truncated, bytes.substr(0, cut));
    Params fresh;
    const util::Status status = LoadParameters(truncated, fresh.list());
    ASSERT_FALSE(status.ok()) << "prefix of " << cut << " bytes loaded";
    ASSERT_FALSE(status.message().empty());
  }
  std::remove(path.c_str());
  std::remove(truncated.c_str());
}

TEST(SerializeV2Test, NameAndShapeMismatchesFail) {
  Params src;
  const std::string path = TempPath("v2_mismatch.bin");
  ASSERT_TRUE(SaveParametersV2(path, src.list()).ok());

  Parameter renamed("other.w", {12, 8});
  Parameter b("enc.dense.b", {8});
  Parameter table("emb.table", {10, 8});
  EXPECT_FALSE(LoadParameters(path, {&renamed, &b, &table}).ok());

  Parameter w("enc.dense.w", {8, 12});  // transposed shape
  EXPECT_FALSE(LoadParameters(path, {&w, &b, &table}).ok());

  // Unconsumed checkpoint entries are an error too.
  Parameter w2("enc.dense.w", {12, 8});
  EXPECT_FALSE(LoadParameters(path, {&w2, &b}).ok());
  std::remove(path.c_str());
}

TEST(SerializeV2Test, RecordedSizeMismatchFails) {
  // Appending trailing garbage breaks the header's file_size commitment;
  // the loader must refuse rather than trust any internal offset.
  Params src;
  const std::string path = TempPath("v2_size.bin");
  ASSERT_TRUE(SaveParametersV2(path, src.list()).ok());
  std::string bytes = ReadFileBytes(path);
  bytes.append(16, '\0');
  WriteFileBytes(path, bytes);
  Params dst;
  const util::Status status = LoadParameters(path, dst.list());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("size"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializeV2Test, CorruptTocOffsetFails) {
  Params src;
  const std::string path = TempPath("v2_toc.bin");
  ASSERT_TRUE(SaveParametersV2(path, src.list()).ok());
  std::string bytes = ReadFileBytes(path);
  // data_offset of entry 0 lives at header(64) + name(64) + dtype/ndim/
  // reserved(8) + dims(32); point it past the end of the file.
  const size_t data_offset_pos = 64 + 64 + 8 + 32;
  ASSERT_LT(data_offset_pos + 8, bytes.size());
  const uint64_t huge = uint64_t{1} << 60;
  bytes.replace(data_offset_pos, sizeof(huge),
                reinterpret_cast<const char*>(&huge), sizeof(huge));
  WriteFileBytes(path, bytes);
  Params dst;
  const util::Status status = LoadParameters(path, dst.list());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("out of bounds"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializeV2Test, SavingABorrowedModelRoundTrips) {
  // Load (borrow) then re-save: SaveParametersV2 must read through the
  // borrow, so re-saving a loaded model never needs to materialize it.
  Params src;
  const std::string path1 = TempPath("v2_resave1.bin");
  const std::string path2 = TempPath("v2_resave2.bin");
  ASSERT_TRUE(SaveParametersV2(path1, src.list()).ok());
  Params mid;
  ASSERT_TRUE(LoadParameters(path1, mid.list()).ok());
  ASSERT_TRUE(mid.w.value.borrowed());
  ASSERT_TRUE(SaveParametersV2(path2, mid.list()).ok());
  Params dst;
  ASSERT_TRUE(LoadParameters(path2, dst.list()).ok());
  for (int64_t i = 0; i < src.w.value.size(); ++i) {
    EXPECT_EQ(std::as_const(dst.w.value).data()[i],
              std::as_const(src.w.value).data()[i]);
  }
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

}  // namespace
}  // namespace doduo::nn
