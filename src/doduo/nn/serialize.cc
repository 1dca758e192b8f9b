#include "doduo/nn/serialize.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "doduo/util/metrics.h"
#include "doduo/util/mmap_file.h"

namespace doduo::nn {

// --- v2 checkpoint format (DESIGN §14) --------------------------------------
//
// Fixed-size little-endian header + table of contents, then 64-byte-aligned
// fp32 tensor sections. Every field a loader dereferences is validated
// against the fstat-reported file size *before* any allocation or access, so
// a truncated or corrupt file fails with a Status instead of a fault; the
// payload itself is never parsed — tensors borrow the mapping in place,
// which is what makes cold start O(page faults) and lets N workers share one
// physical copy.

namespace {

constexpr uint32_t kMagic = 0x444F4455;  // "DODU"
constexpr uint32_t kVersionV2 = 2;

// The loader aliases the mapped bytes directly, which only works on a
// little-endian host.
static_assert(std::endian::native == std::endian::little,
              "doduo checkpoints assume a little-endian host");

// Plausibility caps for checkpoint headers. A corrupt or truncated file can
// present arbitrary 64-bit counts and extents; these bound them before any
// arithmetic or allocation depends on them.
constexpr uint64_t kMaxParameters = 1u << 20;
constexpr int64_t kMaxElements = int64_t{1} << 31;

constexpr uint64_t kV2Align = 64;
constexpr uint64_t kV2NameBytes = 64;  // NUL-terminated, so max length 63
constexpr uint32_t kV2MaxDims = 4;
constexpr uint8_t kV2DtypeF32 = 0;

struct V2Header {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t param_count = 0;
  uint64_t file_size = 0;   // must equal the on-disk size (truncation check)
  uint64_t toc_offset = 0;  // always 64 today, but recorded for evolution
  uint64_t toc_size = 0;    // param_count * sizeof(V2Entry)
  uint8_t reserved[24] = {};
};
static_assert(sizeof(V2Header) == 64);

struct V2Entry {
  char name[kV2NameBytes] = {};
  uint8_t dtype = 0;  // only kV2DtypeF32 is defined
  uint8_t ndim = 0;
  uint16_t reserved0 = 0;
  uint32_t reserved1 = 0;
  uint64_t dims[kV2MaxDims] = {};  // extents; unused are 0
  uint64_t data_offset = 0;        // 64-aligned section start
  uint64_t data_bytes = 0;
  uint64_t reserved2[2] = {};      // must be zero
};
static_assert(sizeof(V2Entry) == 136);

uint64_t AlignUp64(uint64_t value) {
  return (value + (kV2Align - 1)) & ~(kV2Align - 1);
}

util::Status WriteZeroPadding(std::ofstream& out, uint64_t count) {
  static const char zeros[kV2Align] = {};
  while (count > 0) {
    const uint64_t chunk = count < kV2Align ? count : kV2Align;
    out.write(zeros, static_cast<std::streamsize>(chunk));
    count -= chunk;
  }
  if (!out) return util::Status::IoError("failed writing padding");
  return util::Status::Ok();
}

// Cold-start observability (DESIGN §14): how many checkpoint bytes each
// load touched. Mapped bytes cost page faults on first access; copied bytes
// (DODUO_MMAP=0) cost read+allocate up front.
util::Counter* BytesMappedCounter() {
  static util::Counter* counter = util::GetCounter("load.bytes_mapped");
  return counter;
}

util::Counter* BytesCopiedCounter() {
  static util::Counter* counter = util::GetCounter("load.bytes_copied");
  return counter;
}

bool SameExtents(const std::vector<int64_t>& shape, const Tensor& value) {
  if (static_cast<int>(shape.size()) != value.ndim()) return false;
  for (int i = 0; i < value.ndim(); ++i) {
    if (shape[static_cast<size_t>(i)] != value.dim(i)) return false;
  }
  return true;
}

// One validated TOC entry, still pointing into the mapping.
struct V2Parsed {
  V2Entry entry;
  std::vector<int64_t> shape;
  bool used = false;
};

util::Status CorruptV2(const std::string& path, const std::string& what) {
  return util::Status::InvalidArgument("corrupt v2 checkpoint " + path +
                                       ": " + what);
}

}  // namespace

util::Status SaveParametersV2(const std::string& path,
                              const ParameterList& params) {
  // Lay out the file first: header, TOC, then per-parameter sections in
  // list order, each 64-aligned.
  std::vector<V2Entry> toc(params.size());
  uint64_t cursor =
      AlignUp64(sizeof(V2Header) + params.size() * sizeof(V2Entry));
  for (size_t i = 0; i < params.size(); ++i) {
    const Parameter* p = params[i];
    V2Entry& entry = toc[i];
    if (p->name.empty() || p->name.size() >= kV2NameBytes) {
      return util::Status::InvalidArgument(
          "parameter name does not fit the v2 name field: '" + p->name + "'");
    }
    if (p->value.ndim() < 1 ||
        p->value.ndim() > static_cast<int>(kV2MaxDims)) {
      return util::Status::InvalidArgument(
          "v2 checkpoints support 1-4 dims, got " + p->value.ShapeString() +
          " for '" + p->name + "'");
    }
    std::memcpy(entry.name, p->name.data(), p->name.size());
    entry.dtype = kV2DtypeF32;
    entry.ndim = static_cast<uint8_t>(p->value.ndim());
    for (int d = 0; d < p->value.ndim(); ++d) {
      entry.dims[d] = static_cast<uint64_t>(p->value.dim(d));
    }
    entry.data_offset = cursor;
    entry.data_bytes = static_cast<uint64_t>(p->value.size()) * sizeof(float);
    cursor = AlignUp64(cursor + entry.data_bytes);
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) return util::Status::IoError("cannot open " + path);
  V2Header header;
  header.magic = kMagic;
  header.version = kVersionV2;
  header.param_count = params.size();
  header.file_size = cursor;
  header.toc_offset = sizeof(V2Header);
  header.toc_size = params.size() * sizeof(V2Entry);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  for (const V2Entry& entry : toc) {
    out.write(reinterpret_cast<const char*>(&entry), sizeof(entry));
  }
  uint64_t written = sizeof(V2Header) + header.toc_size;
  for (size_t i = 0; i < params.size(); ++i) {
    const V2Entry& entry = toc[i];
    if (util::Status pad = WriteZeroPadding(out, entry.data_offset - written);
        !pad.ok()) {
      return pad;
    }
    out.write(
        reinterpret_cast<const char*>(std::as_const(params[i]->value).data()),
        static_cast<std::streamsize>(entry.data_bytes));
    written = entry.data_offset + entry.data_bytes;
  }
  if (util::Status pad = WriteZeroPadding(out, cursor - written); !pad.ok()) {
    return pad;
  }
  if (!out) return util::Status::IoError("failed writing " + path);
  return util::Status::Ok();
}

util::Status LoadParameters(const std::string& path,
                            const ParameterList& params) {
  auto opened = util::MmapFile::Open(path);
  if (!opened.ok()) return opened.status();
  std::shared_ptr<util::MmapFile> file = opened.value();
  const uint8_t* base = file->data();
  const uint64_t size = file->size();

  // Magic and version first, so a file of another version is named as such
  // rather than reported as a short or corrupt v2 file.
  uint32_t magic = 0;
  uint32_t version = 0;
  if (size < sizeof(magic) + sizeof(version)) {
    return util::Status::InvalidArgument(path + " is not a doduo checkpoint");
  }
  std::memcpy(&magic, base, sizeof(magic));
  std::memcpy(&version, base + sizeof(magic), sizeof(version));
  if (magic != kMagic) {
    return util::Status::InvalidArgument(path + " is not a doduo checkpoint");
  }
  if (version != kVersionV2) {
    return util::Status::InvalidArgument(
        "unsupported checkpoint version " + std::to_string(version) + " in " +
        path + "; only version 2 can be loaded");
  }

  // Header: every downstream extent is checked against `size` (from fstat,
  // the only trusted length) before it is dereferenced.
  if (size < sizeof(V2Header)) {
    return CorruptV2(path, "file smaller than the header");
  }
  V2Header header;
  std::memcpy(&header, base, sizeof(header));
  if (header.param_count > kMaxParameters) {
    return CorruptV2(path, "implausible parameter count " +
                               std::to_string(header.param_count));
  }
  if (header.file_size != size) {
    return CorruptV2(path, "recorded size " +
                               std::to_string(header.file_size) +
                               " != actual size " + std::to_string(size));
  }
  if (header.toc_offset != sizeof(V2Header)) {
    return CorruptV2(path, "unexpected TOC offset");
  }
  if (header.toc_size != header.param_count * sizeof(V2Entry)) {
    return CorruptV2(path, "TOC size does not match parameter count");
  }
  if (header.toc_offset + header.toc_size > size) {
    return CorruptV2(path, "TOC extends past end of file");
  }

  // TOC: validate names, shapes, and byte extents; index by name.
  std::map<std::string, V2Parsed> entries;
  for (uint64_t e = 0; e < header.param_count; ++e) {
    V2Parsed parsed;
    std::memcpy(&parsed.entry, base + header.toc_offset + e * sizeof(V2Entry),
                sizeof(V2Entry));
    const V2Entry& entry = parsed.entry;
    const std::string where = " (entry " + std::to_string(e) + ")";
    const void* nul = std::memchr(entry.name, '\0', kV2NameBytes);
    if (nul == nullptr || nul == entry.name) {
      return CorruptV2(path, "bad parameter name" + where);
    }
    const std::string name(entry.name);
    if (entry.dtype != kV2DtypeF32) {
      return CorruptV2(path, "unsupported dtype " +
                                 std::to_string(entry.dtype) + " for '" +
                                 name + "'" + where);
    }
    if (entry.ndim < 1 || entry.ndim > kV2MaxDims) {
      return CorruptV2(path, "bad rank for '" + name + "'" + where);
    }
    int64_t volume = 1;
    for (uint32_t d = 0; d < kV2MaxDims; ++d) {
      const uint64_t extent = entry.dims[d];
      if (d >= entry.ndim) {
        if (extent != 0) {
          return CorruptV2(path, "nonzero unused dim for '" + name + "'" +
                                     where);
        }
        continue;
      }
      if (extent == 0 || extent > static_cast<uint64_t>(kMaxElements) ||
          volume > kMaxElements / static_cast<int64_t>(extent)) {
        return CorruptV2(path, "bad shape for '" + name + "'" + where);
      }
      parsed.shape.push_back(static_cast<int64_t>(extent));
      volume *= static_cast<int64_t>(extent);
    }
    // Section extent: aligned, in-bounds, and exactly the size the shape
    // implies. All arithmetic stays in uint64 with the subtraction form of
    // the bound check, so a huge offset cannot wrap.
    if (entry.data_offset % kV2Align != 0 || entry.data_offset > size ||
        entry.data_bytes > size - entry.data_offset) {
      return CorruptV2(path, "data section out of bounds for '" + name +
                                 "'" + where);
    }
    if (entry.data_bytes != static_cast<uint64_t>(volume) * sizeof(float)) {
      return CorruptV2(path, "data size mismatch for '" + name + "'" + where);
    }
    if (entry.reserved2[0] != 0 || entry.reserved2[1] != 0) {
      return CorruptV2(path, "nonzero reserved field for '" + name + "'" +
                                 where);
    }
    if (!entries.emplace(name, std::move(parsed)).second) {
      return CorruptV2(path, "duplicate parameter '" + name + "'" + where);
    }
  }

  // Match against the model: names 1:1, shapes exact.
  for (Parameter* p : params) {
    auto it = entries.find(p->name);
    if (it == entries.end()) {
      return util::Status::InvalidArgument(
          "parameter name mismatch: model '" + p->name +
          "' not found in checkpoint");
    }
    V2Parsed& parsed = it->second;
    if (!SameExtents(parsed.shape, p->value)) {
      return util::Status::InvalidArgument("shape mismatch for " + p->name);
    }
    // Zero-copy: the tensor aliases the mapping, pinned by `file`.
    p->value = Tensor::Borrowed(
        parsed.shape,
        reinterpret_cast<const float*>(base + parsed.entry.data_offset), file);
    p->BumpRevision();
    parsed.used = true;
  }
  for (const auto& [name, parsed] : entries) {
    if (!parsed.used) {
      return util::Status::InvalidArgument(
          "checkpoint parameter '" + name +
          "' has no matching model parameter");
    }
  }
  (file->mapped() ? BytesMappedCounter() : BytesCopiedCounter())
      ->Increment(size);
  return util::Status::Ok();
}

}  // namespace doduo::nn
