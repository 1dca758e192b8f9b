#ifndef DODUO_TESTS_NN_LEGACY_CHECKPOINT_H_
#define DODUO_TESTS_NN_LEGACY_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>

#include "doduo/nn/parameter.h"

namespace doduo::nn {

/// The bytes of a checkpoint in the retired v1 stream layout — magic
/// "DODU", version 1, parameter count, then per parameter its name length
/// and name, rank and extents, and the raw fp32 payload. The library no
/// longer reads or writes this format; tests use it to check that such
/// files, whole, cut or corrupted, are refused cleanly.
inline std::string LegacyV1CheckpointBytes(const ParameterList& params) {
  std::string bytes;
  auto append = [&bytes](const auto& value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  append(uint32_t{0x444F4455});
  append(uint32_t{1});
  append(static_cast<uint64_t>(params.size()));
  for (const Parameter* p : params) {
    append(static_cast<uint64_t>(p->name.size()));
    bytes += p->name;
    append(static_cast<uint32_t>(p->value.ndim()));
    for (int i = 0; i < p->value.ndim(); ++i) {
      append(static_cast<uint64_t>(p->value.dim(i)));
    }
    bytes.append(
        reinterpret_cast<const char*>(std::as_const(p->value).data()),
        static_cast<size_t>(p->value.size()) * sizeof(float));
  }
  return bytes;
}

}  // namespace doduo::nn

#endif  // DODUO_TESTS_NN_LEGACY_CHECKPOINT_H_
