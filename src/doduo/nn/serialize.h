#ifndef DODUO_NN_SERIALIZE_H_
#define DODUO_NN_SERIALIZE_H_

#include <string>

#include "doduo/nn/parameter.h"
#include "doduo/util/status.h"

namespace doduo::nn {

/// Saves the parameters in the v2 checkpoint format (DESIGN §14): a
/// fixed-size little-endian header and table of contents followed by
/// 64-byte-aligned fp32 tensor sections, so a loader can mmap the file and
/// point tensors straight into it — no parse, no copy.
[[nodiscard]] util::Status SaveParametersV2(const std::string& path,
                                            const ParameterList& params);

/// Loads a checkpoint written by SaveParametersV2 into `params`. Entries are
/// matched by name (order-insensitive); shapes must match exactly, every
/// model parameter must be found, and every checkpoint entry must be
/// consumed.
///
/// The file is mmap-ed (MAP_SHARED | PROT_READ; DODUO_MMAP=0 falls back to
/// a heap read) and the tensors *borrow* the mapping — every byte extent is
/// validated against the file size before any allocation or dereference.
/// Any other checkpoint version (the retired v1 stream format included) is
/// refused with kInvalidArgument naming the version. After a load the
/// weights are read-only (inference); training them requires re-owning the
/// values first (Tensor::MaterializeOwned).
[[nodiscard]] util::Status LoadParameters(const std::string& path,
                                          const ParameterList& params);

}  // namespace doduo::nn

#endif  // DODUO_NN_SERIALIZE_H_
