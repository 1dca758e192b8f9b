#ifndef DODUO_NN_PARAMETER_H_
#define DODUO_NN_PARAMETER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "doduo/nn/tensor.h"

namespace doduo::nn {

/// A trainable tensor with its gradient accumulator. Layers own their
/// Parameters; optimizers work on a flat list of pointers collected via
/// ParameterList and keep their own moment state, so several optimizers
/// (e.g. one per task, as in the paper's Algorithm 1) can drive the same
/// parameters.
///
/// `revision` counts value overwrites: every writer that replaces or steps
/// the weights (checkpoint load, optimizer step, snapshot restore) bumps it,
/// so a holder of anything derived from the weights can compare revisions to
/// tell whether it is stale. The counter only increases, so a bump is always
/// safe.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  uint64_t revision = 0;

  Parameter() = default;
  Parameter(std::string param_name, std::vector<int64_t> shape)
      : name(std::move(param_name)), value(shape), grad(std::move(shape)) {}

  /// Records that `value` was overwritten.
  void BumpRevision() { ++revision; }

  /// Zeroes the gradient accumulator.
  void ZeroGrad() { grad.Zero(); }
};

/// Flat, ordered collection of parameter pointers. Layers append their
/// parameters; the order is the (de)serialization order, so it must be
/// deterministic for a given model configuration.
using ParameterList = std::vector<Parameter*>;

/// Appends `params` of one layer to `out`.
inline void AppendParameters(const ParameterList& params, ParameterList* out) {
  out->insert(out->end(), params.begin(), params.end());
}

/// Total number of scalar weights across the list.
int64_t ParameterCount(const ParameterList& params);

/// Zeroes every gradient in the list.
void ZeroAllGrads(const ParameterList& params);

/// Global L2 norm of all gradients (for grad-clipping diagnostics).
double GradientNorm(const ParameterList& params);

/// Scales all gradients by `clip_norm / norm` when norm > clip_norm.
/// Returns the pre-clip norm.
double ClipGradientNorm(const ParameterList& params, double clip_norm);

}  // namespace doduo::nn

#endif  // DODUO_NN_PARAMETER_H_
