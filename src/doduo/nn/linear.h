#ifndef DODUO_NN_LINEAR_H_
#define DODUO_NN_LINEAR_H_

#include <cstdint>
#include <string>

#include "doduo/nn/parameter.h"
#include "doduo/nn/tensor.h"
#include "doduo/util/rng.h"

namespace doduo::nn {

/// Fully connected layer y = x·W + b with explicit backward.
///
/// Layers cache the most recent forward input, so a given instance must be
/// used at most once per forward pass (the Transformer allocates one
/// instance per call site). Gradients accumulate across Backward calls until
/// the optimizer zeroes them, which implements mini-batching by gradient
/// accumulation.
class Linear {
 public:
  /// Xavier-uniform initialized weight [in, out] and zero bias [out]. Pass
  /// rng == nullptr to skip initialization (weight stays zero and no random
  /// draws are consumed) when the caller applies its own init scheme.
  Linear(std::string name, int64_t in_features, int64_t out_features,
         util::Rng* rng);

  /// x: [m, in] → returns [m, out]. The returned reference is owned by the
  /// layer and valid until the next Forward call.
  const Tensor& Forward(const Tensor& x);

  /// Forward without the bias term: returns x·W and caches x, leaving the
  /// bias to a fused epilogue (see BiasGeluForward). The returned tensor is
  /// mutable so the epilogue can add the bias in place; Backward is
  /// unchanged (db = column-sum of the output gradient either way).
  Tensor& ForwardNoBias(const Tensor& x);

  /// Forward without caching, for inference-only paths.
  void ForwardInto(const Tensor& x, Tensor* out) const;

  /// grad_out: [m, out] → returns d(loss)/d(x) [m, in]; accumulates the
  /// weight/bias gradients.
  const Tensor& Backward(const Tensor& grad_out);

  /// Accumulates only the weight/bias gradients, for callers that compute
  /// d(loss)/d(x) themselves (the packed-QKV attention sums the input
  /// gradient per column band to preserve the split-projection FP order).
  void AccumulateParameterGradients(const Tensor& grad_out);

  ParameterList Parameters() { return {&w_, &b_}; }

  int64_t in_features() const { return w_.value.rows(); }
  int64_t out_features() const { return w_.value.cols(); }

  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }

 private:
  Parameter w_;  // [in, out]
  Parameter b_;  // [out]
  Tensor cached_input_;
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace doduo::nn

#endif  // DODUO_NN_LINEAR_H_
