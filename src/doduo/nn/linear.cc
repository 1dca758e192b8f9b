#include "doduo/nn/linear.h"

#include <cmath>

#include "doduo/nn/ops.h"

namespace doduo::nn {

Linear::Linear(std::string name, int64_t in_features, int64_t out_features,
               util::Rng* rng)
    : w_(name + ".w", {in_features, out_features}),
      b_(name + ".b", {out_features}) {
  if (rng != nullptr) {
    const float limit = std::sqrt(
        6.0f / static_cast<float>(in_features + out_features));
    w_.value.FillUniform(rng, limit);
  }
}

const Tensor& Linear::Forward(const Tensor& x) {
  cached_input_ = x;
  MatMul(x, w_.value, &output_);
  AddRowBroadcast(&output_, b_.value);
  return output_;
}

Tensor& Linear::ForwardNoBias(const Tensor& x) {
  cached_input_ = x;
  MatMul(x, w_.value, &output_);
  return output_;
}

void Linear::ForwardInto(const Tensor& x, Tensor* out) const {
  MatMul(x, w_.value, out);
  AddRowBroadcast(out, b_.value);
}

const Tensor& Linear::Backward(const Tensor& grad_out) {
  // dW += xᵀ · dy, db += column-sum(dy), dx = dy · Wᵀ.
  AccumulateParameterGradients(grad_out);
  MatMulTransposedB(grad_out, w_.value, &grad_input_);
  return grad_input_;
}

void Linear::AccumulateParameterGradients(const Tensor& grad_out) {
  DODUO_CHECK(!cached_input_.empty()) << "Backward before Forward";
  DODUO_CHECK_EQ(grad_out.rows(), cached_input_.rows());
  DODUO_CHECK_EQ(grad_out.cols(), w_.value.cols());
  MatMulTransposedAAccum(cached_input_, grad_out, &w_.grad);
  ColumnSumAccum(grad_out, &b_.grad);
}

}  // namespace doduo::nn
