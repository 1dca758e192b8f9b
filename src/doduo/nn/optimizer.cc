#include "doduo/nn/optimizer.h"

#include <cmath>

namespace doduo::nn {

LinearDecaySchedule::LinearDecaySchedule(double initial_lr,
                                         int64_t total_steps,
                                         int64_t warmup_steps)
    : initial_lr_(initial_lr),
      total_steps_(total_steps),
      warmup_steps_(warmup_steps) {
  DODUO_CHECK_GT(total_steps, 0);
  DODUO_CHECK_GE(warmup_steps, 0);
}

double LinearDecaySchedule::LearningRate(int64_t step) const {
  if (warmup_steps_ > 0 && step < warmup_steps_) {
    return initial_lr_ * static_cast<double>(step + 1) /
           static_cast<double>(warmup_steps_);
  }
  const double remaining =
      static_cast<double>(total_steps_ - step) /
      static_cast<double>(std::max<int64_t>(1, total_steps_ - warmup_steps_));
  return initial_lr_ * std::max(0.0, remaining);
}

Adam::Adam(ParameterList params, AdamOptions options)
    : params_(std::move(params)), options_(options) {
  moment1_.reserve(params_.size());
  moment2_.reserve(params_.size());
  for (Parameter* p : params_) {
    DODUO_CHECK(p != nullptr);
    moment1_.emplace_back(p->value.shape());
    moment2_.emplace_back(p->value.shape());
  }
}

void Adam::Step(double learning_rate) {
  if (options_.clip_norm > 0.0) {
    ClipGradientNorm(params_, options_.clip_norm);
  }
  ++step_count_;
  const double bias1 =
      1.0 - std::pow(options_.beta1, static_cast<double>(step_count_));
  const double bias2 =
      1.0 - std::pow(options_.beta2, static_cast<double>(step_count_));
  const float beta1 = static_cast<float>(options_.beta1);
  const float beta2 = static_cast<float>(options_.beta2);
  const float one_minus_beta1 = 1.0f - beta1;
  const float one_minus_beta2 = 1.0f - beta2;
  const float eps = static_cast<float>(options_.epsilon);
  const float lr = static_cast<float>(learning_rate);
  const float decay = static_cast<float>(options_.weight_decay);

  for (size_t pi = 0; pi < params_.size(); ++pi) {
    Parameter* p = params_[pi];
    float* value = p->value.data();
    float* grad = p->grad.data();
    float* m = moment1_[pi].data();
    float* v = moment2_[pi].data();
    const int64_t n = p->value.size();
    for (int64_t i = 0; i < n; ++i) {
      float g = grad[i];
      if (decay > 0.0f) g += decay * value[i];  // decoupled L2 (AdamW-style)
      m[i] = beta1 * m[i] + one_minus_beta1 * g;
      v[i] = beta2 * v[i] + one_minus_beta2 * g * g;
      const float m_hat = m[i] / static_cast<float>(bias1);
      const float v_hat = v[i] / static_cast<float>(bias2);
      value[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
      grad[i] = 0.0f;
    }
    p->BumpRevision();
  }
}

}  // namespace doduo::nn
