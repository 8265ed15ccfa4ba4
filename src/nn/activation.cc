#include "nn/activation.h"

#include <cmath>

namespace dcam {
namespace nn {

Tensor ReLU::Forward(const Tensor& input, bool training) {
  cached_input_ = RecordsForBackward(training) ? input : Tensor();
  Tensor out(input.shape());
  const float* in = input.data();
  float* o = out.data();
  for (int64_t i = 0; i < input.size(); ++i) {
    o[i] = in[i] > 0.0f ? in[i] : 0.0f;
  }
  return out;
}

Tensor ReLU::Backward(const Tensor& grad_output) {
  DCAM_CHECK(!cached_input_.empty()) << "Backward before Forward";
  DCAM_CHECK(grad_output.shape() == cached_input_.shape());
  Tensor grad_in(grad_output.shape());
  const float* g = grad_output.data();
  const float* in = cached_input_.data();
  float* q = grad_in.data();
  for (int64_t i = 0; i < grad_output.size(); ++i) {
    q[i] = in[i] > 0.0f ? g[i] : 0.0f;
  }
  return grad_in;
}

Tensor Tanh::Forward(const Tensor& input, bool /*training*/) {
  Tensor out(input.shape());
  const float* in = input.data();
  float* o = out.data();
  for (int64_t i = 0; i < input.size(); ++i) o[i] = std::tanh(in[i]);
  cached_output_ = out;
  return out;
}

Tensor Tanh::Backward(const Tensor& grad_output) {
  DCAM_CHECK(!cached_output_.empty()) << "Backward before Forward";
  Tensor grad_in(grad_output.shape());
  const float* g = grad_output.data();
  const float* y = cached_output_.data();
  float* q = grad_in.data();
  for (int64_t i = 0; i < grad_output.size(); ++i) {
    q[i] = g[i] * (1.0f - y[i] * y[i]);
  }
  return grad_in;
}

Tensor Sigmoid::Forward(const Tensor& input, bool /*training*/) {
  Tensor out(input.shape());
  const float* in = input.data();
  float* o = out.data();
  for (int64_t i = 0; i < input.size(); ++i) {
    o[i] = 1.0f / (1.0f + std::exp(-in[i]));
  }
  cached_output_ = out;
  return out;
}

Tensor Sigmoid::Backward(const Tensor& grad_output) {
  DCAM_CHECK(!cached_output_.empty()) << "Backward before Forward";
  Tensor grad_in(grad_output.shape());
  const float* g = grad_output.data();
  const float* y = cached_output_.data();
  float* q = grad_in.data();
  for (int64_t i = 0; i < grad_output.size(); ++i) {
    q[i] = g[i] * y[i] * (1.0f - y[i]);
  }
  return grad_in;
}

LeakyReLU::LeakyReLU(float slope) : slope_(slope) {
  DCAM_CHECK_GE(slope, 0.0f);
  DCAM_CHECK_LT(slope, 1.0f);
}

Tensor LeakyReLU::Forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor out(input.shape());
  const float* in = input.data();
  float* o = out.data();
  for (int64_t i = 0; i < input.size(); ++i) {
    o[i] = in[i] > 0.0f ? in[i] : slope_ * in[i];
  }
  return out;
}

Tensor LeakyReLU::Backward(const Tensor& grad_output) {
  DCAM_CHECK(!cached_input_.empty()) << "Backward before Forward";
  DCAM_CHECK(grad_output.shape() == cached_input_.shape());
  Tensor grad_in(grad_output.shape());
  const float* g = grad_output.data();
  const float* in = cached_input_.data();
  float* q = grad_in.data();
  for (int64_t i = 0; i < grad_output.size(); ++i) {
    q[i] = in[i] > 0.0f ? g[i] : slope_ * g[i];
  }
  return grad_in;
}

}  // namespace nn
}  // namespace dcam
