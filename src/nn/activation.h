// Elementwise activation layers.

#ifndef DCAM_NN_ACTIVATION_H_
#define DCAM_NN_ACTIVATION_H_

#include <string>

#include "nn/layer.h"

namespace dcam {
namespace nn {

/// Rectified linear unit, y = max(x, 0).
class ReLU : public Layer {
 public:
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_input_;  // empty after an unrecorded forward
};

/// Hyperbolic tangent.
class Tanh : public Layer {
 public:
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string name() const override { return "Tanh"; }

 private:
  Tensor cached_output_;
};

/// Logistic sigmoid.
class Sigmoid : public Layer {
 public:
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string name() const override { return "Sigmoid"; }

 private:
  Tensor cached_output_;
};

/// Leaky rectified linear unit, y = x for x > 0, y = slope * x otherwise
/// (Xu et al., 2015 — one of the alternatives the paper's Section 2 names).
class LeakyReLU : public Layer {
 public:
  explicit LeakyReLU(float slope = 0.01f);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string name() const override { return "LeakyReLU"; }

  float slope() const { return slope_; }

 private:
  float slope_;
  Tensor cached_input_;
};

}  // namespace nn
}  // namespace dcam

#endif  // DCAM_NN_ACTIVATION_H_
