// Shared finite-difference gradient checking harness for layer and model
// tests. The scalar objective is L = sum_i w_i * out_i for a fixed random
// weighting w, so dL/dout = w feeds Backward directly and every output
// element influences the loss.

#ifndef DCAM_TESTS_GRADCHECK_H_
#define DCAM_TESTS_GRADCHECK_H_

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/layer.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace dcam {
namespace testing {

inline double WeightedSum(const Tensor& out, const Tensor& w) {
  double s = 0.0;
  for (int64_t i = 0; i < out.size(); ++i) {
    s += static_cast<double>(out[i]) * w[i];
  }
  return s;
}

/// Compares analytic gradients of `layer` against central finite differences
/// for both the input and every parameter. `training` selects the forward
/// mode; an eval forward records for Backward inside the GradientScope the
/// check opens. Coordinates are subsampled (stride) to keep runtime bounded.
inline void CheckLayerGradients(nn::Layer* layer, const Shape& input_shape,
                                bool training, double eps = 1e-2,
                                double tol = 3e-2, uint64_t seed = 1234) {
  nn::GradientScope recording;
  Rng rng(seed);
  Tensor input(input_shape);
  input.FillNormal(&rng, 0.0f, 1.0f);

  Tensor out = layer->Forward(input, training);
  Tensor w(out.shape());
  w.FillNormal(&rng, 0.0f, 1.0f);

  for (nn::Parameter* p : layer->Params()) p->ZeroGrad();
  Tensor grad_in = layer->Backward(w);
  ASSERT_EQ(grad_in.shape(), input.shape());

  auto loss_with = [&](float* slot, float value) {
    const float saved = *slot;
    *slot = value;
    const double loss = WeightedSum(layer->Forward(input, training), w);
    *slot = saved;
    return loss;
  };

  auto check_tensor = [&](Tensor* values, const Tensor& analytic,
                          const char* what) {
    const int64_t n = values->size();
    const int64_t stride = std::max<int64_t>(1, n / 24);
    for (int64_t i = 0; i < n; i += stride) {
      float* slot = values->data() + i;
      const float v = *slot;
      const double lp = loss_with(slot, v + static_cast<float>(eps));
      const double lm = loss_with(slot, v - static_cast<float>(eps));
      const double numeric = (lp - lm) / (2.0 * eps);
      const double a = analytic[i];
      const double denom = std::max({1.0, std::abs(numeric), std::abs(a)});
      EXPECT_NEAR(a / denom, numeric / denom, tol)
          << what << " coordinate " << i << " analytic=" << a
          << " numeric=" << numeric;
    }
  };

  check_tensor(&input, grad_in, "input");
  for (nn::Parameter* p : layer->Params()) {
    check_tensor(&p->value, p->grad, p->name.c_str());
  }
  // Re-establish the original forward caches for any caller that continues.
  layer->Forward(input, training);
}

}  // namespace testing
}  // namespace dcam

#endif  // DCAM_TESTS_GRADCHECK_H_
