#include "cam/saliency.h"

#include <cmath>

#include "util/rng.h"

namespace dcam {
namespace cam {
namespace {

// Folds the gradient w.r.t. the model's prepared input back to the raw
// (D, n) layout. The layout is recognized from the prepared shape, which is
// unambiguous across the model zoo:
//   (1, D, n)     recurrent      identity
//   (1, D, 1, n)  standard conv  squeeze axis 2
//   (1, 1, D, n)  c-variants     squeeze axis 1
//   (1, D, D, n)  d-variants     raw[j][t] = sum_{(p+r)%D==j} cube[p][r][t]
Tensor FoldToRaw(const Tensor& grad_prepared, int64_t dims, int64_t length) {
  if (grad_prepared.rank() == 3) {
    DCAM_CHECK_EQ(grad_prepared.dim(1), dims);
    DCAM_CHECK_EQ(grad_prepared.dim(2), length);
    return grad_prepared.Reshape({dims, length}).Clone();
  }
  DCAM_CHECK_EQ(grad_prepared.rank(), 4);
  DCAM_CHECK_EQ(grad_prepared.dim(0), 1);
  DCAM_CHECK_EQ(grad_prepared.dim(3), length);
  const int64_t c = grad_prepared.dim(1);
  const int64_t h = grad_prepared.dim(2);
  Tensor raw({dims, length});
  if (c == dims && h == 1) {
    for (int64_t j = 0; j < dims; ++j) {
      for (int64_t t = 0; t < length; ++t) {
        raw.at(j, t) = grad_prepared.at(0, j, 0, t);
      }
    }
    return raw;
  }
  if (c == 1 && h == dims) {
    for (int64_t j = 0; j < dims; ++j) {
      for (int64_t t = 0; t < length; ++t) {
        raw.at(j, t) = grad_prepared.at(0, 0, j, t);
      }
    }
    return raw;
  }
  DCAM_CHECK(c == dims && h == dims)
      << "unrecognized prepared-input shape " <<
      ShapeToString(grad_prepared.shape());
  for (int64_t p = 0; p < dims; ++p) {
    for (int64_t r = 0; r < dims; ++r) {
      const int64_t j = (p + r) % dims;
      for (int64_t t = 0; t < length; ++t) {
        raw.at(j, t) += grad_prepared.at(0, p, r, t);
      }
    }
  }
  return raw;
}

}  // namespace

Tensor InputGradient(models::Model* model, const Tensor& series,
                     int class_idx) {
  DCAM_CHECK(model != nullptr);
  DCAM_CHECK_EQ(series.rank(), 2);
  DCAM_CHECK_GE(class_idx, 0);
  DCAM_CHECK_LT(class_idx, model->num_classes());
  const int64_t d = series.dim(0);
  const int64_t n = series.dim(1);

  const Tensor batch = series.Reshape({1, d, n});
  const Tensor prepared = model->PrepareInput(batch);
  nn::GradientScope recording;  // the Backward below reads the forward's caches
  const Tensor logits = model->Forward(prepared, /*training=*/false);
  DCAM_CHECK_EQ(logits.dim(0), 1);

  Tensor grad_logits(logits.shape());
  grad_logits.at(0, class_idx) = 1.0f;
  for (nn::Parameter* p : model->Params()) p->ZeroGrad();
  const Tensor grad_prepared = model->Backward(grad_logits);
  // Parameter gradients accumulated by this probe are meaningless to the
  // caller; clear them so an interleaved training step is not polluted.
  for (nn::Parameter* p : model->Params()) p->ZeroGrad();
  return FoldToRaw(grad_prepared, d, n);
}

Tensor GradientSaliency(models::Model* model, const Tensor& series,
                        int class_idx) {
  Tensor g = InputGradient(model, series, class_idx);
  for (int64_t i = 0; i < g.size(); ++i) g[i] = std::fabs(g[i]);
  return g;
}

Tensor GradientTimesInput(models::Model* model, const Tensor& series,
                          int class_idx) {
  Tensor g = InputGradient(model, series, class_idx);
  for (int64_t i = 0; i < g.size(); ++i) g[i] *= series[i];
  return g;
}

Tensor SmoothGrad(models::Model* model, const Tensor& series, int class_idx,
                  const SmoothGradOptions& options) {
  DCAM_CHECK_GE(options.samples, 1);
  DCAM_CHECK_GE(options.noise_fraction, 0.0f);
  const float range = series.Max() - series.Min();
  const float stddev = options.noise_fraction * (range > 0.0f ? range : 1.0f);
  Rng rng(options.seed);

  Tensor acc(series.shape());
  for (int s = 0; s < options.samples; ++s) {
    Tensor noisy = series.Clone();
    for (int64_t i = 0; i < noisy.size(); ++i) {
      noisy[i] += static_cast<float>(rng.Normal(0.0, stddev));
    }
    const Tensor g = InputGradient(model, noisy, class_idx);
    for (int64_t i = 0; i < acc.size(); ++i) acc[i] += std::fabs(g[i]);
  }
  const float inv = 1.0f / static_cast<float>(options.samples);
  for (int64_t i = 0; i < acc.size(); ++i) acc[i] *= inv;
  return acc;
}

Tensor IntegratedGradients(models::Model* model, const Tensor& series,
                           int class_idx,
                           const IntegratedGradientsOptions& options) {
  DCAM_CHECK_GE(options.steps, 1);
  Tensor baseline = options.baseline;
  if (baseline.empty()) {
    baseline = Tensor(series.shape());  // zeros
  }
  DCAM_CHECK(baseline.shape() == series.shape());

  Tensor acc(series.shape());
  for (int s = 0; s < options.steps; ++s) {
    // Midpoint rule: alpha at the center of each sub-interval.
    const float alpha =
        (static_cast<float>(s) + 0.5f) / static_cast<float>(options.steps);
    Tensor point(series.shape());
    for (int64_t i = 0; i < point.size(); ++i) {
      point[i] = baseline[i] + alpha * (series[i] - baseline[i]);
    }
    const Tensor g = InputGradient(model, point, class_idx);
    for (int64_t i = 0; i < acc.size(); ++i) acc[i] += g[i];
  }
  const float inv = 1.0f / static_cast<float>(options.steps);
  for (int64_t i = 0; i < acc.size(); ++i) {
    acc[i] *= inv * (series[i] - baseline[i]);
  }
  return acc;
}

}  // namespace cam
}  // namespace dcam
