#include "nn/batchnorm.h"

#include <cmath>

namespace dcam {
namespace nn {
namespace {

// Decomposes a (B, C, spatial...) tensor into (B, C, S) indices.
struct Dims {
  int64_t batch;
  int64_t channels;
  int64_t spatial;
};

Dims SplitDims(const Tensor& t, int num_features) {
  DCAM_CHECK(t.rank() == 3 || t.rank() == 4)
      << "BatchNorm expects rank 3 or 4, got " << ShapeToString(t.shape());
  DCAM_CHECK_EQ(t.dim(1), num_features);
  int64_t spatial = t.dim(2);
  if (t.rank() == 4) spatial *= t.dim(3);
  return {t.dim(0), t.dim(1), spatial};
}

// x-hat, written once so that Backward's recomputation rounds exactly as
// Forward did.
float Normalize(float x, float mean, float invstd) {
  return (x - mean) * invstd;
}

}  // namespace

BatchNorm::BatchNorm(int num_features, float momentum, float eps)
    : num_features_(num_features),
      momentum_(momentum),
      eps_(eps),
      gamma_("bn.gamma", {num_features}),
      beta_("bn.beta", {num_features}),
      running_mean_({num_features}),
      running_var_({num_features}) {
  gamma_.value.Fill(1.0f);
  running_var_.Fill(1.0f);
}

Tensor BatchNorm::Forward(const Tensor& input, bool training) {
  const Dims d = SplitDims(input, num_features_);
  const int64_t N = d.batch * d.spatial;
  DCAM_CHECK_GT(N, 0);
  // Drop the previous forward's input before allocating this one's output;
  // only a recorded forward keeps its own.
  cached_input_ = Tensor();
  cached_training_ = training;

  Tensor out(input.shape());
  EnsureTensorShape(&cached_mean_, {num_features_});
  EnsureTensorShape(&cached_invstd_, {num_features_});
  const float* in = input.data();
  float* o = out.data();

  for (int64_t c = 0; c < d.channels; ++c) {
    double mean, var;
    if (training) {
      double sum = 0.0, sq = 0.0;
      for (int64_t b = 0; b < d.batch; ++b) {
        const float* p = in + (b * d.channels + c) * d.spatial;
        for (int64_t s = 0; s < d.spatial; ++s) {
          sum += p[s];
          sq += static_cast<double>(p[s]) * p[s];
        }
      }
      mean = sum / N;
      var = sq / N - mean * mean;
      if (var < 0.0) var = 0.0;  // numeric guard
      running_mean_[c] = (1.0f - momentum_) * running_mean_[c] +
                         momentum_ * static_cast<float>(mean);
      running_var_[c] = (1.0f - momentum_) * running_var_[c] +
                        momentum_ * static_cast<float>(var);
    } else {
      mean = running_mean_[c];
      var = running_var_[c];
    }
    const float invstd = static_cast<float>(1.0 / std::sqrt(var + eps_));
    const float m = static_cast<float>(mean);
    cached_mean_[c] = m;
    cached_invstd_[c] = invstd;
    const float g = gamma_.value[c], bt = beta_.value[c];
    for (int64_t b = 0; b < d.batch; ++b) {
      const float* p = in + (b * d.channels + c) * d.spatial;
      float* q = o + (b * d.channels + c) * d.spatial;
      for (int64_t s = 0; s < d.spatial; ++s) {
        q[s] = g * Normalize(p[s], m, invstd) + bt;
      }
    }
  }
  if (RecordsForBackward(training)) cached_input_ = input;
  return out;
}

Tensor BatchNorm::Backward(const Tensor& grad_output) {
  DCAM_CHECK(!cached_input_.empty()) << "Backward before Forward";
  DCAM_CHECK(grad_output.shape() == cached_input_.shape());
  const Dims d = SplitDims(grad_output, num_features_);
  const int64_t N = d.batch * d.spatial;

  Tensor grad_in(grad_output.shape());
  const float* go = grad_output.data();
  const float* in = cached_input_.data();
  float* gi = grad_in.data();

  for (int64_t c = 0; c < d.channels; ++c) {
    const float m = cached_mean_[c], invstd = cached_invstd_[c];
    double dbeta = 0.0, dgamma = 0.0;
    for (int64_t b = 0; b < d.batch; ++b) {
      const float* g = go + (b * d.channels + c) * d.spatial;
      const float* x = in + (b * d.channels + c) * d.spatial;
      for (int64_t s = 0; s < d.spatial; ++s) {
        dbeta += g[s];
        dgamma += static_cast<double>(g[s]) * Normalize(x[s], m, invstd);
      }
    }
    gamma_.grad[c] += static_cast<float>(dgamma);
    beta_.grad[c] += static_cast<float>(dbeta);

    const float g_scale = gamma_.value[c] * invstd;
    if (cached_training_) {
      // Full batch-statistics gradient.
      const float mean_dbeta = static_cast<float>(dbeta / N);
      const float mean_dgamma = static_cast<float>(dgamma / N);
      for (int64_t b = 0; b < d.batch; ++b) {
        const float* g = go + (b * d.channels + c) * d.spatial;
        const float* x = in + (b * d.channels + c) * d.spatial;
        float* q = gi + (b * d.channels + c) * d.spatial;
        for (int64_t s = 0; s < d.spatial; ++s) {
          q[s] = g_scale * (g[s] - mean_dbeta -
                            Normalize(x[s], m, invstd) * mean_dgamma);
        }
      }
    } else {
      // Running statistics are constants: plain scaling.
      for (int64_t b = 0; b < d.batch; ++b) {
        const float* g = go + (b * d.channels + c) * d.spatial;
        float* q = gi + (b * d.channels + c) * d.spatial;
        for (int64_t s = 0; s < d.spatial; ++s) q[s] = g_scale * g[s];
      }
    }
  }
  return grad_in;
}

std::vector<Parameter*> BatchNorm::Params() { return {&gamma_, &beta_}; }

}  // namespace nn
}  // namespace dcam
