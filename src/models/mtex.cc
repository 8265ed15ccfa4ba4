#include "models/mtex.h"

#include <cmath>

#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "util/rng.h"

namespace dcam {
namespace models {

MtexConfig MtexConfig::Scaled(int factor) const {
  DCAM_CHECK_GT(factor, 0);
  MtexConfig out = *this;
  out.block1_filters1 = std::max(1, block1_filters1 / factor);
  out.block1_filters2 = std::max(1, block1_filters2 / factor);
  out.block2_filters = std::max(1, block2_filters / factor);
  return out;
}

MtexCnn::MtexCnn(int dims, int length, int num_classes,
                 const MtexConfig& config, Rng* rng)
    : dims_(dims), length_(length), num_classes_(num_classes),
      config_(config) {
  DCAM_CHECK_GT(dims, 0);
  DCAM_CHECK_GE(length, 4) << "two halving pools need n >= 4";
  DCAM_CHECK_GT(num_classes, 1);
  const int f1 = config.block1_filters1;
  const int f2 = config.block1_filters2;
  const int f3 = config.block2_filters;
  const int n2 = length / 2;
  const int n4 = n2 / 2;

  block1_.Emplace<nn::Conv2d>(1, f1, 1, 7, 0, 3, rng);
  block1_.Emplace<nn::ReLU>();
  block1_.Emplace<nn::MaxPool2d>(1, 2, 1, 2, 0, 0);
  block1_.Emplace<nn::Conv2d>(f1, f2, 1, 5, 0, 2, rng);
  block1_.Emplace<nn::ReLU>();
  block1_cam_layer_ = block1_.num_layers() - 1;  // (B, f2, D, n/2)
  block1_.Emplace<nn::MaxPool2d>(1, 2, 1, 2, 0, 0);

  block2_.Emplace<nn::Conv2d>(f2, f3, dims, 1, 0, 0, rng);  // merge dimensions
  block2_.Emplace<nn::ReLU>();
  block2_.Emplace<nn::Conv2d>(f3, f3, 1, 3, 0, 1, rng);
  block2_.Emplace<nn::ReLU>();
  block2_cam_layer_ = block2_.num_layers() - 1;  // (B, f3, 1, n/4)
  block2_.Emplace<nn::Flatten>();
  block2_.Emplace<nn::Dense>(f3 * n4, num_classes, rng);
}

Tensor MtexCnn::PrepareInput(const Tensor& batch) const {
  DCAM_CHECK_EQ(batch.dim(1), dims_);
  DCAM_CHECK_EQ(batch.dim(2), length_);
  return PrepareConvInput(batch, InputMode::kSeparate);
}

Tensor MtexCnn::Forward(const Tensor& input, bool training) {
  cached_block1_out_ = block1_.Forward(input, training);
  return block2_.Forward(cached_block1_out_, training);
}

Tensor MtexCnn::Backward(const Tensor& grad_logits) {
  Tensor g = block2_.Backward(grad_logits);
  return block1_.Backward(g);
}

std::unique_ptr<Model> MtexCnn::CloneArchitecture() const {
  Rng rng(0);
  return std::make_unique<MtexCnn>(dims_, length_, num_classes_, config_,
                                   &rng);
}

std::vector<nn::Parameter*> MtexCnn::Params() {
  std::vector<nn::Parameter*> params = block1_.Params();
  for (nn::Parameter* p : block2_.Params()) params.push_back(p);
  return params;
}

std::vector<std::pair<std::string, Tensor*>> MtexCnn::Buffers() {
  std::vector<std::pair<std::string, Tensor*>> buffers = block1_.Buffers();
  for (auto& b : block2_.Buffers()) buffers.push_back(std::move(b));
  return buffers;
}

Tensor MtexCnn::Explain(const Tensor& series, int class_idx) {
  DCAM_CHECK_EQ(series.rank(), 2);
  DCAM_CHECK_EQ(series.dim(0), dims_);
  DCAM_CHECK_EQ(series.dim(1), length_);
  DCAM_CHECK_GE(class_idx, 0);
  DCAM_CHECK_LT(class_idx, num_classes_);

  Tensor batch = series.Reshape({1, series.dim(0), series.dim(1)});
  nn::GradientScope recording;  // the Backward below reads the forward's caches
  Tensor logits = Forward(PrepareInput(batch), /*training=*/false);

  // Backward a one-hot gradient of the target class score.
  Tensor onehot({1, static_cast<int64_t>(num_classes_)});
  onehot.at(0, class_idx) = 1.0f;
  Backward(onehot);

  // grad-CAM on block 1 (per-dimension map at half resolution).
  const Tensor& act1 = block1_.layer_output(block1_cam_layer_);
  const Tensor& grad1 = block1_.layer_output_grad(block1_cam_layer_);
  const int64_t f2 = act1.dim(1), D = act1.dim(2), n2 = act1.dim(3);
  Tensor dim_map({D, n2});
  {
    std::vector<float> alpha(f2, 0.0f);
    const float inv = 1.0f / static_cast<float>(D * n2);
    for (int64_t m = 0; m < f2; ++m) {
      double acc = 0.0;
      for (int64_t d = 0; d < D; ++d) {
        for (int64_t t = 0; t < n2; ++t) acc += grad1.at(0, m, d, t);
      }
      alpha[m] = static_cast<float>(acc) * inv;
    }
    for (int64_t d = 0; d < D; ++d) {
      for (int64_t t = 0; t < n2; ++t) {
        float v = 0.0f;
        for (int64_t m = 0; m < f2; ++m) v += alpha[m] * act1.at(0, m, d, t);
        dim_map.at(d, t) = v > 0.0f ? v : 0.0f;  // grad-CAM ReLU
      }
    }
  }

  // grad-CAM on block 2 (temporal map at quarter resolution).
  const Tensor& act2 = block2_.layer_output(block2_cam_layer_);
  const Tensor& grad2 = block2_.layer_output_grad(block2_cam_layer_);
  const int64_t f3 = act2.dim(1), n4 = act2.dim(3);
  std::vector<float> time_map(n4, 0.0f);
  {
    std::vector<float> alpha(f3, 0.0f);
    const float inv = 1.0f / static_cast<float>(n4);
    for (int64_t m = 0; m < f3; ++m) {
      double acc = 0.0;
      for (int64_t t = 0; t < n4; ++t) acc += grad2.at(0, m, 0, t);
      alpha[m] = static_cast<float>(acc) * inv;
    }
    for (int64_t t = 0; t < n4; ++t) {
      float v = 0.0f;
      for (int64_t m = 0; m < f3; ++m) v += alpha[m] * act2.at(0, m, 0, t);
      time_map[t] = v > 0.0f ? v : 0.0f;
    }
  }

  // Nearest-neighbour upsample both maps to (D, n) and combine.
  Tensor out({static_cast<int64_t>(dims_), static_cast<int64_t>(length_)});
  for (int64_t d = 0; d < dims_; ++d) {
    for (int64_t t = 0; t < length_; ++t) {
      const int64_t t2 = std::min(n2 - 1, t * n2 / length_);
      const int64_t t4 = std::min(n4 - 1, t * n4 / length_);
      out.at(d, t) = dim_map.at(d, t2) * time_map[t4];
    }
  }
  (void)logits;
  return out;
}

}  // namespace models
}  // namespace dcam
