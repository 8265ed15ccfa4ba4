#include "models/cnn.h"

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "util/rng.h"

namespace dcam {
namespace models {

ConvNetConfig ConvNetConfig::Scaled(int factor) const {
  DCAM_CHECK_GT(factor, 0);
  ConvNetConfig out = *this;
  for (int& f : out.filters) f = std::max(1, f / factor);
  return out;
}

ConvNet::ConvNet(InputMode mode, int dims, int num_classes,
                 const ConvNetConfig& config, Rng* rng)
    : mode_(mode),
      dims_(dims),
      num_classes_(num_classes),
      config_(config),
      body_(/*capture=*/false) {
  DCAM_CHECK_GT(dims, 0);
  DCAM_CHECK_GT(num_classes, 1);
  DCAM_CHECK(!config.filters.empty());
  DCAM_CHECK_EQ(config.kernel % 2, 1) << "kernel must be odd (same padding)";
  const int pad = (config.kernel - 1) / 2;
  int in_ch = mode == InputMode::kSeparate ? 1 : dims;
  for (int f : config.filters) {
    body_.Emplace<nn::Conv2d>(in_ch, f, /*kh=*/1, /*kw=*/config.kernel,
                              /*ph=*/0, /*pw=*/pad, rng);
    body_.Emplace<nn::BatchNorm>(f);
    body_.Emplace<nn::ReLU>();
    in_ch = f;
  }
  dense_ = std::make_unique<nn::Dense>(config.filters.back(), num_classes, rng);
}

std::string ConvNet::name() const {
  switch (mode_) {
    case InputMode::kStandard:
      return "CNN";
    case InputMode::kSeparate:
      return "cCNN";
    case InputMode::kCube:
      return "dCNN";
  }
  return "?";
}

Tensor ConvNet::PrepareInput(const Tensor& batch) const {
  return PrepareConvInput(batch, mode_);
}

Tensor ConvNet::Forward(const Tensor& input, bool training) {
  activation_ = Tensor();  // the previous forward's, dropped before this one
  activation_ = body_.Forward(input, training);
  Tensor pooled = gap_.Forward(activation_, training);
  return dense_->Forward(pooled, training);
}

Tensor ConvNet::Backward(const Tensor& grad_logits) {
  Tensor g = dense_->Backward(grad_logits);
  g = gap_.Backward(g);
  return body_.Backward(g);
}

std::vector<nn::Parameter*> ConvNet::Params() {
  std::vector<nn::Parameter*> params = body_.Params();
  for (nn::Parameter* p : dense_->Params()) params.push_back(p);
  return params;
}

std::unique_ptr<Model> ConvNet::CloneArchitecture() const {
  // The init draws are overwritten by Clone's weight copy; any seed works.
  Rng rng(0);
  return std::make_unique<ConvNet>(mode_, dims_, num_classes_, config_, &rng);
}

std::vector<std::pair<std::string, Tensor*>> ConvNet::Buffers() {
  return body_.Buffers();
}

}  // namespace models
}  // namespace dcam
