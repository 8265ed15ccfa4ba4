#include "models/resnet.h"

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace dcam {
namespace models {

ResNetConfig ResNetConfig::Scaled(int factor) const {
  DCAM_CHECK_GT(factor, 0);
  ResNetConfig out = *this;
  for (int& f : out.block_filters) f = std::max(1, f / factor);
  return out;
}

ResNet::ResNet(InputMode mode, int dims, int num_classes,
               const ResNetConfig& config, Rng* rng)
    : mode_(mode), dims_(dims), num_classes_(num_classes), config_(config) {
  DCAM_CHECK_GT(dims, 0);
  DCAM_CHECK_GT(num_classes, 1);
  DCAM_CHECK(!config.block_filters.empty());
  DCAM_CHECK_EQ(config.kernels.size(), 3u);
  for (int k : config.kernels) DCAM_CHECK_EQ(k % 2, 1);

  int in_ch = mode == InputMode::kSeparate ? 1 : dims;
  for (int f : config.block_filters) {
    auto block = std::make_unique<Block>();
    int ch = in_ch;
    for (int layer = 0; layer < 3; ++layer) {
      const int k = config.kernels[layer];
      block->main.Emplace<nn::Conv2d>(ch, f, 1, k, 0, (k - 1) / 2, rng);
      block->main.Emplace<nn::BatchNorm>(f);
      if (layer < 2) block->main.Emplace<nn::ReLU>();
      ch = f;
    }
    if (in_ch != f) {
      block->shortcut = std::make_unique<nn::Sequential>(/*capture=*/false);
      block->shortcut->Emplace<nn::Conv2d>(in_ch, f, 1, 1, 0, 0, rng);
      block->shortcut->Emplace<nn::BatchNorm>(f);
    }
    blocks_.push_back(std::move(block));
    in_ch = f;
  }
  dense_ =
      std::make_unique<nn::Dense>(config.block_filters.back(), num_classes, rng);
}

std::string ResNet::name() const {
  switch (mode_) {
    case InputMode::kStandard:
      return "ResNet";
    case InputMode::kSeparate:
      return "cResNet";
    case InputMode::kCube:
      return "dResNet";
  }
  return "?";
}

Tensor ResNet::PrepareInput(const Tensor& batch) const {
  return PrepareConvInput(batch, mode_);
}

Tensor ResNet::ForwardBlock(Block* block, const Tensor& x, bool training) {
  Tensor y = block->main.Forward(x, training);
  Tensor s = block->shortcut ? block->shortcut->Forward(x, training) : x;
  ops::AddInPlace(&y, s);
  return block->relu.Forward(y, training);
}

Tensor ResNet::BackwardBlock(Block* block, const Tensor& grad) {
  Tensor g = block->relu.Backward(grad);
  Tensor gm = block->main.Backward(g);
  if (block->shortcut) {
    Tensor gs = block->shortcut->Backward(g);
    ops::AddInPlace(&gm, gs);
  } else {
    ops::AddInPlace(&gm, g);
  }
  return gm;
}

Tensor ResNet::Forward(const Tensor& input, bool training) {
  activation_ = Tensor();  // the previous forward's, dropped before this one
  Tensor x = input;
  for (auto& block : blocks_) x = ForwardBlock(block.get(), x, training);
  activation_ = x;
  Tensor pooled = gap_.Forward(x, training);
  return dense_->Forward(pooled, training);
}

Tensor ResNet::Backward(const Tensor& grad_logits) {
  Tensor g = dense_->Backward(grad_logits);
  g = gap_.Backward(g);
  for (int i = static_cast<int>(blocks_.size()) - 1; i >= 0; --i) {
    g = BackwardBlock(blocks_[i].get(), g);
  }
  return g;
}

std::unique_ptr<Model> ResNet::CloneArchitecture() const {
  Rng rng(0);
  return std::make_unique<ResNet>(mode_, dims_, num_classes_, config_, &rng);
}

std::vector<nn::Parameter*> ResNet::Params() {
  std::vector<nn::Parameter*> params;
  for (auto& block : blocks_) {
    for (nn::Parameter* p : block->main.Params()) params.push_back(p);
    if (block->shortcut) {
      for (nn::Parameter* p : block->shortcut->Params()) params.push_back(p);
    }
  }
  for (nn::Parameter* p : dense_->Params()) params.push_back(p);
  return params;
}

std::vector<std::pair<std::string, Tensor*>> ResNet::Buffers() {
  std::vector<std::pair<std::string, Tensor*>> buffers;
  for (auto& block : blocks_) {
    for (auto& b : block->main.Buffers()) buffers.push_back(std::move(b));
    if (block->shortcut) {
      for (auto& b : block->shortcut->Buffers()) {
        buffers.push_back(std::move(b));
      }
    }
  }
  return buffers;
}

}  // namespace models
}  // namespace dcam
