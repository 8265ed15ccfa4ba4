// The ResNet architecture family: ResNet, cResNet, dResNet (Wang et al. 2017
// topology, per Section 5.2): three residual blocks of three conv layers each
// — 64, 64, 128 filters — with per-layer kernels (8, 5, 3) in the paper;
// we use the odd kernels (7, 5, 3) so "same" padding stays symmetric. Each
// block ends with a residual addition (1x1-conv + BN shortcut when the channel
// count changes) followed by ReLU; the network ends with GAP + dense, so CAM
// applies. Both deviations are listed in README, "Deviations from the paper".

#ifndef DCAM_MODELS_RESNET_H_
#define DCAM_MODELS_RESNET_H_

#include <memory>
#include <string>
#include <vector>

#include "models/model.h"
#include "nn/activation.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace dcam {
namespace models {

struct ResNetConfig {
  /// Filters per residual block.
  std::vector<int> block_filters = {64, 64, 128};
  /// Time-axis kernel length of the three conv layers inside each block.
  std::vector<int> kernels = {7, 5, 3};

  ResNetConfig Scaled(int factor) const;
};

class ResNet : public GapModel {
 public:
  ResNet(InputMode mode, int dims, int num_classes, const ResNetConfig& config,
         Rng* rng);

  std::string name() const override;
  int num_classes() const override { return num_classes_; }
  Tensor PrepareInput(const Tensor& batch) const override;
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_logits) override;
  std::vector<nn::Parameter*> Params() override;
  std::vector<std::pair<std::string, Tensor*>> Buffers() override;
  std::unique_ptr<Model> CloneArchitecture() const override;

  const Tensor& last_activation() const override { return activation_; }
  const nn::Dense& head() const override { return *dense_; }

 private:
  struct Block {
    nn::Sequential main{/*capture=*/false};    // conv/bn/relu x2, conv/bn
    std::unique_ptr<nn::Sequential> shortcut;  // 1x1 conv + bn, or null
    nn::ReLU relu;                             // applied after the addition
  };

  Tensor ForwardBlock(Block* block, const Tensor& x, bool training);
  Tensor BackwardBlock(Block* block, const Tensor& grad);

  InputMode mode_;
  int dims_;
  int num_classes_;
  ResNetConfig config_;  // kept verbatim so CloneArchitecture can rebuild
  std::vector<std::unique_ptr<Block>> blocks_;
  nn::GlobalAvgPool gap_;
  std::unique_ptr<nn::Dense> dense_;
  Tensor activation_;
};

}  // namespace models
}  // namespace dcam

#endif  // DCAM_MODELS_RESNET_H_
