// The InceptionTime architecture family: InceptionTime, cInceptionTime,
// dInceptionTime (Fawaz et al. 2020 topology): six inception modules, each
// with a 1x1 bottleneck, three parallel convolutions of decreasing kernel
// length, and a maxpool+1x1 branch, concatenated then BatchNorm + ReLU; a
// residual shortcut (1x1 conv + BN) joins every third module. GAP + dense
// head, so CAM applies.
//
// Kernel lengths (paper: 10/20/40) are odd here (9/19/39) for symmetric
// "same" padding; see README, "Deviations from the paper".

#ifndef DCAM_MODELS_INCEPTION_H_
#define DCAM_MODELS_INCEPTION_H_

#include <memory>
#include <string>
#include <vector>

#include "models/model.h"
#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace dcam {
namespace models {

struct InceptionConfig {
  /// Number of inception modules; must be a multiple of 3 (residual period).
  int depth = 6;
  /// Filters per branch (module output channels = 4 * filters).
  int filters = 32;
  /// Bottleneck width.
  int bottleneck = 32;
  /// Time-axis kernel lengths of the three conv branches (odd).
  std::vector<int> kernels = {39, 19, 9};

  InceptionConfig Scaled(int factor) const;
};

class InceptionTime : public GapModel {
 public:
  InceptionTime(InputMode mode, int dims, int num_classes,
                const InceptionConfig& config, Rng* rng);

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
  struct Module {
    std::unique_ptr<nn::Conv2d> bottleneck;
    std::vector<std::unique_ptr<nn::Conv2d>> branches;
    std::unique_ptr<nn::MaxPool2d> pool;
    std::unique_ptr<nn::Conv2d> pool_conv;
    std::unique_ptr<nn::BatchNorm> bn;
    nn::ReLU relu;
  };
  struct Shortcut {
    nn::Sequential seq{/*capture=*/false};  // 1x1 conv + BN on the residual
    nn::ReLU relu;                          // after the addition
  };

  Tensor ForwardModule(Module* m, const Tensor& x, bool training);
  Tensor BackwardModule(Module* m, const Tensor& grad);

  InputMode mode_;
  int dims_;
  int num_classes_;
  InceptionConfig config_;  // kept verbatim so CloneArchitecture can rebuild
  std::vector<std::unique_ptr<Module>> modules_;
  std::vector<std::unique_ptr<Shortcut>> shortcuts_;
  nn::GlobalAvgPool gap_;
  std::unique_ptr<nn::Dense> dense_;
  Tensor activation_;
};

}  // namespace models
}  // namespace dcam

#endif  // DCAM_MODELS_INCEPTION_H_
