// Batch normalization over the channel axis of rank-3 (B, C, L) or rank-4
// (B, C, H, W) tensors.
//
// All convolutional blocks in the paper's architectures interleave BatchNorm
// with ReLU (Section 2.1). Training mode uses batch statistics and updates
// exponential running averages; evaluation mode (the mode in which CAM and
// dCAM are computed) uses the running statistics.

#ifndef DCAM_NN_BATCHNORM_H_
#define DCAM_NN_BATCHNORM_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace dcam {
namespace nn {

class BatchNorm : public Layer {
 public:
  explicit BatchNorm(int num_features, float momentum = 0.1f,
                     float eps = 1e-5f);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Params() override;
  std::vector<std::pair<std::string, Tensor*>> Buffers() override {
    return {{"running_mean", &running_mean_}, {"running_var", &running_var_}};
  }
  std::string name() const override { return "BatchNorm"; }

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  int num_features_;
  float momentum_;
  float eps_;
  Parameter gamma_;  // (C) scale
  Parameter beta_;   // (C) shift
  Tensor running_mean_;
  Tensor running_var_;

  // What Backward reads of the last Forward. The input shares the caller's
  // storage; Backward recomputes the normalized input from it, so no
  // input-sized tensor is written for a gradient that may never be taken.
  bool cached_training_ = false;
  Tensor cached_input_;
  Tensor cached_mean_;    // (C) the mean Forward subtracted
  Tensor cached_invstd_;  // (C)
};

}  // namespace nn
}  // namespace dcam

#endif  // DCAM_NN_BATCHNORM_H_
