// Sequential container of layers, with optional per-layer activation and
// gradient capture for inspection (MTEX-CNN's grad-CAM reads an interior
// layer's output and the gradient flowing into it; tests and benchmarks read
// per-layer outputs).

#ifndef DCAM_NN_SEQUENTIAL_H_
#define DCAM_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace dcam {
namespace nn {

class Sequential : public Layer {
 public:
  /// `capture` keeps every layer's output of the last Forward and every
  /// layer's output gradient of the last Backward for layer_output and
  /// layer_output_grad. Without it a Forward holds at most one layer's input
  /// and output at a time; the models' internal blocks, which nothing
  /// inspects, run that way.
  explicit Sequential(bool capture = true) : capture_(capture) {}

  /// Appends a layer; returns a raw observer pointer for later inspection.
  template <typename L, typename... Args>
  L* Emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* ptr = layer.get();
    layers_.push_back(std::move(layer));
    return ptr;
  }

  /// Appends an already-constructed layer.
  Layer* Add(std::unique_ptr<Layer> layer);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Params() override;
  std::vector<std::pair<std::string, Tensor*>> Buffers() override;
  std::string name() const override { return "Sequential"; }

  int num_layers() const { return static_cast<int>(layers_.size()); }
  Layer* layer(int i) { return layers_[i].get(); }

  /// Output of layer i from the most recent Forward(); needs capture.
  const Tensor& layer_output(int i) const;

  /// Gradient w.r.t. the *output* of layer i from the most recent Backward()
  /// (i.e., the gradient that entered layer i+1, or the top gradient for the
  /// last layer); needs capture.
  const Tensor& layer_output_grad(int i) const;

 private:
  bool capture_;
  bool forwarded_ = false;  // a Forward has run
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Tensor> outputs_;
  std::vector<Tensor> output_grads_;
};

}  // namespace nn
}  // namespace dcam

#endif  // DCAM_NN_SEQUENTIAL_H_
