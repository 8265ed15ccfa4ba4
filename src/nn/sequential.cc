#include "nn/sequential.h"

namespace dcam {
namespace nn {

Layer* Sequential::Add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return layers_.back().get();
}

Tensor Sequential::Forward(const Tensor& input, bool training) {
  DCAM_CHECK(!layers_.empty());
  outputs_.clear();
  if (capture_) outputs_.reserve(layers_.size());
  Tensor x = input;
  for (auto& layer : layers_) {
    x = layer->Forward(x, training);
    if (capture_) outputs_.push_back(x);
  }
  forwarded_ = true;
  return x;
}

Tensor Sequential::Backward(const Tensor& grad_output) {
  DCAM_CHECK(forwarded_) << "Backward before Forward";
  if (capture_) output_grads_.assign(layers_.size(), Tensor());
  Tensor g = grad_output;
  for (int i = static_cast<int>(layers_.size()) - 1; i >= 0; --i) {
    if (capture_) output_grads_[i] = g;
    g = layers_[i]->Backward(g);
  }
  return g;
}

std::vector<Parameter*> Sequential::Params() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Params()) params.push_back(p);
  }
  return params;
}

std::vector<std::pair<std::string, Tensor*>> Sequential::Buffers() {
  std::vector<std::pair<std::string, Tensor*>> buffers;
  for (auto& layer : layers_) {
    for (auto& b : layer->Buffers()) buffers.push_back(std::move(b));
  }
  return buffers;
}

const Tensor& Sequential::layer_output(int i) const {
  DCAM_CHECK_GE(i, 0);
  DCAM_CHECK_LT(i, static_cast<int>(outputs_.size()));
  return outputs_[i];
}

const Tensor& Sequential::layer_output_grad(int i) const {
  DCAM_CHECK_GE(i, 0);
  DCAM_CHECK_LT(i, static_cast<int>(output_grads_.size()));
  return output_grads_[i];
}

}  // namespace nn
}  // namespace dcam
