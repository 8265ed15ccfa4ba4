// Layer abstraction for the from-scratch neural-network stack.
//
// Design: explicit forward/backward methods with per-layer caches rather than
// a tape-based autograd. Every architecture in the paper (CNN, ResNet,
// InceptionTime and their c-/d- variants, MTEX-CNN, RNN/LSTM/GRU) is a static
// graph of these layers, so reverse-mode through an explicit structure is
// simpler, faster, and easier to verify by finite differences.

#ifndef DCAM_NN_LAYER_H_
#define DCAM_NN_LAYER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace dcam {

class Rng;

namespace nn {

/// A trainable tensor together with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Shape shape)
      : name(std::move(n)), value(shape), grad(shape) {}

  void ZeroGrad() { grad.Fill(0.0f); }
};

/// Base class of all layers.
///
/// Contract: Backward(grad_out) follows a matching recorded Forward(): a
/// training forward, or an eval forward inside a GradientScope on the calling
/// thread. A recorded forward caches what Backward reads; an unrecorded one
/// need not keep anything, and a Backward after it may abort ("Backward
/// before Forward"). A layer may keep more than it must. Backward consumes
/// the gradient w.r.t. the layer output, accumulates parameter gradients
/// (+=), and returns the gradient w.r.t. the layer input.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Runs the layer. `training` toggles batch-statistics vs running-statistics
  /// behaviour in normalization layers.
  virtual Tensor Forward(const Tensor& input, bool training) = 0;

  /// Reverse-mode step; see class contract.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> Params() { return {}; }

  /// Named non-trainable state that must survive serialization — e.g. the
  /// running statistics of BatchNorm. Optimizers never touch these; model
  /// save/load persists them alongside Params().
  virtual std::vector<std::pair<std::string, Tensor*>> Buffers() { return {}; }

  /// Short diagnostic name.
  virtual std::string name() const = 0;
};

/// RAII scope under which the calling thread's eval forwards record what
/// Backward reads (see Layer), restoring the previous state on destruction.
/// A caller that takes a gradient through an eval forward opens one around
/// it. Inference-only paths (the bf16 forwards) record nothing even inside
/// one.
class GradientScope {
 public:
  GradientScope();
  ~GradientScope();
  GradientScope(const GradientScope&) = delete;
  GradientScope& operator=(const GradientScope&) = delete;

 private:
  bool prev_;
};

/// Whether a forward with this `training` flag records for Backward on the
/// calling thread: always in training, inside a GradientScope in eval.
bool RecordsForBackward(bool training);

/// He-uniform initialization (appropriate for ReLU networks): U[-b, b] with
/// b = sqrt(6 / fan_in).
void HeUniformInit(Tensor* w, int64_t fan_in, Rng* rng);

/// Glorot-uniform initialization: U[-b, b] with b = sqrt(6 / (fan_in+fan_out)).
void GlorotUniformInit(Tensor* w, int64_t fan_in, int64_t fan_out, Rng* rng);

}  // namespace nn
}  // namespace dcam

#endif  // DCAM_NN_LAYER_H_
