// 2-D convolution over (batch, channels, height, width) tensors.
//
// This is the workhorse of the paper's proposal: the dCNN/dResNet/
// dInceptionTime architectures feed the C(T) cube as a (B, D, D, n) tensor
// (channels = dimensions of one row-permutation, height = the D cyclic rows,
// width = time) through Conv2d layers with (1, l) kernels, realizing the
// paper's kernels of size (D, l, 1). The cCNN baselines use (B, 1, D, n)
// inputs, and MTEX-CNN uses (l, 1) kernels.

#ifndef DCAM_NN_CONV2D_H_
#define DCAM_NN_CONV2D_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace dcam {
namespace nn {

/// Conv2d with stride 1 and symmetric zero padding per axis.
/// Input (B, Cin, H, W) -> (B, Cout, H + 2*ph - kh + 1, W + 2*pw - kw + 1).
///
/// Forward/Backward lower the convolution to im2col + SGEMM (tensor/gemm.h).
/// An eval forward lowers into the calling thread's arena (util/arena.h) and
/// keeps nothing but its input; a training forward keeps its columns for
/// Backward; Backward's other scratch lives in the arena too. The direct
/// per-element loops survive as ForwardNaive/BackwardNaive, the reference
/// the equivalence tests and naive-vs-kernel benchmarks compare against.
class Conv2d : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel_h, int kernel_w,
         int pad_h, int pad_w, Rng* rng, bool use_bias = true);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

  /// Direct-convolution reference path, numerically equivalent to
  /// Forward/Backward up to float summation order. Either Backward may
  /// follow either float32 forward: after Forward(x, false) or ForwardNaive
  /// the GEMM Backward lowers the cached input itself, and its gradients
  /// are bit-identical to those after Forward(x, true). Backward after a
  /// bf16 forward aborts.
  Tensor ForwardNaive(const Tensor& input);
  Tensor BackwardNaive(const Tensor& grad_output);

  std::vector<Parameter*> Params() override;
  std::string name() const override { return "Conv2d"; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  int out_channels() const { return out_channels_; }

 private:
  int in_channels_;
  int out_channels_;
  int kernel_h_;
  int kernel_w_;
  int pad_h_;
  int pad_w_;
  bool use_bias_;
  Parameter weight_;  // (Cout, Cin, KH, KW)
  Parameter bias_;    // (Cout)
  Tensor cached_input_;
  // The last forward ran the inference-only bf16 path, which has no
  // gradient: Backward aborts.
  bool cached_bf16_ = false;
  // im2col columns of cached_input_, (B, Cin*KH*KW, Hout*Wout), read by the
  // weight gradient. Kept by a training forward only; any other forward
  // drops them, and Backward then lowers cached_input_ into the calling
  // thread's arena itself, as it does the column gradient the input
  // gradient scatters from.
  Tensor col_;

  // Lowers `input` into `col`, (B, Cin*KH*KW, Hout*Wout), parallel over the
  // batch.
  void Lower(const Tensor& input, float* col) const;
};

}  // namespace nn
}  // namespace dcam

#endif  // DCAM_NN_CONV2D_H_
