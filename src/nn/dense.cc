#include "nn/dense.h"

#include <cstring>

#include "tensor/gemm.h"
#include "tensor/gemm_bf16.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace dcam {
namespace nn {

Dense::Dense(int in_features, int out_features, Rng* rng, bool use_bias)
    : in_features_(in_features),
      out_features_(out_features),
      use_bias_(use_bias),
      weight_("dense.w", {out_features, in_features}),
      bias_("dense.b", {out_features}) {
  GlorotUniformInit(&weight_.value, in_features, out_features, rng);
}

Tensor Dense::Forward(const Tensor& input, bool training) {
  DCAM_CHECK_EQ(input.rank(), 2);
  DCAM_CHECK_EQ(input.dim(1), in_features_);
  const bool bf16 =
      !training && gemm::CurrentGemmPrecision() == gemm::Precision::kBf16;
  // The inference-only bf16 head never records.
  cached_input_ = !bf16 && RecordsForBackward(training) ? input : Tensor();
  // (B, in) x (out, in)^T -> (B, out), accumulating onto bias-filled rows
  // (beta = 1) so the bias add costs no extra pass.
  const int64_t B = input.dim(0);
  Tensor out({B, out_features_});
  float beta = 0.0f;
  if (use_bias_) {
    float* po = out.data();
    for (int64_t b = 0; b < B; ++b) {
      std::memcpy(po + b * out_features_, bias_.value.data(),
                  static_cast<size_t>(out_features_) * sizeof(float));
    }
    beta = 1.0f;
  }
  if (bf16) {
    // Inference-only bf16 head: both operands rounded at pack time; the
    // float32 scratch-free layout makes this a pure drop-in.
    gemm::SgemmBf16(false, true, B, out_features_, in_features_, 1.0f,
                    input.data(), in_features_, weight_.value.data(),
                    in_features_, beta, out.data(), out_features_);
    return out;
  }
  gemm::SgemmNT(B, out_features_, in_features_, 1.0f, input.data(),
                weight_.value.data(), beta, out.data());
  return out;
}

Tensor Dense::Backward(const Tensor& grad_output) {
  DCAM_CHECK(!cached_input_.empty()) << "Backward before Forward";
  DCAM_CHECK_EQ(grad_output.rank(), 2);
  DCAM_CHECK_EQ(grad_output.dim(0), cached_input_.dim(0));
  DCAM_CHECK_EQ(grad_output.dim(1), out_features_);
  // dW (out, in) += dY (B, out)^T X (B, in), beta = 1 accumulating straight
  // into the parameter gradient (no temporary).
  gemm::SgemmTN(out_features_, in_features_, grad_output.dim(0), 1.0f,
                grad_output.data(), cached_input_.data(), 1.0f,
                weight_.grad.data());
  if (use_bias_) {
    const int64_t B = grad_output.dim(0);
    for (int64_t j = 0; j < out_features_; ++j) {
      double acc = 0.0;
      for (int64_t b = 0; b < B; ++b) acc += grad_output.at(b, j);
      bias_.grad[j] += static_cast<float>(acc);
    }
  }
  // dX = dY W : (B, out) x (out, in) -> (B, in)
  return ops::MatMul(grad_output, weight_.value);
}

std::vector<Parameter*> Dense::Params() {
  if (use_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace nn
}  // namespace dcam
