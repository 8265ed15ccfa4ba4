#include "nn/layer.h"

#include <cmath>

#include "util/rng.h"

namespace dcam {
namespace nn {
namespace {
// Per-thread, like the GEMM precision: a scope on one thread leaves what
// other threads' forwards keep alone.
thread_local bool g_record_eval = false;
}  // namespace

GradientScope::GradientScope() : prev_(g_record_eval) { g_record_eval = true; }

GradientScope::~GradientScope() { g_record_eval = prev_; }

bool RecordsForBackward(bool training) { return training || g_record_eval; }

void HeUniformInit(Tensor* w, int64_t fan_in, Rng* rng) {
  DCAM_CHECK_GT(fan_in, 0);
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
  w->FillUniform(rng, -bound, bound);
}

void GlorotUniformInit(Tensor* w, int64_t fan_in, int64_t fan_out, Rng* rng) {
  DCAM_CHECK_GT(fan_in + fan_out, 0);
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  w->FillUniform(rng, -bound, bound);
}

}  // namespace nn
}  // namespace dcam
