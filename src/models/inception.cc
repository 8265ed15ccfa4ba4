#include "models/inception.h"

#include "tensor/ops.h"
#include "util/rng.h"

namespace dcam {
namespace models {
namespace {

// Concatenates rank-4 tensors along the channel axis.
Tensor ConcatChannels(const std::vector<Tensor>& parts) {
  DCAM_CHECK(!parts.empty());
  const int64_t B = parts[0].dim(0), H = parts[0].dim(2), W = parts[0].dim(3);
  int64_t total_c = 0;
  for (const Tensor& p : parts) {
    DCAM_CHECK_EQ(p.dim(0), B);
    DCAM_CHECK_EQ(p.dim(2), H);
    DCAM_CHECK_EQ(p.dim(3), W);
    total_c += p.dim(1);
  }
  Tensor out({B, total_c, H, W});
  const int64_t plane = H * W;
  for (int64_t b = 0; b < B; ++b) {
    int64_t c_off = 0;
    for (const Tensor& p : parts) {
      const int64_t c = p.dim(1);
      const float* src = p.data() + b * c * plane;
      float* dst = out.data() + (b * total_c + c_off) * plane;
      std::copy(src, src + c * plane, dst);
      c_off += c;
    }
  }
  return out;
}

// Splits a rank-4 tensor along channels into equal parts of `chunk` channels.
std::vector<Tensor> SplitChannels(const Tensor& t, int64_t chunk) {
  const int64_t B = t.dim(0), C = t.dim(1), H = t.dim(2), W = t.dim(3);
  DCAM_CHECK_EQ(C % chunk, 0);
  const int64_t parts = C / chunk;
  const int64_t plane = H * W;
  std::vector<Tensor> out;
  out.reserve(parts);
  for (int64_t p = 0; p < parts; ++p) {
    Tensor piece({B, chunk, H, W});
    for (int64_t b = 0; b < B; ++b) {
      const float* src = t.data() + (b * C + p * chunk) * plane;
      float* dst = piece.data() + b * chunk * plane;
      std::copy(src, src + chunk * plane, dst);
    }
    out.push_back(std::move(piece));
  }
  return out;
}

}  // namespace

InceptionConfig InceptionConfig::Scaled(int factor) const {
  DCAM_CHECK_GT(factor, 0);
  InceptionConfig out = *this;
  out.filters = std::max(1, filters / factor);
  out.bottleneck = std::max(1, bottleneck / factor);
  return out;
}

InceptionTime::InceptionTime(InputMode mode, int dims, int num_classes,
                             const InceptionConfig& config, Rng* rng)
    : mode_(mode),
      dims_(dims),
      num_classes_(num_classes),
      config_(config) {
  DCAM_CHECK_GT(dims, 0);
  DCAM_CHECK_GT(num_classes, 1);
  DCAM_CHECK_GT(config.depth, 0);
  DCAM_CHECK_EQ(config.depth % 3, 0) << "residual period is 3";
  DCAM_CHECK_EQ(config.kernels.size(), 3u);
  for (int k : config.kernels) DCAM_CHECK_EQ(k % 2, 1);

  const int out_ch = 4 * config.filters;
  int in_ch = mode == InputMode::kSeparate ? 1 : dims;
  int res_ch = in_ch;
  for (int i = 0; i < config.depth; ++i) {
    auto m = std::make_unique<Module>();
    m->bottleneck =
        std::make_unique<nn::Conv2d>(in_ch, config.bottleneck, 1, 1, 0, 0, rng);
    for (int k : config.kernels) {
      m->branches.push_back(std::make_unique<nn::Conv2d>(
          config.bottleneck, config.filters, 1, k, 0, (k - 1) / 2, rng));
    }
    m->pool = std::make_unique<nn::MaxPool2d>(1, 3, 1, 1, 0, 1);
    m->pool_conv =
        std::make_unique<nn::Conv2d>(in_ch, config.filters, 1, 1, 0, 0, rng);
    m->bn = std::make_unique<nn::BatchNorm>(out_ch);
    modules_.push_back(std::move(m));
    in_ch = out_ch;

    if (i % 3 == 2) {
      auto sc = std::make_unique<Shortcut>();
      sc->seq.Emplace<nn::Conv2d>(res_ch, out_ch, 1, 1, 0, 0, rng);
      sc->seq.Emplace<nn::BatchNorm>(out_ch);
      shortcuts_.push_back(std::move(sc));
      res_ch = out_ch;
    }
  }
  dense_ = std::make_unique<nn::Dense>(out_ch, num_classes, rng);
}

std::string InceptionTime::name() const {
  switch (mode_) {
    case InputMode::kStandard:
      return "InceptionTime";
    case InputMode::kSeparate:
      return "cInceptionTime";
    case InputMode::kCube:
      return "dInceptionTime";
  }
  return "?";
}

Tensor InceptionTime::PrepareInput(const Tensor& batch) const {
  return PrepareConvInput(batch, mode_);
}

Tensor InceptionTime::ForwardModule(Module* m, const Tensor& x, bool training) {
  Tensor bx = m->bottleneck->Forward(x, training);
  std::vector<Tensor> parts;
  parts.reserve(m->branches.size() + 1);
  for (auto& branch : m->branches) {
    parts.push_back(branch->Forward(bx, training));
  }
  Tensor pooled = m->pool->Forward(x, training);
  parts.push_back(m->pool_conv->Forward(pooled, training));
  Tensor z = ConcatChannels(parts);
  z = m->bn->Forward(z, training);
  return m->relu.Forward(z, training);
}

Tensor InceptionTime::BackwardModule(Module* m, const Tensor& grad) {
  Tensor g = m->relu.Backward(grad);
  g = m->bn->Backward(g);
  std::vector<Tensor> parts = SplitChannels(g, config_.filters);
  DCAM_CHECK_EQ(parts.size(), m->branches.size() + 1);
  Tensor g_bottleneck;
  for (size_t i = 0; i < m->branches.size(); ++i) {
    Tensor gb = m->branches[i]->Backward(parts[i]);
    if (g_bottleneck.empty()) {
      g_bottleneck = gb;
    } else {
      ops::AddInPlace(&g_bottleneck, gb);
    }
  }
  Tensor gx = m->bottleneck->Backward(g_bottleneck);
  Tensor gp = m->pool_conv->Backward(parts.back());
  gp = m->pool->Backward(gp);
  ops::AddInPlace(&gx, gp);
  return gx;
}

Tensor InceptionTime::Forward(const Tensor& input, bool training) {
  activation_ = Tensor();  // the previous forward's, dropped before this one
  Tensor x = input;
  Tensor res = input;
  int group = 0;
  for (size_t i = 0; i < modules_.size(); ++i) {
    x = ForwardModule(modules_[i].get(), x, training);
    if (i % 3 == 2) {
      Shortcut* sc = shortcuts_[group++].get();
      Tensor s = sc->seq.Forward(res, training);
      ops::AddInPlace(&x, s);
      x = sc->relu.Forward(x, training);
      res = x;
    }
  }
  activation_ = x;
  Tensor pooled = gap_.Forward(x, training);
  return dense_->Forward(pooled, training);
}

Tensor InceptionTime::Backward(const Tensor& grad_logits) {
  Tensor g = dense_->Backward(grad_logits);
  g = gap_.Backward(g);
  for (int group = static_cast<int>(shortcuts_.size()) - 1; group >= 0;
       --group) {
    Shortcut* sc = shortcuts_[group].get();
    g = sc->relu.Backward(g);
    Tensor gs = sc->seq.Backward(g);
    Tensor gm = g;
    for (int i = group * 3 + 2; i >= group * 3; --i) {
      gm = BackwardModule(modules_[i].get(), gm);
    }
    ops::AddInPlace(&gm, gs);
    g = gm;
  }
  return g;
}

std::unique_ptr<Model> InceptionTime::CloneArchitecture() const {
  Rng rng(0);
  return std::make_unique<InceptionTime>(mode_, dims_, num_classes_, config_,
                                         &rng);
}

std::vector<nn::Parameter*> InceptionTime::Params() {
  std::vector<nn::Parameter*> params;
  for (auto& m : modules_) {
    for (nn::Parameter* p : m->bottleneck->Params()) params.push_back(p);
    for (auto& b : m->branches) {
      for (nn::Parameter* p : b->Params()) params.push_back(p);
    }
    for (nn::Parameter* p : m->pool_conv->Params()) params.push_back(p);
    for (nn::Parameter* p : m->bn->Params()) params.push_back(p);
  }
  for (auto& sc : shortcuts_) {
    for (nn::Parameter* p : sc->seq.Params()) params.push_back(p);
  }
  for (nn::Parameter* p : dense_->Params()) params.push_back(p);
  return params;
}

std::vector<std::pair<std::string, Tensor*>> InceptionTime::Buffers() {
  std::vector<std::pair<std::string, Tensor*>> buffers;
  for (auto& m : modules_) {
    for (auto& b : m->bn->Buffers()) buffers.push_back(std::move(b));
  }
  for (auto& sc : shortcuts_) {
    for (auto& b : sc->seq.Buffers()) buffers.push_back(std::move(b));
  }
  return buffers;
}

}  // namespace models
}  // namespace dcam
