// Golden digests: FNV-64 hashes of dCAM engine, variant, model and explainer
// outputs, and of model gradients, at fixed seeds, pinned across commits.
//
// Every other bit-identity suite compares two paths inside one build: engine
// vs serial, chunked vs blocking, sharded vs single. A change to something
// both paths share (the forward, the GEMM kernels, the Rng, the cube build,
// the scatter order) moves both sides together and passes all of them. These
// digests pin the values themselves. A change that moves one must say which
// and why, and record the new value.
//
// The GEMM backends round differently, so there is one table per backend name
// as gemm::BackendName() reports it. A failing check prints the digest it
// computed as a ready-to-paste table entry.

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/variants.h"
#include "explain/explainer.h"
#include "models/cnn.h"
#include "models/resnet.h"
#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "tensor/gemm.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace dcam {
namespace {

using DigestTable = std::map<std::string, uint64_t>;

const std::map<std::string, DigestTable>& Golden() {
  static const auto* golden = new std::map<std::string, DigestTable>{
      {"portable",
       {
           {"adaptive/converged_at_max_k", 0xba83b88dfb4443d0ULL},
           {"adaptive/converged_early", 0xba83b88dfb4443d0ULL},
           {"adaptive/exhausted", 0x185059ef83c1c8b1ULL},
           {"backward/dcnn/eval", 0x5a698fc307eaf06bULL},
           {"backward/dcnn/train", 0xe3bf46927bf332c9ULL},
           {"backward/dresnet/eval", 0xeb2b8756f7245dd9ULL},
           {"backward/dresnet/train", 0x3c705dc9d66e0e77ULL},
           {"chunked/cancel", 0xbe37fc5364c5118eULL},
           {"chunked/every0", 0xa493679ffb523429ULL},
           {"chunked/every1", 0xac46ae2186abf6b7ULL},
           {"chunked/every100", 0xa309eefbee0b0f06ULL},
           {"chunked/every4", 0x6d88800a4943f228ULL},
           {"compute_many/identity/map", 0x896da7bea1572b30ULL},
           {"compute_many/identity/mbar", 0xb964d34fffd38407ULL},
           {"compute_many/no_identity/map", 0xb16cc977f76747e0ULL},
           {"compute_many/no_identity/mbar", 0xe0d4e1b525f40533ULL},
           {"engine/bf16", 0x0f2317801ab7e346ULL},
           {"explainer/cam", 0xa21e07171a13965eULL},
           {"explainer/occlusion", 0xb05b7c511e2aee49ULL},
           {"explainer/saliency", 0x46597b53018a35ebULL},
           {"layer/00_Conv2d", 0xc3aecc015fc87edeULL},
           {"layer/01_BatchNorm", 0x6f527fcd803acb9cULL},
           {"layer/02_ReLU", 0xf2ff24543872c7beULL},
           {"layer/03_Conv2d", 0xfe1119a58845514bULL},
           {"layer/04_BatchNorm", 0xbe30cdaf96fe044eULL},
           {"layer/05_ReLU", 0x4ac75c2fccb48c71ULL},
           {"layer/06_Conv2d", 0x888e004cab2d6953ULL},
           {"layer/07_BatchNorm", 0x5473c189bc7e9030ULL},
           {"layer/08_ReLU", 0x0270b654328a8c82ULL},
           {"layer/09_Conv2d", 0x44b222f455f9bcbdULL},
           {"layer/10_BatchNorm", 0xb41b240d3c84a4ceULL},
           {"layer/11_ReLU", 0x2f044b8c6e7a9949ULL},
           {"layer/12_Conv2d", 0x0ccd860d2899cf85ULL},
           {"layer/13_BatchNorm", 0x2d0cb93795c82800ULL},
           {"layer/14_ReLU", 0xeb6c1d42c1817ea6ULL},
           {"layer/15_GlobalAvgPool", 0x2af003551014cb62ULL},
           {"layer/16_Dense", 0x0d6c6dbb030e142aULL},
           {"logits/dcnn", 0x0d6c6dbb030e142aULL},
           {"logits/dresnet", 0x787513eacaf77392ULL},
       }},
      {"avx2",
       {
           {"adaptive/converged_at_max_k", 0xc3ecc40a57b53ed4ULL},
           {"adaptive/converged_early", 0xc3ecc40a57b53ed4ULL},
           {"adaptive/exhausted", 0x69da254f6e948227ULL},
           {"backward/dcnn/eval", 0xce3f52dad2cf0657ULL},
           {"backward/dcnn/train", 0xe6523e13e7f57231ULL},
           {"backward/dresnet/eval", 0x0b7c074d0f7cd83eULL},
           {"backward/dresnet/train", 0x11960910e62850e3ULL},
           {"chunked/cancel", 0x86b5807198c9cae2ULL},
           {"chunked/every0", 0x26e6443f5dbc1e03ULL},
           {"chunked/every1", 0xb7524881b91eabe3ULL},
           {"chunked/every100", 0xc2c6994ea248c7f0ULL},
           {"chunked/every4", 0x17a5c32ea28716e3ULL},
           {"compute_many/identity/map", 0xd90fb16828a49401ULL},
           {"compute_many/identity/mbar", 0x69a8dfd58832f83dULL},
           {"compute_many/no_identity/map", 0x9730d8bbacb19b1fULL},
           {"compute_many/no_identity/mbar", 0x86930ea76eec8731ULL},
           {"engine/bf16", 0xace243caa1aef85aULL},
           {"explainer/cam", 0x24984cc3abd69334ULL},
           {"explainer/occlusion", 0x4196908eca614ee9ULL},
           {"explainer/saliency", 0x922d321a75402c9eULL},
           {"layer/00_Conv2d", 0xc3aecc015fc87edeULL},
           {"layer/01_BatchNorm", 0x6f527fcd803acb9cULL},
           {"layer/02_ReLU", 0xf2ff24543872c7beULL},
           {"layer/03_Conv2d", 0x4047e3438a5ab488ULL},
           {"layer/04_BatchNorm", 0x4d16694485b31385ULL},
           {"layer/05_ReLU", 0x0ac3f664c689c960ULL},
           {"layer/06_Conv2d", 0xee482a16806d94a0ULL},
           {"layer/07_BatchNorm", 0x4bfadfab2e6a79feULL},
           {"layer/08_ReLU", 0xd4145c18669249c6ULL},
           {"layer/09_Conv2d", 0xc15acbe863eb79e1ULL},
           {"layer/10_BatchNorm", 0x771ea4fa5db3c1b5ULL},
           {"layer/11_ReLU", 0xf751285c6a96e96aULL},
           {"layer/12_Conv2d", 0xb290df99d926bc50ULL},
           {"layer/13_BatchNorm", 0x39bb4a4ced78335aULL},
           {"layer/14_ReLU", 0xc8b0a9bb3e9466deULL},
           {"layer/15_GlobalAvgPool", 0x04ec7d5b6bc6c049ULL},
           {"layer/16_Dense", 0xe990e8cd5c4b5243ULL},
           {"logits/dcnn", 0xe990e8cd5c4b5243ULL},
           {"logits/dresnet", 0xab231ec577b7d658ULL},
       }},
  };
  return *golden;
}

// The row this build must match. g++ contracts the avx2 microkernels'
// `acc += a * b` into an FMA only when it optimizes (-O2/-O3). An
// unoptimized build, such as the Debug sanitizer lanes, rounds after every
// multiply exactly like the portable kernels, so its avx2 bits are the
// portable row's.
std::string GoldenRow() {
#ifdef __OPTIMIZE__
  return gemm::BackendName();
#else
  return "portable";
#endif
}

void ExpectGolden(const std::string& name, uint64_t actual) {
  const std::string row = GoldenRow();
  std::ostringstream computed;
  computed << "{\"" << name << "\", 0x" << std::hex << std::setw(16)
           << std::setfill('0') << actual << "ULL}";
  const auto table = Golden().find(row);
  ASSERT_NE(table, Golden().end())
      << "no golden row \"" << row << "\"; computed " << computed.str();
  const auto want = table->second.find(name);
  ASSERT_NE(want, table->second.end())
      << "row \"" << row << "\" lacks this digest; computed "
      << computed.str();
  EXPECT_EQ(want->second, actual)
      << "row \"" << row << "\" digest moved; computed " << computed.str();
}

uint64_t Hash(const Tensor& t, uint64_t h) {
  h = Fnv1a(t.shape().data(), t.shape().size() * sizeof(int64_t), h);
  return Fnv1a(t.data(), static_cast<size_t>(t.size()) * sizeof(float), h);
}

template <typename T>
uint64_t HashPod(const T& value, uint64_t h) {
  return Fnv1a(&value, sizeof(value), h);
}

// dcam, mu, n_g and k of one result. M-bar is hashed on its own, so a
// keep_mbar = false run checks against the same entry as a keep_mbar = true
// run.
uint64_t MapDigest(const core::DcamResult& r, uint64_t h) {
  h = Hash(r.dcam, h);
  h = Hash(r.mu, h);
  h = HashPod(r.num_correct, h);
  return HashPod(r.k, h);
}

constexpr int kDims = 4;
constexpr int kClasses = 3;

Tensor RandomTensor(Shape shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  t.FillNormal(&rng, 0.0f, 1.0f);
  return t;
}

// The dCNN at ConvNetConfig().Scaled(8). One training-mode forward moves the
// BatchNorm running statistics off their defaults, so the eval-mode
// normalization every other digest goes through is not the identity.
std::unique_ptr<models::ConvNet> Dcnn() {
  Rng rng(2024);
  auto model = std::make_unique<models::ConvNet>(
      models::InputMode::kCube, kDims, kClasses,
      models::ConvNetConfig().Scaled(8), &rng);
  model->Forward(model->PrepareInput(RandomTensor({6, kDims, 20}, 7)),
                 /*training=*/true);
  return model;
}

// Three requests of mixed lengths, so the engine flushes on a shape change.
struct Requests {
  std::vector<Tensor> series = {RandomTensor({kDims, 16}, 1),
                                RandomTensor({kDims, 16}, 2),
                                RandomTensor({kDims, 24}, 3)};
  std::vector<int> classes = {0, 2, 1};
  std::vector<core::DcamOptions> options;

  explicit Requests(std::vector<int> ks) {
    for (size_t i = 0; i < ks.size(); ++i) {
      core::DcamOptions o;
      o.k = ks[i];
      o.seed = 100 + i;
      options.push_back(o);
    }
  }
};

TEST(GoldenTest, ComputeManyMixedLengths) {
  auto model = Dcnn();
  Requests req({7, 9, 11});
  for (bool identity : {true, false}) {
    const std::string name =
        identity ? "compute_many/identity" : "compute_many/no_identity";
    for (int batch : {1, 4}) {
      for (bool keep_mbar : {true, false}) {
        SCOPED_TRACE(name + " batch=" + std::to_string(batch) +
                     " keep_mbar=" + std::to_string(keep_mbar));
        for (core::DcamOptions& o : req.options) {
          o.include_identity = identity;
          o.keep_mbar = keep_mbar;
        }
        core::DcamEngine::Config cfg;
        cfg.batch = batch;
        core::DcamEngine engine(model.get(), cfg);
        const std::vector<core::DcamResult> results =
            engine.ComputeMany(req.series, req.classes, req.options);
        uint64_t maps = kFnv1aOffsetBasis, mbars = kFnv1aOffsetBasis;
        for (const core::DcamResult& r : results) {
          maps = MapDigest(r, maps);
          mbars = Hash(r.mbar, mbars);
          EXPECT_EQ(r.mbar.empty(), !keep_mbar);
        }
        ExpectGolden(name + "/map", maps);
        if (keep_mbar) ExpectGolden(name + "/mbar", mbars);
      }
    }
  }
}

// Hashes every tick (cursor, n_g, delta and, when emitted, the partial map
// and mu) and every terminal result of one ComputeManyChunked run. With
// `cancel_at` > 0, request 0 is cancelled at its first tick at or past that
// many permutations.
uint64_t ChunkedDigest(core::DcamEngine* engine, const Requests& req,
                       int tick_every, int cancel_at) {
  core::DcamEngine::ChunkedConfig chunked;
  chunked.tick_every = tick_every;
  chunked.emit_partial = {1, 0, 1};
  uint64_t h = kFnv1aOffsetBasis;
  const std::vector<core::DcamResult> results = engine->ComputeManyChunked(
      req.series, req.classes, req.options, chunked,
      [&](const core::DcamTick& tick) {
        h = HashPod(tick.index, h);
        h = HashPod(tick.k_done, h);
        h = HashPod(tick.k_target, h);
        h = HashPod(tick.num_correct, h);
        h = HashPod(tick.delta, h);
        if (tick.map != nullptr) h = Hash(*tick.map, h);
        if (tick.mu != nullptr) h = Hash(*tick.mu, h);
        const bool cancel =
            cancel_at > 0 && tick.index == 0 && tick.k_done >= cancel_at;
        return cancel ? core::TickAction::kCancel
                      : core::TickAction::kContinue;
      });
  for (const core::DcamResult& r : results) {
    h = MapDigest(r, h);
    h = Hash(r.mbar, h);
    h = HashPod(r.cancelled, h);
    h = HashPod(r.convergence, h);
  }
  return h;
}

TEST(GoldenTest, ComputeManyChunkedTicksAndCancel) {
  auto model = Dcnn();
  const Requests req({9, 12, 5});
  core::DcamEngine::Config cfg;
  cfg.batch = 3;
  core::DcamEngine engine(model.get(), cfg);
  for (int tick_every : {0, 1, 4, 100}) {
    SCOPED_TRACE("tick_every=" + std::to_string(tick_every));
    ExpectGolden("chunked/every" + std::to_string(tick_every),
                 ChunkedDigest(&engine, req, tick_every, /*cancel_at=*/0));
  }
  ExpectGolden("chunked/cancel",
               ChunkedDigest(&engine, req, /*tick_every=*/2,
                             /*cancel_at=*/4));
}

uint64_t AdaptiveDigest(const core::AdaptiveDcamResult& r) {
  uint64_t h = MapDigest(r.result, kFnv1aOffsetBasis);
  h = Hash(r.result.mbar, h);
  h = HashPod(r.k_used, h);
  h = HashPod(r.converged, h);
  for (double delta : r.deltas) h = HashPod(delta, h);
  return h;
}

TEST(GoldenTest, AdaptiveConvergedAndExhausted) {
  auto model = Dcnn();
  const Tensor series = RandomTensor({kDims, 24}, 4);
  core::AdaptiveDcamOptions opt;
  opt.seed = 77;

  // Converges well before the ceiling.
  opt.batch = 5;
  opt.max_k = 200;
  opt.tolerance = 0.25;
  const core::AdaptiveDcamResult early =
      core::ComputeDcamAdaptive(model.get(), series, 1, opt);
  EXPECT_TRUE(early.converged);
  EXPECT_LT(early.k_used, opt.max_k);
  ExpectGolden("adaptive/converged_early", AdaptiveDigest(early));

  // The stopping rule fires on the check at max_k itself.
  opt.max_k = early.k_used;
  const core::AdaptiveDcamResult at_ceiling =
      core::ComputeDcamAdaptive(model.get(), series, 1, opt);
  EXPECT_TRUE(at_ceiling.converged);
  EXPECT_EQ(at_ceiling.k_used, opt.max_k);
  ExpectGolden("adaptive/converged_at_max_k", AdaptiveDigest(at_ceiling));

  // Never converges: the budget runs out, with a ragged last batch.
  opt.batch = 7;
  opt.max_k = 20;
  opt.tolerance = 1e-12;
  const core::AdaptiveDcamResult exhausted =
      core::ComputeDcamAdaptive(model.get(), series, 1, opt);
  EXPECT_FALSE(exhausted.converged);
  EXPECT_EQ(exhausted.k_used, 20);
  ExpectGolden("adaptive/exhausted", AdaptiveDigest(exhausted));
}

TEST(GoldenTest, ModelLogits) {
  const Tensor batch = RandomTensor({2, kDims, 24}, 5);
  auto dcnn = Dcnn();
  ExpectGolden("logits/dcnn",
               Hash(dcnn->Forward(dcnn->PrepareInput(batch), false),
                    kFnv1aOffsetBasis));

  Rng rng(2025);
  models::ResNet dresnet(models::InputMode::kCube, kDims, kClasses,
                         models::ResNetConfig().Scaled(8), &rng);
  ExpectGolden("logits/dresnet",
               Hash(dresnet.Forward(dresnet.PrepareInput(batch), false),
                    kFnv1aOffsetBasis));
}

// Logits, input gradient and every parameter gradient of one Forward +
// Backward under a fixed upstream gradient. A train-mode pass normalizes
// with batch statistics and takes the full BatchNorm gradient; an eval-mode
// pass uses the running statistics, as every explainer's backward does, and
// records for Backward inside a GradientScope, as those explainers do.
uint64_t ForwardBackwardDigest(models::Model* model, const Tensor& batch,
                               bool training) {
  for (nn::Parameter* p : model->Params()) p->ZeroGrad();
  nn::GradientScope recording;
  const Tensor logits = model->Forward(model->PrepareInput(batch), training);
  const Tensor grad_input =
      model->Backward(RandomTensor(logits.shape(), /*seed=*/9));
  uint64_t h = Hash(logits, kFnv1aOffsetBasis);
  h = Hash(grad_input, h);
  for (nn::Parameter* p : model->Params()) h = Hash(p->grad, h);
  return h;
}

// The dResNet at ResNetConfig().Scaled(8), its BatchNorm statistics moved
// off their defaults by one training-mode forward, as in Dcnn().
std::unique_ptr<models::ResNet> Dresnet() {
  Rng rng(2025);
  auto model = std::make_unique<models::ResNet>(
      models::InputMode::kCube, kDims, kClasses,
      models::ResNetConfig().Scaled(8), &rng);
  model->Forward(model->PrepareInput(RandomTensor({6, kDims, 20}, 7)),
                 /*training=*/true);
  return model;
}

TEST(GoldenTest, ForwardBackwardGradients) {
  const Tensor batch = RandomTensor({3, kDims, 20}, 8);
  for (bool training : {false, true}) {
    const std::string mode = training ? "/train" : "/eval";
    ExpectGolden("backward/dcnn" + mode,
                 ForwardBackwardDigest(Dcnn().get(), batch, training));
    ExpectGolden("backward/dresnet" + mode,
                 ForwardBackwardDigest(Dresnet().get(), batch, training));
  }
}

// The bf16 forward lowers and multiplies through its own kernels; its map is
// not float32's, so it is pinned on its own.
TEST(GoldenTest, EngineComputeBf16) {
  auto model = Dcnn();
  core::DcamOptions options;
  options.k = 9;
  options.seed = 31;
  options.precision = gemm::Precision::kBf16;
  core::DcamEngine::Config cfg;
  cfg.batch = 4;
  core::DcamEngine engine(model.get(), cfg);
  const core::DcamResult r =
      engine.Compute(RandomTensor({kDims, 20}, 10), 1, options);
  ExpectGolden("engine/bf16", Hash(r.mbar, MapDigest(r, kFnv1aOffsetBasis)));
}

TEST(GoldenTest, CamAndOcclusionExplainers) {
  auto model = Dcnn();
  const Tensor series = RandomTensor({kDims, 24}, 6);
  for (const char* method : {"cam", "occlusion"}) {
    const explain::ExplanationResult r = explain::MakeExplainer(method)->Explain(
        model.get(), series, 2, explain::ExplainOptions());
    ExpectGolden(std::string("explainer/") + method,
                 Hash(r.map, kFnv1aOffsetBasis));
  }
}

// Saliency takes an eval-mode Forward + Backward through the whole dCNN.
TEST(GoldenTest, SaliencyExplainer) {
  auto model = Dcnn();
  const explain::ExplanationResult r =
      explain::MakeExplainer("saliency")->Explain(
          model.get(), RandomTensor({kDims, 24}, 6), 2,
          explain::ExplainOptions());
  ExpectGolden("explainer/saliency", Hash(r.map, kFnv1aOffsetBasis));
}

// One forward through a stand-alone Sequential holding the dCNN's blocks, its
// GAP and its head, with the dCNN's weights and BatchNorm statistics copied
// in: a moved digest names the first layer whose output changed.
TEST(GoldenTest, PerLayerOutputs) {
  auto model = Dcnn();
  const models::ConvNetConfig config = models::ConvNetConfig().Scaled(8);
  Rng rng(0);
  nn::Sequential layers;
  int in_channels = kDims;
  for (int f : config.filters) {
    layers.Emplace<nn::Conv2d>(in_channels, f, /*kh=*/1, config.kernel,
                               /*ph=*/0, (config.kernel - 1) / 2, &rng);
    layers.Emplace<nn::BatchNorm>(f);
    layers.Emplace<nn::ReLU>();
    in_channels = f;
  }
  layers.Emplace<nn::GlobalAvgPool>();
  layers.Emplace<nn::Dense>(in_channels, kClasses, &rng);

  const std::vector<nn::Parameter*> from = model->Params();
  const std::vector<nn::Parameter*> to = layers.Params();
  ASSERT_EQ(from.size(), to.size());
  for (size_t i = 0; i < from.size(); ++i) {
    ASSERT_EQ(from[i]->value.shape(), to[i]->value.shape());
    to[i]->value = from[i]->value.Clone();
  }
  const auto from_buffers = model->Buffers();
  const auto to_buffers = layers.Buffers();
  ASSERT_EQ(from_buffers.size(), to_buffers.size());
  for (size_t i = 0; i < from_buffers.size(); ++i) {
    *to_buffers[i].second = from_buffers[i].second->Clone();
  }

  const Tensor input =
      model->PrepareInput(RandomTensor({2, kDims, 24}, 5));
  const Tensor logits = layers.Forward(input, /*training=*/false);
  for (int i = 0; i < layers.num_layers(); ++i) {
    std::ostringstream name;
    name << "layer/" << std::setw(2) << std::setfill('0') << i << "_"
         << layers.layer(i)->name();
    ExpectGolden(name.str(), Hash(layers.layer_output(i), kFnv1aOffsetBasis));
  }
  // The stand-alone stack is the dCNN: same logits, bit for bit.
  const Tensor want = model->Forward(input, /*training=*/false);
  ASSERT_EQ(want.shape(), logits.shape());
  for (int64_t i = 0; i < want.size(); ++i) EXPECT_EQ(want[i], logits[i]);
}

}  // namespace
}  // namespace dcam
