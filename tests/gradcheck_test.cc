// Finite-difference gradient verification for every layer, in both training
// and eval modes, across a sweep of shapes (parameterized property tests).
// This is the correctness backbone of the from-scratch NN substrate: if these
// pass, the training pipeline optimizes the true loss.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <tuple>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv1d.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "tensor/gemm.h"
#include "tests/gradcheck.h"
#include "util/rng.h"

namespace dcam {
namespace nn {
namespace {

using dcam::testing::CheckLayerGradients;

struct ConvCase {
  int cin, cout, kernel, padding;
  int64_t batch, length;
};

class Conv1dGradTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Conv1dGradTest, MatchesFiniteDifferences) {
  const ConvCase c = GetParam();
  Rng rng(100 + c.kernel);
  Conv1d conv(c.cin, c.cout, c.kernel, c.padding, &rng);
  CheckLayerGradients(&conv, {c.batch, c.cin, c.length}, true);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Conv1dGradTest,
    ::testing::Values(ConvCase{1, 1, 3, 1, 1, 8}, ConvCase{2, 3, 3, 1, 2, 10},
                      ConvCase{3, 2, 5, 2, 1, 12}, ConvCase{2, 2, 1, 0, 2, 6},
                      ConvCase{1, 4, 7, 3, 1, 9},
                      ConvCase{2, 2, 3, 0, 1, 7}));

struct Conv2dCase {
  int cin, cout, kh, kw, ph, pw;
  int64_t batch, height, width;
};

// The second parameter is the forward mode. An eval forward keeps no im2col
// columns, so its Backward lowers the cached input itself.
class Conv2dGradTest
    : public ::testing::TestWithParam<std::tuple<Conv2dCase, bool>> {};

TEST_P(Conv2dGradTest, MatchesFiniteDifferences) {
  const Conv2dCase c = std::get<0>(GetParam());
  Rng rng(200 + c.kw);
  Conv2d conv(c.cin, c.cout, c.kh, c.kw, c.ph, c.pw, &rng);
  CheckLayerGradients(&conv, {c.batch, c.cin, c.height, c.width},
                      std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Conv2dGradTest,
    ::testing::Combine(
        ::testing::Values(
            Conv2dCase{1, 2, 1, 3, 0, 1, 1, 4, 8},   // the (1, l) dCNN kernel
            Conv2dCase{3, 2, 1, 3, 0, 1, 2, 3, 6},   // multi-channel cube
            Conv2dCase{2, 2, 3, 1, 1, 0, 1, 5, 4},   // the (l, 1) MTEX kernel
            Conv2dCase{2, 3, 3, 3, 1, 1, 1, 4, 4},   // square kernel
            Conv2dCase{2, 2, 4, 1, 0, 0, 1, 4, 5},   // valid merge (D, 1)
            Conv2dCase{1, 1, 1, 1, 0, 0, 2, 3, 3}),  // 1x1 bottleneck
        ::testing::Bool()));

struct ConvGradients {
  Tensor input, weight, bias;
};

void ExpectSameBits(const Tensor& want, const Tensor& got, const char* what) {
  ASSERT_EQ(want.shape(), got.shape()) << what;
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                           static_cast<size_t>(want.size()) * sizeof(float)))
      << what << " gradient bits differ";
}

// Which forward ran last must not move a gradient bit: the GEMM Backward
// reads the columns a training forward kept, or lowers the same columns from
// the cached input itself. Each forward follows a training forward on
// another input, so stale columns would show.
TEST(Conv2dBackwardTest, GradientsDoNotDependOnTheForwardMode) {
  Rng rng(210);
  Conv2d conv(3, 4, 1, 5, 0, 2, &rng);
  Tensor x({2, 3, 4, 9}), other({2, 3, 4, 9}), grad_out({2, 4, 4, 9});
  x.FillNormal(&rng, 0.0f, 1.0f);
  other.FillNormal(&rng, 0.0f, 1.0f);
  grad_out.FillNormal(&rng, 0.0f, 1.0f);

  auto backward_after = [&](const std::function<void()>& forward) {
    conv.Forward(other, /*training=*/true);
    forward();
    for (Parameter* p : conv.Params()) p->ZeroGrad();
    ConvGradients g;
    g.input = conv.Backward(grad_out);
    g.weight = conv.weight().grad.Clone();
    g.bias = conv.bias().grad.Clone();
    return g;
  };
  const ConvGradients train =
      backward_after([&] { conv.Forward(x, /*training=*/true); });
  const ConvGradients eval =
      backward_after([&] { conv.Forward(x, /*training=*/false); });
  const ConvGradients naive = backward_after([&] { conv.ForwardNaive(x); });
  for (const ConvGradients* g : {&eval, &naive}) {
    ExpectSameBits(train.input, g->input, "input");
    ExpectSameBits(train.weight, g->weight, "weight");
    ExpectSameBits(train.bias, g->bias, "bias");
  }
}

TEST(Conv2dBackwardTest, BackwardAfterBf16ForwardAborts) {
  // The global pool is running by now: re-execute the binary for the death
  // test instead of forking a process with live worker threads.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(211);
  Conv2d conv(2, 3, 1, 3, 0, 1, &rng);
  Tensor x({1, 2, 2, 8});
  x.FillNormal(&rng, 0.0f, 1.0f);
  Tensor out;
  {
    gemm::ScopedGemmPrecision bf16(gemm::Precision::kBf16);
    out = conv.Forward(x, /*training=*/false);
  }
  EXPECT_DEATH(conv.Backward(out), "DCAM_CHECK failed");
}

TEST(DenseGradTest, MatchesFiniteDifferences) {
  Rng rng(300);
  Dense dense(5, 3, &rng);
  CheckLayerGradients(&dense, {4, 5}, true);
}

TEST(DenseGradTest, NoBias) {
  Rng rng(301);
  Dense dense(4, 2, &rng, /*use_bias=*/false);
  CheckLayerGradients(&dense, {3, 4}, true);
}

class BatchNormGradTest : public ::testing::TestWithParam<bool> {};

TEST_P(BatchNormGradTest, Rank3MatchesFiniteDifferences) {
  const bool training = GetParam();
  BatchNorm bn(3);
  if (!training) {
    // Populate running statistics first.
    Rng rng(400);
    Tensor warm({4, 3, 6});
    warm.FillNormal(&rng, 0.5f, 1.5f);
    bn.Forward(warm, true);
  }
  CheckLayerGradients(&bn, {4, 3, 6}, training);
}

TEST_P(BatchNormGradTest, Rank4MatchesFiniteDifferences) {
  const bool training = GetParam();
  BatchNorm bn(2);
  if (!training) {
    Rng rng(401);
    Tensor warm({3, 2, 4, 5});
    warm.FillNormal(&rng, 0.0f, 1.0f);
    bn.Forward(warm, true);
  }
  CheckLayerGradients(&bn, {3, 2, 4, 5}, training);
}

INSTANTIATE_TEST_SUITE_P(Modes, BatchNormGradTest, ::testing::Bool());

TEST(ActivationGradTest, ReLU) {
  ReLU relu;
  // Tiny eps so perturbations cannot cross the kink at zero.
  CheckLayerGradients(&relu, {2, 3, 7}, true, /*eps=*/1e-4);
}

TEST(ActivationGradTest, Tanh) {
  Tanh t;
  CheckLayerGradients(&t, {2, 9}, true);
}

TEST(ActivationGradTest, Sigmoid) {
  Sigmoid s;
  CheckLayerGradients(&s, {3, 5}, true);
}

TEST(PoolingGradTest, GlobalAvgPoolRank3) {
  GlobalAvgPool gap;
  CheckLayerGradients(&gap, {2, 3, 8}, true);
}

TEST(PoolingGradTest, GlobalAvgPoolRank4) {
  GlobalAvgPool gap;
  CheckLayerGradients(&gap, {2, 3, 4, 5}, true);
}

TEST(PoolingGradTest, MaxPool1d) {
  MaxPool1d pool(2, 2, 0);
  // eps small so perturbations do not flip the argmax of distinct values.
  CheckLayerGradients(&pool, {2, 2, 8}, true, /*eps=*/1e-3);
}

TEST(PoolingGradTest, MaxPool2dSamePadding) {
  MaxPool2d pool(1, 3, 1, 1, 0, 1);
  CheckLayerGradients(&pool, {1, 2, 3, 8}, true, /*eps=*/1e-3);
}

TEST(SequentialGradTest, ConvBnReluStack) {
  Rng rng(500);
  Sequential seq;
  seq.Emplace<Conv2d>(2, 3, 1, 3, 0, 1, &rng);
  seq.Emplace<BatchNorm>(3);
  seq.Emplace<ReLU>();
  seq.Emplace<Conv2d>(3, 2, 1, 3, 0, 1, &rng);
  CheckLayerGradients(&seq, {2, 2, 3, 6}, true);
}

TEST(SequentialGradTest, MlpWithFlatten) {
  Rng rng(501);
  Sequential seq;
  seq.Emplace<Flatten>();
  seq.Emplace<Dense>(12, 6, &rng);
  seq.Emplace<Tanh>();
  seq.Emplace<Dense>(6, 2, &rng);
  CheckLayerGradients(&seq, {2, 3, 4}, true);
}

}  // namespace
}  // namespace nn
}  // namespace dcam
