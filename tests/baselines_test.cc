// Tests for the classical distance-based baselines: Euclidean / DTW
// distances, the LB_Keogh lower bound, and the k-NN classifier.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "baselines/distance.h"
#include "baselines/knn.h"
#include "data/series.h"
#include "data/synthetic.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace dcam {
namespace baselines {
namespace {

Tensor Series1d(const std::vector<float>& v) {
  return Tensor({1, static_cast<int64_t>(v.size())}, v);
}

Tensor RandomSeries(int64_t d, int64_t n, uint64_t seed) {
  Rng rng(seed);
  Tensor t({d, n});
  t.FillNormal(&rng, 0.0f, 1.0f);
  return t;
}

TEST(EuclideanTest, HandComputed) {
  Tensor a({2, 2}, std::vector<float>{0, 0, 0, 0});
  Tensor b({2, 2}, std::vector<float>{1, 2, 2, 0});
  EXPECT_DOUBLE_EQ(SquaredEuclidean(a, b), 1 + 4 + 4 + 0);
  EXPECT_DOUBLE_EQ(Euclidean(a, b), 3.0);
}

TEST(EuclideanTest, IdentityIsZero) {
  Tensor a = RandomSeries(3, 17, 1);
  EXPECT_DOUBLE_EQ(SquaredEuclidean(a, a), 0.0);
}

TEST(EuclideanTest, Symmetric) {
  Tensor a = RandomSeries(2, 9, 2);
  Tensor b = RandomSeries(2, 9, 3);
  EXPECT_DOUBLE_EQ(SquaredEuclidean(a, b), SquaredEuclidean(b, a));
}

TEST(EuclideanTest, ShapeMismatchAborts) {
  // Earlier tests may have started the global pool: re-execute the binary
  // instead of forking a process with live worker threads.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Tensor a({1, 4});
  Tensor b({1, 5});
  EXPECT_DEATH(SquaredEuclidean(a, b), "DCAM_CHECK failed");
}

TEST(DtwTest, IdenticalSeriesHaveZeroDistance) {
  Tensor a = RandomSeries(1, 20, 4);
  EXPECT_DOUBLE_EQ(DtwUnivariate(a, a, 0, -1), 0.0);
}

TEST(DtwTest, HandComputedAlignment) {
  // a = [0, 1, 2], b = [0, 0, 1, 2] should align perfectly: DTW = 0.
  Tensor a({1, 4}, std::vector<float>{0, 1, 2, 2});
  Tensor b({1, 4}, std::vector<float>{0, 0, 1, 2});
  EXPECT_DOUBLE_EQ(DtwUnivariate(a, b, 0, -1), 0.0);
  // Lock-step (Euclidean) cannot: (0-0)^2 + (1-0)^2 + (2-1)^2 + (2-2)^2 = 2.
  EXPECT_DOUBLE_EQ(SquaredEuclidean(a, b), 2.0);
}

TEST(DtwTest, UnconstrainedAtMostEuclidean) {
  // DTW with any band is <= the lock-step distance (the diagonal path is
  // always available).
  for (uint64_t s = 0; s < 10; ++s) {
    Tensor a = RandomSeries(1, 25, 100 + s);
    Tensor b = RandomSeries(1, 25, 200 + s);
    EXPECT_LE(DtwUnivariate(a, b, 0, -1),
              SquaredEuclidean(a, b) + 1e-9);
  }
}

TEST(DtwTest, BandZeroEqualsEuclidean) {
  Tensor a = RandomSeries(1, 30, 5);
  Tensor b = RandomSeries(1, 30, 6);
  EXPECT_NEAR(DtwUnivariate(a, b, 0, /*band=*/0), SquaredEuclidean(a, b),
              1e-9);
}

TEST(DtwTest, WiderBandNeverIncreasesDistance) {
  Tensor a = RandomSeries(1, 40, 7);
  Tensor b = RandomSeries(1, 40, 8);
  double prev = DtwUnivariate(a, b, 0, 0);
  for (int64_t band : {1, 2, 4, 8, 16, 40}) {
    const double d = DtwUnivariate(a, b, 0, band);
    EXPECT_LE(d, prev + 1e-9) << "band " << band;
    prev = d;
  }
}

TEST(DtwTest, EarlyAbandonReturnsInfinity) {
  Tensor a({1, 4}, std::vector<float>{0, 0, 0, 0});
  Tensor b({1, 4}, std::vector<float>{10, 10, 10, 10});
  const double d = DtwUnivariate(a, b, 0, -1, /*early_abandon=*/1.0);
  EXPECT_TRUE(std::isinf(d));
}

TEST(DtwTest, DependentEqualsUnivariateSumForOneDim) {
  Tensor a = RandomSeries(1, 22, 9);
  Tensor b = RandomSeries(1, 22, 10);
  EXPECT_NEAR(DtwDependent(a, b, -1), DtwUnivariate(a, b, 0, -1), 1e-9);
  EXPECT_NEAR(DtwIndependent(a, b, -1), DtwUnivariate(a, b, 0, -1), 1e-9);
}

TEST(DtwTest, IndependentAtMostDependent) {
  // DTW_I optimizes one path per dimension, DTW_D shares one path, so
  // DTW_I <= DTW_D (Shokoohi-Yekta et al.).
  for (uint64_t s = 0; s < 8; ++s) {
    Tensor a = RandomSeries(4, 18, 300 + s);
    Tensor b = RandomSeries(4, 18, 400 + s);
    EXPECT_LE(DtwIndependent(a, b, -1), DtwDependent(a, b, -1) + 1e-9);
  }
}

TEST(LbKeoghTest, IsLowerBoundForBothDtws) {
  for (uint64_t s = 0; s < 12; ++s) {
    Tensor a = RandomSeries(3, 20, 500 + s);
    Tensor b = RandomSeries(3, 20, 600 + s);
    for (int64_t band : {0, 2, 5, 20}) {
      const double lb = LbKeogh(a, b, band);
      EXPECT_LE(lb, DtwIndependent(a, b, band) + 1e-9) << "band " << band;
      EXPECT_LE(lb, DtwDependent(a, b, band) + 1e-9) << "band " << band;
    }
  }
}

TEST(LbKeoghTest, ZeroForIdenticalSeries) {
  Tensor a = RandomSeries(2, 15, 77);
  EXPECT_DOUBLE_EQ(LbKeogh(a, a, 3), 0.0);
}

TEST(LbKeoghTest, UnconstrainedBandEqualsGlobalEnvelope) {
  // With the band covering the whole series the envelope is the global
  // min/max of the candidate; points inside it contribute nothing.
  Tensor q({1, 3}, std::vector<float>{0.0f, 5.0f, -3.0f});
  Tensor c({1, 3}, std::vector<float>{-1.0f, 1.0f, 0.0f});
  // Envelope [-1, 1]: q=0 inside, q=5 -> 16, q=-3 -> 4.
  EXPECT_DOUBLE_EQ(LbKeogh(q, c, -1), 20.0);
}

data::Dataset EasyDataset(int dims, int instances, uint64_t seed) {
  data::SyntheticSpec spec;
  spec.type = 1;
  spec.dims = dims;
  spec.length = 64;
  spec.pattern_len = 16;
  spec.instances_per_class = instances;
  spec.seed = seed;
  return data::BuildSynthetic(spec);
}

TEST(KnnTest, OneNnPerfectOnTrainSet) {
  data::Dataset ds = EasyDataset(4, 10, 3);
  KnnOptions opt;
  opt.k = 1;
  KnnClassifier knn(opt);
  knn.Fit(ds);
  // 1-NN on its own training set finds each instance itself: accuracy 1.
  EXPECT_DOUBLE_EQ(knn.Score(ds), 1.0);
}

TEST(KnnTest, PredictBeforeFitAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  KnnClassifier knn;
  Tensor x({2, 8});
  EXPECT_DEATH(knn.Predict(x), "DCAM_CHECK failed");
}

TEST(KnnTest, WrongShapeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  data::Dataset ds = EasyDataset(4, 5, 4);
  KnnClassifier knn;
  knn.Fit(ds);
  Tensor bad({3, ds.length()});
  EXPECT_DEATH(knn.Predict(bad), "DCAM_CHECK failed");
}

TEST(KnnTest, MajorityVoteWithK3) {
  // Three training points of class 0 clustered at 0, one of class 1 at 10.
  // A query at 1.0 has 1-NN class 0 and 3-NN majority class 0; a query at
  // 9 has 1-NN class 1 but 3-NN majority class 0 (2 of 3 votes).
  Tensor x({4, 1, 4});
  std::vector<int> y = {0, 0, 0, 1};
  for (int64_t t = 0; t < 4; ++t) {
    x.at(0, 0, t) = 0.0f;
    x.at(1, 0, t) = 0.2f;
    x.at(2, 0, t) = -0.2f;
    x.at(3, 0, t) = 10.0f;
  }
  data::Dataset ds;
  ds.X = x;
  ds.y = y;
  ds.num_classes = 2;

  KnnOptions opt;
  opt.k = 3;
  KnnClassifier knn(opt);
  knn.Fit(ds);

  Tensor q1({1, 4}, std::vector<float>{9.0f, 9.0f, 9.0f, 9.0f});
  EXPECT_EQ(knn.Predict(q1), 0);  // outvoted

  KnnOptions opt1;
  opt1.k = 1;
  KnnClassifier knn1(opt1);
  knn1.Fit(ds);
  EXPECT_EQ(knn1.Predict(q1), 1);  // nearest wins
}

// Two well-separated classes: class 0 series oscillate around 0, class 1
// around an offset of 4, with per-instance phase jitter that defeats
// lock-step alignment but not DTW.
data::Dataset TwoClusterDataset(int per_class, int64_t d, int64_t n,
                                uint64_t seed) {
  Rng rng(seed);
  const int total = 2 * per_class;
  Tensor x({total, d, n});
  std::vector<int> y;
  for (int i = 0; i < total; ++i) {
    const int label = i < per_class ? 0 : 1;
    y.push_back(label);
    const double phase = rng.Uniform(0.0, 3.0);
    for (int64_t j = 0; j < d; ++j) {
      for (int64_t t = 0; t < n; ++t) {
        const double base = std::sin(0.4 * (t + phase) + j);
        x.at(i, j, t) = static_cast<float>(
            base + 4.0 * label + rng.Normal(0.0, 0.05));
      }
    }
  }
  data::Dataset ds;
  ds.name = "two_clusters";
  ds.X = x;
  ds.y = y;
  ds.num_classes = 2;
  return ds;
}

TEST(KnnTest, AllMetricsSeparateWellSeparatedClusters) {
  data::Dataset all = TwoClusterDataset(10, 2, 40, 9);
  Rng rng(31);
  data::Dataset train;
  data::Dataset test;
  data::StratifiedSplit(all, 0.7, &rng, &train, &test);

  for (Metric m :
       {Metric::kEuclidean, Metric::kDtwIndependent, Metric::kDtwDependent}) {
    KnnOptions opt;
    opt.metric = m;
    opt.band = 8;
    KnnClassifier knn(opt);
    knn.Fit(train);
    EXPECT_DOUBLE_EQ(knn.Score(test), 1.0) << MetricName(m);
  }
}

TEST(KnnTest, HardSyntheticIsHarderForDistanceBaselines) {
  // Sanity check of the paper's premise: on the injected-pattern synthetic
  // data (where the signal is a small subsequence in a couple of
  // dimensions), raw 1-NN ED stays near chance — the gap CNN-based models
  // close (Table 3).
  data::Dataset all = EasyDataset(3, 12, 9);
  Rng rng(31);
  data::Dataset train;
  data::Dataset test;
  data::StratifiedSplit(all, 0.7, &rng, &train, &test);
  KnnClassifier knn;
  knn.Fit(train);
  EXPECT_LE(knn.Score(test), 0.85);
  EXPECT_GE(knn.Score(test), 0.3);
}

TEST(KnnTest, PruningDoesNotChangePredictions) {
  data::Dataset all = TwoClusterDataset(8, 2, 32, 13);
  Rng rng(17);
  data::Dataset train;
  data::Dataset test;
  data::StratifiedSplit(all, 0.7, &rng, &train, &test);

  KnnOptions pruned;
  pruned.metric = Metric::kDtwDependent;
  pruned.band = 4;
  pruned.prune = true;
  KnnOptions exact;
  exact.metric = Metric::kDtwDependent;
  exact.band = 4;
  exact.prune = false;

  KnnClassifier a(pruned);
  KnnClassifier b(exact);
  a.Fit(train);
  b.Fit(train);
  EXPECT_EQ(a.PredictAll(test), b.PredictAll(test));
  // Opposite-cluster candidates have LB_Keogh far above the within-cluster
  // cutoff, so the scan must have skipped them.
  EXPECT_GT(a.pruned_count(), 0);
}

TEST(KnnTest, MetricNames) {
  EXPECT_EQ(MetricName(Metric::kEuclidean), "ED");
  EXPECT_EQ(MetricName(Metric::kDtwIndependent), "DTW_I");
  EXPECT_EQ(MetricName(Metric::kDtwDependent), "DTW_D");
}

}  // namespace
}  // namespace baselines
}  // namespace dcam
