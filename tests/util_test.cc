#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <sstream>
#include <vector>

#include "util/check.h"
#include "util/clock.h"
#include "util/csv.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/xxhash.h"

namespace dcam {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 6);
}

TEST(RngTest, NormalHasExpectedMoments) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, NormalWithParamsShiftsAndScales) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(5.0, 0.5);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<int> p = rng.Permutation(23);
    std::set<int> seen(p.begin(), p.end());
    EXPECT_EQ(seen.size(), 23u);
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), 22);
  }
}

TEST(RngTest, PermutationsVary) {
  Rng rng(19);
  const std::vector<int> a = rng.Permutation(16);
  const std::vector<int> b = rng.Permutation(16);
  EXPECT_NE(a, b);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, 1000, [&](int64_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  std::atomic<int> count(0);
  ParallelFor(5, 5, [&](int64_t) { count.fetch_add(1); });
  ParallelFor(5, 3, [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
}

TEST(ParallelForTest, NestedCallsDegradeToSerial) {
  std::atomic<int64_t> total(0);
  ParallelFor(0, 8, [&](int64_t) {
    ParallelFor(0, 100, [&](int64_t j) { total.fetch_add(j); });
  });
  EXPECT_EQ(total.load(), 8 * (99 * 100) / 2);
}

TEST(ParallelForTest, SumMatchesSerial) {
  std::atomic<int64_t> sum(0);
  ParallelFor(0, 12345, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 12344LL * 12345 / 2);
}

TEST(ParallelForTest, ReusableAcrossCalls) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count(0);
    ParallelFor(0, 64, [&](int64_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 64);
  }
}

TEST(TableWriterTest, CsvOutput) {
  TableWriter t({"a", "b"});
  t.BeginRow();
  t.Cell("x");
  t.Cell(1.5, 1);
  std::ostringstream os;
  t.WriteCsv(os);
  EXPECT_EQ(os.str(), "a,b\nx,1.5\n");
}

TEST(TableWriterTest, AlignedOutputPadsColumns) {
  TableWriter t({"name", "v"});
  t.BeginRow();
  t.Cell("long-name-here");
  t.Cell(static_cast<int64_t>(2));
  std::ostringstream os;
  t.WriteAligned(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("long-name-here"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
}

TEST(TableWriterTest, NumRows) {
  TableWriter t({"a"});
  EXPECT_EQ(t.num_rows(), 0);
  t.BeginRow();
  t.Cell(1);
  EXPECT_EQ(t.num_rows(), 1);
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
}

TEST(ManualClockTest, AdvancesOnlyOnDemand) {
  ManualClock clock;
  const auto t0 = clock.Now();
  EXPECT_EQ(clock.Now(), t0);  // time is frozen until Advance
  clock.Advance(std::chrono::milliseconds(250));
  EXPECT_EQ(clock.Now() - t0, MonotonicClock::duration(
                                  std::chrono::milliseconds(250)));
  clock.Advance(std::chrono::nanoseconds(1));
  EXPECT_GT(clock.Now(), t0 + std::chrono::milliseconds(250) -
                             std::chrono::nanoseconds(1));
}

TEST(ManualClockTest, StartsAtTheRealSteadyClock) {
  // Deadlines built against the real clock and a fresh ManualClock must be
  // comparable: the manual clock seeds itself from steady_clock's now.
  const auto real_before = RealClock::Get()->Now();
  ManualClock clock;
  EXPECT_GE(clock.Now(), real_before);
  EXPECT_LE(clock.Now(), RealClock::Get()->Now());
}

TEST(RealClockTest, IsMonotonic) {
  const MonotonicClock* clock = RealClock::Get();
  const auto a = clock->Now();
  const auto b = clock->Now();
  EXPECT_LE(a, b);
}

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch w;
  double t1 = w.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  w.Reset();
  EXPECT_GE(w.ElapsedMillis(), 0.0);
}

TEST(CheckTest, FailureAborts) {
  EXPECT_DEATH({ DCAM_CHECK(false) << "boom"; }, "DCAM_CHECK failed");
}

TEST(CheckTest, ComparisonMacros) {
  EXPECT_DEATH({ DCAM_CHECK_EQ(1, 2); }, "DCAM_CHECK failed");
  EXPECT_DEATH({ DCAM_CHECK_LT(3, 3); }, "DCAM_CHECK failed");
  DCAM_CHECK_EQ(1, 1);  // passes: no abort
  DCAM_CHECK_LE(3, 3);
}

// 4096 fixed bytes; the digest tests hash prefixes of them.
std::vector<unsigned char> HashInput() {
  std::vector<unsigned char> bytes(4096);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 131 + 17);
  }
  return bytes;
}

// Reference digests of the reference implementation (libxxhash 0.8.1), at
// lengths that cross the 32-byte stripe loop and the 8-, 4- and 1-byte
// tails.
TEST(Xxh64Test, MatchesTheReferenceDigests) {
  constexpr uint64_t kSeed = 0x9E3779B97F4A7C15ULL;
  struct Case {
    size_t len;
    uint64_t seed0;
    uint64_t seeded;
  };
  const Case cases[] = {
      {0, 0xef46db3751d8e999ULL, 0xc4349fc93c010000ULL},
      {1, 0xad10cd9780ac4ff7ULL, 0xeee0b6d27c96399cULL},
      {3, 0x40626d96276e4594ULL, 0x93ba463a084767e9ULL},
      {4, 0x882207c122c76e23ULL, 0xd0c267b9ee1e5859ULL},
      {7, 0xcfc90033aa9dac4fULL, 0xd684eda4399035afULL},
      {8, 0x90fda2f089fa86deULL, 0x7dec350536051091ULL},
      {31, 0x44cc9efe5d2d0233ULL, 0x0fb3b15a174b3ff1ULL},
      {32, 0x0e1aab1d173cf196ULL, 0x860a935aa1fdd66bULL},
      {33, 0x5c820b4b4fe28fdcULL, 0x3b00a6ef0416e4a4ULL},
      {64, 0xd4c20ef54cbc9f67ULL, 0xf6fb8b57d2e5f8f6ULL},
      {100, 0x7f8375f3e09d8123ULL, 0x72a72996bc4434acULL},
      {4096, 0xa78a1899df4ccfdcULL, 0xc5feaf4c2f2d3f1bULL},
  };
  const std::vector<unsigned char> input = HashInput();
  for (const Case& c : cases) {
    EXPECT_EQ(Xxh64(input.data(), c.len), c.seed0) << "len " << c.len;
    EXPECT_EQ(Xxh64(input.data(), c.len, kSeed), c.seeded) << "len " << c.len;
  }
  EXPECT_EQ(Xxh64(nullptr, 0), 0xef46db3751d8e999ULL);
}

TEST(Xxh64Test, EverySingleBitFlipChangesTheDigest) {
  const std::vector<unsigned char> input = HashInput();
  for (size_t len = 1; len <= 96; ++len) {
    std::vector<unsigned char> bytes(input.begin(), input.begin() + len);
    const uint64_t clean = Xxh64(bytes.data(), len);
    for (size_t bit = 0; bit < len * 8; ++bit) {
      bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
      EXPECT_NE(Xxh64(bytes.data(), len), clean)
          << "len " << len << ", bit " << bit;
      bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    }
  }
}

}  // namespace
}  // namespace dcam
