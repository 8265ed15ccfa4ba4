// The tiered result cache: byte-weighted/TTL behavior of the in-memory LRU
// (lru_cache.h), the persistent segment tier (cache_tier.h) in isolation —
// round-trip across reopen, TTL on a wall clock, corrupted and truncated
// segments degrading to misses — and the service-level contract: a restarted
// ExplainService over the same cache directory answers a repeated request
// from tier 2, bit-identically and without recompute.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "explain/cache_tier.h"
#include "explain/lru_cache.h"
#include "explain/service.h"
#include "models/cnn.h"
#include "util/clock.h"
#include "util/rng.h"

#if defined(__unix__) || defined(__APPLE__)
#include <dirent.h>
#include <unistd.h>
#endif

namespace dcam {
namespace explain {
namespace {

constexpr int kDims = 4;
constexpr int kLen = 12;

std::unique_ptr<models::ConvNet> TinyDcnn(Rng* rng, int num_classes = 2) {
  models::ConvNetConfig cfg;
  cfg.filters = {4, 4};
  return std::make_unique<models::ConvNet>(models::InputMode::kCube, kDims,
                                           num_classes, cfg, rng);
}

Tensor RandomSeries(Rng* rng) {
  Tensor series({kDims, kLen});
  series.FillNormal(rng, 0.0f, 1.0f);
  return series;
}

void ExpectSameMap(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "maps differ at flat index " << i;
  }
}

// A fresh, empty directory under the test tmpdir: removes any files left by
// a previous run of the same test so segment scans start from nothing.
std::string FreshCacheDir(const std::string& stem) {
  const std::string dir = ::testing::TempDir() + "/" + stem;
#if defined(__unix__) || defined(__APPLE__)
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* ent = ::readdir(d)) {
      const std::string name = ent->d_name;
      if (name != "." && name != "..") {
        std::remove((dir + "/" + name).c_str());
      }
    }
    ::closedir(d);
  }
#endif
  return dir;
}

std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> out;
#if defined(__unix__) || defined(__APPLE__)
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* ent = ::readdir(d)) {
      const std::string name = ent->d_name;
      if (name.size() > 4 &&
          name.compare(name.size() - 4, 4, ".dcc") == 0) {
        out.push_back(dir + "/" + name);
      }
    }
    ::closedir(d);
  }
#endif
  return out;
}

ResultCacheKey TestKey(uint64_t series_hash, uint64_t digest = 7,
                       const std::string& model_id = "m") {
  ResultCacheKey key;
  key.model_id = model_id;
  key.method = "dcam";
  key.backend = "portable";
  key.series_hash = series_hash;
  key.options_digest = digest;
  return key;
}

ExplanationResult TestResult(Rng* rng, int k) {
  ExplanationResult r;
  r.map = Tensor({kDims, kLen});
  r.map.FillNormal(rng, 0.0f, 1.0f);
  r.k = k;
  r.num_correct = k / 2;
  r.converged = true;
  r.convergence = 0.5;  // must come back canonical (0.0)
  return r;
}

// ---- LruCache: byte weighting and TTL --------------------------------------

TEST(LruCacheBytesTest, EvictsLeastRecentWhenOverByteBound) {
  LruCache<int, int> cache(/*capacity=*/10, /*capacity_bytes=*/100);
  cache.Put(1, 10, /*bytes=*/40);
  cache.Put(2, 20, /*bytes=*/40);
  EXPECT_EQ(cache.bytes(), 80u);
  cache.Put(3, 30, /*bytes=*/40);  // 120 > 100: evicts key 1 (LRU)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 80u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get(1), nullptr);
  ASSERT_NE(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(3), nullptr);
}

TEST(LruCacheBytesTest, GetPromotionProtectsHeavyEntry) {
  LruCache<int, int> cache(10, 100);
  cache.Put(1, 10, 40);
  cache.Put(2, 20, 40);
  ASSERT_NE(cache.Get(1), nullptr);  // 1 becomes most-recent
  cache.Put(3, 30, 40);              // evicts 2, not 1
  EXPECT_EQ(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);
}

TEST(LruCacheBytesTest, OverwriteAdjustsByteAccounting) {
  LruCache<int, int> cache(10, 100);
  cache.Put(1, 10, 40);
  cache.Put(1, 11, 90);  // same key, heavier
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 90u);
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), 11);
}

TEST(LruCacheBytesTest, OversizedEntryIsNotCached) {
  LruCache<int, int> cache(10, 100);
  cache.Put(1, 10, 40);
  cache.Put(2, 20, /*bytes=*/101);  // alone over the bound: dropped
  EXPECT_EQ(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);  // working set survives
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(LruCacheTtlTest, ExpiresLazilyOnProbe) {
  LruCache<int, int> cache(10);
  cache.Put(1, 10, 1, /*expires_ns=*/1000);
  cache.Put(2, 20, 1);  // no expiry
  ASSERT_NE(cache.Get(1, /*now_ns=*/999), nullptr);
  EXPECT_EQ(cache.expired(), 0u);
  EXPECT_EQ(cache.Get(1, /*now_ns=*/1000), nullptr);  // at expiry: gone
  EXPECT_EQ(cache.expired(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);  // expiry is not eviction
  ASSERT_NE(cache.Get(2, /*now_ns=*/5000), nullptr);
  // now_ns = 0 skips the check entirely.
  cache.Put(3, 30, 1, /*expires_ns=*/1);
  ASSERT_NE(cache.Get(3, /*now_ns=*/0), nullptr);
}

// ---- PersistentCacheTier in isolation --------------------------------------

TEST(PersistentCacheTierTest, BufferedEntriesServeBeforeFlush) {
  Rng rng(91);
  const std::string dir = FreshCacheDir("tier2_buffered");
  std::unique_ptr<PersistentCacheTier> tier;
  ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &tier).ok());
  const Tensor series = RandomSeries(&rng);
  const ExplanationResult want = TestResult(&rng, 8);
  tier->Put(TestKey(1), series, want);
  EXPECT_EQ(tier->entries(), 1u);
  ExplanationResult got;
  ASSERT_TRUE(tier->Get(TestKey(1), series, &got));
  ExpectSameMap(got.map, want.map);
  EXPECT_EQ(got.k, want.k);
  EXPECT_EQ(got.num_correct, want.num_correct);
  EXPECT_TRUE(got.converged);
  EXPECT_EQ(got.convergence, 0.0);  // canonical cached form
}

TEST(PersistentCacheTierTest, RoundTripsAcrossReopen) {
  Rng rng(92);
  const std::string dir = FreshCacheDir("tier2_roundtrip");
  const Tensor series_a = RandomSeries(&rng);
  const Tensor series_b = RandomSeries(&rng);
  const ExplanationResult want_a = TestResult(&rng, 8);
  const ExplanationResult want_b = TestResult(&rng, 16);
  {
    std::unique_ptr<PersistentCacheTier> tier;
    ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &tier).ok());
    tier->Put(TestKey(1), series_a, want_a);
    tier->Put(TestKey(2), series_b, want_b);
    // Destruction flushes the buffered entries into one segment.
  }
  ASSERT_EQ(SegmentFiles(dir).size(), 1u);
  std::unique_ptr<PersistentCacheTier> tier;
  ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &tier).ok());
  EXPECT_EQ(tier->segments_loaded(), 1);
  EXPECT_EQ(tier->entries(), 2u);
  ExplanationResult got;
  ASSERT_TRUE(tier->Get(TestKey(1), series_a, &got));
  ExpectSameMap(got.map, want_a.map);
  ASSERT_TRUE(tier->Get(TestKey(2), series_b, &got));
  ExpectSameMap(got.map, want_b.map);
  EXPECT_EQ(tier->hits(), 2u);
  // The collision guard: same key, different series bytes -> miss.
  EXPECT_FALSE(tier->Get(TestKey(1), series_b, &got));
}

TEST(PersistentCacheTierTest, TtlExpiresOnTheInjectedWallClock) {
  Rng rng(93);
  const std::string dir = FreshCacheDir("tier2_ttl");
  const Tensor series = RandomSeries(&rng);
  int64_t now = 1'000'000'000;
  PersistentCacheTier::Options opts;
  opts.ttl = std::chrono::nanoseconds(500);
  opts.now_unix_ns = [&now] { return now; };
  {
    std::unique_ptr<PersistentCacheTier> tier;
    ASSERT_TRUE(PersistentCacheTier::Open(dir, opts, &tier).ok());
    tier->Put(TestKey(1), series, TestResult(&rng, 8));
  }
  std::unique_ptr<PersistentCacheTier> tier;
  ASSERT_TRUE(PersistentCacheTier::Open(dir, opts, &tier).ok());
  ExplanationResult got;
  now += 499;
  ASSERT_TRUE(tier->Get(TestKey(1), series, &got));  // still fresh
  now += 1;  // created + 500: expired
  EXPECT_FALSE(tier->Get(TestKey(1), series, &got));
  EXPECT_EQ(tier->expired(), 1u);
  EXPECT_FALSE(tier->Get(TestKey(1), series, &got));  // dropped, stays gone
  EXPECT_EQ(tier->expired(), 1u);
}

TEST(PersistentCacheTierTest, CorruptedRecordIsRejectedAtLoad) {
  Rng rng(94);
  const std::string dir = FreshCacheDir("tier2_corrupt");
  const Tensor series = RandomSeries(&rng);
  {
    std::unique_ptr<PersistentCacheTier> tier;
    ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &tier).ok());
    tier->Put(TestKey(1), series, TestResult(&rng, 8));
  }
  const std::vector<std::string> segs = SegmentFiles(dir);
  ASSERT_EQ(segs.size(), 1u);
  // Flip one byte in the record body (past the 24-byte header): the record
  // checksum no longer matches, so the load walk stops before indexing it.
  {
    std::fstream f(segs[0],
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(60);
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x5a;
    f.seekp(60);
    f.write(&byte, 1);
  }
  std::unique_ptr<PersistentCacheTier> tier;
  ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &tier).ok());
  EXPECT_EQ(tier->entries(), 0u);
  EXPECT_EQ(tier->segments_rejected(), 1);
  ExplanationResult got;
  EXPECT_FALSE(tier->Get(TestKey(1), series, &got));
}

TEST(PersistentCacheTierTest, TruncatedSegmentServesItsVerifiedPrefix) {
  Rng rng(95);
  const std::string dir = FreshCacheDir("tier2_truncate");
  const Tensor series_a = RandomSeries(&rng);
  const Tensor series_b = RandomSeries(&rng);
  {
    std::unique_ptr<PersistentCacheTier> tier;
    ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &tier).ok());
    tier->Put(TestKey(1), series_a, TestResult(&rng, 8));
    tier->Put(TestKey(2), series_b, TestResult(&rng, 16));
  }
  const std::vector<std::string> segs = SegmentFiles(dir);
  ASSERT_EQ(segs.size(), 1u);
#if defined(__unix__) || defined(__APPLE__)
  // Chop the tail off the second record (a crash mid-write of a non-atomic
  // copy, a torn disk, ...): the first record's checksum still verifies, so
  // it keeps serving; the second becomes a miss.
  std::ifstream in(segs[0], std::ios::binary | std::ios::ate);
  const auto full = static_cast<long>(in.tellg());
  in.close();
  ASSERT_EQ(::truncate(segs[0].c_str(), full - 16), 0);
#endif
  std::unique_ptr<PersistentCacheTier> tier;
  ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &tier).ok());
  EXPECT_EQ(tier->entries(), 1u);
  EXPECT_EQ(tier->segments_loaded(), 1);
  ExplanationResult got;
  EXPECT_TRUE(tier->Get(TestKey(1), series_a, &got));
  EXPECT_FALSE(tier->Get(TestKey(2), series_b, &got));
}

TEST(PersistentCacheTierTest, ErasedBufferedRecordNeverReachesDisk) {
  Rng rng(191);
  const std::string dir = FreshCacheDir("tier2_erase_buffered");
  const Tensor series_a = RandomSeries(&rng);
  const Tensor series_b = RandomSeries(&rng);
  const ExplanationResult recomputed_a = TestResult(&rng, 16);
  {
    std::unique_ptr<PersistentCacheTier> tier;
    ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &tier).ok());
    tier->Put(TestKey(1, 7, "a"), series_a, TestResult(&rng, 8));
    EXPECT_EQ(tier->EraseModel("a"), 1u);
    ASSERT_TRUE(tier->Flush().ok());
    EXPECT_TRUE(SegmentFiles(dir).empty());
    // Erased between its Put and the flush, then recomputed under the same
    // key: only the recomputed record may reach the segment.
    tier->Put(TestKey(1, 7, "a"), series_a, TestResult(&rng, 8));
    tier->Put(TestKey(2, 7, "b"), series_b, TestResult(&rng, 8));
    EXPECT_EQ(tier->EraseModel("a"), 1u);
    tier->Put(TestKey(1, 7, "a"), series_a, recomputed_a);
  }
  ASSERT_EQ(SegmentFiles(dir).size(), 1u);
  std::unique_ptr<PersistentCacheTier> tier;
  ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &tier).ok());
  EXPECT_EQ(tier->entries(), 2u);
  ExplanationResult got;
  ASSERT_TRUE(tier->Get(TestKey(1, 7, "a"), series_a, &got));
  ExpectSameMap(got.map, recomputed_a.map);
  EXPECT_EQ(got.k, 16);
  EXPECT_TRUE(tier->Get(TestKey(2, 7, "b"), series_b, &got));
}

TEST(PersistentCacheTierTest, SegmentSharedByTwoModelsSurvivesEraseOfOne) {
  Rng rng(192);
  const std::string dir = FreshCacheDir("tier2_erase_shared");
  const Tensor series_a = RandomSeries(&rng);
  const Tensor series_b = RandomSeries(&rng);
  const ExplanationResult want_b = TestResult(&rng, 8);
  {
    std::unique_ptr<PersistentCacheTier> tier;
    ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &tier).ok());
    tier->Put(TestKey(1, 7, "a"), series_a, TestResult(&rng, 8));
    tier->Put(TestKey(2, 7, "b"), series_b, want_b);
    ASSERT_TRUE(tier->Flush().ok());
    EXPECT_EQ(tier->EraseModel("a"), 1u);
    ExplanationResult got;
    ASSERT_TRUE(tier->Get(TestKey(2, 7, "b"), series_b, &got));
    ExpectSameMap(got.map, want_b.map);
  }
  ASSERT_EQ(SegmentFiles(dir).size(), 1u);
  std::unique_ptr<PersistentCacheTier> tier;
  ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &tier).ok());
  ExplanationResult got;
  ASSERT_TRUE(tier->Get(TestKey(2, 7, "b"), series_b, &got));
  ExpectSameMap(got.map, want_b.map);
}

// A segment is unmapped and its file removed once no index entry points
// into it: after an erase, after a later segment supersedes it at open, and
// after its last entry expires on a probe.
TEST(PersistentCacheTierTest, SegmentWithNoLiveEntryIsRemoved) {
  Rng rng(193);
  const std::string dir = FreshCacheDir("tier2_dead_segment");
  const Tensor series_a = RandomSeries(&rng);
  const Tensor series_b = RandomSeries(&rng);
  const ExplanationResult want_b = TestResult(&rng, 8);
  int64_t now = 1'000'000'000;
  PersistentCacheTier::Options opts;
  opts.ttl = std::chrono::nanoseconds(500);
  opts.now_unix_ns = [&now] { return now; };
  {
    std::unique_ptr<PersistentCacheTier> tier;
    ASSERT_TRUE(PersistentCacheTier::Open(dir, opts, &tier).ok());
    tier->Put(TestKey(1, 7, "a"), series_a, TestResult(&rng, 8));
    ASSERT_TRUE(tier->Flush().ok());
    tier->Put(TestKey(2, 7, "b"), series_b, want_b);
    ASSERT_TRUE(tier->Flush().ok());
    ASSERT_EQ(SegmentFiles(dir).size(), 2u);
    EXPECT_EQ(tier->EraseModel("a"), 1u);
    EXPECT_EQ(SegmentFiles(dir).size(), 1u);
    ExplanationResult got;
    ASSERT_TRUE(tier->Get(TestKey(2, 7, "b"), series_b, &got));
    ExpectSameMap(got.map, want_b.map);
  }
  const std::vector<std::string> survivor = SegmentFiles(dir);
  ASSERT_EQ(survivor.size(), 1u);
  const std::string copy = dir + "/cache-999999.dcc";
  std::filesystem::copy_file(survivor[0], copy);

  std::unique_ptr<PersistentCacheTier> tier;
  ASSERT_TRUE(PersistentCacheTier::Open(dir, opts, &tier).ok());
  EXPECT_EQ(tier->segments_loaded(), 2);
  EXPECT_EQ(SegmentFiles(dir), std::vector<std::string>{copy});
  ExplanationResult got;
  ASSERT_TRUE(tier->Get(TestKey(2, 7, "b"), series_b, &got));
  ExpectSameMap(got.map, want_b.map);

  now += 500;
  EXPECT_FALSE(tier->Get(TestKey(2, 7, "b"), series_b, &got));
  EXPECT_EQ(tier->expired(), 1u);
  EXPECT_TRUE(SegmentFiles(dir).empty());
}

// Two tiers open over one directory pick the same sequence for their first
// segment. Each tier's own token keeps the names apart, so the second flush
// leaves the first tier's segment in place, and a tier opened afterwards
// serves both records.
TEST(PersistentCacheTierTest, TwoTiersOverOneDirectoryKeepBothSegments) {
  Rng rng(195);
  const std::string dir = FreshCacheDir("tier2_shared_dir");
  const Tensor series = RandomSeries(&rng);
  const ExplanationResult want_a = TestResult(&rng, 8);
  const ExplanationResult want_b = TestResult(&rng, 8);
  {
    std::unique_ptr<PersistentCacheTier> a;
    std::unique_ptr<PersistentCacheTier> b;
    ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &a).ok());
    ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &b).ok());
    a->Put(TestKey(1), series, want_a);
    ASSERT_TRUE(a->Flush().ok());
    b->Put(TestKey(2), series, want_b);
    ASSERT_TRUE(b->Flush().ok());
  }
  EXPECT_EQ(SegmentFiles(dir).size(), 2u);
  std::unique_ptr<PersistentCacheTier> tier;
  ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &tier).ok());
  EXPECT_EQ(tier->segments_loaded(), 2);
  ExplanationResult got;
  ASSERT_TRUE(tier->Get(TestKey(1), series, &got));
  ExpectSameMap(got.map, want_a.map);
  ASSERT_TRUE(tier->Get(TestKey(2), series, &got));
  ExpectSameMap(got.map, want_b.map);
}

// Sequence numbers still order segments across tiers: a tier that opened
// after a sequence-0 segment existed writes sequence 1, which supersedes a
// sequence-0 record of the same key from a tier that opened earlier.
TEST(PersistentCacheTierTest, LaterSequenceSupersedesAcrossTiers) {
  Rng rng(196);
  const std::string dir = FreshCacheDir("tier2_shared_dir_supersede");
  const Tensor series = RandomSeries(&rng);
  const ExplanationResult stale = TestResult(&rng, 8);
  const ExplanationResult want = TestResult(&rng, 8);
  {
    std::unique_ptr<PersistentCacheTier> early;
    ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &early).ok());
    {
      std::unique_ptr<PersistentCacheTier> first;
      ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &first).ok());
      first->Put(TestKey(9), series, TestResult(&rng, 8));
      ASSERT_TRUE(first->Flush().ok());  // sequence 0
    }
    std::unique_ptr<PersistentCacheTier> late;
    ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &late).ok());
    early->Put(TestKey(1), series, stale);
    ASSERT_TRUE(early->Flush().ok());  // sequence 0
    late->Put(TestKey(1), series, want);
    ASSERT_TRUE(late->Flush().ok());  // sequence 1
  }
  const std::string sequence_one = dir + "/cache-000001-";
  int named_one = 0;
  for (const std::string& path : SegmentFiles(dir)) {
    named_one += path.compare(0, sequence_one.size(), sequence_one) == 0;
  }
  EXPECT_EQ(named_one, 1);
  std::unique_ptr<PersistentCacheTier> tier;
  ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &tier).ok());
  ExplanationResult got;
  ASSERT_TRUE(tier->Get(TestKey(1), series, &got));
  ExpectSameMap(got.map, want.map);
}

// Two tiers open over one directory. The first tier's release of its own
// (dead) segment must leave the second tier's segment alone.
TEST(PersistentCacheTierTest, ReleaseLeavesAnotherTiersSegmentAlone) {
  Rng rng(194);
  const std::string dir = FreshCacheDir("tier2_two_tiers");
  const Tensor series = RandomSeries(&rng);
  const ExplanationResult want_b = TestResult(&rng, 8);
  {
    std::unique_ptr<PersistentCacheTier> a;
    std::unique_ptr<PersistentCacheTier> b;
    ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &a).ok());
    ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &b).ok());
    a->Put(TestKey(1, 7, "a"), series, TestResult(&rng, 8));
    ASSERT_TRUE(a->Flush().ok());
    b->Put(TestKey(2, 7, "b"), series, want_b);
    ASSERT_TRUE(b->Flush().ok());
    EXPECT_EQ(a->EraseModel("a"), 1u);
  }
  std::unique_ptr<PersistentCacheTier> tier;
  ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &tier).ok());
  ExplanationResult got;
  ASSERT_TRUE(tier->Get(TestKey(2, 7, "b"), series, &got));
  ExpectSameMap(got.map, want_b.map);
}

// ---- Service-level: warm restart over the persistent tier ------------------

ExplainRequest DcamRequest(const std::string& model_id, const Tensor& series,
                           int class_idx, int k, uint64_t seed) {
  ExplainRequest req;
  req.model_id = model_id;
  req.method = "dcam";
  req.series = series;
  req.class_idx = class_idx;
  req.options.dcam.k = k;
  req.options.dcam.seed = seed;
  return req;
}

TEST(ServiceWarmRestartTest, RestartedServiceServesFromTier2WithoutRecompute) {
  Rng rng(96);
  auto model = TinyDcnn(&rng);
  const std::string dir = FreshCacheDir("tier2_service_restart");
  std::vector<ExplainRequest> requests;
  for (int i = 0; i < 3; ++i) {
    requests.push_back(
        DcamRequest("m", RandomSeries(&rng), i % 2, 4 + i, 9600 + i));
  }

  std::vector<Tensor> want;
  {
    ExplainService::Config config;
    config.cache.persistent_dir = dir;
    ExplainService service(config);
    service.RegisterModel(ModelSpec("m", model.get()));
    for (const auto& req : requests) want.push_back(service.Explain(req).map);
    // Shutdown (via the destructor) flushes the spill buffer to a segment.
  }
  ASSERT_FALSE(SegmentFiles(dir).empty());

  ExplainService::Config config;
  config.cache.persistent_dir = dir;
  ExplainService service(config);
  service.RegisterModel(ModelSpec("m", model.get()));
  for (size_t i = 0; i < requests.size(); ++i) {
    const ExplanationResult got = service.Explain(requests[i]);
    ExpectSameMap(got.map, want[i]);
  }
  const ExplainService::Stats stats = service.stats();
  // Every repeat was answered by the persistent tier: no engine pass ran.
  EXPECT_EQ(stats.cache_tier2_hits, requests.size());
  EXPECT_EQ(stats.coalesced_batches, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);
  // The tier-2 hit was promoted into tier 1: a second repeat hits there.
  const ExplanationResult again = service.Explain(requests[0]);
  ExpectSameMap(again.map, want[0]);
  EXPECT_EQ(service.stats().cache_hits, 1u);
  EXPECT_EQ(service.stats().cache_tier2_hits, requests.size());
}

TEST(ServiceWarmRestartTest, CorruptSegmentFallsBackToCompute) {
  Rng rng(97);
  auto model = TinyDcnn(&rng);
  const std::string dir = FreshCacheDir("tier2_service_corrupt");
  const ExplainRequest req = DcamRequest("m", RandomSeries(&rng), 0, 5, 9700);
  Tensor want;
  {
    ExplainService::Config config;
    config.cache.persistent_dir = dir;
    ExplainService service(config);
    service.RegisterModel(ModelSpec("m", model.get()));
    want = service.Explain(req).map;
  }
  for (const std::string& seg : SegmentFiles(dir)) {
    std::fstream f(seg, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    const char junk = 0x7f;
    f.write(&junk, 1);
  }
  ExplainService::Config config;
  config.cache.persistent_dir = dir;
  ExplainService service(config);
  service.RegisterModel(ModelSpec("m", model.get()));
  const ExplanationResult got = service.Explain(req);
  ExpectSameMap(got.map, want);  // recomputed, still bit-identical
  const ExplainService::Stats stats = service.stats();
  EXPECT_EQ(stats.cache_tier2_hits, 0u);
  EXPECT_EQ(stats.coalesced_batches, 1u);
}

// Every tier-2 directory of the previous segment version takes this path
// once: its segments are rejected at open, never served, and never removed.
TEST(ServiceWarmRestartTest, PreviousVersionSegmentFallsBackToCompute) {
  Rng rng(99);
  auto model = TinyDcnn(&rng);
  const std::string dir = FreshCacheDir("tier2_service_old_version");
  const ExplainRequest req = DcamRequest("m", RandomSeries(&rng), 0, 5, 9900);
  Tensor want;
  {
    ExplainService::Config config;
    config.cache.persistent_dir = dir;
    ExplainService service(config);
    service.RegisterModel(ModelSpec("m", model.get()));
    want = service.Explain(req).map;
  }
  const std::vector<std::string> segs = SegmentFiles(dir);
  ASSERT_EQ(segs.size(), 1u);
  {
    std::fstream f(segs[0], std::ios::binary | std::ios::in | std::ios::out);
    uint32_t version = 0;
    f.seekg(8);
    f.read(reinterpret_cast<char*>(&version), sizeof version);
    --version;
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&version), sizeof version);
    ASSERT_TRUE(f.good());
  }
  {
    std::unique_ptr<PersistentCacheTier> tier;
    ASSERT_TRUE(PersistentCacheTier::Open(dir, {}, &tier).ok());
    EXPECT_EQ(tier->segments_rejected(), 1);
    EXPECT_EQ(tier->entries(), 0u);
  }
  ExplainService::Config config;
  config.cache.persistent_dir = dir;
  ExplainService service(config);
  service.RegisterModel(ModelSpec("m", model.get()));
  ExpectSameMap(service.Explain(req).map, want);  // recomputed
  const ExplainService::Stats stats = service.stats();
  EXPECT_EQ(stats.cache_tier2_hits, 0u);
  EXPECT_EQ(stats.coalesced_batches, 1u);
  EXPECT_TRUE(std::filesystem::exists(segs[0]));
}

// InvalidateModel, shutdown, and a restart with new weights under the same
// id: the old weights' map must not come back from disk, whether the record
// was still buffered at the invalidation or already in a segment.
TEST(ServiceWarmRestartTest, InvalidatedModelIsNotServedAfterRestart) {
  for (const size_t flush_bytes : {size_t{1} << 20, size_t{1}}) {
    SCOPED_TRACE(flush_bytes);
    Rng rng(100);
    auto old_model = TinyDcnn(&rng);
    auto new_model = TinyDcnn(&rng);
    const std::string dir = FreshCacheDir("tier2_service_invalidate");
    const ExplainRequest req =
        DcamRequest("m", RandomSeries(&rng), 0, 5, 10000);
    ExplainService::Config config;
    config.cache.persistent_dir = dir;
    config.cache.flush_bytes = flush_bytes;
    Tensor old_map;
    {
      ExplainService service(config);
      service.RegisterModel(ModelSpec("m", old_model.get()));
      old_map = service.Explain(req).map;
      service.InvalidateModel("m");
    }
    EXPECT_TRUE(SegmentFiles(dir).empty());

    Tensor want;
    {
      ExplainService reference;
      reference.RegisterModel(ModelSpec("m", new_model.get()));
      want = reference.Explain(req).map;
    }
    ASSERT_FALSE(SameSeriesBytes(want, old_map));

    ExplainService service(config);
    service.RegisterModel(ModelSpec("m", new_model.get()));
    ExpectSameMap(service.Explain(req).map, want);
    EXPECT_EQ(service.stats().cache_tier2_hits, 0u);
  }
}

TEST(ServiceCacheTtlTest, Tier1EntriesExpireOnTheServiceClock) {
  Rng rng(98);
  auto model = TinyDcnn(&rng);
  ManualClock clock;
  ExplainService::Config config;
  config.clock = &clock;
  config.cache.ttl = std::chrono::seconds(1);
  ExplainService service(config);
  service.RegisterModel(ModelSpec("m", model.get()));
  const ExplainRequest req = DcamRequest("m", RandomSeries(&rng), 0, 5, 9800);

  const Tensor first = service.Explain(req).map;
  // Within the TTL: a repeat is a tier-1 hit.
  clock.Advance(std::chrono::milliseconds(500));
  ExpectSameMap(service.Explain(req).map, first);
  EXPECT_EQ(service.stats().cache_hits, 1u);
  // Past the TTL (measured from the insert): the probe drops the entry and
  // the request recomputes.
  clock.Advance(std::chrono::seconds(1));
  ExpectSameMap(service.Explain(req).map, first);
  const ExplainService::Stats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_expired, 1u);
  EXPECT_EQ(stats.coalesced_batches, 2u);
}

}  // namespace
}  // namespace explain
}  // namespace dcam
