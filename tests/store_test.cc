// Tests for the on-disk columnar series store (src/data/store), the mmap
// wrapper under it (src/util/mmap), the atomic writer (src/io/atomic_file),
// and the SF corpus generator (src/data/corpus): round-trip bit-identity,
// rejection of every corruption class, mmap-fallback equivalence, and
// idempotent corpus generation.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "data/corpus.h"
#include "data/series.h"
#include "data/store.h"
#include "data/synthetic.h"
#include "data/uea_like.h"
#include "io/atomic_file.h"
#include "io/status.h"
#include "util/mmap.h"

namespace dcam {
namespace data {
namespace {

std::string TempPath(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Dataset SmallSynthetic() {
  SyntheticSpec spec;
  spec.type = 2;
  spec.dims = 4;
  spec.length = 64;
  spec.pattern_len = 32;
  spec.num_inject = 2;
  spec.instances_per_class = 6;
  spec.seed = 11;
  Dataset dataset = BuildSynthetic(spec);
  dataset.name = "small_synthetic";
  return dataset;
}

Dataset SmallUea() {
  UeaLikeSpec spec;
  spec.name = "small_uea";
  spec.classes = 3;
  spec.dims = 5;
  spec.length = 40;
  spec.per_class = 4;
  return BuildUeaLike(spec, 17);
}

void ExpectBitIdentical(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.num_classes, b.num_classes);
  EXPECT_EQ(a.y, b.y);
  ASSERT_EQ(a.X.shape(), b.X.shape());
  EXPECT_EQ(std::memcmp(a.X.data(), b.X.data(),
                        static_cast<size_t>(a.X.size()) * sizeof(float)),
            0);
  ASSERT_EQ(a.mask.empty(), b.mask.empty());
  if (!a.mask.empty()) {
    ASSERT_EQ(a.mask.shape(), b.mask.shape());
    EXPECT_EQ(std::memcmp(a.mask.data(), b.mask.data(),
                          static_cast<size_t>(a.mask.size()) * sizeof(float)),
              0);
  }
}

TEST(SeriesStoreTest, RoundTripIsBitIdenticalWithMask) {
  const Dataset dataset = SmallSynthetic();
  ASSERT_FALSE(dataset.mask.empty());
  const std::string path = TempPath("store_rt_mask.dcs");
  ASSERT_TRUE(WriteSeriesStore(dataset, path).ok());

  SeriesStore store;
  ASSERT_TRUE(SeriesStore::Open(path, &store).ok());
  EXPECT_EQ(store.name(), dataset.name);
  EXPECT_EQ(store.size(), dataset.size());
  EXPECT_EQ(store.dims(), dataset.dims());
  EXPECT_EQ(store.length(), dataset.length());
  EXPECT_EQ(store.num_classes(), dataset.num_classes);
  EXPECT_TRUE(store.has_mask());
  ExpectBitIdentical(dataset, store.ToDataset());
}

TEST(SeriesStoreTest, RoundTripIsBitIdenticalWithoutMask) {
  const Dataset dataset = SmallUea();
  ASSERT_TRUE(dataset.mask.empty());
  const std::string path = TempPath("store_rt_nomask.dcs");
  ASSERT_TRUE(WriteSeriesStore(dataset, path).ok());

  SeriesStore store;
  ASSERT_TRUE(SeriesStore::Open(path, &store).ok());
  EXPECT_FALSE(store.has_mask());
  ExpectBitIdentical(dataset, store.ToDataset());
}

TEST(SeriesStoreTest, ZeroCopyRowsMatchSource) {
  const Dataset dataset = SmallSynthetic();
  const std::string path = TempPath("store_rows.dcs");
  ASSERT_TRUE(WriteSeriesStore(dataset, path).ok());

  SeriesStore store;
  ASSERT_TRUE(SeriesStore::Open(path, &store).ok());
  for (int64_t i = 0; i < store.size(); i += 3) {
    EXPECT_EQ(store.label(i), dataset.y[static_cast<size_t>(i)]);
    for (int64_t d = 0; d < store.dims(); ++d) {
      const float* row = store.Row(i, d);
      const float* mask_row = store.MaskRow(i, d);
      // Columns are 64-byte aligned inside the map.
      EXPECT_EQ(reinterpret_cast<uintptr_t>(store.Row(0, d)) % 64, 0u);
      for (int64_t t = 0; t < store.length(); ++t) {
        EXPECT_EQ(row[t], dataset.X.at(i, d, t));
        EXPECT_EQ(mask_row[t], dataset.mask.at(i, d, t));
      }
    }
  }
}

TEST(SeriesStoreTest, InstanceGatherMatchesToDataset) {
  const Dataset dataset = SmallUea();
  const std::string path = TempPath("store_instance.dcs");
  ASSERT_TRUE(WriteSeriesStore(dataset, path).ok());
  SeriesStore store;
  ASSERT_TRUE(SeriesStore::Open(path, &store).ok());

  const Tensor one = store.Instance(3);
  ASSERT_EQ(one.shape(), (Shape{store.dims(), store.length()}));
  for (int64_t d = 0; d < store.dims(); ++d) {
    for (int64_t t = 0; t < store.length(); ++t) {
      EXPECT_EQ(one.at(d, t), dataset.X.at(3, d, t));
    }
  }
}

TEST(SeriesStoreTest, RejectsWrongMagic) {
  const std::string path = TempPath("store_magic.dcs");
  ASSERT_TRUE(WriteSeriesStore(SmallUea(), path).ok());
  std::vector<char> bytes = ReadAll(path);
  bytes[0] = 'X';
  WriteAll(path, bytes);

  SeriesStore store;
  const io::Status status = SeriesStore::Open(path, &store);
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("not a dcam series store"),
            std::string::npos);
}

TEST(SeriesStoreTest, RefusesFutureVersion) {
  const std::string path = TempPath("store_version.dcs");
  ASSERT_TRUE(WriteSeriesStore(SmallUea(), path).ok());
  std::vector<char> bytes = ReadAll(path);
  bytes[8] = static_cast<char>(kSeriesStoreVersion + 1);  // version field
  WriteAll(path, bytes);

  SeriesStore store;
  const io::Status status = SeriesStore::Open(path, &store);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("unsupported"), std::string::npos);
}

TEST(SeriesStoreTest, DetectsHeaderTampering) {
  const std::string path = TempPath("store_header.dcs");
  ASSERT_TRUE(WriteSeriesStore(SmallUea(), path).ok());
  std::vector<char> bytes = ReadAll(path);
  bytes[52] ^= 0x01;  // first byte of the name
  WriteAll(path, bytes);

  SeriesStore store;
  const io::Status status = SeriesStore::Open(path, &store);
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("header checksum mismatch"),
            std::string::npos);
}

TEST(SeriesStoreTest, RejectsTruncatedFile) {
  const std::string path = TempPath("store_truncated.dcs");
  ASSERT_TRUE(WriteSeriesStore(SmallSynthetic(), path).ok());
  std::vector<char> bytes = ReadAll(path);
  bytes.resize(bytes.size() - 128);
  WriteAll(path, bytes);

  SeriesStore store;
  const io::Status status = SeriesStore::Open(path, &store);
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("truncated series store"),
            std::string::npos);
}

TEST(SeriesStoreTest, DetectsDataBitRotAndNamesTheSegment) {
  const Dataset dataset = SmallSynthetic();
  const std::string path = TempPath("store_bitrot.dcs");
  ASSERT_TRUE(WriteSeriesStore(dataset, path).ok());
  std::vector<char> bytes = ReadAll(path);
  // Flip one payload byte in the middle of the column region.
  bytes[bytes.size() / 2] ^= 0x40;
  WriteAll(path, bytes);

  SeriesStore store;
  const io::Status status = SeriesStore::Open(path, &store);
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("checksum mismatch"), std::string::npos);
  EXPECT_NE(status.message().find("column"), std::string::npos);

  // Skipping verification opens the rotted file; the explicit pass still
  // catches it.
  SeriesStore unverified;
  SeriesStore::Options options;
  options.verify_checksums = false;
  ASSERT_TRUE(SeriesStore::Open(path, options, &unverified).ok());
  EXPECT_TRUE(unverified.VerifyChecksums().IsCorruption());
}

TEST(SeriesStoreTest, BufferedFallbackIsBitIdentical) {
  const Dataset dataset = SmallSynthetic();
  const std::string path = TempPath("store_fallback.dcs");
  ASSERT_TRUE(WriteSeriesStore(dataset, path).ok());

  SeriesStore::Options options;
  options.allow_mmap = false;
  SeriesStore store;
  ASSERT_TRUE(SeriesStore::Open(path, options, &store).ok());
  EXPECT_FALSE(store.mapped());
  ExpectBitIdentical(dataset, store.ToDataset());
}

TEST(MappedFileTest, MapsAndFallsBackIdentically) {
  const std::string path = TempPath("mmap_bytes.bin");
  const std::vector<char> payload = {'a', 'b', 'c', 'd', 'e', 'f', 'g'};
  WriteAll(path, payload);

  MappedFile mapped;
  ASSERT_TRUE(MappedFile::Open(path, &mapped).ok());
  ASSERT_EQ(mapped.size(), payload.size());
  EXPECT_EQ(std::memcmp(mapped.data(), payload.data(), payload.size()), 0);
  mapped.Advise(MappedFile::Advice::kRandom);  // best-effort, must not crash

  MappedFile::Options no_mmap;
  no_mmap.allow_mmap = false;
  MappedFile buffered;
  ASSERT_TRUE(MappedFile::Open(path, no_mmap, &buffered).ok());
  EXPECT_FALSE(buffered.mapped());
  ASSERT_EQ(buffered.size(), payload.size());
  EXPECT_EQ(std::memcmp(buffered.data(), payload.data(), payload.size()), 0);

  EXPECT_FALSE(MappedFile::Open(TempPath("mmap_missing.bin"), &mapped).ok());
}

TEST(AtomicFileWriterTest, CommitRenamesAndCleansTemp) {
  const std::string path = TempPath("atomic_commit.bin");
  std::remove(path.c_str());
  io::AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.Write("hello", 5).ok());
  // Until Commit, nothing is visible under the final path.
  EXPECT_FALSE(std::filesystem::exists(path));
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(writer.temp_path()));
  const std::vector<char> bytes = ReadAll(path);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "hello");
}

TEST(AtomicFileWriterTest, AbandonedWriterLeavesNoFile) {
  const std::string path = TempPath("atomic_abandoned.bin");
  std::remove(path.c_str());
  std::string temp_path;
  {
    io::AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Write("partial", 7).ok());
    temp_path = writer.temp_path();
    EXPECT_TRUE(std::filesystem::exists(temp_path));
    // Destructor without Commit: the "killed CI job" path.
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(temp_path));
}

TEST(CorpusTest, GenerationIsIdempotentAndVerified) {
  const std::string dir = TempPath("corpus_dir");
  std::filesystem::remove_all(dir);
  CorpusSpec spec;
  spec.kind = CorpusKind::kUeaLike;
  spec.scale_factor = 1;

  std::string path;
  bool regenerated = false;
  ASSERT_TRUE(
      GenerateCorpusFile(spec, dir, &path, /*force=*/false, &regenerated)
          .ok());
  EXPECT_TRUE(regenerated);

  // Second call reuses the verified file.
  ASSERT_TRUE(
      GenerateCorpusFile(spec, dir, &path, /*force=*/false, &regenerated)
          .ok());
  EXPECT_FALSE(regenerated);

  // A corrupted cached file is detected and rebuilt, not served.
  std::vector<char> bytes = ReadAll(path);
  bytes[bytes.size() / 2] ^= 0x10;
  WriteAll(path, bytes);
  ASSERT_TRUE(
      GenerateCorpusFile(spec, dir, &path, /*force=*/false, &regenerated)
          .ok());
  EXPECT_TRUE(regenerated);
  SeriesStore store;
  EXPECT_TRUE(SeriesStore::Open(path, &store).ok());
}

// Every cached corpus of the previous store version takes this path once.
TEST(CorpusTest, RebuildsAStoreOfThePreviousVersion) {
  const std::string dir = TempPath("corpus_upgrade_dir");
  std::filesystem::remove_all(dir);
  CorpusSpec spec;
  spec.kind = CorpusKind::kUeaLike;
  spec.scale_factor = 1;
  std::string path;
  ASSERT_TRUE(GenerateCorpusFile(spec, dir, &path).ok());

  std::vector<char> bytes = ReadAll(path);
  const uint32_t previous = kSeriesStoreVersion - 1;
  std::memcpy(bytes.data() + 8, &previous, sizeof previous);  // version field
  WriteAll(path, bytes);
  SeriesStore store;
  const io::Status status = SeriesStore::Open(path, &store);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("unsupported"), std::string::npos);

  bool regenerated = false;
  ASSERT_TRUE(
      GenerateCorpusFile(spec, dir, &path, /*force=*/false, &regenerated)
          .ok());
  EXPECT_TRUE(regenerated);
  EXPECT_TRUE(SeriesStore::Open(path, &store).ok());
}

TEST(CorpusTest, DeterministicPerSpecAndScalesWithSf) {
  CorpusSpec spec;
  spec.kind = CorpusKind::kSynthetic;
  spec.scale_factor = 1;
  const Dataset a = BuildCorpus(spec);
  const Dataset b = BuildCorpus(spec);
  ExpectBitIdentical(a, b);
  EXPECT_EQ(a.name, "synthetic_sf1");

  spec.scale_factor = 2;
  const Dataset doubled = BuildCorpus(spec);
  EXPECT_EQ(doubled.size(), 2 * a.size());
  EXPECT_EQ(doubled.dims(), a.dims());
  EXPECT_EQ(doubled.length(), a.length());
}

}  // namespace
}  // namespace data
}  // namespace dcam
