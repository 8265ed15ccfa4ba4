#include "explain/cache_tier.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "io/atomic_file.h"
#include "util/check.h"
#include "util/fnv.h"
#include "util/xxhash.h"

#if defined(__unix__) || defined(__APPLE__)
#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#endif

namespace dcam {
namespace explain {
namespace {

// Segment layout. One segment is immutable once renamed into place:
//
//   [8]  magic "DCAMRC1\0"
//   [4]  format version (little-endian u32)
//   [4]  record count
//   [8]  XXH64 of the 16 header bytes above
//   then `count` records, each:
//   [8]  blob length
//   [n]  blob (serialized key + timestamps + series + result)
//   [8]  XXH64 of the blob
//
// Integers are stored in host byte order — segments are a host-local cache,
// not an interchange format (same stance as data/store). Version 1 used
// FNV-1a checksums and FNV series hashes; its segments are rejected at open.
constexpr char kMagic[8] = {'D', 'C', 'A', 'M', 'R', 'C', '1', '\0'};
constexpr uint32_t kVersion = 2;
constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8;
constexpr char kSegmentPrefix[] = "cache-";
constexpr char kSegmentSuffix[] = ".dcc";

void AppendRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

template <typename T>
void AppendScalar(std::string* out, T value) {
  AppendRaw(out, &value, sizeof(T));
}

void AppendString(std::string* out, const std::string& s) {
  AppendScalar<uint32_t>(out, static_cast<uint32_t>(s.size()));
  AppendRaw(out, s.data(), s.size());
}

void AppendTensor(std::string* out, const Tensor& t) {
  AppendScalar<uint32_t>(out, static_cast<uint32_t>(t.rank()));
  for (int i = 0; i < t.rank(); ++i) AppendScalar<int64_t>(out, t.dim(i));
  AppendRaw(out, t.data(), static_cast<size_t>(t.size()) * sizeof(float));
}

// Bounds-checked reader over a record blob. Every accessor reports failure
// instead of walking past the end, so a damaged blob can never read outside
// its mapped bytes.
class BlobReader {
 public:
  BlobReader(const unsigned char* data, size_t size)
      : data_(data), size_(size) {}

  bool ReadRaw(void* out, size_t n) {
    if (n > size_ - pos_) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  template <typename T>
  bool ReadScalar(T* out) {
    return ReadRaw(out, sizeof(T));
  }

  bool ReadString(std::string* out) {
    uint32_t len = 0;
    if (!ReadScalar(&len) || len > size_ - pos_) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }

  /// Reads shape only and exposes the float block zero-copy; the caller
  /// decides whether to compare in place or copy out.
  bool ReadTensorRef(Shape* shape, const float** values, size_t* value_bytes) {
    uint32_t rank = 0;
    if (!ReadScalar(&rank) || rank > 8) return false;
    shape->clear();
    int64_t size = 1;
    for (uint32_t i = 0; i < rank; ++i) {
      int64_t d = 0;
      if (!ReadScalar(&d) || d < 0) return false;
      shape->push_back(d);
      size *= d;
    }
    const size_t bytes = static_cast<size_t>(size) * sizeof(float);
    if (bytes > size_ - pos_) return false;
    *values = reinterpret_cast<const float*>(data_ + pos_);
    *value_bytes = bytes;
    pos_ += bytes;
    return true;
  }

 private:
  const unsigned char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// One parsed record; tensors point into the blob (valid while it is).
struct ParsedRecord {
  ResultCacheKey key;
  int64_t created_ns = 0;
  int32_t k = 0;
  int32_t num_correct = 0;
  uint8_t converged = 0;
  Shape series_shape;
  const float* series_data = nullptr;
  size_t series_bytes = 0;
  Shape map_shape;
  const float* map_data = nullptr;
  size_t map_bytes = 0;
};

bool ParseBlob(const unsigned char* blob, size_t len, ParsedRecord* out) {
  BlobReader r(blob, len);
  return r.ReadString(&out->key.model_id) && r.ReadString(&out->key.method) &&
         r.ReadString(&out->key.backend) &&
         r.ReadScalar(&out->key.series_hash) &&
         r.ReadScalar(&out->key.options_digest) &&
         r.ReadScalar(&out->created_ns) && r.ReadScalar(&out->k) &&
         r.ReadScalar(&out->num_correct) && r.ReadScalar(&out->converged) &&
         r.ReadTensorRef(&out->series_shape, &out->series_data,
                         &out->series_bytes) &&
         r.ReadTensorRef(&out->map_shape, &out->map_data, &out->map_bytes);
}

// (device, inode) of the file now at `path`; {0, 0} when it cannot be read.
std::pair<uint64_t, uint64_t> FileIdentity(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  struct stat st;
  if (::stat(path.c_str(), &st) == 0) {
    return {static_cast<uint64_t>(st.st_dev),
            static_cast<uint64_t>(st.st_ino)};
  }
#endif
  return {0, 0};
}

int64_t WallClockNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

Tensor TensorFromParsed(const Shape& shape, const float* data, size_t bytes) {
  Tensor t(shape);
  std::memcpy(t.data(), data, bytes);  // blob floats may be unaligned
  return t;
}

}  // namespace

size_t ResultCacheKeyHash::operator()(const ResultCacheKey& k) const {
  uint64_t h = Fnv1a(k.model_id.data(), k.model_id.size());
  h = Fnv1a(k.method.data(), k.method.size(), h);
  h = Fnv1a(k.backend.data(), k.backend.size(), h);
  h = Fnv1a(&k.series_hash, sizeof k.series_hash, h);
  h = Fnv1a(&k.options_digest, sizeof k.options_digest, h);
  return static_cast<size_t>(h);
}

bool SameSeriesBytes(const Tensor& a, const Tensor& b) {
  if (a.data() == b.data()) return a.shape() == b.shape();
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

PersistentCacheTier::PersistentCacheTier(std::string dir, Options options)
    : dir_(std::move(dir)), options_(std::move(options)) {}

io::Status PersistentCacheTier::Open(
    const std::string& dir, const Options& options,
    std::unique_ptr<PersistentCacheTier>* out) {
  out->reset();
  if (dir.empty()) {
    return io::Status::InvalidArgument(
        "persistent cache tier needs a directory");
  }
#if defined(__unix__) || defined(__APPLE__)
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0) {
    // Create missing path components one at a time (mkdir -p): a cache
    // directory nested under a workspace the caller hasn't made yet should
    // not be a setup error.
    for (size_t pos = 1; pos <= dir.size(); ++pos) {
      if (pos != dir.size() && dir[pos] != '/') continue;
      const std::string prefix = dir.substr(0, pos);
      if (prefix.empty() || ::stat(prefix.c_str(), &st) == 0) continue;
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        return io::Status::IoError("cannot create cache directory " + prefix);
      }
    }
  } else if (!S_ISDIR(st.st_mode)) {
    return io::Status::IoError(dir + " exists and is not a directory");
  }
  std::unique_ptr<PersistentCacheTier> tier(
      new PersistentCacheTier(dir, options));
  // Scan for existing segments, sorted by name so "last written wins" holds
  // for a key spilled more than once across process lifetimes.
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return io::Status::IoError("cannot list cache directory " + dir);
  }
  while (struct dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name.size() > sizeof(kSegmentPrefix) + 3 &&
        name.compare(0, sizeof(kSegmentPrefix) - 1, kSegmentPrefix) == 0 &&
        name.size() >= sizeof(kSegmentSuffix) &&
        name.compare(name.size() - (sizeof(kSegmentSuffix) - 1),
                     sizeof(kSegmentSuffix) - 1, kSegmentSuffix) == 0) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  std::lock_guard<std::mutex> lock(tier->mu_);
  for (const std::string& name : names) {
    const std::string seq_str = name.substr(
        sizeof(kSegmentPrefix) - 1,
        name.size() - (sizeof(kSegmentPrefix) - 1) - (sizeof(kSegmentSuffix) - 1));
    char* end = nullptr;
    const uint64_t seq = std::strtoull(seq_str.c_str(), &end, 10);
    if (end != nullptr && *end == '\0') {
      tier->next_segment_seq_ = std::max(tier->next_segment_seq_, seq + 1);
    }
    Segment segment;
    segment.path = dir + "/" + name;
    MappedFile::Options mopts;
    mopts.advice = MappedFile::Advice::kSequential;
    if (!MappedFile::Open(segment.path, mopts, &segment.file).ok()) {
      ++tier->segments_rejected_;
      continue;
    }
    segment.identity = FileIdentity(segment.path);
    tier->segments_.push_back(std::move(segment));
    const int idx = static_cast<int>(tier->segments_.size()) - 1;
    if (tier->LoadSegmentLocked(idx) == 0) {
      // Nothing usable: drop the mapping, keep the slot (Locs index by
      // position) pointing at an empty file so nothing dangles.
      tier->segments_[idx].file.Close();
      ++tier->segments_rejected_;
    } else {
      ++tier->segments_loaded_;
      tier->segments_[idx].file.Advise(MappedFile::Advice::kRandom);
    }
  }
  *out = std::move(tier);
  return io::Status::Ok();
#else
  (void)options;
  return io::Status::IoError(
      "persistent cache tier requires a POSIX host (directory scan)");
#endif
}

PersistentCacheTier::~PersistentCacheTier() { Flush(); }

int64_t PersistentCacheTier::NowNs() const {
  return options_.now_unix_ns ? options_.now_unix_ns() : WallClockNs();
}

bool PersistentCacheTier::ExpiredLocked(const Loc& loc, int64_t now_ns) const {
  return options_.ttl.count() > 0 &&
         now_ns >= loc.created_ns + options_.ttl.count();
}

void PersistentCacheTier::RepointLocked(Loc* slot, const Loc& loc) {
  const int previous = slot->segment;
  *slot = loc;
  if (loc.segment >= 0) ++segments_[loc.segment].live;
  ReleaseLocked(previous);
}

PersistentCacheTier::Index::iterator PersistentCacheTier::EraseLocked(
    Index::iterator it) {
  const int segment = it->second.segment;
  it = index_.erase(it);
  ReleaseLocked(segment);
  return it;
}

void PersistentCacheTier::ReleaseLocked(int segment) {
  if (segment < 0) return;
  Segment& s = segments_[segment];
  DCAM_CHECK_GT(s.live, 0u);
  if (--s.live > 0) return;
  s.file.Close();
  // A file with records the walk could not verify may hold what this build
  // cannot judge; only a fully read one is known to be dead. Another tier
  // over the same directory may have renamed its own segment onto the path
  // since; that file was never read here either.
  if (s.complete && FileIdentity(s.path) == s.identity) {
    std::remove(s.path.c_str());
  }
}

size_t PersistentCacheTier::LoadSegmentLocked(int segment_idx) {
  const MappedFile& f = segments_[segment_idx].file;
  const unsigned char* data = f.data();
  if (f.size() < kHeaderBytes) return 0;
  if (std::memcmp(data, kMagic, sizeof kMagic) != 0) return 0;
  uint32_t version = 0;
  uint32_t count = 0;
  uint64_t header_hash = 0;
  std::memcpy(&version, data + 8, sizeof version);
  std::memcpy(&count, data + 12, sizeof count);
  std::memcpy(&header_hash, data + 16, sizeof header_hash);
  if (version != kVersion || Xxh64(data, 16) != header_hash) return 0;
  size_t pos = kHeaderBytes;
  size_t indexed = 0;
  for (uint32_t i = 0; i < count; ++i) {
    // A record that fails any bound or checksum ends the walk: a bad length
    // makes every later offset meaningless, so only the verified prefix of a
    // truncated/corrupted segment is served.
    if (f.size() - pos < sizeof(uint64_t)) break;
    uint64_t blob_len = 0;
    std::memcpy(&blob_len, data + pos, sizeof blob_len);
    if (blob_len > f.size() - pos - sizeof(uint64_t) ||
        f.size() - pos - sizeof(uint64_t) - blob_len < sizeof(uint64_t)) {
      break;
    }
    const unsigned char* blob = data + pos + sizeof(uint64_t);
    uint64_t stored_hash = 0;
    std::memcpy(&stored_hash, blob + blob_len, sizeof stored_hash);
    if (Xxh64(blob, blob_len) != stored_hash) break;
    ParsedRecord rec;
    if (!ParseBlob(blob, blob_len, &rec)) break;
    Loc loc;
    loc.segment = segment_idx;
    loc.offset = pos;
    loc.length = sizeof(uint64_t) + blob_len + sizeof(uint64_t);
    loc.created_ns = rec.created_ns;
    RepointLocked(&index_[rec.key], loc);  // later segments supersede
    ++indexed;
    pos += loc.length;
  }
  segments_[segment_idx].complete = indexed == count;
  return indexed;
}

bool PersistentCacheTier::Get(const ResultCacheKey& key, const Tensor& series,
                              ExplanationResult* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  const Loc loc = it->second;
  if (ExpiredLocked(loc, NowNs())) {
    EraseLocked(it);
    ++expired_;
    return false;
  }
  const unsigned char* record;
  if (loc.segment >= 0) {
    record = segments_[loc.segment].file.data() + loc.offset;
  } else {
    record = reinterpret_cast<const unsigned char*>(buffer_.data()) +
             loc.offset;
  }
  uint64_t blob_len = 0;
  std::memcpy(&blob_len, record, sizeof blob_len);
  const unsigned char* blob = record + sizeof(uint64_t);
  if (options_.verify_on_read && loc.segment >= 0) {
    uint64_t stored_hash = 0;
    std::memcpy(&stored_hash, blob + blob_len, sizeof stored_hash);
    if (Xxh64(blob, blob_len) != stored_hash) {
      EraseLocked(it);  // bit rot since load; recompute instead
      return false;
    }
  }
  ParsedRecord rec;
  if (!ParseBlob(blob, blob_len, &rec)) {
    EraseLocked(it);
    return false;
  }
  // The content-address guard: shape + bytes of the stored series must match
  // the request's before its result may be served.
  if (rec.series_shape != series.shape() ||
      rec.series_bytes !=
          static_cast<size_t>(series.size()) * sizeof(float) ||
      std::memcmp(rec.series_data, series.data(), rec.series_bytes) != 0) {
    return false;
  }
  out->map = TensorFromParsed(rec.map_shape, rec.map_data, rec.map_bytes);
  out->k = rec.k;
  out->num_correct = rec.num_correct;
  out->converged = rec.converged != 0;
  out->convergence = 0.0;  // canonical cached form, as in tier 1
  ++hits_;
  return true;
}

void PersistentCacheTier::Put(const ResultCacheKey& key, const Tensor& series,
                              const ExplanationResult& result) {
  if (result.map.empty()) return;  // nothing worth persisting
  io::Status flush_status = io::Status::Ok();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (index_.count(key) != 0) return;
    std::string blob;
    blob.reserve(128 + static_cast<size_t>(series.size() + result.map.size()) *
                           sizeof(float));
    AppendString(&blob, key.model_id);
    AppendString(&blob, key.method);
    AppendString(&blob, key.backend);
    AppendScalar<uint64_t>(&blob, key.series_hash);
    AppendScalar<uint64_t>(&blob, key.options_digest);
    const int64_t created = NowNs();
    AppendScalar<int64_t>(&blob, created);
    AppendScalar<int32_t>(&blob, result.k);
    AppendScalar<int32_t>(&blob, result.num_correct);
    AppendScalar<uint8_t>(&blob, result.converged ? 1 : 0);
    AppendTensor(&blob, series);
    AppendTensor(&blob, result.map);

    Loc loc;
    loc.segment = -1;
    loc.offset = buffer_.size();
    loc.length = sizeof(uint64_t) + blob.size() + sizeof(uint64_t);
    loc.created_ns = created;
    AppendScalar<uint64_t>(&buffer_, static_cast<uint64_t>(blob.size()));
    buffer_.append(blob);
    AppendScalar<uint64_t>(&buffer_, Xxh64(blob.data(), blob.size()));
    buffered_.emplace_back(key, loc);
    index_[key] = loc;
    if (buffer_.size() >= options_.flush_bytes) {
      flush_status = FlushLocked();
    }
  }
  (void)flush_status;  // best-effort: a failed spill only loses warmth
}

io::Status PersistentCacheTier::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

io::Status PersistentCacheTier::FlushLocked() {
  // Only the records the index still points at are written: one erased or
  // expired while buffered, or replaced by a later Put of its key, never
  // reaches disk.
  std::vector<Index::iterator> live;
  for (const auto& [key, loc] : buffered_) {
    auto it = index_.find(key);
    if (it != index_.end() && it->second.segment < 0 &&
        it->second.offset == loc.offset) {
      live.push_back(it);
    }
  }
  if (live.empty()) {
    buffered_.clear();
    buffer_.clear();
    return io::Status::Ok();
  }
  char name[64];
  std::snprintf(name, sizeof name, "%s%06llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(next_segment_seq_),
                kSegmentSuffix);
  Segment segment;
  segment.path = dir_ + "/" + name;
  segment.complete = true;
  std::string header;
  AppendRaw(&header, kMagic, sizeof kMagic);
  AppendScalar<uint32_t>(&header, kVersion);
  AppendScalar<uint32_t>(&header, static_cast<uint32_t>(live.size()));
  AppendScalar<uint64_t>(&header, Xxh64(header.data(), header.size()));
  io::AtomicFileWriter writer(segment.path);
  io::Status status = writer.Open();
  if (status.ok()) status = writer.Write(header.data(), header.size());
  for (const Index::iterator& it : live) {
    if (!status.ok()) break;
    status = writer.Write(buffer_.data() + it->second.offset,
                          it->second.length);
  }
  if (status.ok()) status = writer.Commit();
  if (!status.ok()) return status;
  ++next_segment_seq_;

  MappedFile::Options mopts;
  mopts.advice = MappedFile::Advice::kRandom;
  status = MappedFile::Open(segment.path, mopts, &segment.file);
  if (!status.ok()) {
    // The segment is durable but unreadable right now; drop the buffered
    // index entries (they point at a buffer we are about to clear) and let a
    // restart pick the segment up.
    for (const Index::iterator& it : live) index_.erase(it);
  } else {
    segment.identity = FileIdentity(segment.path);
    segments_.push_back(std::move(segment));
    const int idx = static_cast<int>(segments_.size()) - 1;
    size_t offset = kHeaderBytes;
    for (const Index::iterator& it : live) {
      Loc loc = it->second;
      loc.segment = idx;
      loc.offset = offset;
      offset += loc.length;
      RepointLocked(&it->second, loc);
    }
  }
  buffered_.clear();
  buffer_.clear();
  return status;
}

size_t PersistentCacheTier::EraseModel(const std::string& model_id) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t erased = 0;
  for (auto it = index_.begin(); it != index_.end();) {
    if (it->first.model_id == model_id) {
      it = EraseLocked(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

size_t PersistentCacheTier::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

int PersistentCacheTier::segments_loaded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_loaded_;
}

int PersistentCacheTier::segments_rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_rejected_;
}

uint64_t PersistentCacheTier::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t PersistentCacheTier::expired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return expired_;
}

}  // namespace explain
}  // namespace dcam
