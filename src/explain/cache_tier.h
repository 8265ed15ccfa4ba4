// Persistent second tier of the ExplainService result cache.
//
// The in-memory LRU (lru_cache.h) dies with the process, so a restarted
// service recomputes every explanation its predecessor already paid k cube
// forwards for. Results here are content-addressed — (model id, method,
// backend, series hash, options digest) plus the stored series bytes as the
// hash-collision guard — which makes them safe to persist: the key says
// exactly what was computed, and a probe can verify it byte-for-byte before
// serving. PersistentCacheTier spills warm entries into append-only segment
// files under one directory and serves them back across restarts:
//
//   Put(key, series, result)  -> serialized into an in-memory spill buffer;
//                                when the buffer passes Options::flush_bytes
//                                (or on Flush/destruction) it becomes one new
//                                immutable segment, written atomically via
//                                io::AtomicFileWriter (tmp + fsync + rename —
//                                a crash never leaves a torn segment under
//                                the final name). The name carries a
//                                sequence number and a token random per
//                                tier, so two tiers over one directory never
//                                write the same name
//   open                      -> every segment in the directory is mmap'd
//                                read-only (util/mmap; buffered fallback
//                                off-POSIX) and walked once: header magic /
//                                version / count checks, then a per-entry
//                                XXH64 checksum over each record. A
//                                corrupted or truncated segment contributes
//                                nothing past the damage — its surviving
//                                prefix still serves, everything else misses
//                                and falls back to compute
//   Get(key, series, out)     -> index lookup, TTL check, optional checksum
//                                re-verification (Options::verify_on_read),
//                                then a byte compare of the stored series
//                                against the request's before the result is
//                                reconstructed from the mapped bytes
//
// Freshness: expiry is lazy on probe, against a wall clock (monotonic time
// is meaningless across restarts; tests inject Options::now_unix_ns).
// In-process InvalidateModel drops a model's index entries immediately, and
// its buffered records never reach disk. A segment that no index entry
// points into any more (its entries erased, expired, failed re-verification
// or superseded by a later segment at open) is unmapped and, if the tier
// read all of it, its file removed. An erased record in a segment that still
// holds live ones stays on disk and is reloaded after a restart, so
// Options::ttl is the staleness bound for models retrained outside a
// service's lifetime.
//
// Thread-safe: one internal mutex serializes Get/Put/Flush/EraseModel (the
// service calls them from every scheduler shard).

#ifndef DCAM_EXPLAIN_CACHE_TIER_H_
#define DCAM_EXPLAIN_CACHE_TIER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "explain/explainer.h"
#include "io/status.h"
#include "tensor/tensor.h"
#include "util/mmap.h"

namespace dcam {
namespace explain {

/// The content address of a cached explanation, shared by both cache tiers
/// and the service's in-flight dedupe table. The 64-bit hashes are not
/// collision-proof on their own; every consumer pairs a key match with a
/// byte compare of the stored series (SameSeriesBytes) before serving.
struct ResultCacheKey {
  std::string model_id;
  std::string method;
  std::string backend;  // resolved: "portable" unless a specialization ran
  uint64_t series_hash = 0;
  uint64_t options_digest = 0;  // includes class_idx

  bool operator==(const ResultCacheKey& o) const {
    return series_hash == o.series_hash &&
           options_digest == o.options_digest && model_id == o.model_id &&
           method == o.method && backend == o.backend;
  }
};

struct ResultCacheKeyHash {
  size_t operator()(const ResultCacheKey& k) const;
};

/// Content equality of two (D, n) series; the guard that makes the 64-bit
/// series hash in ResultCacheKey collision-proof.
bool SameSeriesBytes(const Tensor& a, const Tensor& b);

class PersistentCacheTier {
 public:
  struct Options {
    /// Entry lifetime measured from its Put time; 0 = entries never expire.
    /// Wall-clock based, so it holds across restarts — the staleness bound
    /// for models retrained while no service was running.
    std::chrono::nanoseconds ttl{0};
    /// Re-verify each record's XXH64 checksum on every probe (guards
    /// against on-disk bit rot after load). The stored-series byte compare
    /// always runs regardless.
    bool verify_on_read = true;
    /// Spill-buffer size that triggers an automatic segment flush.
    size_t flush_bytes = size_t{1} << 20;
    /// Wall-clock source in unix nanoseconds; null = the system clock.
    /// Injected by tests to make TTL expiry deterministic.
    std::function<int64_t()> now_unix_ns;
  };

  /// Opens (creating if needed) the tier over `dir` and loads every valid
  /// segment already present. Damaged segments degrade, not fail: only an
  /// unusable directory returns a non-ok Status (with *out left null).
  static io::Status Open(const std::string& dir, const Options& options,
                         std::unique_ptr<PersistentCacheTier>* out);

  /// Flushes any buffered entries (best-effort — destruction cannot report).
  ~PersistentCacheTier();

  PersistentCacheTier(const PersistentCacheTier&) = delete;
  PersistentCacheTier& operator=(const PersistentCacheTier&) = delete;

  /// Probes for `key`. On a verified hit fills `*out` (an owned copy; the
  /// mapped bytes are never handed out) and returns true. A hit requires the
  /// stored series to equal `series` byte-for-byte; an expired entry is
  /// dropped from the index (counted in expired()) and misses.
  bool Get(const ResultCacheKey& key, const Tensor& series,
           ExplanationResult* out);

  /// Buffers one entry for spill; flushes automatically past
  /// Options::flush_bytes. A key already present (buffered or on disk) is
  /// skipped — entries are immutable under their content address.
  void Put(const ResultCacheKey& key, const Tensor& series,
           const ExplanationResult& result);

  /// Writes the buffered entries into one new segment and indexes it.
  /// No-op when the buffer is empty.
  io::Status Flush();

  /// Drops every index entry (buffered or on disk) for `model_id`; returns
  /// how many were dropped. Buffered records are then never written, and a
  /// segment left with no live entry is unmapped and its file removed. A
  /// segment that also holds another model's live records is not
  /// rewritten, so its erased records come back after a restart, where the
  /// TTL bounds their staleness.
  size_t EraseModel(const std::string& model_id);

  /// Entries currently servable (index + spill buffer).
  size_t entries() const;
  /// Segments successfully loaded at Open (cleanly, or a usable prefix of a
  /// damaged file) / segments rejected outright (bad header or no usable
  /// record).
  int segments_loaded() const;
  int segments_rejected() const;
  /// Verified probes served / entries dropped because a probe found them
  /// past their TTL.
  uint64_t hits() const;
  uint64_t expired() const;

  const std::string& dir() const { return dir_; }

 private:
  PersistentCacheTier(std::string dir, Options options);

  struct Loc {
    int segment = -1;      // index into segments_; -1 = in the spill buffer
    size_t offset = 0;     // record offset (buffered: into buffer_)
    size_t length = 0;     // record length including trailing checksum
    int64_t created_ns = 0;
  };

  struct Segment {
    std::string path;
    MappedFile file;
    std::pair<uint64_t, uint64_t> identity;  // (device, inode) when mapped
    size_t live = 0;        // index entries that point into the segment
    bool complete = false;  // every record its header announces verified
  };

  using Index = std::unordered_map<ResultCacheKey, Loc, ResultCacheKeyHash>;

  int64_t NowNs() const;
  bool ExpiredLocked(const Loc& loc, int64_t now_ns) const;
  /// Sets `*slot` (an index entry) to `loc`, moving its reference from the
  /// segment it pointed into, if any, to loc's.
  void RepointLocked(Loc* slot, const Loc& loc);
  /// Erases one index entry and releases its segment; returns the next.
  Index::iterator EraseLocked(Index::iterator it);
  /// Drops one reference to `segment` (no-op for the spill buffer, -1). The
  /// last one unmaps it and, when `complete`, removes its file.
  void ReleaseLocked(int segment);
  io::Status FlushLocked();
  /// Walks one mapped segment, adding every verifiable record to the index.
  /// Returns the number of records indexed.
  size_t LoadSegmentLocked(int segment_idx);

  const std::string dir_;
  const Options options_;

  mutable std::mutex mu_;
  Index index_;
  std::vector<Segment> segments_;  // a dead segment keeps its slot, unmapped
  std::string buffer_;  // serialized records awaiting flush
  std::vector<std::pair<ResultCacheKey, Loc>> buffered_;  // Locs into buffer_
  uint64_t next_segment_seq_ = 0;
  const uint64_t name_token_;  // random; in every segment name this tier writes
  int segments_loaded_ = 0;
  int segments_rejected_ = 0;
  uint64_t hits_ = 0;
  uint64_t expired_ = 0;
};

}  // namespace explain
}  // namespace dcam

#endif  // DCAM_EXPLAIN_CACHE_TIER_H_
