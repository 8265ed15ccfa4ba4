// On-disk columnar series store: the persistent form of data::Dataset.
//
// Everything benchmarked before this file existed lived in process memory, so
// "dataset scale" was bounded by what a generator could rebuild per run. The
// store persists a dataset once and serves it zero-copy forever after:
//
//   header (little-endian, the only byte order we target):
//     magic        "DCAMCOL1"                           8 bytes
//     version      uint32   (kSeriesStoreVersion; readers refuse others)
//     dtype        uint32   (1 = float32, the library's only dtype)
//     flags        uint32   (bit 0: a ground-truth mask follows the columns)
//     name_len     uint32
//     N, D, n      int64    instances, dimensions, series length
//     num_classes  int32
//     name         name_len bytes
//     header_hash  uint64   XXH64 (util/xxhash.h, seed 0) over every header
//                           byte above
//   segments (each 64-byte aligned, each followed by its own uint64 XXH64):
//     labels       int32[N]
//     column d     float32[N * n] for d in [0, D)   — value (i, t) of
//                  dimension d lives at column_d[i * n + t]
//     mask col d   float32[N * n] for d in [0, D)   — only when flag bit 0
//
// The column-major (dimension-outer) layout is what makes the file a *store*
// rather than a snapshot: a per-dimension scan (dataset-level explanations,
// Section 4.6 aggregation) touches one contiguous segment, and per-segment
// checksums localize corruption to the dimension that rotted. Alignment to
// 64 bytes keeps every column cache-line- and SIMD-aligned inside the mmap.
//
// Readers open through util/mmap (MAP_SHARED read-only, so concurrent
// workload clients share one page-cache copy) and never materialize the file
// unless asked: Row() hands out pointers into the map, Instance() gathers
// one (D, n) series, ToDataset() rebuilds the full in-memory Dataset
// bit-identically to what was written. Writers go through io::AtomicFileWriter
// so a killed job can never leave a truncated file under the final path.

#ifndef DCAM_DATA_STORE_H_
#define DCAM_DATA_STORE_H_

#include <cstdint>
#include <string>

#include "data/series.h"
#include "io/status.h"
#include "util/mmap.h"

namespace dcam {
namespace data {

/// Bumped on any layout or checksum change; readers refuse files written by
/// a different version instead of guessing at offsets. Version 1 checksummed
/// with FNV-1a; version 2 with XXH64.
inline constexpr uint32_t kSeriesStoreVersion = 2;

/// Writes `dataset` to `path` atomically (temp + fsync + rename).
io::Status WriteSeriesStore(const Dataset& dataset, const std::string& path);

class SeriesStore {
 public:
  struct Options {
    /// Re-hash every segment at Open and refuse the file on any mismatch.
    /// Costs one sequential, single-threaded XXH64 pass over the file (the
    /// pass the load-MBps bench measures); skip it only for files verified
    /// out of band.
    bool verify_checksums = true;
    /// false forces the buffered-read fallback (see util/mmap.h).
    bool allow_mmap = true;
  };

  SeriesStore() = default;

  /// Opens and validates `path`. Rejects wrong magic/version/dtype, a
  /// header-hash mismatch, impossible shapes, and any file whose size does
  /// not match the layout the header announces (truncation). Any previous
  /// contents of `out` are released.
  static io::Status Open(const std::string& path, const Options& options,
                         SeriesStore* out);
  static io::Status Open(const std::string& path, SeriesStore* out) {
    return Open(path, Options(), out);
  }

  const std::string& name() const { return name_; }
  int64_t size() const { return instances_; }
  int64_t dims() const { return dims_; }
  int64_t length() const { return length_; }
  int num_classes() const { return num_classes_; }
  bool has_mask() const { return has_mask_; }

  /// Total file bytes (what a full load streams through).
  size_t file_bytes() const { return file_.size(); }

  /// True when backed by a zero-copy mmap rather than the buffered fallback.
  bool mapped() const { return file_.mapped(); }

  /// Zero-copy view of dimension `d` of instance `i` (`length()` floats).
  const float* Row(int64_t i, int64_t d) const;

  /// Zero-copy view of the mask row; requires has_mask().
  const float* MaskRow(int64_t i, int64_t d) const;

  int label(int64_t i) const;

  /// Gathers instance `i` into a fresh (D, n) tensor (copies D rows out of
  /// the map — the shape ExplainService requests take).
  Tensor Instance(int64_t i) const;

  /// Gathers the ground-truth mask of instance `i`; requires has_mask().
  Tensor InstanceMask(int64_t i) const;

  /// Materializes the whole store as an in-memory Dataset, bit-identical to
  /// the Dataset that was written.
  Dataset ToDataset() const;

  /// Re-hashes every segment against its stored checksum. Names the first
  /// failing segment in the error.
  io::Status VerifyChecksums() const;

 private:
  const unsigned char* base() const { return file_.data(); }

  MappedFile file_;
  std::string name_;
  int64_t instances_ = 0;
  int64_t dims_ = 0;
  int64_t length_ = 0;
  int num_classes_ = 0;
  bool has_mask_ = false;
  size_t labels_offset_ = 0;
  size_t columns_offset_ = 0;
  size_t column_stride_ = 0;  // aligned bytes from one column start to the next
};

}  // namespace data
}  // namespace dcam

#endif  // DCAM_DATA_STORE_H_
