#include "data/store.h"

#include <cstring>
#include <vector>

#include "io/atomic_file.h"
#include "util/check.h"
#include "util/xxhash.h"

namespace dcam {
namespace data {
namespace {

constexpr char kMagic[8] = {'D', 'C', 'A', 'M', 'C', 'O', 'L', '1'};
constexpr uint32_t kDtypeFloat32 = 1;
constexpr uint32_t kFlagHasMask = 1u << 0;
constexpr size_t kSegmentAlign = 64;

// Conservative shape bound: keeps every offset computation below far from
// int64/size_t overflow while allowing corpora orders of magnitude past
// SF=100.
constexpr int64_t kMaxDim = int64_t{1} << 31;

size_t AlignUp(size_t n) {
  return (n + kSegmentAlign - 1) & ~(kSegmentAlign - 1);
}

// Every segment is stored as payload + uint64 XXH64 + zero padding to the
// alignment boundary.
size_t SegmentBlock(size_t payload_bytes) {
  return AlignUp(payload_bytes + sizeof(uint64_t));
}

struct Layout {
  size_t header_bytes = 0;    // through the name, excluding the header hash
  size_t labels_offset = 0;
  size_t columns_offset = 0;
  size_t column_stride = 0;
  size_t file_bytes = 0;
};

Layout ComputeLayout(size_t name_len, int64_t instances, int64_t dims,
                     int64_t length, bool has_mask) {
  Layout layout;
  layout.header_bytes = 8 + 4 * sizeof(uint32_t) + 3 * sizeof(int64_t) +
                        sizeof(int32_t) + name_len;
  layout.labels_offset = AlignUp(layout.header_bytes + sizeof(uint64_t));
  layout.columns_offset =
      layout.labels_offset +
      SegmentBlock(static_cast<size_t>(instances) * sizeof(int32_t));
  layout.column_stride = SegmentBlock(static_cast<size_t>(instances) *
                                      static_cast<size_t>(length) *
                                      sizeof(float));
  const size_t column_count =
      static_cast<size_t>(dims) * (has_mask ? 2 : 1);
  layout.file_bytes =
      layout.columns_offset + layout.column_stride * column_count;
  return layout;
}

class SegmentWriter {
 public:
  explicit SegmentWriter(io::AtomicFileWriter* out) : out_(out) {}

  // Writes payload + XXH64(payload) + padding to the alignment boundary.
  io::Status WriteSegment(const void* payload, size_t bytes) {
    io::Status status = out_->Write(payload, bytes);
    if (!status.ok()) return status;
    const uint64_t hash = Xxh64(payload, bytes);
    status = out_->WriteScalar(hash);
    if (!status.ok()) return status;
    return Pad(SegmentBlock(bytes) - bytes - sizeof(uint64_t));
  }

  io::Status Pad(size_t bytes) {
    static const char zeros[kSegmentAlign] = {};
    while (bytes > 0) {
      const size_t chunk = bytes < sizeof(zeros) ? bytes : sizeof(zeros);
      io::Status status = out_->Write(zeros, chunk);
      if (!status.ok()) return status;
      bytes -= chunk;
    }
    return io::Status::Ok();
  }

 private:
  io::AtomicFileWriter* out_;
};

template <typename T>
void AppendScalar(std::string* buffer, T value) {
  buffer->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

uint64_t ReadU64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

io::Status WriteSeriesStore(const Dataset& dataset, const std::string& path) {
  if (dataset.X.empty() || dataset.X.rank() != 3) {
    return io::Status::InvalidArgument(
        "series store requires a non-empty (N, D, n) dataset");
  }
  const int64_t instances = dataset.size();
  const int64_t dims = dataset.dims();
  const int64_t length = dataset.length();
  if (static_cast<int64_t>(dataset.y.size()) != instances) {
    return io::Status::InvalidArgument(
        "label count does not match instance count");
  }
  const bool has_mask = !dataset.mask.empty();
  if (has_mask && dataset.mask.shape() != dataset.X.shape()) {
    return io::Status::InvalidArgument("mask shape does not match X");
  }

  io::AtomicFileWriter out(path);
  io::Status status = out.Open();
  if (!status.ok()) return status;

  // Header: assembled in memory so the hash covers exactly the bytes written.
  std::string header;
  header.append(kMagic, sizeof(kMagic));
  AppendScalar(&header, kSeriesStoreVersion);
  AppendScalar(&header, kDtypeFloat32);
  AppendScalar(&header, has_mask ? kFlagHasMask : 0u);
  AppendScalar(&header, static_cast<uint32_t>(dataset.name.size()));
  AppendScalar(&header, instances);
  AppendScalar(&header, dims);
  AppendScalar(&header, length);
  AppendScalar(&header, static_cast<int32_t>(dataset.num_classes));
  header.append(dataset.name);
  status = out.Write(header.data(), header.size());
  if (!status.ok()) return status;
  status = out.WriteScalar(Xxh64(header.data(), header.size()));
  if (!status.ok()) return status;

  const Layout layout = ComputeLayout(dataset.name.size(), instances, dims,
                                      length, has_mask);
  SegmentWriter segments(&out);
  status = segments.Pad(layout.labels_offset - layout.header_bytes -
                        sizeof(uint64_t));
  if (!status.ok()) return status;

  std::vector<int32_t> labels(dataset.y.begin(), dataset.y.end());
  status = segments.WriteSegment(labels.data(),
                                 labels.size() * sizeof(int32_t));
  if (!status.ok()) return status;

  // Columns: transpose (N, D, n) row-major into dimension-outer segments.
  std::vector<float> column(static_cast<size_t>(instances) *
                            static_cast<size_t>(length));
  const auto write_columns = [&](const Tensor& source) -> io::Status {
    for (int64_t d = 0; d < dims; ++d) {
      for (int64_t i = 0; i < instances; ++i) {
        std::memcpy(column.data() + i * length,
                    source.data() + (i * dims + d) * length,
                    static_cast<size_t>(length) * sizeof(float));
      }
      io::Status s =
          segments.WriteSegment(column.data(), column.size() * sizeof(float));
      if (!s.ok()) return s;
    }
    return io::Status::Ok();
  };
  status = write_columns(dataset.X);
  if (!status.ok()) return status;
  if (has_mask) {
    status = write_columns(dataset.mask);
    if (!status.ok()) return status;
  }
  return out.Commit();
}

io::Status SeriesStore::Open(const std::string& path, const Options& options,
                             SeriesStore* out) {
  *out = SeriesStore();
  MappedFile::Options map_options;
  map_options.allow_mmap = options.allow_mmap;
  // The verification pass streams front to back; point-lookup traffic after
  // it is skewed-random.
  map_options.advice = options.verify_checksums
                           ? MappedFile::Advice::kSequential
                           : MappedFile::Advice::kRandom;
  io::Status status = MappedFile::Open(path, map_options, &out->file_);
  if (!status.ok()) return status;

  const unsigned char* base = out->file_.data();
  const size_t size = out->file_.size();
  const size_t fixed_header = 8 + 4 * sizeof(uint32_t) + 3 * sizeof(int64_t) +
                              sizeof(int32_t);
  if (size < fixed_header + sizeof(uint64_t)) {
    return io::Status::Corruption(path + ": too short for a series store");
  }
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    return io::Status::Corruption(path + ": not a dcam series store");
  }
  uint32_t version, dtype, flags, name_len;
  std::memcpy(&version, base + 8, 4);
  std::memcpy(&dtype, base + 12, 4);
  std::memcpy(&flags, base + 16, 4);
  std::memcpy(&name_len, base + 20, 4);
  if (version != kSeriesStoreVersion) {
    return io::Status::InvalidArgument(
        path + ": series-store version " + std::to_string(version) +
        " unsupported (this build reads version " +
        std::to_string(kSeriesStoreVersion) + ")");
  }
  if (dtype != kDtypeFloat32) {
    return io::Status::InvalidArgument(path + ": unsupported dtype " +
                                       std::to_string(dtype));
  }
  int64_t instances, dims, length;
  int32_t num_classes;
  std::memcpy(&instances, base + 24, 8);
  std::memcpy(&dims, base + 32, 8);
  std::memcpy(&length, base + 40, 8);
  std::memcpy(&num_classes, base + 48, 4);
  if (instances <= 0 || dims <= 0 || length <= 0 || instances >= kMaxDim ||
      dims >= kMaxDim || length >= kMaxDim || num_classes < 1) {
    return io::Status::Corruption(path + ": implausible header shape");
  }
  const bool has_mask = (flags & kFlagHasMask) != 0;
  const size_t header_bytes = fixed_header + name_len;
  if (size < header_bytes + sizeof(uint64_t)) {
    return io::Status::Corruption(path + ": truncated header");
  }
  const uint64_t stored_header_hash = ReadU64(base + header_bytes);
  if (Xxh64(base, header_bytes) != stored_header_hash) {
    return io::Status::Corruption(path + ": header checksum mismatch");
  }

  const Layout layout =
      ComputeLayout(name_len, instances, dims, length, has_mask);
  if (size != layout.file_bytes) {
    return io::Status::Corruption(
        path + ": truncated series store (" + std::to_string(size) +
        " bytes, layout requires " + std::to_string(layout.file_bytes) + ")");
  }

  out->name_.assign(reinterpret_cast<const char*>(base + fixed_header),
                    name_len);
  out->instances_ = instances;
  out->dims_ = dims;
  out->length_ = length;
  out->num_classes_ = num_classes;
  out->has_mask_ = has_mask;
  out->labels_offset_ = layout.labels_offset;
  out->columns_offset_ = layout.columns_offset;
  out->column_stride_ = layout.column_stride;

  if (options.verify_checksums) {
    status = out->VerifyChecksums();
    if (!status.ok()) return status;
    out->file_.Advise(MappedFile::Advice::kRandom);
  }
  return io::Status::Ok();
}

const float* SeriesStore::Row(int64_t i, int64_t d) const {
  DCAM_CHECK_GE(i, 0);
  DCAM_CHECK_LT(i, instances_);
  DCAM_CHECK_GE(d, 0);
  DCAM_CHECK_LT(d, dims_);
  return reinterpret_cast<const float*>(base() + columns_offset_ +
                                        static_cast<size_t>(d) *
                                            column_stride_) +
         i * length_;
}

const float* SeriesStore::MaskRow(int64_t i, int64_t d) const {
  DCAM_CHECK(has_mask_);
  DCAM_CHECK_GE(i, 0);
  DCAM_CHECK_LT(i, instances_);
  DCAM_CHECK_GE(d, 0);
  DCAM_CHECK_LT(d, dims_);
  return reinterpret_cast<const float*>(
             base() + columns_offset_ +
             static_cast<size_t>(dims_ + d) * column_stride_) +
         i * length_;
}

int SeriesStore::label(int64_t i) const {
  DCAM_CHECK_GE(i, 0);
  DCAM_CHECK_LT(i, instances_);
  int32_t label;
  std::memcpy(&label, base() + labels_offset_ + i * sizeof(int32_t), 4);
  return label;
}

Tensor SeriesStore::Instance(int64_t i) const {
  Tensor out({dims_, length_});
  for (int64_t d = 0; d < dims_; ++d) {
    std::memcpy(out.data() + d * length_, Row(i, d),
                static_cast<size_t>(length_) * sizeof(float));
  }
  return out;
}

Tensor SeriesStore::InstanceMask(int64_t i) const {
  Tensor out({dims_, length_});
  for (int64_t d = 0; d < dims_; ++d) {
    std::memcpy(out.data() + d * length_, MaskRow(i, d),
                static_cast<size_t>(length_) * sizeof(float));
  }
  return out;
}

Dataset SeriesStore::ToDataset() const {
  Dataset dataset;
  dataset.name = name_;
  dataset.num_classes = num_classes_;
  dataset.X = Tensor({instances_, dims_, length_});
  dataset.y.resize(instances_);
  for (int64_t i = 0; i < instances_; ++i) {
    dataset.y[i] = label(i);
    for (int64_t d = 0; d < dims_; ++d) {
      std::memcpy(dataset.X.data() + (i * dims_ + d) * length_, Row(i, d),
                  static_cast<size_t>(length_) * sizeof(float));
    }
  }
  if (has_mask_) {
    dataset.mask = Tensor({instances_, dims_, length_});
    for (int64_t i = 0; i < instances_; ++i) {
      for (int64_t d = 0; d < dims_; ++d) {
        std::memcpy(dataset.mask.data() + (i * dims_ + d) * length_,
                    MaskRow(i, d),
                    static_cast<size_t>(length_) * sizeof(float));
      }
    }
  }
  return dataset;
}

io::Status SeriesStore::VerifyChecksums() const {
  const auto check = [&](size_t offset, size_t bytes,
                         const std::string& what) -> io::Status {
    const uint64_t stored = ReadU64(base() + offset + bytes);
    if (Xxh64(base() + offset, bytes) != stored) {
      return io::Status::Corruption("checksum mismatch in " + what + " of " +
                                    name_);
    }
    return io::Status::Ok();
  };
  io::Status status =
      check(labels_offset_, static_cast<size_t>(instances_) * sizeof(int32_t),
            "labels segment");
  if (!status.ok()) return status;
  const size_t column_bytes = static_cast<size_t>(instances_) *
                              static_cast<size_t>(length_) * sizeof(float);
  for (int64_t d = 0; d < dims_; ++d) {
    status = check(columns_offset_ + static_cast<size_t>(d) * column_stride_,
                   column_bytes, "column " + std::to_string(d));
    if (!status.ok()) return status;
  }
  if (has_mask_) {
    for (int64_t d = 0; d < dims_; ++d) {
      status = check(columns_offset_ +
                         static_cast<size_t>(dims_ + d) * column_stride_,
                     column_bytes, "mask column " + std::to_string(d));
      if (!status.ok()) return status;
    }
  }
  return io::Status::Ok();
}

}  // namespace data
}  // namespace dcam
