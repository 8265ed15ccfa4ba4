// Bump-pointer scratch arena with worker-local instances.
//
// The hot loops of this repository (GEMM pack panels, per-flush engine
// transients) need short-lived scratch of stable size, thousands of times a
// second, from many threads at once. Generic heap allocation serves that
// poorly twice over: the allocator's synchronization shows up in the
// profile, and the bytes land wherever the allocator last cached them —
// which, under a multi-worker pool, means another core's cache. An Arena is
// the standard fix (cf. the per-query scratch of the SIGMOD-contest
// engines): allocation is a pointer bump into a thread-owned block, and
// because each worker thread keeps its own arena (ThisThreadArena), repeated
// morsels reuse the same warm, core-resident bytes — on a pinned worker the
// scratch never migrates between cores at all.
//
// Lifetime discipline: Allocate() returns memory valid until the enclosing
// ArenaScope rewinds (or Reset is called). Nothing is destructed — the arena
// hands out raw trivially-destructible storage only.
//
// Retention: an arena returns no storage to the system allocator while its
// thread lives. When a rewind empties an arena that grew past one block, the
// blocks are merged into one block of its high-water mark (the most it ever
// held at once), so between scopes a thread keeps one block of at most
// max(min_block_bytes, 2 x high-water mark).

#ifndef DCAM_UTIL_ARENA_H_
#define DCAM_UTIL_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.h"

namespace dcam {

class Arena {
 public:
  /// Cache-line-and-vector-friendly default alignment for every allocation.
  static constexpr size_t kDefaultAlign = 64;

  /// Blocks grow in multiples of `min_block_bytes` (1 MiB default: big
  /// enough that a GEMM pack pair, the largest steady-state customer, fits
  /// in one block).
  explicit Arena(size_t min_block_bytes = size_t{1} << 20)
      : min_block_(min_block_bytes < kDefaultAlign ? kDefaultAlign
                                                   : min_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of uninitialized storage aligned to `align` (a power of
  /// two, at most kDefaultAlign — blocks themselves are aligned that much).
  void* Allocate(size_t bytes, size_t align = kDefaultAlign) {
    DCAM_CHECK_GT(align, 0u);
    DCAM_CHECK_LE(align, kDefaultAlign);
    DCAM_CHECK_EQ(align & (align - 1), 0u) << "alignment must be a power of 2";
    if (bytes == 0) bytes = 1;
    while (active_ < blocks_.size()) {
      Block& b = blocks_[active_];
      const size_t at = (b.used + align - 1) & ~(align - 1);
      if (at + bytes <= b.size) {
        b.used = at + bytes;
        return b.base + at;
      }
      // The current block is full for this request; later blocks (if any,
      // left over from a rewind) are tried next, else a fresh one is
      // appended. Blocks past a rewind mark hold no live data by definition.
      ++active_;
      if (active_ < blocks_.size()) blocks_[active_].used = 0;
    }
    size_t size = min_block_;
    while (size < bytes) size *= 2;
    blocks_.push_back(NewBlock(size));
    blocks_.back().used = bytes;
    active_ = blocks_.size() - 1;
    return blocks_.back().base;
  }

  float* AllocateFloats(size_t n) {
    return static_cast<float*>(Allocate(n * sizeof(float)));
  }
  int* AllocateInts(size_t n) {
    return static_cast<int*>(Allocate(n * sizeof(int)));
  }

  /// Opaque rewind point for ArenaScope.
  struct Mark {
    size_t block = 0;
    size_t used = 0;
  };

  Mark Position() const {
    Mark m;
    m.block = active_;
    m.used = active_ < blocks_.size() ? blocks_[active_].used : 0;
    return m;
  }

  /// Releases every allocation made after `m` (storage is retained for
  /// reuse). Marks must be rewound strictly LIFO — ArenaScope enforces it.
  /// A rewind that empties an arena spread over several blocks merges them
  /// into one block of the high-water size (see Retention above), so the
  /// next pass fits one contiguous span.
  void RewindTo(const Mark& m) {
    // Live bytes only fall here, so their peak is always seen just before
    // a rewind.
    high_water_ = std::max(high_water_, ContiguousBytes());
    for (size_t i = m.block + 1; i < blocks_.size() && i <= active_; ++i) {
      blocks_[i].used = 0;
    }
    active_ = m.block;
    if (active_ < blocks_.size()) blocks_[active_].used = m.used;
    if (m.block == 0 && m.used == 0 && blocks_.size() > 1) {
      blocks_.clear();
      blocks_.push_back(NewBlock(std::max(min_block_, high_water_)));
    }
  }

  /// Drops every allocation. When the arena had fragmented across several
  /// blocks, they are consolidated: the next Allocate carves from one block
  /// as large as all of them together, so steady-state reuse touches one
  /// contiguous span.
  void Reset() {
    if (blocks_.size() > 1) {
      size_t total = 0;
      for (const Block& b : blocks_) total += b.size;
      blocks_.clear();
      blocks_.push_back(NewBlock(total));
    } else if (!blocks_.empty()) {
      blocks_[0].used = 0;
    }
    active_ = 0;
  }

  /// Bytes currently live (allocated and not rewound).
  size_t bytes_allocated() const {
    size_t total = 0;
    for (size_t i = 0; i < blocks_.size() && i <= active_; ++i) {
      total += blocks_[i].used;
    }
    return total;
  }

  /// Bytes reserved from the system allocator.
  size_t bytes_reserved() const {
    size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<char[]> raw;  // owns base's storage (plus align slack)
    char* base = nullptr;         // kDefaultAlign-aligned start
    size_t size = 0;              // usable bytes at base
    size_t used = 0;
  };

  // Bytes the live allocations would take in one block: every block starts
  // kDefaultAlign-aligned, so laying the blocks' used spans end to end, each
  // rounded up to that alignment, keeps every allocation's alignment.
  size_t ContiguousBytes() const {
    size_t total = 0;
    for (size_t i = 0; i < blocks_.size() && i <= active_; ++i) {
      const size_t used = blocks_[i].used;
      total += i < active_ ? (used + kDefaultAlign - 1) & ~(kDefaultAlign - 1)
                           : used;
    }
    return total;
  }

  // new[] guarantees only max_align_t alignment; over-allocate by one
  // alignment quantum and round the base up by hand.
  static Block NewBlock(size_t size) {
    Block b;
    b.raw.reset(new char[size + kDefaultAlign]);
    const auto addr = reinterpret_cast<uintptr_t>(b.raw.get());
    const uintptr_t aligned = (addr + kDefaultAlign - 1) & ~uintptr_t{
        kDefaultAlign - 1};
    b.base = b.raw.get() + (aligned - addr);
    b.size = size;
    return b;
  }

  std::vector<Block> blocks_;
  size_t active_ = 0;
  size_t min_block_;
  size_t high_water_ = 0;  // most ContiguousBytes() seen at a rewind
};

/// LIFO rewind guard: every allocation made while the scope is live is
/// released when it dies. The idiom for per-morsel scratch:
///
///   Arena& arena = ThisThreadArena();
///   ArenaScope scope(&arena);
///   float* pack = arena.AllocateFloats(n);   // freed by ~ArenaScope
class ArenaScope {
 public:
  explicit ArenaScope(Arena* arena) : arena_(arena), mark_(arena->Position()) {}
  ~ArenaScope() { arena_->RewindTo(mark_); }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* arena_;
  Arena::Mark mark_;
};

/// The calling thread's scratch arena. Pool workers, shard schedulers, and
/// external callers each get their own (created on first use, freed at
/// thread exit), so arena allocation is synchronization-free and the bytes
/// stay resident on the core the thread is pinned to.
inline Arena& ThisThreadArena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace dcam

#endif  // DCAM_UTIL_ARENA_H_
