// Bump-pointer arena + allocator for the per-worker scratch state
// (DESIGN.md §10).
//
// PaScratch owns dozens of stage buffers and a pool of draft regions; each
// used to carve its storage from the global heap independently. With the
// arena they all bump-allocate from one slab chain, so a worker's whole
// working set is contiguous and warm in cache, and the steady-state
// allocation count of a restart stays zero (containers keep their
// capacity across Reset(), and the slab keeps its bytes).
//
// Lifetime rules (enforced by declaration order, not by the arena):
//   * the arena must outlive every container whose allocator points at it
//     — declare it before them in the owning class;
//   * Deallocate() reclaims only the most recent allocation (LIFO); any
//     other free is a no-op and the bytes return on Rewind();
//   * Rewind() is legal only when no live allocation remains (all
//     arena-backed containers destroyed or shrunk to capacity zero); it
//     coalesces the slab chain into one slab of the high-water size, so a
//     rebuilt working set fits without further mallocs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.hpp"

namespace resched {

class MonotonicArena {
 public:
  explicit MonotonicArena(std::size_t initial_bytes = 1 << 16)
      : initial_bytes_(initial_bytes == 0 ? 1 : initial_bytes) {}

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  void* Allocate(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1;
    if (!slabs_.empty()) {
      Slab& slab = slabs_.back();
      const std::size_t aligned = AlignedOffset(slab, align);
      if (aligned + bytes <= slab.size) {
        slab.used = aligned + bytes;
        return slab.data.get() + aligned;
      }
    }
    // Geometric slab growth: the chain length stays logarithmic in the
    // high-water mark, and Rewind() collapses it back to one slab.
    std::size_t size = slabs_.empty() ? initial_bytes_ : slabs_.back().size * 2;
    const std::size_t need = bytes + align;
    if (size < need) size = need;
    slabs_.push_back(
        Slab{std::make_unique_for_overwrite<std::byte[]>(size), size, 0});
    Slab& slab = slabs_.back();
    const std::size_t aligned = AlignedOffset(slab, align);
    slab.used = aligned + bytes;
    return slab.data.get() + aligned;
  }

  /// LIFO reclaim: returns the bytes iff `p` is the most recent live
  /// allocation of the current slab; otherwise a no-op (the bytes come
  /// back at the next Rewind). This makes std::vector's grow-copy-free
  /// pattern waste only the *old* buffer, never the new one.
  void Deallocate(void* p, std::size_t bytes) {
    if (bytes == 0) bytes = 1;
    if (slabs_.empty()) return;
    Slab& slab = slabs_.back();
    auto* bytes_p = static_cast<std::byte*>(p);
    if (bytes_p + bytes == slab.data.get() + slab.used) {
      slab.used -= bytes;
    }
  }

  /// Collapses the slab chain into one slab of at least the total
  /// capacity and rewinds it to empty. Caller contract: no allocation
  /// obtained from this arena may be referenced afterwards.
  void Rewind() {
    if (slabs_.size() == 1) {
      slabs_.back().used = 0;
      return;
    }
    std::size_t total = 0;
    for (const Slab& s : slabs_) total += s.size;
    slabs_.clear();
    if (total != 0) {
      slabs_.push_back(
          Slab{std::make_unique_for_overwrite<std::byte[]>(total), total, 0});
    }
  }

  std::size_t NumSlabs() const { return slabs_.size(); }

  std::size_t BytesUsed() const {
    std::size_t total = 0;
    for (const Slab& s : slabs_) total += s.used;
    return total;
  }

  std::size_t Capacity() const {
    std::size_t total = 0;
    for (const Slab& s : slabs_) total += s.size;
    return total;
  }

 private:
  struct Slab {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  /// Smallest offset >= slab.used whose *address* is align-aligned (the
  /// slab base itself is only new[]-aligned, so offsets alone don't do).
  static std::size_t AlignedOffset(const Slab& slab, std::size_t align) {
    RESCHED_DCHECK_MSG(align != 0 && (align & (align - 1)) == 0,
                       "alignment must be a power of two");
    const auto base = reinterpret_cast<std::uintptr_t>(slab.data.get());
    const std::uintptr_t aligned =
        (base + slab.used + align - 1) & ~static_cast<std::uintptr_t>(align - 1);
    return static_cast<std::size_t>(aligned - base);
  }

  std::size_t initial_bytes_;
  std::vector<Slab> slabs_;
};

/// Minimal allocator over MonotonicArena. Stateful: containers using it
/// must be constructed with an allocator bound to their owner's arena.
template <class T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(MonotonicArena& arena) : arena_(&arena) {}

  template <class U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->Allocate(n * sizeof(T), alignof(T)));
  }

  void deallocate(T* p, std::size_t n) { arena_->Deallocate(p, n * sizeof(T)); }

  MonotonicArena* arena() const { return arena_; }

  template <class U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }
  template <class U>
  bool operator!=(const ArenaAllocator<U>& other) const {
    return arena_ != other.arena();
  }

 private:
  MonotonicArena* arena_;
};

/// std::vector carving from an arena; construct as ArenaVec<T>(alloc).
template <class T>
using ArenaVec = std::vector<T, ArenaAllocator<T>>;

}  // namespace resched
