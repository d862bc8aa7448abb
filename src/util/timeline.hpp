// Word-packed bitset timeline kernels (the ISSUE-6 hot-path library).
//
// The scheduler's feasibility scans all reduce to the same primitive: a set
// of half-open index ranges over a bounded axis (time buckets, fabric
// cells), asked either "is any index in [begin, end) occupied?" or "occupy
// [begin, end)". These kernels pack the axis into 64-bit words so one AND
// or OR touches 64 indices; the floorplan candidate masks, the §V-G
// reconfiguration-controller lanes and the validator overlap scan all
// share them.
//
// Layout: bit i of the axis lives in words[i / 64], bit position i % 64.
// Every kernel takes raw word pointers so callers can carve the storage
// from an arena or a catalog entry. None of the kernels allocate.
//
// `timeline::scalar` mirrors every kernel with a one-bit-at-a-time
// reference implementation — the oracle for the differential property test
// (tests/timeline_test.cpp). Keep the two namespaces signature-identical.
//
// Bulk word spans are routed through util/simd.hpp (runtime AVX2/NEON
// dispatch, RESCHED_SIMD override). Spans shorter than kDispatchMinWords
// keep the inline word loop: an indirect call costs more than it saves on
// a few words. Every backend is bit-identical (DESIGN.md §13), so the
// split never changes a result.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/simd.hpp"

namespace resched::timeline {

inline constexpr std::size_t kWordBits = 64;
inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Word spans at least this long go through the simd dispatch table;
/// shorter spans use the inline loop (indirect-call break-even).
inline constexpr std::size_t kDispatchMinWords = 4;

/// Number of 64-bit words needed to hold `bits` bits.
constexpr std::size_t WordsFor(std::size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}

namespace detail {
/// Mask with bits [b % 64, 64) set — the head of a range's first word.
constexpr std::uint64_t HeadMask(std::size_t b) {
  return ~std::uint64_t{0} << (b % kWordBits);
}
/// Mask with bits [0, e % 64] set — the tail of a range's last word,
/// where `e` is the *inclusive* last bit index.
constexpr std::uint64_t TailMask(std::size_t e) {
  return ~std::uint64_t{0} >> (kWordBits - 1 - (e % kWordBits));
}
}  // namespace detail

/// Sets every bit in [begin, end).
inline void RangeSet(std::uint64_t* words, std::size_t begin,
                     std::size_t end) {
  if (begin >= end) return;
  const std::size_t wb = begin / kWordBits;
  const std::size_t we = (end - 1) / kWordBits;
  const std::uint64_t head = detail::HeadMask(begin);
  const std::uint64_t tail = detail::TailMask(end - 1);
  if (wb == we) {
    words[wb] |= head & tail;
    return;
  }
  words[wb] |= head;
  if (we - wb - 1 >= kDispatchMinWords) {
    simd::Active().fill(words + wb + 1, ~std::uint64_t{0}, we - wb - 1);
  } else {
    for (std::size_t w = wb + 1; w < we; ++w) words[w] = ~std::uint64_t{0};
  }
  words[we] |= tail;
}

/// Clears every bit in [begin, end).
inline void RangeClear(std::uint64_t* words, std::size_t begin,
                       std::size_t end) {
  if (begin >= end) return;
  const std::size_t wb = begin / kWordBits;
  const std::size_t we = (end - 1) / kWordBits;
  const std::uint64_t head = detail::HeadMask(begin);
  const std::uint64_t tail = detail::TailMask(end - 1);
  if (wb == we) {
    words[wb] &= ~(head & tail);
    return;
  }
  words[wb] &= ~head;
  if (we - wb - 1 >= kDispatchMinWords) {
    simd::Active().fill(words + wb + 1, 0, we - wb - 1);
  } else {
    for (std::size_t w = wb + 1; w < we; ++w) words[w] = 0;
  }
  words[we] &= ~tail;
}

/// True when any bit in [begin, end) is set. Empty ranges report false.
inline bool RangeAny(const std::uint64_t* words, std::size_t begin,
                     std::size_t end) {
  if (begin >= end) return false;
  const std::size_t wb = begin / kWordBits;
  const std::size_t we = (end - 1) / kWordBits;
  const std::uint64_t head = detail::HeadMask(begin);
  const std::uint64_t tail = detail::TailMask(end - 1);
  if (wb == we) return (words[wb] & head & tail) != 0;
  if ((words[wb] & head) != 0) return true;
  if (we - wb - 1 >= kDispatchMinWords) {
    if (simd::Active().any_nonzero(words + wb + 1, we - wb - 1)) return true;
  } else {
    for (std::size_t w = wb + 1; w < we; ++w) {
      if (words[w] != 0) return true;
    }
  }
  return (words[we] & tail) != 0;
}

/// Sets every bit in [begin, end); returns true when any of them was
/// already set (the occupy-and-detect-clash primitive of the validator).
inline bool RangeTestAndSet(std::uint64_t* words, std::size_t begin,
                            std::size_t end) {
  if (begin >= end) return false;
  const std::size_t wb = begin / kWordBits;
  const std::size_t we = (end - 1) / kWordBits;
  const std::uint64_t head = detail::HeadMask(begin);
  const std::uint64_t tail = detail::TailMask(end - 1);
  if (wb == we) {
    const std::uint64_t mask = head & tail;
    const bool clash = (words[wb] & mask) != 0;
    words[wb] |= mask;
    return clash;
  }
  bool clash = (words[wb] & head) != 0;
  words[wb] |= head;
  if (we - wb - 1 >= kDispatchMinWords) {
    clash |= simd::Active().any_nonzero(words + wb + 1, we - wb - 1);
    simd::Active().fill(words + wb + 1, ~std::uint64_t{0}, we - wb - 1);
  } else {
    for (std::size_t w = wb + 1; w < we; ++w) {
      clash |= words[w] != 0;
      words[w] = ~std::uint64_t{0};
    }
  }
  clash |= (words[we] & tail) != 0;
  words[we] |= tail;
  return clash;
}

/// Index of the first set bit in [begin, end), or kNpos when none.
inline std::size_t FindFirstSet(const std::uint64_t* words, std::size_t begin,
                                std::size_t end) {
  if (begin >= end) return kNpos;
  const std::size_t wb = begin / kWordBits;
  const std::size_t we = (end - 1) / kWordBits;
  std::uint64_t v = words[wb] & detail::HeadMask(begin);
  if (wb == we) {
    v &= detail::TailMask(end - 1);
    if (v == 0) return kNpos;
    return wb * kWordBits + static_cast<std::size_t>(std::countr_zero(v));
  }
  if (v != 0) {
    return wb * kWordBits + static_cast<std::size_t>(std::countr_zero(v));
  }
  std::size_t w;
  if (we - wb - 1 >= kDispatchMinWords) {
    w = simd::Active().first_nonzero(words, wb + 1, we);
  } else {
    for (w = wb + 1; w < we && words[w] == 0; ++w) {
    }
  }
  if (w < we) {
    return w * kWordBits +
           static_cast<std::size_t>(std::countr_zero(words[w]));
  }
  v = words[we] & detail::TailMask(end - 1);
  if (v == 0) return kNpos;
  return we * kWordBits + static_cast<std::size_t>(std::countr_zero(v));
}

/// Index of the last set bit in [begin, end), or kNpos when none — the
/// maximal-jump primitive of GapIndex::FirstGap (a window containing a set
/// bit admits no gap start at or before its last set bit).
inline std::size_t FindLastSet(const std::uint64_t* words, std::size_t begin,
                               std::size_t end) {
  if (begin >= end) return kNpos;
  const std::size_t wb = begin / kWordBits;
  const std::size_t we = (end - 1) / kWordBits;
  std::uint64_t mask = detail::TailMask(end - 1);
  for (std::size_t w = we + 1; w-- > wb;) {
    std::uint64_t v = words[w] & mask;
    if (w == wb) v &= detail::HeadMask(begin);
    if (v != 0) {
      return w * kWordBits + (kWordBits - 1) -
             static_cast<std::size_t>(std::countl_zero(v));
    }
    mask = ~std::uint64_t{0};
  }
  return kNpos;
}

/// First index i >= from with i + len <= num_bits and [i, i + len) all
/// clear, or kNpos when no such gap exists. Zero-length requests fit at
/// `from` whenever from <= num_bits. Skips straight past each blocking
/// set bit rather than sliding one position at a time.
inline std::size_t FirstFitGap(const std::uint64_t* words,
                               std::size_t num_bits, std::size_t from,
                               std::size_t len) {
  if (len == 0) return from <= num_bits ? from : kNpos;
  std::size_t i = from;
  while (i + len <= num_bits && i + len > i) {  // second clause: overflow
    const std::size_t blocker = FindFirstSet(words, i, i + len);
    if (blocker == kNpos) return i;
    i = blocker + 1;
  }
  return kNpos;
}

/// Resume cursor for repeated gap probes against a timeline whose
/// occupancy only grows (set-only mutation between probes, the PA
/// slot-search pattern). Tracks the fully-set prefix: every bit in
/// [0, head_full_bits) is set, so no gap can ever start there and probes
/// may skip it without changing any result. The invariant is monotone
/// under RangeSet — clearing bits invalidates the cursor (re-zero it).
struct GapCursor {
  std::size_t head_full_bits = 0;
};

namespace detail {
/// Advances the cursor to the current first clear bit (word-stepped, never
/// rescans below the previous position).
inline void AdvanceGapCursor(const std::uint64_t* words, std::size_t num_bits,
                             GapCursor* cursor) {
  std::size_t hfb = cursor->head_full_bits;
  if (hfb >= num_bits) return;
  std::size_t w = hfb / kWordBits;
  // Treat bits below hfb as set: they are, by the cursor invariant.
  std::uint64_t v = words[w];
  if (hfb % kWordBits != 0) {
    v |= ~std::uint64_t{0} >> (kWordBits - hfb % kWordBits);
  }
  while (~v == 0) {
    ++w;
    if (w * kWordBits >= num_bits) {
      cursor->head_full_bits = num_bits;
      return;
    }
    v = words[w];
  }
  hfb = w * kWordBits + static_cast<std::size_t>(std::countr_one(v));
  cursor->head_full_bits = hfb < num_bits ? hfb : num_bits;
}
}  // namespace detail

/// FirstFitGap with a resume cursor: bit-identical to the cursor-less
/// overload for any (from, len) as long as no bit was cleared since the
/// cursor was last reset — a set bit can never start a gap, so skipping
/// the known-full prefix cannot change the answer. Repeated probes on a
/// grow-only timeline become incremental instead of head-rescans.
inline std::size_t FirstFitGap(const std::uint64_t* words,
                               std::size_t num_bits, std::size_t from,
                               std::size_t len, GapCursor* cursor) {
  if (len == 0) return from <= num_bits ? from : kNpos;
  detail::AdvanceGapCursor(words, num_bits, cursor);
  return FirstFitGap(words, num_bits,
                     std::max(from, cursor->head_full_bits), len);
}

/// dst |= src, word-wise.
inline void OrInto(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t words) {
  if (words >= kDispatchMinWords) {
    simd::Active().or_into(dst, src, words);
    return;
  }
  for (std::size_t w = 0; w < words; ++w) dst[w] |= src[w];
}

/// Popcount of the set bits in [begin, end).
inline std::size_t RangeCount(const std::uint64_t* words, std::size_t begin,
                              std::size_t end) {
  if (begin >= end) return 0;
  const std::size_t wb = begin / kWordBits;
  const std::size_t we = (end - 1) / kWordBits;
  const std::uint64_t head = detail::HeadMask(begin);
  const std::uint64_t tail = detail::TailMask(end - 1);
  if (wb == we) {
    return static_cast<std::size_t>(std::popcount(words[wb] & head & tail));
  }
  std::size_t count = static_cast<std::size_t>(std::popcount(words[wb] & head));
  for (std::size_t w = wb + 1; w < we; ++w) {
    count += static_cast<std::size_t>(std::popcount(words[w]));
  }
  return count + static_cast<std::size_t>(std::popcount(words[we] & tail));
}

// One-bit-at-a-time reference implementations. Deliberately naive: the
// property test trusts these, so keep them obviously correct.
namespace scalar {

inline bool TestBit(const std::uint64_t* words, std::size_t i) {
  return (words[i / kWordBits] >> (i % kWordBits)) & 1u;
}

inline void SetBit(std::uint64_t* words, std::size_t i) {
  words[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
}

inline void ClearBit(std::uint64_t* words, std::size_t i) {
  words[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
}

inline void RangeSet(std::uint64_t* words, std::size_t begin,
                     std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) SetBit(words, i);
}

inline void RangeClear(std::uint64_t* words, std::size_t begin,
                       std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) ClearBit(words, i);
}

inline bool RangeAny(const std::uint64_t* words, std::size_t begin,
                     std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (TestBit(words, i)) return true;
  }
  return false;
}

inline bool RangeTestAndSet(std::uint64_t* words, std::size_t begin,
                            std::size_t end) {
  bool clash = false;
  for (std::size_t i = begin; i < end; ++i) {
    clash |= TestBit(words, i);
    SetBit(words, i);
  }
  return clash;
}

inline std::size_t FindFirstSet(const std::uint64_t* words, std::size_t begin,
                                std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (TestBit(words, i)) return i;
  }
  return kNpos;
}

inline std::size_t FindLastSet(const std::uint64_t* words, std::size_t begin,
                               std::size_t end) {
  for (std::size_t i = end; i-- > begin;) {
    if (TestBit(words, i)) return i;
  }
  return kNpos;
}

inline std::size_t RangeCount(const std::uint64_t* words, std::size_t begin,
                              std::size_t end) {
  std::size_t count = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (TestBit(words, i)) ++count;
  }
  return count;
}

inline std::size_t FirstFitGap(const std::uint64_t* words,
                               std::size_t num_bits, std::size_t from,
                               std::size_t len) {
  if (len == 0) return from <= num_bits ? from : kNpos;
  for (std::size_t i = from; i + len <= num_bits && i + len > i; ++i) {
    if (!RangeAny(words, i, i + len)) return i;
  }
  return kNpos;
}

inline void OrInto(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t words) {
  for (std::size_t i = 0; i < words * kWordBits; ++i) {
    if (TestBit(src, i)) SetBit(dst, i);
  }
}

}  // namespace scalar

/// Prefix-popcount gap index: a word-packed occupancy axis plus the
/// running popcount of every word prefix, maintained incrementally on
/// Set(). Count() over any range is O(1) (prefix difference + two partial
/// words), so window-emptiness probes — the `FirstControllerGap`-style
/// "does a length-L window at position p have zero occupancy?" question —
/// never rescan the axis, and FirstGap() advances past the *last* set bit
/// of each blocked window (one O(words) backward scan) instead of
/// bit-stepping.
///
/// Maintenance invariant (DESIGN.md §13): prefix_[w] equals the popcount
/// of words_[0..w) after every public call. Mutation is set-only between
/// ResizeAndClear()/ClearAll() — exactly the monotone occupancy pattern of
/// the PA slot search — which also keeps GapCursor probes valid.
class GapIndex {
 public:
  std::size_t NumBits() const { return bits_; }
  const std::uint64_t* words() const { return words_.data(); }

  /// Resizes to `bits` and clears everything (capacity persists).
  void ResizeAndClear(std::size_t bits) {
    bits_ = bits;
    words_.assign(WordsFor(bits), 0);
    prefix_.assign(WordsFor(bits) + 1, 0);
  }

  void ClearAll() {
    std::fill(words_.begin(), words_.end(), 0);
    std::fill(prefix_.begin(), prefix_.end(), 0);
  }

  /// Sets every bit in [begin, end), updating the prefix array with the
  /// per-word popcount deltas in the same pass — O(words from begin).
  void Set(std::size_t begin, std::size_t end) {
    if (begin >= end) return;
    const std::size_t wb = begin / kWordBits;
    const std::size_t we = (end - 1) / kWordBits;
    const std::uint64_t head = detail::HeadMask(begin);
    const std::uint64_t tail = detail::TailMask(end - 1);
    std::uint32_t added = 0;
    for (std::size_t w = wb; w <= we; ++w) {
      std::uint64_t mask = ~std::uint64_t{0};
      if (w == wb) mask &= head;
      if (w == we) mask &= tail;
      const std::uint64_t grown = mask & ~words_[w];
      words_[w] |= mask;
      added += static_cast<std::uint32_t>(std::popcount(grown));
      prefix_[w + 1] += added;
    }
    for (std::size_t w = we + 1; w < words_.size(); ++w) {
      prefix_[w + 1] += added;
    }
  }

  /// Number of set bits in [begin, end) — O(1) via the prefix array.
  std::size_t Count(std::size_t begin, std::size_t end) const {
    if (begin >= end) return 0;
    const std::size_t wb = begin / kWordBits;
    const std::size_t we = (end - 1) / kWordBits;
    const std::uint64_t head = detail::HeadMask(begin);
    const std::uint64_t tail = detail::TailMask(end - 1);
    if (wb == we) {
      return static_cast<std::size_t>(
          std::popcount(words_[wb] & head & tail));
    }
    return static_cast<std::size_t>(std::popcount(words_[wb] & head)) +
           (prefix_[we] - prefix_[wb + 1]) +
           static_cast<std::size_t>(std::popcount(words_[we] & tail));
  }

  /// First index i >= from with i + len <= NumBits() and [i, i + len) all
  /// clear, or kNpos. Same contract as FirstFitGap, but each blocked
  /// window is rejected in O(1) and skipped past its *last* set bit (any
  /// start at or before it would still contain it), so the scan makes
  /// O(words)-style jumps instead of per-blocker bit steps.
  std::size_t FirstGap(std::size_t from, std::size_t len) const {
    if (len == 0) return from <= bits_ ? from : kNpos;
    std::size_t i = from;
    while (i + len <= bits_ && i + len > i) {  // second clause: overflow
      if (Count(i, i + len) == 0) return i;
      const std::size_t last = FindLastSet(words_.data(), i, i + len);
      i = last + 1;
    }
    return kNpos;
  }

  /// FirstGap with a resume cursor (see GapCursor): bit-identical under
  /// set-only mutation, incremental across probes.
  std::size_t FirstGap(std::size_t from, std::size_t len,
                       GapCursor* cursor) const {
    if (len == 0) return from <= bits_ ? from : kNpos;
    detail::AdvanceGapCursor(words_.data(), bits_, cursor);
    return FirstGap(std::max(from, cursor->head_full_bits), len);
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
  /// prefix_[w] = popcount of words_[0..w); size words_.size() + 1.
  std::vector<std::uint32_t> prefix_;
};

/// Owning, resizable bit axis over the kernels — the convenience wrapper
/// the validator and PaScratch embed. Reset()/ClearAll() keep capacity.
class BitTimeline {
 public:
  std::size_t NumBits() const { return bits_; }
  std::size_t NumWords() const { return words_.size(); }
  const std::uint64_t* data() const { return words_.data(); }
  std::uint64_t* data() { return words_.data(); }

  /// Resizes to `bits` and clears everything (capacity persists).
  void ResizeAndClear(std::size_t bits) {
    bits_ = bits;
    words_.assign(WordsFor(bits), 0);
  }

  void ClearAll() { std::fill(words_.begin(), words_.end(), 0); }

  void Set(std::size_t begin, std::size_t end) {
    RangeSet(words_.data(), begin, end);
  }
  void Clear(std::size_t begin, std::size_t end) {
    RangeClear(words_.data(), begin, end);
  }
  bool Any(std::size_t begin, std::size_t end) const {
    return RangeAny(words_.data(), begin, end);
  }
  bool TestAndSet(std::size_t begin, std::size_t end) {
    return RangeTestAndSet(words_.data(), begin, end);
  }
  std::size_t FirstFit(std::size_t from, std::size_t len) const {
    return FirstFitGap(words_.data(), bits_, from, len);
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace resched::timeline
