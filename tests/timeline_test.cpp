// Differential property sweep for the word-packed timeline kernels
// (util/timeline.hpp): every kernel must agree bit-for-bit with its
// one-bit-at-a-time reference in timeline::scalar across randomized
// interval sets, with deliberate pressure on word boundaries (indices
// near multiples of 64) and zero-length ranges.
//
// The sweep runs once per simd dispatch backend reachable on the build
// machine (forced via simd::SetBackend, the same mechanism as the
// RESCHED_SIMD env override), so the AVX2/NEON variants are held to the
// same oracle as the portable word loops. GapIndex and the GapCursor
// resume overloads get their own differential sections, and so does the
// floorplan candidate-column filter (simd::KernelTable::filter_columns).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/timeline.hpp"

namespace resched {
namespace {

namespace tl = resched::timeline;

using testing::ReachableBackends;
using testing::ScopedBackend;

/// Draws an index biased toward word boundaries: half the time a uniform
/// index, half the time a multiple of 64 plus a small offset in [-2, 2].
std::size_t BoundaryBiasedIndex(Rng& rng, std::size_t num_bits) {
  if (rng.UniformInt(0, 1) == 0) {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(num_bits)));
  }
  const auto words = static_cast<std::int64_t>(num_bits / 64);
  const std::int64_t base = 64 * rng.UniformInt(0, words);
  const std::int64_t off = rng.UniformInt(-2, 2);
  const std::int64_t i = base + off;
  if (i < 0) return 0;
  if (i > static_cast<std::int64_t>(num_bits)) return num_bits;
  return static_cast<std::size_t>(i);
}

/// Random [begin, end) with begin <= end; occasionally zero-length.
std::pair<std::size_t, std::size_t> RandomRange(Rng& rng,
                                                std::size_t num_bits) {
  std::size_t a = BoundaryBiasedIndex(rng, num_bits);
  if (rng.UniformInt(0, 9) == 0) return {a, a};  // zero-length
  std::size_t b = BoundaryBiasedIndex(rng, num_bits);
  if (a > b) std::swap(a, b);
  return {a, b};
}

class TimelineDifferentialSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineDifferentialSweep, KernelsMatchScalarReference) {
  for (const simd::Backend backend : ReachableBackends()) {
    SCOPED_TRACE(simd::BackendName(backend));
    ScopedBackend guard(backend);

    Rng rng(GetParam());
    const auto num_bits = static_cast<std::size_t>(rng.UniformInt(1, 700));
    const std::size_t words = tl::WordsFor(num_bits);

    std::vector<std::uint64_t> fast(words, 0);
    std::vector<std::uint64_t> ref(words, 0);

    for (int step = 0; step < 400; ++step) {
      const auto [begin, end] = RandomRange(rng, num_bits);
      switch (rng.UniformInt(0, 7)) {
        case 0: {
          tl::RangeSet(fast.data(), begin, end);
          tl::scalar::RangeSet(ref.data(), begin, end);
          break;
        }
        case 1: {
          tl::RangeClear(fast.data(), begin, end);
          tl::scalar::RangeClear(ref.data(), begin, end);
          break;
        }
        case 2: {
          EXPECT_EQ(tl::RangeAny(fast.data(), begin, end),
                    tl::scalar::RangeAny(ref.data(), begin, end))
              << "RangeAny [" << begin << ", " << end << ")";
          break;
        }
        case 3: {
          EXPECT_EQ(tl::RangeTestAndSet(fast.data(), begin, end),
                    tl::scalar::RangeTestAndSet(ref.data(), begin, end))
              << "RangeTestAndSet [" << begin << ", " << end << ")";
          break;
        }
        case 4: {
          EXPECT_EQ(tl::FindFirstSet(fast.data(), begin, end),
                    tl::scalar::FindFirstSet(ref.data(), begin, end))
              << "FindFirstSet [" << begin << ", " << end << ")";
          break;
        }
        case 5: {
          const auto len =
              static_cast<std::size_t>(rng.UniformInt(0, 130));
          EXPECT_EQ(tl::FirstFitGap(fast.data(), num_bits, begin, len),
                    tl::scalar::FirstFitGap(ref.data(), num_bits, begin, len))
              << "FirstFitGap from=" << begin << " len=" << len;
          break;
        }
        case 6: {
          EXPECT_EQ(tl::FindLastSet(fast.data(), begin, end),
                    tl::scalar::FindLastSet(ref.data(), begin, end))
              << "FindLastSet [" << begin << ", " << end << ")";
          break;
        }
        case 7: {
          EXPECT_EQ(tl::RangeCount(fast.data(), begin, end),
                    tl::scalar::RangeCount(ref.data(), begin, end))
              << "RangeCount [" << begin << ", " << end << ")";
          break;
        }
      }
      ASSERT_EQ(fast, ref) << "word images diverged after step " << step;
    }

    // OrInto against a second randomized set.
    std::vector<std::uint64_t> other(words, 0);
    for (int i = 0; i < 20; ++i) {
      const auto [begin, end] = RandomRange(rng, num_bits);
      tl::RangeSet(other.data(), begin, end);
    }
    std::vector<std::uint64_t> or_fast = fast;
    std::vector<std::uint64_t> or_ref = ref;
    tl::OrInto(or_fast.data(), other.data(), words);
    tl::scalar::OrInto(or_ref.data(), other.data(), words);
    EXPECT_EQ(or_fast, or_ref);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineDifferentialSweep,
                         ::testing::Range<std::uint64_t>(1, 40));

// Set-only mutation sweep: the GapIndex (prefix-popcount) and the
// GapCursor resume overloads must agree with the plain-words kernels and
// the one-bit oracle under interleaved Set / probe traffic. Mutation is
// set-only because that is the GapCursor soundness precondition (a
// fully-set prefix can only grow).
class GapIndexDifferentialSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GapIndexDifferentialSweep, GapIndexAndCursorsMatchNaiveScan) {
  for (const simd::Backend backend : ReachableBackends()) {
    SCOPED_TRACE(simd::BackendName(backend));
    ScopedBackend guard(backend);

    Rng rng(GetParam() * 7919);
    const auto num_bits = static_cast<std::size_t>(rng.UniformInt(1, 900));
    const std::size_t words = tl::WordsFor(num_bits);

    tl::GapIndex index;
    index.ResizeAndClear(num_bits);
    std::vector<std::uint64_t> ref(words, 0);
    tl::GapCursor cursor;        // shared across probes; set-only axis
    tl::GapCursor index_cursor;  // independent cursor for GapIndex probes

    for (int step = 0; step < 300; ++step) {
      switch (rng.UniformInt(0, 4)) {
        case 0: {  // set-only mutation
          const auto [begin, end] = RandomRange(rng, num_bits);
          index.Set(begin, end);
          tl::scalar::RangeSet(ref.data(), begin, end);
          break;
        }
        case 1: {  // O(1) population count vs naive
          const auto [begin, end] = RandomRange(rng, num_bits);
          EXPECT_EQ(index.Count(begin, end),
                    tl::scalar::RangeCount(ref.data(), begin, end))
              << "Count [" << begin << ", " << end << ")";
          break;
        }
        case 2: {  // FirstGap with and without cursor vs naive fit scan
          const std::size_t from = BoundaryBiasedIndex(rng, num_bits);
          const auto len = static_cast<std::size_t>(rng.UniformInt(0, 140));
          const std::size_t want =
              tl::scalar::FirstFitGap(ref.data(), num_bits, from, len);
          EXPECT_EQ(index.FirstGap(from, len), want)
              << "FirstGap from=" << from << " len=" << len;
          EXPECT_EQ(index.FirstGap(from, len, &index_cursor), want)
              << "FirstGap+cursor from=" << from << " len=" << len;
          break;
        }
        case 3: {  // word-kernel cursor overload vs the cursor-less kernel
          const std::size_t from = BoundaryBiasedIndex(rng, num_bits);
          const auto len = static_cast<std::size_t>(rng.UniformInt(0, 140));
          EXPECT_EQ(
              tl::FirstFitGap(ref.data(), num_bits, from, len, &cursor),
              tl::FirstFitGap(ref.data(), num_bits, from, len))
              << "FirstFitGap cursor from=" << from << " len=" << len;
          break;
        }
        case 4: {  // index words mirror the reference image exactly
          ASSERT_EQ(std::vector<std::uint64_t>(
                        index.words(), index.words() + words),
                    ref)
              << "GapIndex word image diverged at step " << step;
          break;
        }
      }
      // The fully-set-prefix invariant: every bit below the cursor is set.
      ASSERT_LE(cursor.head_full_bits, num_bits);
      if (cursor.head_full_bits > 0) {
        ASSERT_EQ(tl::scalar::RangeCount(ref.data(), 0, cursor.head_full_bits),
                  cursor.head_full_bits)
            << "cursor claims unset bits are a full prefix";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GapIndexDifferentialSweep,
                         ::testing::Range<std::uint64_t>(1, 25));

// ------------------------------------------------- deterministic edges

TEST(TimelineTest, EmptyAndFullWordRanges) {
  std::vector<std::uint64_t> w(3, 0);
  tl::RangeSet(w.data(), 0, 0);
  EXPECT_EQ(w, std::vector<std::uint64_t>(3, 0));
  EXPECT_FALSE(tl::RangeAny(w.data(), 0, 0));
  EXPECT_FALSE(tl::RangeTestAndSet(w.data(), 64, 64));
  EXPECT_EQ(tl::FindFirstSet(w.data(), 10, 10), tl::kNpos);

  tl::RangeSet(w.data(), 0, 192);  // exactly three full words
  EXPECT_EQ(w, std::vector<std::uint64_t>(3, ~std::uint64_t{0}));
  tl::RangeClear(w.data(), 64, 128);  // clear the exact middle word
  EXPECT_EQ(w[0], ~std::uint64_t{0});
  EXPECT_EQ(w[1], 0u);
  EXPECT_EQ(w[2], ~std::uint64_t{0});
  EXPECT_EQ(tl::FirstFitGap(w.data(), 192, 0, 64), 64u);
  EXPECT_EQ(tl::FirstFitGap(w.data(), 192, 0, 65), tl::kNpos);
}

TEST(TimelineTest, SingleBitStraddlesNoWord) {
  std::vector<std::uint64_t> w(2, 0);
  tl::RangeSet(w.data(), 63, 65);  // straddles the 0/1 word boundary
  EXPECT_EQ(w[0], std::uint64_t{1} << 63);
  EXPECT_EQ(w[1], std::uint64_t{1});
  EXPECT_TRUE(tl::RangeAny(w.data(), 64, 128));
  EXPECT_FALSE(tl::RangeAny(w.data(), 65, 128));
  EXPECT_EQ(tl::FindFirstSet(w.data(), 0, 128), 63u);
  EXPECT_EQ(tl::FindFirstSet(w.data(), 64, 128), 64u);
}

TEST(TimelineTest, FirstFitGapZeroLength) {
  std::vector<std::uint64_t> w(1, ~std::uint64_t{0});
  EXPECT_EQ(tl::FirstFitGap(w.data(), 64, 10, 0), 10u);
  EXPECT_EQ(tl::FirstFitGap(w.data(), 64, 64, 0), 64u);
  EXPECT_EQ(tl::FirstFitGap(w.data(), 64, 65, 0), tl::kNpos);
  EXPECT_EQ(tl::FirstFitGap(w.data(), 64, 0, 1), tl::kNpos);
}

// Deterministic unaligned spans long enough to hit the dispatched interior
// path (>= kDispatchMinWords interior words) on every reachable backend,
// with begin/end straddling word boundaries by +/- 1 bit.
TEST(TimelineTest, DispatchedInteriorUnalignedEdges) {
  constexpr std::size_t kBits = 8 * 64;
  for (const simd::Backend backend : ReachableBackends()) {
    SCOPED_TRACE(simd::BackendName(backend));
    ScopedBackend guard(backend);
    for (const std::size_t begin : {0u, 1u, 63u, 64u, 65u, 127u, 129u}) {
      for (const std::size_t end : {319u, 320u, 321u, 447u, 449u, 511u, 512u}) {
        if (begin >= end) continue;
        std::vector<std::uint64_t> fast(8, 0), ref(8, 0);
        tl::RangeSet(fast.data(), begin, end);
        tl::scalar::RangeSet(ref.data(), begin, end);
        ASSERT_EQ(fast, ref) << "RangeSet [" << begin << ", " << end << ")";
        EXPECT_EQ(tl::FindFirstSet(fast.data(), 0, kBits), begin);
        EXPECT_EQ(tl::FindLastSet(fast.data(), 0, kBits), end - 1);
        EXPECT_EQ(tl::RangeCount(fast.data(), 0, kBits), end - begin);
        EXPECT_TRUE(tl::RangeAny(fast.data(), begin, end));
        EXPECT_FALSE(tl::RangeAny(fast.data(), 0, begin));
        EXPECT_FALSE(tl::RangeAny(fast.data(), end, kBits));
        tl::RangeClear(fast.data(), begin, end);
        ASSERT_EQ(fast, std::vector<std::uint64_t>(8, 0))
            << "RangeClear [" << begin << ", " << end << ")";
      }
    }
  }
}

// The candidate-column filter under the floorplan DFS: every backend
// against a naive per-candidate reference, on random column-major inputs
// with n not a multiple of the lane count, 1-8 resource kinds (2-9 key
// columns, covering the fixed-count shapes and the runtime-count body)
// and 1-16 mask words. Bits at and above n must stay clear.
TEST(TimelineTest, FilterColumnsMatchesReference) {
  Rng rng(0xF17E);
  for (int trial = 0; trial < 400; ++trial) {
    std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 300));
    if (n % simd::kColumnPad == 0) ++n;
    const auto num_keys = static_cast<std::size_t>(rng.UniformInt(2, 9));
    const auto num_words = static_cast<std::size_t>(rng.UniformInt(1, 16));
    const std::size_t stride =
        (n + simd::kColumnPad - 1) / simd::kColumnPad * simd::kColumnPad;
    std::vector<std::int64_t> keys(num_keys * stride);
    std::vector<std::int64_t> limits(num_keys);
    std::vector<std::uint64_t> masks(num_words * stride);
    std::vector<std::uint64_t> used(num_words);
    // Padding rows hold junk the kernels must ignore.
    for (std::int64_t& key : keys) key = rng.UniformInt(-50, 1000);
    for (std::int64_t& limit : limits) limit = rng.UniformInt(200, 1000);
    for (std::uint64_t& word : masks) {
      word = rng.Next() & rng.Next() & rng.Next();
    }
    for (std::uint64_t& word : used) {
      word = rng.UniformInt(0, 1) == 0 ? 0 : rng.Next() & rng.Next();
    }
    std::vector<std::uint64_t> expect(tl::WordsFor(n), 0);
    for (std::size_t j = 0; j < n; ++j) {
      bool pass = true;
      for (std::size_t k = 0; k < num_keys; ++k) {
        pass = pass && keys[k * stride + j] <= limits[k];
      }
      for (std::size_t w = 0; w < num_words; ++w) {
        pass = pass && (masks[w * stride + j] & used[w]) == 0;
      }
      if (pass) expect[j / 64] |= std::uint64_t{1} << (j % 64);
    }
    for (const simd::Backend backend : ReachableBackends()) {
      SCOPED_TRACE(simd::BackendName(backend));
      ScopedBackend guard(backend);
      std::vector<std::uint64_t> got(expect.size(), ~std::uint64_t{0});
      simd::Active().filter_columns(keys.data(), limits.data(), num_keys,
                                    masks.data(), used.data(), num_words,
                                    stride, n, got.data());
      ASSERT_EQ(got, expect) << "n=" << n << " keys=" << num_keys
                             << " words=" << num_words;
    }
  }
}

// A stale cursor must never change the result: probes below the cached
// fully-set prefix still return exactly what the cursor-less kernel does.
TEST(TimelineTest, GapCursorProbesBelowPrefixAreExact) {
  std::vector<std::uint64_t> w(4, 0);
  tl::RangeSet(w.data(), 0, 100);  // fully-set prefix of 100 bits
  tl::GapCursor cursor;
  // Warm the cursor past the prefix.
  EXPECT_EQ(tl::FirstFitGap(w.data(), 256, 0, 5, &cursor), 100u);
  EXPECT_GE(cursor.head_full_bits, 100u);
  // Zero-length probes from inside the prefix must keep returning `from`.
  EXPECT_EQ(tl::FirstFitGap(w.data(), 256, 7, 0, &cursor), 7u);
  EXPECT_EQ(tl::FirstFitGap(w.data(), 256, 256, 0, &cursor), 256u);
  EXPECT_EQ(tl::FirstFitGap(w.data(), 256, 257, 0, &cursor), tl::kNpos);
  // Non-zero probes from inside the prefix jump to the real gap.
  EXPECT_EQ(tl::FirstFitGap(w.data(), 256, 3, 1, &cursor), 100u);
  // Saturated axis: cursor reaches num_bits, probes keep failing.
  tl::RangeSet(w.data(), 100, 256);
  tl::GapCursor full;
  EXPECT_EQ(tl::FirstFitGap(w.data(), 256, 0, 1, &full), tl::kNpos);
  EXPECT_EQ(full.head_full_bits, 256u);
  EXPECT_EQ(tl::FirstFitGap(w.data(), 256, 0, 1, &full), tl::kNpos);
}

TEST(TimelineTest, GapIndexDeterministicEdges) {
  tl::GapIndex index;
  index.ResizeAndClear(192);
  EXPECT_EQ(index.NumBits(), 192u);
  EXPECT_EQ(index.Count(0, 192), 0u);
  EXPECT_EQ(index.FirstGap(0, 192), 0u);
  EXPECT_EQ(index.FirstGap(0, 193), tl::kNpos);
  index.Set(63, 65);  // straddle the 0/1 word boundary
  index.Set(63, 65);  // idempotent: prefix must not double-count
  EXPECT_EQ(index.Count(0, 192), 2u);
  EXPECT_EQ(index.Count(64, 192), 1u);
  EXPECT_EQ(index.Count(0, 64), 1u);
  EXPECT_EQ(index.Count(65, 192), 0u);
  EXPECT_EQ(index.FirstGap(0, 63), 0u);
  EXPECT_EQ(index.FirstGap(0, 64), 65u);
  EXPECT_EQ(index.FirstGap(64, 1), 65u);
  index.ClearAll();
  EXPECT_EQ(index.Count(0, 192), 0u);
  EXPECT_EQ(index.FirstGap(10, 100), 10u);
}

TEST(TimelineTest, BitTimelineWrapper) {
  tl::BitTimeline t;
  t.ResizeAndClear(130);
  EXPECT_EQ(t.NumBits(), 130u);
  EXPECT_EQ(t.NumWords(), 3u);
  EXPECT_FALSE(t.TestAndSet(10, 70));
  EXPECT_TRUE(t.TestAndSet(69, 71));  // bit 69/70 already occupied? 69 yes
  EXPECT_TRUE(t.Any(0, 130));
  EXPECT_EQ(t.FirstFit(0, 10), 0u);
  EXPECT_EQ(t.FirstFit(5, 10), 71u);
  t.ClearAll();
  EXPECT_FALSE(t.Any(0, 130));
}

}  // namespace
}  // namespace resched
