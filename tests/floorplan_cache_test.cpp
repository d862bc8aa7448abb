// Tests for the PR-4 floorplan-feasibility cache stack: the sharded
// concurrent memo map, requirement-list canonicalization, verdict reuse
// policy (budget-exhausted entries must never masquerade as proven
// infeasibility), and bit-identical cache-on/cache-off scheduler results.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "arch/zynq.hpp"
#include "core/pa_scheduler.hpp"
#include "floorplan/floorplan_cache.hpp"
#include "floorplan/floorplanner.hpp"
#include "taskgraph/generator.hpp"
#include "util/memo_map.hpp"

namespace resched {
namespace {

// ---------------------------------------------------------------- memo map

struct IdentityHash {
  std::uint64_t operator()(std::uint64_t k) const { return k; }
};
using U64Map = ConcurrentMemoMap<std::uint64_t, std::uint64_t, IdentityHash>;

TEST(ConcurrentMemoMapTest, FindMissThenInsertThenHit) {
  U64Map map(64);
  EXPECT_EQ(map.Find(7), nullptr);
  const auto stored = map.Insert(7, 21);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(*stored, 21u);
  const auto found = map.Find(7);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, 21u);
  const auto c = map.Snapshot();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.evictions, 0u);
}

TEST(ConcurrentMemoMapTest, InsertOverwritesInPlace) {
  U64Map map(64);
  (void)map.Insert(3, 10);
  const auto old = map.Find(3);
  const auto updated = map.Insert(3, 11);
  EXPECT_EQ(*updated, 11u);
  EXPECT_EQ(*map.Find(3), 11u);
  // A reader holding the old entry keeps a stable value.
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(*old, 10u);
}

TEST(ConcurrentMemoMapTest, BoundedMemoryEvictsDeterministically) {
  U64Map map(32);
  const std::size_t capacity = map.Capacity();
  for (std::uint64_t k = 0; k < 64 * capacity; ++k) {
    (void)map.Insert(k, k * 3);
  }
  const auto c = map.Snapshot();
  EXPECT_GT(c.evictions, 0u);
  // Eviction loses entries, never corrupts them: whatever is still cached
  // must carry its own value.
  std::size_t live = 0;
  for (std::uint64_t k = 0; k < 64 * capacity; ++k) {
    if (const auto v = map.Find(k)) {
      EXPECT_EQ(*v, k * 3);
      ++live;
    }
  }
  EXPECT_GT(live, 0u);
  EXPECT_LE(live, capacity);
}

TEST(ConcurrentMemoMapTest, ConcurrentHammerKeepsValuesConsistent) {
  U64Map map(128);
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kKeys = 96;  // deliberately above capacity/shard
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map, t] {
      for (std::uint64_t i = 0; i < 5000; ++i) {
        const std::uint64_t k = (i * (t + 1)) % kKeys;
        if (const auto v = map.Find(k)) {
          // An entry for k must always hold k's value, no matter which
          // thread inserted or evicted around it.
          if (*v != k * 7) std::abort();
        } else {
          (void)map.Insert(k, k * 7);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto c = map.Snapshot();
  EXPECT_EQ(c.hits + c.misses, kThreads * 5000u);
}

// ------------------------------------------------------- canonicalization

TEST(CanonicalRegionOrderTest, PermutationsShareOneCanonicalSequence) {
  const std::vector<ResourceVec> a{
      ResourceVec({300, 0, 0}), ResourceVec({100, 5, 0}),
      ResourceVec({100, 0, 10}), ResourceVec({100, 5, 0})};
  const std::vector<ResourceVec> b{a[2], a[0], a[3], a[1]};
  const auto oa = CanonicalRegionOrder(a);
  const auto ob = CanonicalRegionOrder(b);
  ASSERT_EQ(oa.size(), a.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[oa[k]], b[ob[k]]) << "canonical position " << k;
  }
}

TEST(CanonicalRegionOrderTest, FindFloorplanIsPermutationConsistent) {
  const FpgaDevice device = MakeXc7z020();
  const std::vector<ResourceVec> a{ResourceVec({2000, 0, 0}),
                                   ResourceVec({800, 10, 0}),
                                   ResourceVec({400, 0, 20})};
  const std::vector<ResourceVec> b{a[2], a[0], a[1]};
  const auto ra = FindFloorplan(device, a);
  const auto rb = FindFloorplan(device, b);
  ASSERT_TRUE(ra.feasible);
  ASSERT_TRUE(rb.feasible);
  // Same multiset => the canonical solve is shared, so each (distinct)
  // requirement gets the same rectangle in both queries.
  auto same = [](const Rect& x, const Rect& y) {
    return x.col0 == y.col0 && x.row0 == y.row0 && x.width == y.width &&
           x.height == y.height;
  };
  EXPECT_TRUE(same(ra.rects[0], rb.rects[1]));
  EXPECT_TRUE(same(ra.rects[1], rb.rects[2]));
  EXPECT_TRUE(same(ra.rects[2], rb.rects[0]));
}

// ----------------------------------------------------------------- cache

TEST(FloorplanCacheTest, PermutedQueryIsAHit) {
  const FpgaDevice device = MakeXc7z020();
  FloorplanCache cache(device);
  const std::vector<ResourceVec> a{ResourceVec({2000, 0, 0}),
                                   ResourceVec({800, 10, 0}),
                                   ResourceVec({400, 0, 20})};
  const std::vector<ResourceVec> b{a[2], a[0], a[1]};
  FloorplanOptions options;

  const auto ra = cache.Query(a, options);
  const auto rb = cache.Query(b, options);
  ASSERT_TRUE(ra.feasible);
  ASSERT_TRUE(rb.feasible);
  const FloorplanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);

  // The replayed verdict is the recorded solve: same nodes, and the same
  // rectangle per requirement after mapping back to query order.
  EXPECT_EQ(ra.nodes_explored, rb.nodes_explored);
  auto same = [](const Rect& x, const Rect& y) {
    return x.col0 == y.col0 && x.row0 == y.row0 && x.width == y.width &&
           x.height == y.height;
  };
  EXPECT_TRUE(same(ra.rects[0], rb.rects[1]));
  EXPECT_TRUE(same(ra.rects[1], rb.rects[2]));
  EXPECT_TRUE(same(ra.rects[2], rb.rects[0]));
  EXPECT_TRUE(IsValidFloorplan(device, b, rb.rects));
}

TEST(FloorplanCacheTest, MatchesUncachedAnswers) {
  const FpgaDevice device = MakeXc7z020();
  FloorplanCache cache(device);
  FloorplanOptions options;
  const std::vector<std::vector<ResourceVec>> queries{
      {},                                                  // trivially yes
      {ResourceVec({60000, 0, 0})},                        // aggregate no
      {ResourceVec({2000, 0, 0}), ResourceVec({800, 10, 0})},
      std::vector<ResourceVec>(8, ResourceVec({800, 0, 0})),
      std::vector<ResourceVec>(3, ResourceVec({100, 5, 0})),
  };
  for (const auto& regions : queries) {
    const auto direct = FindFloorplan(device, regions, options);
    // Twice: once solving, once replaying the memo.
    for (int round = 0; round < 2; ++round) {
      const auto cached = cache.Query(regions, options);
      EXPECT_EQ(cached.feasible, direct.feasible);
      EXPECT_EQ(cached.budget_exhausted, direct.budget_exhausted);
      ASSERT_EQ(cached.rects.size(), direct.rects.size());
      for (std::size_t i = 0; i < cached.rects.size(); ++i) {
        EXPECT_EQ(cached.rects[i].col0, direct.rects[i].col0);
        EXPECT_EQ(cached.rects[i].row0, direct.rects[i].row0);
        EXPECT_EQ(cached.rects[i].width, direct.rects[i].width);
        EXPECT_EQ(cached.rects[i].height, direct.rects[i].height);
      }
    }
  }
}

TEST(FloorplanCacheTest, BudgetExhaustedIsNeverProvenInfeasible) {
  const FpgaDevice device = MakeXc7z020();
  // Twelve such regions pass the aggregate pre-check and the per-kind
  // min-footprint root check but admit no packing; with a 12-placement
  // catalog the proof needs ~9k search nodes — past the first node-budget
  // checkpoint (1024) yet instant to complete.
  const std::vector<ResourceVec> regions(12, ResourceVec({1000, 10, 14}));

  FloorplanOptions unlimited;
  unlimited.max_nodes = 0;
  unlimited.max_placements_per_region = 12;
  const auto truth = FindFloorplan(device, regions, unlimited);
  ASSERT_FALSE(truth.budget_exhausted);
  ASSERT_GT(truth.nodes_explored, 2048u)
      << "fixture too easy to exercise the node budget";

  FloorplanCache cache(device);
  FloorplanOptions tiny = unlimited;
  tiny.max_nodes = 1;  // first %1024 checkpoint exhausts the budget

  const auto starved = cache.Query(regions, tiny);
  EXPECT_FALSE(starved.feasible);
  ASSERT_TRUE(starved.budget_exhausted);

  // Same (or smaller) budget: the exhausted verdict replays as exhausted —
  // explicitly NOT as proven infeasibility.
  const auto replay = cache.Query(regions, tiny);
  EXPECT_TRUE(replay.budget_exhausted);
  EXPECT_EQ(replay.feasible, starved.feasible);
  EXPECT_EQ(cache.Stats().hits, 1u);

  // Larger budget: the entry is not reusable; the cache must re-solve and
  // return the ground truth, then remember the stronger verdict.
  const auto solved = cache.Query(regions, unlimited);
  EXPECT_FALSE(solved.budget_exhausted);
  EXPECT_EQ(solved.feasible, truth.feasible);
  EXPECT_EQ(solved.nodes_explored, truth.nodes_explored);

  // The stronger (proven) verdict overwrote the exhausted one and now
  // serves the unlimited query from the memo.
  const auto after = cache.Query(regions, unlimited);
  EXPECT_EQ(after.feasible, truth.feasible);
  EXPECT_FALSE(after.budget_exhausted);
}

TEST(FloorplanCacheTest, PlacementCatalogIsShared) {
  const FpgaDevice device = MakeXc7z020();
  FloorplanCache cache(device);
  const ResourceVec req({800, 0, 0});
  const auto first = cache.Placements(req, 4096);
  const auto second = cache.Placements(req, 4096);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());  // same memoized object
  const Fabric fabric(device);
  const std::vector<Rect> direct = EnumeratePrunedPlacements(fabric, req, 4096);
  ASSERT_EQ(first->rects.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(first->rects[i].col0, direct[i].col0);
    EXPECT_EQ(first->rects[i].row0, direct[i].row0);
    EXPECT_EQ(first->rects[i].width, direct[i].width);
    EXPECT_EQ(first->rects[i].height, direct[i].height);
  }
  // The candidate columns must agree with the rectangles they describe.
  const PlacementSet rebuilt = BuildPlacementSet(fabric, direct);
  EXPECT_EQ(first->mask_words, rebuilt.mask_words);
  EXPECT_EQ(first->stride, rebuilt.stride);
  EXPECT_EQ(first->key_columns, rebuilt.key_columns);
  EXPECT_EQ(first->mask_columns, rebuilt.mask_columns);
  EXPECT_GE(cache.Stats().catalog_hits, 1u);
}

// ------------------------------------------- scheduler-level equivalence

TEST(FloorplanCacheTest, SchedulePaCacheOnOffBitIdentical) {
  GeneratorOptions gen;
  gen.num_tasks = 30;
  const Instance inst = GenerateInstance(MakeZedBoard(), gen, 23, "cache-eq");
  PaOptions with;
  with.floorplan_cache = true;
  PaOptions without = with;
  without.floorplan_cache = false;

  const Schedule a = SchedulePa(inst, with);
  const Schedule b = SchedulePa(inst, without);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.floorplan_retries, b.floorplan_retries);
  ASSERT_EQ(a.floorplan.size(), b.floorplan.size());
  for (std::size_t i = 0; i < a.floorplan.size(); ++i) {
    EXPECT_EQ(a.floorplan[i].col0, b.floorplan[i].col0);
    EXPECT_EQ(a.floorplan[i].row0, b.floorplan[i].row0);
    EXPECT_EQ(a.floorplan[i].width, b.floorplan[i].width);
    EXPECT_EQ(a.floorplan[i].height, b.floorplan[i].height);
  }
  // The cache was consulted on the cached leg and silent on the other.
  EXPECT_GT(a.floorplan_cache.queries, 0u);
  EXPECT_EQ(b.floorplan_cache.queries, 0u);
}

}  // namespace
}  // namespace resched
