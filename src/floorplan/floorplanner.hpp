// Floorplan feasibility search (§V-H).
//
// Given the reconfigurable regions produced by the scheduler (their resource
// requirement vectors), decide whether they admit a placement of pairwise
// non-overlapping rectangles on the device fabric. The paper delegates this
// to the MILP floorplanner of [Rabozzi FCCM'15] with no objective function —
// a pure feasibility query. We answer the same query with a complete
// backtracking search over the enumerated minimal feasible placements:
// regions are ordered fewest-candidates-first (MRV) and the search prunes on
// per-kind remaining capacity; a subtree it has already proven empty is
// credited from a per-query memo instead of walked again (see
// SolveFloorplanFeasibility). A node budget bounds the worst case, in
// which case the result is reported as "not found" (matching how a
// time-limited MILP behaves). The budget counts DFS nodes, not seconds, so
// a verdict never depends on how fast the host is.
//
// Canonicalization contract: FindFloorplan internally reorders the regions
// into the canonical order of CanonicalRegionOrder() before searching and
// maps the rectangles back, so the result is a pure function of the region
// requirement *multiset* (plus the budget options). That property is what
// lets FloorplanCache serve permuted queries from one entry bit-for-bit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "floorplan/placement.hpp"

namespace resched {

struct FloorplanOptions {
  /// Backtracking node budget; 0 disables.
  std::size_t max_nodes = 2'000'000;
  /// Cap on enumerated placements per region (0 = unlimited).
  std::size_t max_placements_per_region = 4096;
};

struct FloorplanResult {
  bool feasible = false;
  /// True when the search exhausted its node budget before proving
  /// either feasibility or infeasibility.
  bool budget_exhausted = false;
  /// One rectangle per region (same order as the query) when feasible.
  std::vector<Rect> rects;
  std::size_t nodes_explored = 0;
  /// Part of nodes_explored credited from the failed-subtree memo instead
  /// of walked (0 on a FloorplanCache hit).
  std::size_t nodes_replayed = 0;
  double seconds = 0.0;
};

/// Hit/miss/eviction counters of a FloorplanCache (snapshot; see
/// floorplan/floorplan_cache.hpp). Lives here so Schedule/PaRResult can
/// embed it without pulling in the cache itself.
struct FloorplanCacheStats {
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t catalog_hits = 0;
  std::uint64_t catalog_misses = 0;
  /// DFS nodes explored by cache-miss solves (budget-bounded work the
  /// cache could not avoid).
  std::uint64_t solve_nodes = 0;

  double HitRate() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(queries);
  }

  /// Counter delta since an `earlier` snapshot of the same cache — how a
  /// driver attributes activity on a shared cache to one schedule.
  FloorplanCacheStats Since(const FloorplanCacheStats& earlier) const {
    FloorplanCacheStats d;
    d.queries = queries - earlier.queries;
    d.hits = hits - earlier.hits;
    d.misses = misses - earlier.misses;
    d.evictions = evictions - earlier.evictions;
    d.catalog_hits = catalog_hits - earlier.catalog_hits;
    d.catalog_misses = catalog_misses - earlier.catalog_misses;
    d.solve_nodes = solve_nodes - earlier.solve_nodes;
    return d;
  }
};

/// Searches for a feasible floorplan of `regions` on `device`'s fabric.
FloorplanResult FindFloorplan(const FpgaDevice& device,
                              const std::vector<ResourceVec>& regions,
                              const FloorplanOptions& options = {});

/// Canonical processing order of a region-requirement list: indices of
/// `regions` stably sorted by LexicographicallyBefore. Two permutations of
/// the same multiset map to the same canonical sequence.
std::vector<std::size_t> CanonicalRegionOrder(
    const std::vector<ResourceVec>& regions);

/// Candidate enumeration + dominance pruning for one requirement — the
/// unit the PlacementCatalog memoizes.
std::vector<Rect> EnumeratePrunedPlacements(const Fabric& fabric,
                                            const ResourceVec& req,
                                            std::size_t max_placements);

/// A region's candidate list in the column-major form the DFS filters in
/// one kernel call (simd::KernelTable::filter_columns). Candidate j is
/// rects[j]; its data sit at row j of `stride`-long columns (stride is
/// rects.size() rounded up to simd::kColumnPad; padding rows are zero):
///   * key_columns: column 0 is the rectangle's area in grid cells, column
///     1 + r its footprint of resource kind r — what it actually consumes,
///     always componentwise >= the requirement it was enumerated for;
///   * mask_columns: column w is word w of the rectangle's word-packed
///     cell-occupancy mask (bit row * Columns() + col), mask_words columns.
/// Grid rectangles overlap iff they share a cell, so the mask test against
/// the placed cells is an exact clash test. Sets are built once per
/// catalog entry by BuildPlacementSet and shared by every query.
struct PlacementSet {
  std::vector<Rect> rects;
  std::size_t stride = 0;
  std::size_t mask_words = 0;
  /// 1 + resource kinds columns of `stride` int64 values.
  std::vector<std::int64_t> key_columns;
  /// mask_words columns of `stride` words.
  std::vector<std::uint64_t> mask_columns;
  /// Componentwise minimum footprint over all candidates: the least any
  /// placement of this region can consume per kind. Basis of the DFS
  /// per-kind capacity suffix prune.
  ResourceVec min_res;
  /// OR of all candidate masks (mask_words words): every fabric cell this
  /// region could possibly occupy. If fewer than `min_area` of those cells
  /// remain free, no candidate of this region can be placed.
  std::vector<std::uint64_t> union_mask;
  /// Minimum rectangle area over all candidates, in grid cells.
  std::size_t min_area = 0;

  std::int64_t Area(std::size_t j) const { return key_columns[j]; }
  std::int64_t Footprint(std::size_t kind, std::size_t j) const {
    return key_columns[(1 + kind) * stride + j];
  }
  std::uint64_t MaskWord(std::size_t w, std::size_t j) const {
    return mask_columns[w * stride + j];
  }
};

/// Builds the candidate columns of `rects` on `fabric`.
PlacementSet BuildPlacementSet(const Fabric& fabric, std::vector<Rect> rects);

/// EnumeratePrunedPlacements + BuildPlacementSet in one call.
PlacementSet EnumeratePrunedPlacementSet(const Fabric& fabric,
                                         const ResourceVec& req,
                                         std::size_t max_placements);

/// Backtracking engine under FindFloorplan and FloorplanCache: solves the
/// pairwise non-overlap selection over externally owned per-region
/// candidate lists (one pointer per region, all non-null and non-empty,
/// built by BuildPlacementSet on `fabric` — checked once per call, a
/// violation throws InternalError). `result.rects` is indexed like
/// `candidates`. Deterministic: depends only on the candidate lists, their
/// order and the node budget. Each region's candidates are visited in list
/// order.
///
/// Two shortcuts leave every output (feasible, budget_exhausted,
/// nodes_explored, rects) exactly as a full walk would produce it:
///   * Failed-subtree memo. The subtree below a node at depth d depends
///     only on d and the occupancy mask: the used cells are the mask's
///     popcount and the per-kind consumption is the sum of the per-cell
///     units of its cells, since footprints add up over disjoint
///     rectangles. Once a query has counted 16,384 nodes it gets a
///     direct-mapped table of 2^14 slots (one per query, never shared)
///     keyed by (d, mask) and compared exactly. A subtree that failed
///     without reaching the budget is stored with its node count; when
///     the same (d, mask) comes up again the count is credited in one
///     batch instead of walking it. Budget checks fire at every multiple
///     of 1024 that a batch crosses, so the stop point matches the walk.
///     The credited nodes are reported as nodes_replayed.
///   * Barren-prune gate. The union-mask prune (a later region keeps
///     fewer free cells in its candidates' union than its smallest
///     rectangle needs) scans every later region. A region's union keeps
///     at least |union| - |occupied| free cells, so the scan runs only when
///     the occupied cells exceed min over later levels of
///     |union| - min_area.
FloorplanResult SolveFloorplanFeasibility(
    const Fabric& fabric,
    const std::vector<const PlacementSet*>& candidates,
    const FloorplanOptions& options);

/// Checks that `rects` is a valid floorplan for `regions` (non-overlap,
/// inside the fabric, resource-sufficient). Used by the validator and tests.
bool IsValidFloorplan(const FpgaDevice& device,
                      const std::vector<ResourceVec>& regions,
                      const std::vector<Rect>& rects);

}  // namespace resched
