// Memoized floorplan feasibility (the PR-4 hot-path cache).
//
// A PA-R run issues the same feasibility query many times: every restart
// whose regions happen to have the same requirement multiset, every shrink
// round revisiting a smaller variant, every PA-LS iteration perturbing an
// order without changing the regions. FindFloorplan is a pure function of
// the requirement *multiset* plus the budget options (see the
// canonicalization contract in floorplanner.hpp), so its answers memoize
// perfectly. FloorplanCache layers two memos over one Fabric:
//
//   * PlacementCatalog — per (requirement, placement-cap) pruned candidate
//     rectangles, shared across every query that mentions the requirement;
//   * verdict memo — per canonicalized requirement list, the full
//     FloorplanResult (feasible / proven-infeasible / budget-exhausted,
//     plus the rectangles in canonical order).
//
// Reuse rules keep hits bit-identical to a fresh solve:
//   * proven verdicts replay when the query's node budget could not have
//     interrupted the recorded solve (max_nodes == 0 or > recorded nodes);
//   * budget-exhausted verdicts replay only for an equal-or-smaller node
//     budget — a larger budget might find an answer, so it re-solves and
//     overwrites the entry.
// On a hit `rects`, `feasible`, `budget_exhausted` and `nodes_explored`
// are the recorded solve's values; only `seconds` reflects the lookup.
//
// Thread safety: fully concurrent (ConcurrentMemoMap shards); intended to
// be shared by every PA-R worker.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "floorplan/floorplanner.hpp"
#include "util/memo_map.hpp"

namespace resched {

class FloorplanCache {
 public:
  explicit FloorplanCache(const FpgaDevice& device,
                          std::size_t verdict_capacity = 4096,
                          std::size_t catalog_capacity = 1024);

  /// Answers FindFloorplan(device, regions, options) through the memos.
  FloorplanResult Query(const std::vector<ResourceVec>& regions,
                        const FloorplanOptions& options);

  /// Pruned candidate rectangles (with their candidate columns) for one
  /// requirement, memoized. Exposed for tests and for callers that
  /// enumerate without solving.
  std::shared_ptr<const PlacementSet> Placements(const ResourceVec& req,
                                                std::size_t max_placements);

  FloorplanCacheStats Stats() const;

  const Fabric& fabric() const { return fabric_; }

 private:
  struct CatalogKey {
    ResourceVec req;
    std::size_t max_placements = 0;
  };
  struct CatalogKeyHash {
    std::uint64_t operator()(const CatalogKey& k) const;
  };
  struct CatalogKeyEq {
    bool operator()(const CatalogKey& a, const CatalogKey& b) const;
  };

  struct VerdictKey {
    std::vector<ResourceVec> canonical;  ///< sorted requirement list
    std::size_t max_placements = 0;
  };
  struct VerdictKeyHash {
    std::uint64_t operator()(const VerdictKey& k) const;
  };
  struct VerdictKeyEq {
    bool operator()(const VerdictKey& a, const VerdictKey& b) const;
  };

  struct Verdict {
    bool feasible = false;
    bool budget_exhausted = false;
    /// Rectangles in canonical order (empty unless feasible).
    std::vector<Rect> rects;
    std::size_t nodes = 0;
    /// Node budget the recorded solve ran under (0 = unlimited).
    std::size_t max_nodes = 0;
  };

  static bool Reusable(const Verdict& v, const FloorplanOptions& options);

  Fabric fabric_;
  ConcurrentMemoMap<CatalogKey, PlacementSet, CatalogKeyHash, CatalogKeyEq>
      catalog_;
  ConcurrentMemoMap<VerdictKey, Verdict, VerdictKeyHash, VerdictKeyEq>
      verdicts_;
  /// DFS nodes spent by cache-miss solves (FloorplanCacheStats::solve_nodes).
  std::atomic<std::uint64_t> solve_nodes_{0};
};

}  // namespace resched
