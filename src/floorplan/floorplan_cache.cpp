#include "floorplan/floorplan_cache.hpp"

#include <utility>

#include "util/timer.hpp"

namespace resched {

namespace {

/// FNV-1a-style running hash over 64-bit lanes; the memo map applies its
/// own splitmix finalizer, so plain mixing is enough here.
std::uint64_t HashLane(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001B3ULL;
  return h;
}

std::uint64_t HashResourceVec(std::uint64_t h, const ResourceVec& r) {
  h = HashLane(h, r.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    h = HashLane(h, static_cast<std::uint64_t>(r[i]));
  }
  return h;
}

}  // namespace

std::uint64_t FloorplanCache::CatalogKeyHash::operator()(
    const CatalogKey& k) const {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = HashResourceVec(h, k.req);
  h = HashLane(h, k.max_placements);
  return h;
}

bool FloorplanCache::CatalogKeyEq::operator()(const CatalogKey& a,
                                              const CatalogKey& b) const {
  return a.max_placements == b.max_placements && a.req == b.req;
}

std::uint64_t FloorplanCache::VerdictKeyHash::operator()(
    const VerdictKey& k) const {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = HashLane(h, k.canonical.size());
  for (const ResourceVec& r : k.canonical) h = HashResourceVec(h, r);
  h = HashLane(h, k.max_placements);
  return h;
}

bool FloorplanCache::VerdictKeyEq::operator()(const VerdictKey& a,
                                              const VerdictKey& b) const {
  return a.max_placements == b.max_placements && a.canonical == b.canonical;
}

FloorplanCache::FloorplanCache(const FpgaDevice& device,
                               std::size_t verdict_capacity,
                               std::size_t catalog_capacity)
    : fabric_(device),
      catalog_(catalog_capacity),
      verdicts_(verdict_capacity) {}

std::shared_ptr<const PlacementSet> FloorplanCache::Placements(
    const ResourceVec& req, std::size_t max_placements) {
  const CatalogKey key{req, max_placements};
  if (auto cached = catalog_.Find(key)) return cached;
  return catalog_.Insert(
      key, EnumeratePrunedPlacementSet(fabric_, req, max_placements));
}

bool FloorplanCache::Reusable(const Verdict& v,
                              const FloorplanOptions& options) {
  if (v.budget_exhausted) {
    // Only an equal-or-smaller node budget is guaranteed to exhaust too.
    return options.max_nodes != 0 && options.max_nodes <= v.max_nodes;
  }
  // Proven verdict: replay unless the query's node budget could have
  // interrupted the recorded solve before it finished.
  return options.max_nodes == 0 || options.max_nodes > v.nodes;
}

FloorplanResult FloorplanCache::Query(const std::vector<ResourceVec>& regions,
                                      const FloorplanOptions& options) {
  WallTimer timer;
  FloorplanResult result;
  if (regions.empty()) {
    result.feasible = true;
    result.seconds = timer.ElapsedSeconds();
    return result;
  }

  // Mirror FindFloorplan's cheap certain "no" before touching the memos.
  ResourceVec total = fabric_.Model().ZeroVec();
  for (const ResourceVec& r : regions) total += r;
  if (!total.FitsWithin(fabric_.Capacity())) {
    result.seconds = timer.ElapsedSeconds();
    return result;
  }

  const std::vector<std::size_t> order = CanonicalRegionOrder(regions);
  VerdictKey key;
  key.max_placements = options.max_placements_per_region;
  key.canonical.reserve(regions.size());
  for (const std::size_t i : order) key.canonical.push_back(regions[i]);

  if (auto cached = verdicts_.Find(key); cached && Reusable(*cached, options)) {
    result.feasible = cached->feasible;
    result.budget_exhausted = cached->budget_exhausted;
    result.nodes_explored = cached->nodes;
    if (cached->feasible) {
      result.rects.resize(regions.size());
      for (std::size_t k = 0; k < order.size(); ++k) {
        result.rects[order[k]] = cached->rects[k];
      }
    }
    result.seconds = timer.ElapsedSeconds();
    return result;
  }

  // Full solve over the memoized catalogs, in canonical order (the same
  // sequence FindFloorplan would build). The canonical list is sorted, so
  // equal requirements sit adjacent: one catalog probe (one shard lock +
  // hash) answers the whole run of duplicates — the batched-probe pass.
  std::vector<std::shared_ptr<const PlacementSet>> owned;
  owned.reserve(regions.size());
  std::vector<const PlacementSet*> candidates;
  candidates.reserve(regions.size());
  bool some_region_unplaceable = false;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const ResourceVec& req = key.canonical[k];
    if (k > 0 && req == key.canonical[k - 1]) {
      owned.push_back(owned.back());  // duplicate: reuse the last probe
    } else {
      owned.push_back(Placements(req, options.max_placements_per_region));
    }
    if (owned.back()->rects.empty()) {
      some_region_unplaceable = true;
      break;
    }
    candidates.push_back(owned.back().get());
  }

  Verdict verdict;
  verdict.max_nodes = options.max_nodes;
  if (!some_region_unplaceable) {
    FloorplanResult solved =
        SolveFloorplanFeasibility(fabric_, candidates, options);
    solve_nodes_.fetch_add(solved.nodes_explored, std::memory_order_relaxed);
    verdict.feasible = solved.feasible;
    verdict.budget_exhausted = solved.budget_exhausted;
    verdict.nodes = solved.nodes_explored;
    if (solved.feasible) verdict.rects = std::move(solved.rects);
  }
  // else: proven infeasible with zero search (defaults already say so).

  result.feasible = verdict.feasible;
  result.budget_exhausted = verdict.budget_exhausted;
  result.nodes_explored = verdict.nodes;
  if (verdict.feasible) {
    result.rects.resize(regions.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      result.rects[order[k]] = verdict.rects[k];
    }
  }
  verdicts_.Insert(key, std::move(verdict));
  result.seconds = timer.ElapsedSeconds();
  return result;
}

FloorplanCacheStats FloorplanCache::Stats() const {
  FloorplanCacheStats s;
  const auto v = verdicts_.Snapshot();
  const auto c = catalog_.Snapshot();
  s.queries = v.hits + v.misses;
  s.hits = v.hits;
  s.misses = v.misses;
  s.evictions = v.evictions + c.evictions;
  s.catalog_hits = c.hits;
  s.catalog_misses = c.misses;
  s.solve_nodes = solve_nodes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace resched
