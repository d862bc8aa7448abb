#include "floorplan/floorplanner.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/check.hpp"
#include "util/simd.hpp"
#include "util/timeline.hpp"
#include "util/timer.hpp"

namespace resched {

namespace {

/// Removes placements that strictly contain another placement of the same
/// region: the contained one can always replace the container in any
/// solution, so containers are dominated for a feasibility query. Kept
/// placements stay in list order.
///
/// Rather than testing all pairs, the list is indexed by (height, col0,
/// row0) -> narrowest width listed there, and each candidate probes only
/// the origins and heights that fit inside it. For a fixed (height, col0,
/// row0) every containment condition is monotone in the width, so the
/// narrowest entry dominates iff any entry there does.
void PruneDominated(std::vector<Rect>& placements) {
  constexpr std::size_t kNone = SIZE_MAX;
  std::size_t max_height = 0;
  std::size_t cols = 0;
  std::size_t rows = 0;
  for (const Rect& r : placements) {
    RESCHED_DCHECK_MSG(r.width > 0 && r.height > 0, "empty placement");
    max_height = std::max(max_height, r.height);
    cols = std::max(cols, r.col0 + r.width);
    rows = std::max(rows, r.row0 + r.height);
  }
  const auto slot = [&](std::size_t height, std::size_t col0,
                        std::size_t row0) {
    return ((height - 1) * cols + col0) * rows + row0;
  };
  std::vector<std::size_t> narrowest(max_height * cols * rows, kNone);
  for (const Rect& r : placements) {
    std::size_t& w = narrowest[slot(r.height, r.col0, r.row0)];
    w = std::min(w, r.width);
  }
  std::vector<Rect> kept;
  kept.reserve(placements.size());
  for (const Rect& cand : placements) {
    const std::size_t col_end = cand.col0 + cand.width;
    const std::size_t row_end = cand.row0 + cand.height;
    bool dominated = false;
    for (std::size_t h = 1; h <= cand.height && !dominated; ++h) {
      for (std::size_t row0 = cand.row0; row0 + h <= row_end && !dominated;
           ++row0) {
        for (std::size_t col0 = cand.col0; col0 < col_end; ++col0) {
          const std::size_t w = narrowest[slot(h, col0, row0)];
          if (w != kNone && col0 + w <= col_end && h * w < cand.Area()) {
            dominated = true;
            break;
          }
        }
      }
    }
    if (!dominated) kept.push_back(cand);
  }
  placements.swap(kept);
}

/// Budget checks run when the node count reaches a multiple of this.
constexpr std::size_t kBudgetCheckNodes = 1024;

class Search {
 public:
  Search(const Fabric& fabric,
         const std::vector<const PlacementSet*>& candidates,
         const FloorplanOptions& options)
      : candidates_(candidates),
        options_(options),
        capacity_(fabric.Capacity()),
        kernels_(simd::Active()) {
    total_cells_ = fabric.Columns() * fabric.Rows();
    mask_words_ = timeline::WordsFor(total_cells_);
    kinds_ = capacity_.size();
    for (const PlacementSet* set : candidates_) {
      RESCHED_CHECK_MSG(
          set != nullptr && !set->rects.empty() &&
              set->mask_words == mask_words_ &&
              set->stride >= set->rects.size() &&
              set->stride % simd::kColumnPad == 0 &&
              set->key_columns.size() == (1 + kinds_) * set->stride &&
              set->mask_columns.size() == mask_words_ * set->stride &&
              set->union_mask.size() == mask_words_,
          "floorplan candidates must come from BuildPlacementSet on the "
          "queried fabric");
    }
  }

  /// Runs the DFS; fills `solution` (indexed like candidates_) on success.
  bool Run(std::vector<Rect>& solution, bool& budget_exhausted,
           std::size_t& nodes) {
    order_.resize(candidates_.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    // MRV: most constrained region (fewest placements) first. Stable, so
    // the search tree is a pure function of the candidate-list sequence
    // (the canonicalization contract of the header).
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return candidates_[a]->rects.size() <
                              candidates_[b]->rects.size();
                     });

    // Suffix sums of minimum areas in search order: after placing depth d
    // regions, the rest need at least suffix_min_area_[d] free cells.
    suffix_min_area_.assign(order_.size() + 1, 0);
    for (std::size_t d = order_.size(); d-- > 0;) {
      suffix_min_area_[d] =
          suffix_min_area_[d + 1] + candidates_[order_[d]]->min_area;
    }
    if (suffix_min_area_[0] > total_cells_) {
      budget_exhausted = false;  // proven infeasible, not a budget stop
      nodes = 0;
      return false;
    }

    // Per-kind analogue over the candidates' minimum resource footprints.
    // Each rectangle consumes at least min_res of its region (a footprint
    // always covers the requirement), and rectangles never overlap, so
    // consumption is additive per kind — a suffix that exceeds capacity
    // in any kind is a certain "no". Strictly stronger than the aggregate
    // requirement pre-check because min footprints exceed requirements.
    suffix_min_res_.assign((order_.size() + 1) * kinds_, 0);
    for (std::size_t d = order_.size(); d-- > 0;) {
      const ResourceVec& mr = candidates_[order_[d]]->min_res;
      for (std::size_t k = 0; k < kinds_; ++k) {
        suffix_min_res_[d * kinds_ + k] =
            suffix_min_res_[(d + 1) * kinds_ + k] + mr[k];
      }
    }
    for (std::size_t k = 0; k < kinds_; ++k) {
      if (suffix_min_res_[k] > capacity_[k]) {
        budget_exhausted = false;  // proven infeasible at the root
        nodes = 0;
        return false;
      }
    }
    consumed_stack_.assign((order_.size() + 1) * kinds_, 0);

    chosen_.assign(candidates_.size(), Rect{});
    // Occupancy image per depth: row d holds the union of the masks of
    // the first d placed rectangles, so backtracking needs no undo.
    used_stack_.assign((candidates_.size() + 1) * mask_words_, 0);
    // Filter output per depth: bit j of depth d's words says whether
    // candidate j of that level survived the area, capacity and clash
    // prunes. Kept per depth because the level walks it across recursion.
    pass_offset_.assign(order_.size() + 1, 0);
    for (std::size_t d = 0; d < order_.size(); ++d) {
      pass_offset_[d + 1] =
          pass_offset_[d] +
          timeline::WordsFor(candidates_[order_[d]]->rects.size());
    }
    pass_stack_.assign(pass_offset_.back(), 0);
    limits_.assign(1 + kinds_, 0);

    const bool ok = Dfs(0, /*used_cells=*/0);
    budget_exhausted = budget_exhausted_;
    nodes = nodes_;
    if (ok) solution = chosen_;
    return ok;
  }

 private:
  /// Counts `count` more visited candidates as DFS nodes. Every visited
  /// candidate is one node whether or not a prune rejects it, and the
  /// budget is checked each time the count reaches a multiple of
  /// kBudgetCheckNodes, stopping exactly there — so nodes_explored and
  /// the stop point match a loop that counts candidates one at a time.
  bool CountNodes(std::size_t count) {
    const std::size_t target = nodes_ + count;
    for (std::size_t at = (nodes_ / kBudgetCheckNodes + 1) * kBudgetCheckNodes;
         at <= target; at += kBudgetCheckNodes) {
      if (options_.max_nodes != 0 && at >= options_.max_nodes) {
        nodes_ = at;
        budget_exhausted_ = true;
        return false;
      }
    }
    nodes_ = target;
    return true;
  }

  /// First candidate >= `from` that passed the filter, or `n` when none is
  /// left.
  static std::size_t NextPassing(const std::uint64_t* pass, std::size_t from,
                                 std::size_t n) {
    if (from >= n) return n;
    std::size_t w = from / 64;
    std::uint64_t bits = pass[w] & (~std::uint64_t{0} << (from % 64));
    const std::size_t words = timeline::WordsFor(n);
    while (bits == 0) {
      if (++w == words) return n;
      bits = pass[w];
    }
    return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  }

  bool Dfs(std::size_t depth, std::size_t used_cells) {
    if (depth == order_.size()) return true;
    if (budget_exhausted_) return false;
    const std::size_t region = order_[depth];
    const PlacementSet& set = *candidates_[region];
    const std::size_t n = set.rects.size();
    const std::uint64_t* used = used_stack_.data() + depth * mask_words_;
    std::uint64_t* next = used_stack_.data() + (depth + 1) * mask_words_;
    const std::int64_t* consumed = consumed_stack_.data() + depth * kinds_;
    const std::int64_t* suffix = suffix_min_res_.data() + (depth + 1) * kinds_;

    // One filter pass over the whole candidate column. Area-capacity
    // prune: the cells a rectangle takes plus the minimum footprint of
    // every remaining region must fit in the fabric. Per-kind capacity
    // prune: consumption is additive per kind (no overlap), and every
    // remaining region needs at least its min_res. Clash test: the
    // rectangle shares no cell with the placed ones.
    limits_[0] = static_cast<std::int64_t>(total_cells_) -
                 static_cast<std::int64_t>(used_cells) -
                 static_cast<std::int64_t>(suffix_min_area_[depth + 1]);
    for (std::size_t kk = 0; kk < kinds_; ++kk) {
      limits_[1 + kk] = capacity_[kk] - consumed[kk] - suffix[kk];
    }
    std::uint64_t* pass = pass_stack_.data() + pass_offset_[depth];
    kernels_.filter_columns(set.key_columns.data(), limits_.data(),
                            1 + kinds_, set.mask_columns.data(), used,
                            mask_words_, set.stride, n, pass);

    // Walk the survivors in enumeration order. The candidates skipped on
    // the way were visited and pruned: they still count as nodes.
    std::size_t counted = 0;
    for (std::size_t k = NextPassing(pass, 0, n); k < n;
         k = NextPassing(pass, k + 1, n)) {
      if (!CountNodes(k + 1 - counted)) return false;
      counted = k + 1;
      for (std::size_t w = 0; w < mask_words_; ++w) {
        next[w] = used[w] | set.MaskWord(w, k);
      }
      // Union-mask prune: a remaining region whose candidate-cell union
      // retains fewer free cells than its minimum footprint has no live
      // candidate left — this subtree is barren, skip it. (Sound and
      // order-preserving: only subtrees with no full assignment are cut.)
      bool barren = false;
      for (std::size_t d2 = depth + 1; d2 < order_.size() && !barren; ++d2) {
        const PlacementSet& rest = *candidates_[order_[d2]];
        std::size_t free_cells = 0;
        for (std::size_t w = 0; w < mask_words_; ++w) {
          free_cells += static_cast<std::size_t>(
              std::popcount(rest.union_mask[w] & ~next[w]));
        }
        barren = free_cells < rest.min_area;
      }
      if (barren) continue;
      chosen_[region] = set.rects[k];
      std::int64_t* next_consumed =
          consumed_stack_.data() + (depth + 1) * kinds_;
      for (std::size_t kk = 0; kk < kinds_; ++kk) {
        next_consumed[kk] = consumed[kk] + set.Footprint(kk, k);
      }
      if (Dfs(depth + 1, used_cells + static_cast<std::size_t>(set.Area(k)))) {
        return true;
      }
      if (budget_exhausted_) return false;
    }
    CountNodes(n - counted);
    return false;
  }

  const std::vector<const PlacementSet*>& candidates_;
  const FloorplanOptions& options_;
  ResourceVec capacity_;
  const simd::KernelTable& kernels_;
  std::vector<std::size_t> order_;
  std::vector<Rect> chosen_;
  std::vector<std::size_t> suffix_min_area_;
  std::vector<std::int64_t> suffix_min_res_;
  std::vector<std::int64_t> consumed_stack_;
  std::vector<std::uint64_t> used_stack_;
  std::vector<std::size_t> pass_offset_;
  std::vector<std::uint64_t> pass_stack_;
  std::vector<std::int64_t> limits_;
  std::size_t total_cells_ = 0;
  std::size_t mask_words_ = 0;
  std::size_t kinds_ = 0;
  std::size_t nodes_ = 0;
  bool budget_exhausted_ = false;
};

}  // namespace

std::vector<std::size_t> CanonicalRegionOrder(
    const std::vector<ResourceVec>& regions) {
  std::vector<std::size_t> order(regions.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return LexicographicallyBefore(regions[a], regions[b]);
                   });
  return order;
}

std::vector<Rect> EnumeratePrunedPlacements(const Fabric& fabric,
                                            const ResourceVec& req,
                                            std::size_t max_placements) {
  std::vector<Rect> placements =
      EnumerateFeasiblePlacements(fabric, req, max_placements);
  PruneDominated(placements);
  return placements;
}

PlacementSet BuildPlacementSet(const Fabric& fabric, std::vector<Rect> rects) {
  PlacementSet set;
  const std::size_t cols = fabric.Columns();
  const std::size_t kinds = fabric.Capacity().size();
  const std::size_t n = rects.size();
  set.mask_words = timeline::WordsFor(cols * fabric.Rows());
  set.stride = (n + simd::kColumnPad - 1) / simd::kColumnPad * simd::kColumnPad;
  set.rects = std::move(rects);
  set.key_columns.assign((1 + kinds) * set.stride, 0);
  set.mask_columns.assign(set.mask_words * set.stride, 0);
  set.union_mask.assign(set.mask_words, 0);
  set.min_area = cols * fabric.Rows();
  set.min_res = fabric.Capacity();
  std::vector<std::uint64_t> mask(set.mask_words);
  for (std::size_t j = 0; j < n; ++j) {
    const Rect& r = set.rects[j];
    std::fill(mask.begin(), mask.end(), 0);
    for (std::size_t row = r.row0; row < r.row0 + r.height; ++row) {
      const std::size_t base = row * cols + r.col0;
      timeline::RangeSet(mask.data(), base, base + r.width);
    }
    timeline::OrInto(set.union_mask.data(), mask.data(), set.mask_words);
    for (std::size_t w = 0; w < set.mask_words; ++w) {
      set.mask_columns[w * set.stride + j] = mask[w];
    }
    set.key_columns[j] = static_cast<std::int64_t>(r.Area());
    const ResourceVec res = fabric.RectResources(r.col0, r.width, r.height);
    for (std::size_t kind = 0; kind < kinds; ++kind) {
      set.key_columns[(1 + kind) * set.stride + j] = res[kind];
      set.min_res[kind] = std::min(set.min_res[kind], res[kind]);
    }
    set.min_area = std::min(set.min_area, r.Area());
  }
  if (set.rects.empty()) {
    set.min_res = fabric.Model().ZeroVec();
    set.min_area = 0;
  }
  return set;
}

PlacementSet EnumeratePrunedPlacementSet(const Fabric& fabric,
                                         const ResourceVec& req,
                                         std::size_t max_placements) {
  return BuildPlacementSet(
      fabric, EnumeratePrunedPlacements(fabric, req, max_placements));
}

FloorplanResult SolveFloorplanFeasibility(
    const Fabric& fabric, const std::vector<const PlacementSet*>& candidates,
    const FloorplanOptions& options) {
  FloorplanResult result;
  Search search(fabric, candidates, options);
  std::vector<Rect> solution;
  const bool ok =
      search.Run(solution, result.budget_exhausted, result.nodes_explored);
  result.feasible = ok;
  if (ok) result.rects = std::move(solution);
  return result;
}

FloorplanResult FindFloorplan(const FpgaDevice& device,
                              const std::vector<ResourceVec>& regions,
                              const FloorplanOptions& options) {
  WallTimer timer;
  FloorplanResult result;
  if (regions.empty()) {
    result.feasible = true;
    result.seconds = timer.ElapsedSeconds();
    return result;
  }

  const Fabric fabric(device);

  // Aggregate-capacity pre-check: cheap certain "no".
  ResourceVec total = device.Model().ZeroVec();
  for (const ResourceVec& r : regions) total += r;
  if (!total.FitsWithin(fabric.Capacity())) {
    result.seconds = timer.ElapsedSeconds();
    return result;
  }

  // Canonical order: the search result becomes a pure function of the
  // requirement multiset, so cached answers can be replayed bit-for-bit
  // against any permutation of the same regions.
  const std::vector<std::size_t> order = CanonicalRegionOrder(regions);

  std::vector<PlacementSet> owned;
  owned.reserve(regions.size());
  for (const std::size_t i : order) {
    PlacementSet placements = EnumeratePrunedPlacementSet(
        fabric, regions[i], options.max_placements_per_region);
    if (placements.rects.empty()) {
      result.seconds = timer.ElapsedSeconds();
      return result;  // some region fits nowhere: certain "no"
    }
    owned.push_back(std::move(placements));
  }
  std::vector<const PlacementSet*> candidates;
  candidates.reserve(owned.size());
  for (const PlacementSet& c : owned) candidates.push_back(&c);

  FloorplanResult canonical =
      SolveFloorplanFeasibility(fabric, candidates, options);
  result.feasible = canonical.feasible;
  result.budget_exhausted = canonical.budget_exhausted;
  result.nodes_explored = canonical.nodes_explored;
  if (canonical.feasible) {
    result.rects.resize(regions.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      result.rects[order[k]] = canonical.rects[k];
    }
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

bool IsValidFloorplan(const FpgaDevice& device,
                      const std::vector<ResourceVec>& regions,
                      const std::vector<Rect>& rects) {
  if (regions.size() != rects.size()) return false;
  const Fabric fabric(device);
  for (std::size_t i = 0; i < rects.size(); ++i) {
    const Rect& r = rects[i];
    if (r.width == 0 || r.height == 0) return false;
    if (r.col0 + r.width > fabric.Columns()) return false;
    if (r.row0 + r.height > fabric.Rows()) return false;
    if (!regions[i].FitsWithin(
            fabric.RectResources(r.col0, r.width, r.height))) {
      return false;
    }
    for (std::size_t j = i + 1; j < rects.size(); ++j) {
      if (r.Overlaps(rects[j])) return false;
    }
  }
  return true;
}

}  // namespace resched
