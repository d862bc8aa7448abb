// Differential tests of the batched floorplan layer against test-only
// copies of the per-candidate code it replaced:
//
//   * OracleSearch is the DFS that visited one candidate at a time: count
//     the node (budget check at every multiple of 1024), then the area,
//     per-kind capacity and clash prunes, then the union-mask barren
//     prune. It builds its own rectangle masks and footprints from the
//     fabric, so it shares no data with the PlacementSet columns.
//     SolveFloorplanFeasibility must agree with it on feasible,
//     budget_exhausted, nodes_explored and rects for seeded region sets on
//     four preset fabrics and for the corpus queries that proved
//     infeasibility by search, across node budgets around the check
//     interval and every reachable SIMD backend.
//   * OraclePrune is the all-pairs dominance prune. EnumeratePrunedPlacements
//     must return exactly its output on six preset fabrics at placement
//     caps on both sides of the per-height run lengths.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "arch/zynq.hpp"
#include "floorplan/floorplanner.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/timeline.hpp"

namespace resched {
namespace {

using testing::ReachableBackends;
using testing::ScopedBackend;

// ------------------------------------------------------ oracle: the DFS

/// One region's candidates with per-rect masks and footprints, built
/// straight from the fabric.
struct OracleRegion {
  std::vector<Rect> rects;
  std::vector<std::uint64_t> masks;  ///< rect k at [k * words, + words)
  std::vector<ResourceVec> res;
  ResourceVec min_res;
  std::vector<std::uint64_t> union_mask;
  std::size_t min_area = 0;
};

OracleRegion MakeOracleRegion(const Fabric& fabric,
                              const std::vector<Rect>& rects) {
  const std::size_t cols = fabric.Columns();
  const std::size_t words = timeline::WordsFor(cols * fabric.Rows());
  OracleRegion region;
  region.rects = rects;
  region.masks.assign(rects.size() * words, 0);
  region.union_mask.assign(words, 0);
  region.min_res = fabric.Capacity();
  region.min_area = cols * fabric.Rows();
  for (std::size_t k = 0; k < rects.size(); ++k) {
    const Rect& r = rects[k];
    for (std::size_t row = r.row0; row < r.row0 + r.height; ++row) {
      for (std::size_t col = r.col0; col < r.col0 + r.width; ++col) {
        const std::size_t bit = row * cols + col;
        region.masks[k * words + bit / 64] |= std::uint64_t{1} << (bit % 64);
        region.union_mask[bit / 64] |= std::uint64_t{1} << (bit % 64);
      }
    }
    region.res.push_back(fabric.RectResources(r.col0, r.width, r.height));
    for (std::size_t kind = 0; kind < region.min_res.size(); ++kind) {
      region.min_res[kind] =
          std::min(region.min_res[kind], region.res[k][kind]);
    }
    region.min_area = std::min(region.min_area, r.Area());
  }
  return region;
}

class OracleSearch {
 public:
  OracleSearch(const Fabric& fabric, const std::vector<OracleRegion>& regions,
               std::size_t max_nodes)
      : regions_(regions),
        max_nodes_(max_nodes),
        capacity_(fabric.Capacity()),
        total_cells_(fabric.Columns() * fabric.Rows()),
        words_(timeline::WordsFor(total_cells_)),
        kinds_(capacity_.size()) {}

  FloorplanResult Run() {
    FloorplanResult result;
    order_.resize(regions_.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return regions_[a].rects.size() <
                              regions_[b].rects.size();
                     });
    chosen_.assign(regions_.size(), Rect{});
    used_stack_.assign((regions_.size() + 1) * words_, 0);
    suffix_min_area_.assign(order_.size() + 1, 0);
    for (std::size_t d = order_.size(); d-- > 0;) {
      suffix_min_area_[d] =
          suffix_min_area_[d + 1] + regions_[order_[d]].min_area;
    }
    if (suffix_min_area_[0] > total_cells_) return result;
    suffix_min_res_.assign((order_.size() + 1) * kinds_, 0);
    for (std::size_t d = order_.size(); d-- > 0;) {
      for (std::size_t k = 0; k < kinds_; ++k) {
        suffix_min_res_[d * kinds_ + k] =
            suffix_min_res_[(d + 1) * kinds_ + k] +
            regions_[order_[d]].min_res[k];
      }
    }
    for (std::size_t k = 0; k < kinds_; ++k) {
      if (suffix_min_res_[k] > capacity_[k]) return result;
    }
    consumed_stack_.assign((order_.size() + 1) * kinds_, 0);
    result.feasible = Dfs(0, 0);
    result.budget_exhausted = budget_exhausted_;
    result.nodes_explored = nodes_;
    if (result.feasible) result.rects = chosen_;
    return result;
  }

 private:
  bool Dfs(std::size_t depth, std::size_t used_cells) {
    if (depth == order_.size()) return true;
    if (budget_exhausted_) return false;
    const std::size_t region = order_[depth];
    const OracleRegion& set = regions_[region];
    const std::uint64_t* used = used_stack_.data() + depth * words_;
    std::uint64_t* next = used_stack_.data() + (depth + 1) * words_;
    const std::int64_t* consumed = consumed_stack_.data() + depth * kinds_;
    for (std::size_t k = 0; k < set.rects.size(); ++k) {
      const Rect& rect = set.rects[k];
      if (++nodes_ % 1024 == 0 && max_nodes_ != 0 && nodes_ >= max_nodes_) {
        budget_exhausted_ = true;
        return false;
      }
      if (used_cells + rect.Area() + suffix_min_area_[depth + 1] >
          total_cells_) {
        continue;
      }
      const std::int64_t* suffix =
          suffix_min_res_.data() + (depth + 1) * kinds_;
      bool over = false;
      for (std::size_t kk = 0; kk < kinds_; ++kk) {
        over = over ||
               consumed[kk] + set.res[k][kk] + suffix[kk] > capacity_[kk];
      }
      if (over) continue;
      const std::uint64_t* mask = set.masks.data() + k * words_;
      bool clash = false;
      for (std::size_t w = 0; w < words_; ++w) {
        clash = clash || (mask[w] & used[w]) != 0;
      }
      if (clash) continue;
      for (std::size_t w = 0; w < words_; ++w) next[w] = used[w] | mask[w];
      bool barren = false;
      for (std::size_t d2 = depth + 1; d2 < order_.size() && !barren; ++d2) {
        const OracleRegion& rest = regions_[order_[d2]];
        std::size_t free_cells = 0;
        for (std::size_t w = 0; w < words_; ++w) {
          free_cells += static_cast<std::size_t>(
              std::popcount(rest.union_mask[w] & ~next[w]));
        }
        barren = free_cells < rest.min_area;
      }
      if (barren) continue;
      chosen_[region] = rect;
      std::int64_t* next_consumed =
          consumed_stack_.data() + (depth + 1) * kinds_;
      for (std::size_t kk = 0; kk < kinds_; ++kk) {
        next_consumed[kk] = consumed[kk] + set.res[k][kk];
      }
      if (Dfs(depth + 1, used_cells + rect.Area())) return true;
      if (budget_exhausted_) return false;
    }
    return false;
  }

  const std::vector<OracleRegion>& regions_;
  std::size_t max_nodes_;
  ResourceVec capacity_;
  std::size_t total_cells_;
  std::size_t words_;
  std::size_t kinds_;
  std::vector<std::size_t> order_;
  std::vector<Rect> chosen_;
  std::vector<std::size_t> suffix_min_area_;
  std::vector<std::int64_t> suffix_min_res_;
  std::vector<std::int64_t> consumed_stack_;
  std::vector<std::uint64_t> used_stack_;
  std::size_t nodes_ = 0;
  bool budget_exhausted_ = false;
};

/// A seeded requirement: CLB `clb_lo`-`clb_hi`% of the fabric, BRAM and
/// DSP each absent half the time and otherwise up to `other_hi`% of their
/// capacity (at least one unit).
ResourceVec RandomRequirement(Rng& rng, const ResourceVec& cap,
                              std::int64_t clb_lo, std::int64_t clb_hi,
                              std::int64_t other_hi) {
  ResourceVec req(cap.size());
  req[0] = cap[0] * rng.UniformInt(clb_lo, clb_hi) / 100;
  for (std::size_t kind = 1; kind < cap.size(); ++kind) {
    if (rng.UniformInt(0, 1) == 1) {
      req[kind] = std::max<std::int64_t>(
          1, cap[kind] * rng.UniformInt(0, other_hi) / 100);
    }
  }
  return req;
}

bool SameRects(const std::vector<Rect>& a, const std::vector<Rect>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].col0 != b[i].col0 || a[i].row0 != b[i].row0 ||
        a[i].width != b[i].width || a[i].height != b[i].height) {
      return false;
    }
  }
  return true;
}

struct Preset {
  const char* name;
  FpgaDevice device;
};

std::vector<Preset> SearchPresets() {
  return {{"xc7z020", MakeXc7z020()},
          {"xc7z010", MakeXc7z010()},
          {"xc7k160t", MakeKintex7_160()},
          {"zu9eg", MakeZu9eg()}};
}

/// Verdicts of the default-budget oracle runs, by kind.
struct VerdictMix {
  std::size_t feasible = 0;
  std::size_t exhausted = 0;
  std::size_t searched_infeasible = 0;
};

/// Solves `reqs` on `fabric` with the library under every budget and
/// every reachable backend; each result must equal the oracle's on all
/// four outputs.
void ExpectMatchesOracle(const Fabric& fabric,
                         const std::vector<ResourceVec>& reqs,
                         const std::string& label, VerdictMix& mix) {
  const std::size_t kBudgets[] = {2'000'000, 0, 1, 1023, 1024, 1025, 4097};
  std::vector<PlacementSet> sets;
  std::vector<OracleRegion> oracle_regions;
  for (const ResourceVec& req : reqs) {
    std::vector<Rect> rects = EnumeratePrunedPlacements(fabric, req, 4096);
    if (rects.empty()) continue;
    oracle_regions.push_back(MakeOracleRegion(fabric, rects));
    sets.push_back(BuildPlacementSet(fabric, std::move(rects)));
  }
  std::vector<const PlacementSet*> candidates;
  for (const PlacementSet& set : sets) candidates.push_back(&set);
  bool exhausts_default = false;
  for (const std::size_t budget : kBudgets) {
    // An unlimited search only where the default budget finished.
    if (budget == 0 && exhausts_default) continue;
    SCOPED_TRACE(label + " budget " + std::to_string(budget));
    const FloorplanResult want =
        OracleSearch(fabric, oracle_regions, budget).Run();
    if (budget == 2'000'000) {
      exhausts_default = want.budget_exhausted;
      mix.feasible += want.feasible ? 1 : 0;
      mix.exhausted += want.budget_exhausted ? 1 : 0;
      mix.searched_infeasible += !want.feasible && !want.budget_exhausted &&
                                 want.nodes_explored > 0;
    }
    FloorplanOptions options;
    options.max_nodes = budget;
    for (const simd::Backend backend : ReachableBackends()) {
      SCOPED_TRACE(simd::BackendName(backend));
      ScopedBackend guard(backend);
      const FloorplanResult got =
          SolveFloorplanFeasibility(fabric, candidates, options);
      ASSERT_EQ(got.feasible, want.feasible);
      ASSERT_EQ(got.budget_exhausted, want.budget_exhausted);
      ASSERT_EQ(got.nodes_explored, want.nodes_explored);
      ASSERT_TRUE(SameRects(got.rects, want.rects));
    }
  }
}

TEST(FloorplanOracleTest, BatchedDfsMatchesPerCandidateDfs) {
  VerdictMix mix;
  for (const Preset& preset : SearchPresets()) {
    const Fabric fabric(preset.device);
    Rng rng(0xD15C0 + fabric.Columns());
    for (int set_index = 0; set_index < 10; ++set_index) {
      // Grow the region count with the index so the sets run from easy
      // feasible ones to crowded ones that exhaust the budget or fail at
      // the root.
      const auto num_regions =
          static_cast<std::size_t>(6 + 3 * set_index + rng.UniformInt(0, 3));
      std::vector<ResourceVec> reqs;
      for (std::size_t i = 0; i < num_regions; ++i) {
        reqs.push_back(RandomRequirement(rng, fabric.Capacity(), 1, 4, 5));
      }
      ExpectMatchesOracle(fabric, reqs,
                          std::string(preset.name) + " set " +
                              std::to_string(set_index),
                          mix);
      if (HasFatalFailure()) return;
    }
  }
  // Dense sets: regions are added while their minimum areas still fit, up
  // to ~95% of the fabric, so the area-capacity prune cuts below the
  // root instead of only at it.
  for (const Preset& preset : SearchPresets()) {
    const Fabric fabric(preset.device);
    const std::size_t cells = fabric.Columns() * fabric.Rows();
    Rng rng(0xDE45E + fabric.Columns());
    for (int set_index = 0; set_index < 4; ++set_index) {
      std::vector<ResourceVec> reqs;
      std::size_t min_areas = 0;
      while (min_areas * 20 < cells * 19) {
        const ResourceVec req =
            RandomRequirement(rng, fabric.Capacity(), 0, 2, 10);
        const std::vector<Rect> rects =
            EnumeratePrunedPlacements(fabric, req, 4096);
        if (rects.empty()) continue;
        std::size_t min_area = cells;
        for (const Rect& r : rects) min_area = std::min(min_area, r.Area());
        if (min_areas + min_area > cells) break;
        min_areas += min_area;
        reqs.push_back(req);
      }
      ExpectMatchesOracle(fabric, reqs,
                          std::string(preset.name) + " dense set " +
                              std::to_string(set_index),
                          mix);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(mix.feasible, 0u);
  EXPECT_GT(mix.exhausted, 0u);
}

// Seeded sets almost never prove infeasibility below the root (5 of the
// engine suite's 33,141 distinct queries did), so those paths are driven
// by the corpus queries that did, on their XC7Z020 fabric.
TEST(FloorplanOracleTest, SearchedInfeasibleCorpusQueriesMatch) {
  const Fabric fabric(MakeXc7z020());
  std::ifstream in(std::string(RESCHED_TEST_DATA_DIR) +
                   "/floorplan_corpus.txt");
  ASSERT_TRUE(in) << "missing data/floorplan_corpus.txt";
  VerdictMix mix;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string outcome;
    std::size_t nodes = 0;
    std::string bar;
    if (!(fields >> outcome >> nodes >> bar) || outcome != "infeasible" ||
        nodes == 0) {
      continue;
    }
    std::vector<ResourceVec> reqs;
    std::int64_t clb = 0;
    std::int64_t bram = 0;
    std::int64_t dsp = 0;
    char comma = 0;
    while (fields >> clb >> comma >> bram >> comma >> dsp) {
      reqs.push_back(ResourceVec({clb, bram, dsp}));
    }
    ExpectMatchesOracle(fabric, reqs, line.substr(0, 40), mix);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(mix.searched_infeasible, 0u);
}

TEST(FloorplanOracleTest, ColumnsDescribeTheirRectangles) {
  const FpgaDevice device = MakeXc7z020();
  const Fabric fabric(device);
  const std::vector<Rect> rects =
      EnumeratePrunedPlacements(fabric, ResourceVec({900, 6, 10}), 4096);
  ASSERT_FALSE(rects.empty());
  const PlacementSet set = BuildPlacementSet(fabric, rects);
  const OracleRegion oracle = MakeOracleRegion(fabric, rects);
  EXPECT_EQ(set.stride % simd::kColumnPad, 0u);
  EXPECT_GE(set.stride, rects.size());
  EXPECT_LT(set.stride, rects.size() + simd::kColumnPad);
  for (std::size_t j = 0; j < rects.size(); ++j) {
    EXPECT_EQ(set.Area(j), static_cast<std::int64_t>(rects[j].Area()));
    for (std::size_t kind = 0; kind < 3; ++kind) {
      EXPECT_EQ(set.Footprint(kind, j), oracle.res[j][kind]);
    }
    for (std::size_t w = 0; w < set.mask_words; ++w) {
      EXPECT_EQ(set.MaskWord(w, j), oracle.masks[j * set.mask_words + w]);
    }
  }
  EXPECT_EQ(set.union_mask, oracle.union_mask);
  EXPECT_EQ(set.min_res, oracle.min_res);
  EXPECT_EQ(set.min_area, oracle.min_area);
}

TEST(FloorplanOracleTest, HandBuiltCandidateSetIsRejected) {
  const FpgaDevice device = MakeXc7z020();
  const Fabric fabric(device);
  PlacementSet set = BuildPlacementSet(
      fabric, EnumeratePrunedPlacements(fabric, ResourceVec({900, 0, 0}), 64));
  set.mask_columns.pop_back();
  const std::vector<const PlacementSet*> candidates{&set};
  EXPECT_THROW((void)SolveFloorplanFeasibility(fabric, candidates, {}),
               InternalError);
}

// --------------------------------------------------- oracle: the prune

std::vector<Rect> OraclePrune(const std::vector<Rect>& placements) {
  auto contains = [](const Rect& outer, const Rect& inner) {
    return outer.col0 <= inner.col0 && outer.row0 <= inner.row0 &&
           outer.col0 + outer.width >= inner.col0 + inner.width &&
           outer.row0 + outer.height >= inner.row0 + inner.height &&
           outer.Area() > inner.Area();
  };
  std::vector<Rect> kept;
  for (const Rect& cand : placements) {
    bool dominated = false;
    for (const Rect& other : placements) {
      dominated = dominated || contains(cand, other);
    }
    if (!dominated) kept.push_back(cand);
  }
  return kept;
}

TEST(FloorplanOracleTest, IndexedPruneMatchesAllPairsPrune) {
  const std::vector<Preset> presets = {
      {"xc7z020", MakeXc7z020()},        {"xc7z010", MakeXc7z010()},
      {"xc7k160t", MakeKintex7_160()},   {"zu9eg", MakeZu9eg()},
      {"scaled0.5", MakeScaledZynq(0.5)}, {"scaled2", MakeScaledZynq(2.0)}};
  for (const Preset& preset : presets) {
    const Fabric fabric(preset.device);
    Rng rng(0x9A11 + fabric.Columns());
    for (int trial = 0; trial < 24; ++trial) {
      const ResourceVec req =
          RandomRequirement(rng, fabric.Capacity(), 1, 12, 12);
      for (const std::size_t cap : {0u, 7u, 12u, 50u, 4096u}) {
        SCOPED_TRACE(std::string(preset.name) + " " + req.ToString() +
                     " cap " + std::to_string(cap));
        const std::vector<Rect> want =
            OraclePrune(EnumerateFeasiblePlacements(fabric, req, cap));
        ASSERT_TRUE(
            SameRects(EnumeratePrunedPlacements(fabric, req, cap), want));
      }
    }
  }
}

}  // namespace
}  // namespace resched
