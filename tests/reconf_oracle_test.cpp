// Differential test of the §V-G reconfiguration scheduling against a
// test-only copy of the linear-scan code it replaced.
//
// OracleReconfScheduling builds the precedence relation with one
// reachability probe per ordered pair of reconfigurations and, for each
// pick, scans every pending reconfiguration and re-reads its T_MIN: the
// available one that is critical first, then of lowest T_MIN, then of
// lowest pending index, wins. It places each pick with a plain
// head-to-tail gap scan over its own per-controller slot lists, sharing
// no buffer with the library. RunReconfigurationScheduling (heap pick,
// T_MIN read once at availability) must emit the same controller timeline
// slot by slot and leave the same final T_MIN on:
//   * seeded PA passes (random non-critical order and capacity factor) on
//     the ZedBoard and Pynq-Z1, with one and two controllers and with the
//     module-reuse extension on;
//   * hand-built regions whose reconfigurations share one T_MIN, some
//     critical and some not, created in an order that differs from the
//     task-id order so that only the pending index breaks the ties.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arch/zynq.hpp"
#include "core/pa_state.hpp"
#include "taskgraph/generator.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace resched {
namespace {

using pa::PaContext;
using pa::PaScratch;

struct OracleReconf {
  std::size_t region = 0;
  TaskId t_in = kInvalidTask;
  TaskId t_out = kInvalidTask;
  TimeT exe = 0;
  bool critical = false;
};

/// reach[u][v]: a path over graph + ordering edges leads from u to v
/// (u reaches itself).
std::vector<std::vector<char>> OracleReach(const PaScratch& s) {
  const TaskGraph& graph = s.Inst().graph;
  const std::size_t n = graph.NumTasks();
  std::vector<std::vector<TaskId>> succs(n);
  for (std::size_t t = 0; t < n; ++t) {
    succs[t] = graph.Successors(static_cast<TaskId>(t));
  }
  for (const OrderingEdge& e : s.Timing().ExtraEdges()) {
    succs[static_cast<std::size_t>(e.from)].push_back(e.to);
  }
  std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
  for (std::size_t u = 0; u < n; ++u) {
    std::vector<std::size_t> stack = {u};
    reach[u][u] = 1;
    while (!stack.empty()) {
      const std::size_t x = stack.back();
      stack.pop_back();
      for (const TaskId v : succs[x]) {
        const auto vi = static_cast<std::size_t>(v);
        if (reach[u][vi]) continue;
        reach[u][vi] = 1;
        stack.push_back(vi);
      }
    }
  }
  return reach;
}

/// Earliest start >= lo of a `duration`-long gap among disjoint slots.
TimeT OracleGap(const std::vector<std::pair<TimeT, TimeT>>& slots, TimeT lo,
                TimeT duration) {
  TimeT start = lo;
  for (bool moved = true; moved;) {
    moved = false;
    for (const auto& [a, b] : slots) {
      if (a < start + duration && start < b) {
        start = b;
        moved = true;
      }
    }
  }
  return start;
}

TimeT OracleEnd(const PaScratch& s, TaskId t) {
  return s.Timing().EarliestStarts()[static_cast<std::size_t>(t)] +
         s.Timing().ExecTime(t);
}

/// The linear-scan §V-G: returns the controller timeline sorted by start
/// (ties in emission order) and raises the outgoing tasks' releases.
std::vector<ReconfSlot> OracleReconfScheduling(PaScratch& s) {
  std::vector<OracleReconf> pending;
  const TimeWindows& win = s.Timing().Windows();
  for (std::size_t r = 0; r < s.NumRegions(); ++r) {
    const pa::DraftRegion& region = s.Region(r);
    for (std::size_t i = 0; i + 1 < region.tasks.size(); ++i) {
      const TaskId t_in = region.tasks[i];
      const TaskId t_out = region.tasks[i + 1];
      if (s.RegionGap(r, t_in, t_out) == 0) continue;
      pending.push_back(OracleReconf{
          r, t_in, t_out, region.reconf_time,
          win.critical[static_cast<std::size_t>(t_out)]});
    }
  }
  std::vector<ReconfSlot> timeline;
  if (pending.empty()) return timeline;

  const auto reach = OracleReach(s);
  const std::size_t m = pending.size();
  std::vector<std::size_t> blockers(m, 0);
  std::vector<std::vector<std::size_t>> blocks(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (i == j) continue;
      if (reach[static_cast<std::size_t>(pending[i].t_out)]
               [static_cast<std::size_t>(pending[j].t_in)]) {
        blocks[i].push_back(j);
        ++blockers[j];
      }
    }
  }

  std::vector<std::vector<std::pair<TimeT, TimeT>>> lanes(
      s.Inst().platform.NumReconfigurators());
  std::vector<char> done(m, 0);
  for (std::size_t scheduled = 0; scheduled < m; ++scheduled) {
    std::size_t pick = m;
    TimeT pick_tmin = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (done[i] || blockers[i] != 0) continue;
      const TimeT tmin = OracleEnd(s, pending[i].t_in);
      const bool better =
          pick == m || (pending[i].critical && !pending[pick].critical) ||
          (pending[i].critical == pending[pick].critical &&
           tmin < pick_tmin);
      if (better) {
        pick = i;
        pick_tmin = tmin;
      }
    }
    EXPECT_LT(pick, m) << "availability relation has a cycle";
    if (pick == m) return timeline;

    const OracleReconf& r = pending[pick];
    std::size_t best_c = 0;
    TimeT start = kTimeInfinity;
    for (std::size_t c = 0; c < lanes.size(); ++c) {
      const TimeT gap = OracleGap(lanes[c], pick_tmin, r.exe);
      if (gap < start) {
        start = gap;
        best_c = c;
      }
    }
    const TimeT end = start + r.exe;
    std::size_t pos = timeline.size();
    while (pos > 0 && timeline[pos - 1].start > start) --pos;
    timeline.insert(timeline.begin() + static_cast<std::ptrdiff_t>(pos),
                    ReconfSlot{r.region, r.t_out, start, end, best_c});
    lanes[best_c].push_back({start, end});
    s.Timing().RaiseRelease(r.t_out, end);
    done[pick] = 1;
    for (const std::size_t j : blocks[pick]) --blockers[j];
  }
  return timeline;
}

std::string SlotText(const ReconfSlot& slot) {
  return "region " + std::to_string(slot.region) + " t_out " +
         std::to_string(slot.loads_task) + " [" + std::to_string(slot.start) +
         ", " + std::to_string(slot.end) + ") controller " +
         std::to_string(slot.controller);
}

/// Runs the library §V-G on `lib` and the oracle on `oracle` (two
/// scratches in the same pre-§V-G state) and compares the results.
void ExpectSameReconfScheduling(const PaContext& ctx, PaScratch& lib,
                                PaScratch& oracle, const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(lib.Timing().EarliestStarts(), oracle.Timing().EarliestStarts())
      << "the two scratches start from different states";
  pa::RunReconfigurationScheduling(ctx, lib);
  const std::vector<ReconfSlot> want = OracleReconfScheduling(oracle);
  const auto& got = lib.Buffers().timeline;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(SlotText(got[i]), SlotText(want[i])) << "slot " << i;
  }
  EXPECT_EQ(lib.Timing().EarliestStarts(), oracle.Timing().EarliestStarts());
}

/// One PA pass up to (not including) §V-G, as RunPaCore runs it.
void RunPhasesBeforeReconf(const PaContext& ctx, PaScratch& s,
                           const ResourceVec& cap, std::uint64_t seed) {
  Rng rng(seed);
  s.Reset(cap);
  pa::RunImplementationSelection(ctx, s);
  pa::RunCriticalPathExtraction(ctx, s);
  pa::RunRegionsDefinition(ctx, s, rng);
  if (ctx.Options().sw_balancing) pa::RunSoftwareTaskBalancing(ctx, s);
  pa::RunSoftwareTaskMapping(ctx, s);
}

TEST(ReconfOracleTest, SeededPassesMatchTheLinearScan) {
  const Platform zed = MakeZedBoard();
  const Platform pynq = MakePynqZ1();
  const Platform platforms[] = {zed, pynq, zed.WithReconfigurators(2),
                                pynq.WithReconfigurators(3)};
  std::size_t compared_slots = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Platform& platform = platforms[seed % 4];
    GeneratorOptions gen;
    gen.num_tasks = 10 + (seed * 37) % 91;
    gen.share_prob = seed % 3 == 0 ? 0.5 : 0.15;
    const Instance instance = GenerateInstance(
        platform, gen, seed, "reconf-oracle" + std::to_string(seed));
    PaOptions options;
    options.ordering = NonCriticalOrder::kRandom;
    options.module_reuse = seed % 2 == 0;
    const PaContext ctx(instance, options);
    PaScratch lib(ctx);
    PaScratch oracle(ctx);
    Rng caps(seed * 7919);
    for (int pass = 0; pass < 6; ++pass) {
      const ResourceVec cap = instance.platform.Device().Capacity().ScaledDown(
          caps.UniformDouble(0.3, 1.0));
      const std::uint64_t order_seed = seed * 100 + static_cast<unsigned>(pass);
      RunPhasesBeforeReconf(ctx, lib, cap, order_seed);
      RunPhasesBeforeReconf(ctx, oracle, cap, order_seed);
      ExpectSameReconfScheduling(
          ctx, lib, oracle,
          "seed " + std::to_string(seed) + " pass " + std::to_string(pass));
      compared_slots += lib.Buffers().timeline.size();
    }
  }
  // The sweep must actually exercise §V-G.
  EXPECT_GT(compared_slots, 500u);
}

/// Independent chains x1 -> x2 -> tail: every x1 runs [0, 1000), so every
/// region {x1, x2} has its reconfiguration at T_MIN 1000. A long tail
/// makes x2 critical, a short one leaves it non-critical.
struct TieFixture {
  Instance instance;
  std::vector<std::pair<TaskId, TaskId>> pairs;
  std::vector<bool> critical;

  explicit TieFixture(std::size_t controllers) {
    using testing::HwImpl;
    using testing::SwImpl;
    TaskGraph g;
    // Chain order by id: c0 c1 (critical), n0 n1 n2 (non-critical).
    const bool chain_critical[] = {true, true, false, false, false};
    for (std::size_t c = 0; c < 5; ++c) {
      const std::string name = std::to_string(c);
      const TaskId x1 = g.AddTask("x1_" + name);
      const TaskId x2 = g.AddTask("x2_" + name);
      const TaskId tail = g.AddTask("tail_" + name);
      for (const TaskId t : {x1, x2}) {
        g.AddImpl(t, SwImpl(90000));
        g.AddImpl(t, HwImpl(1000, 200));
      }
      g.AddImpl(tail, SwImpl(chain_critical[c] ? 50000 : 2000));
      g.AddEdge(x1, x2);
      g.AddEdge(x2, tail);
      pairs.push_back({x1, x2});
      critical.push_back(chain_critical[c]);
    }
    instance = Instance{
        "ties",
        testing::MakeSmallPlatform().WithReconfigurators(controllers),
        std::move(g)};
  }

  /// Puts every chain's x1, x2 in hardware and in one region per chain,
  /// creating the regions in `region_order` (chain indices).
  void Build(const PaContext& ctx, PaScratch& s,
             const std::vector<std::size_t>& region_order) const {
    s.Reset(instance.platform.Device().Capacity());
    pa::RunImplementationSelection(ctx, s);
    for (const auto& [x1, x2] : pairs) {
      s.SetImpl(x1, 1);
      s.SetImpl(x2, 1);
    }
    for (const std::size_t c : region_order) {
      const std::size_t r = s.CreateRegionFor(pairs[c].first);
      s.AssignToRegion(r, pairs[c].second);
    }
  }
};

TEST(ReconfOracleTest, EqualTminTiesFollowCriticalityThenPendingIndex) {
  // Region order puts the non-critical chains first and reverses the id
  // order within each class, so neither criticality nor task ids agree
  // with the pending index.
  const std::vector<std::vector<std::size_t>> orders = {
      {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}, {3, 1, 4, 0, 2}};
  for (const std::size_t controllers : {1u, 2u}) {
    const TieFixture fix(controllers);
    const PaOptions options;  // PaContext borrows it
    const PaContext ctx(fix.instance, options);
    for (const auto& order : orders) {
      PaScratch lib(ctx);
      PaScratch oracle(ctx);
      fix.Build(ctx, lib, order);
      fix.Build(ctx, oracle, order);

      // The fixture holds what it promises: five reconfigurations at one
      // T_MIN, with the intended criticality.
      const TimeWindows& win = lib.Timing().Windows();
      for (std::size_t c = 0; c < fix.pairs.size(); ++c) {
        const auto x1 = static_cast<std::size_t>(fix.pairs[c].first);
        const auto x2 = static_cast<std::size_t>(fix.pairs[c].second);
        ASSERT_EQ(win.earliest_start[x1], 0) << "chain " << c;
        ASSERT_EQ(win.critical[x2], fix.critical[c]) << "chain " << c;
      }

      std::string what = std::to_string(controllers) + " controller(s), order";
      for (const std::size_t c : order) {
        what += ' ';
        what += std::to_string(c);
      }
      ExpectSameReconfScheduling(ctx, lib, oracle, what);

      // Critical reconfigurations take the first controller slots; ties
      // within a class go to the region created first.
      const auto& timeline = lib.Buffers().timeline;
      ASSERT_EQ(timeline.size(), 5u);
      std::vector<std::size_t> want_regions;
      for (const bool crit : {true, false}) {
        for (std::size_t r = 0; r < order.size(); ++r) {
          if (fix.critical[order[r]] == crit) want_regions.push_back(r);
        }
      }
      if (controllers == 1) {
        for (std::size_t i = 0; i < timeline.size(); ++i) {
          EXPECT_EQ(timeline[i].region, want_regions[i]) << "slot " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace resched
