// Unit tests for the CPM engine: windows, criticality, ordering edges with
// gaps, release times, delay propagation — plus a differential sweep that
// drives the incremental T_MIN maintenance through random mutation
// sequences and compares every read with a freshly built context.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>

#include "taskgraph/timing.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace resched {
namespace {

using testing::MakeChain;
using testing::MakeDiamond;

TimingContext MakeTiming(const TaskGraph& g,
                         const std::vector<TimeT>& exec) {
  TimingContext timing(g);
  for (std::size_t t = 0; t < exec.size(); ++t) {
    timing.SetExecTime(static_cast<TaskId>(t), exec[t]);
  }
  return timing;
}

TEST(TimingTest, ChainWindows) {
  const TaskGraph g = MakeChain(3);
  TimingContext timing = MakeTiming(g, {10, 20, 30});
  const TimeWindows& win = timing.Windows();
  EXPECT_EQ(win.makespan, 60);
  EXPECT_EQ(win.earliest_start, (std::vector<TimeT>{0, 10, 30}));
  EXPECT_EQ(win.latest_finish, (std::vector<TimeT>{10, 30, 60}));
  // Every chain task is critical.
  EXPECT_TRUE(win.critical[0]);
  EXPECT_TRUE(win.critical[1]);
  EXPECT_TRUE(win.critical[2]);
}

TEST(TimingTest, DiamondSlackAndCriticality) {
  const TaskGraph g = MakeDiamond();
  // a=10, b=50 (critical branch), c=20 (slack 30), d=10.
  TimingContext timing = MakeTiming(g, {10, 50, 20, 10});
  const TimeWindows& win = timing.Windows();
  EXPECT_EQ(win.makespan, 70);
  EXPECT_TRUE(win.critical[0]);
  EXPECT_TRUE(win.critical[1]);
  EXPECT_FALSE(win.critical[2]);
  EXPECT_TRUE(win.critical[3]);
  EXPECT_EQ(win.earliest_start[2], 10);
  EXPECT_EQ(win.latest_finish[2], 60);
  EXPECT_EQ(win.WindowLength(2), 50);
}

TEST(TimingTest, WindowsRequireAllExecTimes) {
  const TaskGraph g = MakeChain(2);
  TimingContext timing(g);
  timing.SetExecTime(0, 5);
  EXPECT_THROW((void)timing.Windows(), InternalError);
}

TEST(TimingTest, OrderingEdgeSerializes) {
  const TaskGraph g = testing::MakeIndependent(2);
  TimingContext timing = MakeTiming(g, {10, 10});
  EXPECT_EQ(timing.Windows().makespan, 10);
  timing.AddOrderingEdge(0, 1, /*gap=*/0);
  const TimeWindows& win = timing.Windows();
  EXPECT_EQ(win.makespan, 20);
  EXPECT_EQ(win.earliest_start[1], 10);
}

TEST(TimingTest, OrderingEdgeGapReservesTime) {
  const TaskGraph g = testing::MakeIndependent(2);
  TimingContext timing = MakeTiming(g, {10, 10});
  timing.AddOrderingEdge(0, 1, /*gap=*/7);
  EXPECT_EQ(timing.Windows().earliest_start[1], 17);
  EXPECT_EQ(timing.Windows().makespan, 27);
}

TEST(TimingTest, OrderingCycleDetected) {
  const TaskGraph g = testing::MakeIndependent(2);
  TimingContext timing = MakeTiming(g, {10, 10});
  timing.AddOrderingEdge(0, 1, 0);
  EXPECT_THROW(timing.AddOrderingEdge(1, 0, 0), InternalError);
}

TEST(TimingTest, OrderingEdgeAgainstGraphEdgeCycleDetected) {
  const TaskGraph g = MakeChain(2);  // 0 -> 1
  TimingContext timing = MakeTiming(g, {10, 10});
  EXPECT_THROW(timing.AddOrderingEdge(1, 0, 0), InternalError);
}

TEST(TimingTest, ReleaseRaisesEarliestStart) {
  const TaskGraph g = MakeChain(2);
  TimingContext timing = MakeTiming(g, {10, 10});
  timing.RaiseRelease(1, 25);
  const TimeWindows& win = timing.Windows();
  EXPECT_EQ(win.earliest_start[1], 25);
  EXPECT_EQ(win.makespan, 35);
}

TEST(TimingTest, ReleaseNeverLowers) {
  const TaskGraph g = MakeChain(2);
  TimingContext timing = MakeTiming(g, {10, 10});
  timing.RaiseRelease(1, 25);
  timing.RaiseRelease(1, 5);  // no-op
  EXPECT_EQ(timing.Release(1), 25);
  EXPECT_EQ(timing.Windows().earliest_start[1], 25);
}

TEST(TimingTest, DelayPropagatesDownstream) {
  const TaskGraph g = MakeChain(3);
  TimingContext timing = MakeTiming(g, {10, 10, 10});
  timing.RaiseRelease(0, 100);
  const TimeWindows& win = timing.Windows();
  EXPECT_EQ(win.earliest_start, (std::vector<TimeT>{100, 110, 120}));
  EXPECT_EQ(win.makespan, 130);
}

TEST(TimingTest, ExecTimeChangeRecomputesWindows) {
  const TaskGraph g = MakeChain(2);
  TimingContext timing = MakeTiming(g, {10, 10});
  EXPECT_EQ(timing.Windows().makespan, 20);
  timing.SetExecTime(0, 50);
  EXPECT_EQ(timing.Windows().makespan, 60);
}

TEST(TimingTest, CombinedTopologicalOrderIncludesExtraEdges) {
  const TaskGraph g = testing::MakeIndependent(3);
  TimingContext timing = MakeTiming(g, {1, 1, 1});
  timing.AddOrderingEdge(2, 0, 0);
  timing.AddOrderingEdge(0, 1, 0);
  const auto order = timing.CombinedTopologicalOrder();
  auto pos = [&](TaskId t) {
    return std::find(order.begin(), order.end(), t) - order.begin();
  };
  EXPECT_LT(pos(2), pos(0));
  EXPECT_LT(pos(0), pos(1));
}

TEST(TimingTest, ParallelBranchesIndependentWindows) {
  const TaskGraph g = testing::MakeIndependent(3);
  TimingContext timing = MakeTiming(g, {5, 9, 3});
  const TimeWindows& win = timing.Windows();
  EXPECT_EQ(win.makespan, 9);
  // Only the longest task is critical; others have slack.
  EXPECT_FALSE(win.critical[0]);
  EXPECT_TRUE(win.critical[1]);
  EXPECT_FALSE(win.critical[2]);
  EXPECT_EQ(win.latest_finish[0], 9);
}

TEST(TimingTest, NegativeGapRejected) {
  const TaskGraph g = testing::MakeIndependent(2);
  TimingContext timing = MakeTiming(g, {1, 1});
  EXPECT_THROW(timing.AddOrderingEdge(0, 1, -1), InternalError);
}

TEST(TimingTest, CycleThroughExtraEdgesThrowsAfterReads) {
  const TaskGraph g = testing::MakeIndependent(3);
  TimingContext timing = MakeTiming(g, {10, 10, 10});
  EXPECT_EQ(timing.Makespan(), 10);
  timing.AddOrderingEdge(0, 1, 0);
  timing.AddOrderingEdge(1, 2, 5);
  EXPECT_THROW(timing.AddOrderingEdge(2, 0, 0), InternalError);
  // The rejected edge left no trace.
  EXPECT_EQ(timing.ExtraEdges().size(), 2u);
  EXPECT_EQ(timing.Makespan(), 35);
}

TEST(TimingTest, CycleThroughExtraEdgesThrowsBeforeExecTimes) {
  const TaskGraph g = testing::MakeIndependent(3);
  TimingContext timing(g);  // no exec time set: only the DFS can decide
  for (int round = 0; round < 2; ++round) {
    timing.AddOrderingEdge(0, 1, 0);
    timing.AddOrderingEdge(1, 2, 0);
    EXPECT_THROW(timing.AddOrderingEdge(2, 0, 0), InternalError);
    timing.Reset();
  }
}

// ------------------------------------------------------ differential sweep

/// Everything a TimingContext is fed, replayable into a fresh context.
struct TimingMirror {
  std::vector<TimeT> exec;
  std::vector<TimeT> release;
  std::vector<std::pair<std::pair<TaskId, TaskId>, TimeT>> gaps;
  std::vector<OrderingEdge> extra;

  /// Nothing is read before every input is in, so the first read of the
  /// returned context is one full sweep.
  TimingContext Build(const TaskGraph& g) const {
    TimingContext timing(g);
    for (std::size_t t = 0; t < exec.size(); ++t) {
      timing.SetExecTime(static_cast<TaskId>(t), exec[t]);
      timing.RaiseRelease(static_cast<TaskId>(t), release[t]);
    }
    for (const auto& [key, gap] : gaps) {
      timing.SetBaseEdgeGap(key.first, key.second, gap);
    }
    for (const OrderingEdge& e : extra) {
      timing.AddOrderingEdge(e.from, e.to, e.gap);
    }
    return timing;
  }

  /// True when `from` reaches `to` over the base graph plus `extra`.
  bool Reaches(const TaskGraph& g, TaskId from, TaskId to) const {
    std::vector<char> seen(exec.size(), 0);
    std::vector<TaskId> stack{from};
    while (!stack.empty()) {
      const TaskId u = stack.back();
      stack.pop_back();
      if (u == to) return true;
      if (seen[static_cast<std::size_t>(u)]) continue;
      seen[static_cast<std::size_t>(u)] = 1;
      for (const TaskId v : g.Successors(u)) stack.push_back(v);
      for (const OrderingEdge& e : extra) {
        if (e.from == u) stack.push_back(e.to);
      }
    }
    return false;
  }

  TimeT& Gap(TaskId from, TaskId to) {
    for (auto& [key, gap] : gaps) {
      if (key == std::make_pair(from, to)) return gap;
    }
    gaps.push_back({{from, to}, 0});
    return gaps.back().second;
  }
};

class TimingDifferentialSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(TimingDifferentialSweep, IncrementalReadsMatchAFreshContext) {
  const auto [seed, with_edge_data] = GetParam();
  Rng rng(seed);

  const auto n = static_cast<std::size_t>(rng.UniformInt(2, 40));
  TaskGraph g;
  for (std::size_t i = 0; i < n; ++i) g.AddTask(StrFormat("t%zu", i));
  std::vector<std::pair<TaskId, TaskId>> base_edges;
  const double density = rng.UniformDouble(0.02, 0.25);
  for (std::size_t b = 1; b < n; ++b) {
    for (std::size_t a = 0; a < b; ++a) {
      if (!rng.Bernoulli(density)) continue;
      const auto from = static_cast<TaskId>(a);
      const auto to = static_cast<TaskId>(b);
      g.AddEdge(from, to);
      if (with_edge_data) g.SetEdgeData(from, to, rng.UniformInt(1, 4096));
      base_edges.push_back({from, to});
    }
  }
  ASSERT_EQ(g.HasEdgeData(), with_edge_data && !base_edges.empty());

  TimingContext timing(g);
  TimingMirror mirror;
  mirror.exec.assign(n, 0);
  mirror.release.assign(n, 0);
  auto set_all_exec = [&] {
    for (std::size_t t = 0; t < n; ++t) {
      mirror.exec[t] = rng.UniformInt(1, 200);
      timing.SetExecTime(static_cast<TaskId>(t), mirror.exec[t]);
    }
  };
  set_all_exec();

  const auto max_task = static_cast<std::int64_t>(n) - 1;
  auto random_task = [&] {
    return static_cast<TaskId>(rng.UniformInt(0, max_task));
  };

  auto check_read = [&](int step) {
    SCOPED_TRACE(StrFormat("seed %llu step %d",
                           static_cast<unsigned long long>(seed), step));
    const TimingContext oracle = mirror.Build(g);
    const TimeWindows& want = oracle.Windows();
    switch (rng.UniformInt(0, 2)) {
      case 0:
        EXPECT_EQ(timing.EarliestStarts(), want.earliest_start);
        break;
      case 1:
        EXPECT_EQ(timing.Makespan(), want.makespan);
        break;
      default: {
        const TimeWindows& got = timing.Windows();
        EXPECT_EQ(got.earliest_start, want.earliest_start);
        EXPECT_EQ(got.latest_finish, want.latest_finish);
        EXPECT_EQ(got.critical, want.critical);
        EXPECT_EQ(got.makespan, want.makespan);
        break;
      }
    }
  };

  for (int step = 0; step < 400; ++step) {
    const std::int64_t op = rng.UniformInt(0, 99);
    if (op < 35) {  // ordering edge
      const TaskId from = random_task();
      const TaskId to = random_task();
      if (from == to) continue;
      const TimeT gap = rng.Bernoulli(0.5) ? 0 : rng.UniformInt(1, 60);
      if (mirror.Reaches(g, to, from)) {
        EXPECT_THROW(timing.AddOrderingEdge(from, to, gap), InternalError);
      } else {
        timing.AddOrderingEdge(from, to, gap);
        mirror.extra.push_back(OrderingEdge{from, to, gap});
      }
    } else if (op < 55) {  // release raise (sometimes a no-op)
      const TaskId t = random_task();
      const TimeT release = rng.UniformInt(0, 2000);
      timing.RaiseRelease(t, release);
      auto& r = mirror.release[static_cast<std::size_t>(t)];
      r = std::max(r, release);
    } else if (op < 70) {  // exec time up
      const TaskId t = random_task();
      auto& exec = mirror.exec[static_cast<std::size_t>(t)];
      exec += rng.UniformInt(0, 100);
      timing.SetExecTime(t, exec);
    } else if (op < 80) {  // exec time down
      const TaskId t = random_task();
      auto& exec = mirror.exec[static_cast<std::size_t>(t)];
      exec = std::max<TimeT>(1, exec - rng.UniformInt(0, 100));
      timing.SetExecTime(t, exec);
    } else if (op < 97) {  // base gap up or down
      if (!g.HasEdgeData()) continue;
      const auto edge = rng.UniformInt(
          0, static_cast<std::int64_t>(base_edges.size()) - 1);
      const auto [from, to] = base_edges[static_cast<std::size_t>(edge)];
      TimeT& gap = mirror.Gap(from, to);
      const TimeT step_size = rng.UniformInt(0, 80);
      gap = rng.Bernoulli(0.6) ? gap + step_size
                               : std::max<TimeT>(0, gap - step_size);
      timing.SetBaseEdgeGap(from, to, gap);
      EXPECT_EQ(timing.BaseEdgeGap(from, to), gap);
    } else {  // restart
      timing.Reset();
      mirror = TimingMirror{};
      mirror.exec.assign(n, 0);
      mirror.release.assign(n, 0);
      set_all_exec();
    }
    if (rng.Bernoulli(0.5)) check_read(step);
  }
  check_read(-1);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TimingDifferentialSweep,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 25),
                       ::testing::Bool()));

}  // namespace
}  // namespace resched
