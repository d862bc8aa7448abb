// Stress tests on pathological graph shapes and platform corners: every
// scheduler must stay valid on the extremes the suite generator never
// produces.
#include <gtest/gtest.h>

#include "baseline/fixed_grid.hpp"
#include "baseline/isk_scheduler.hpp"
#include "core/pa_scheduler.hpp"
#include "sched/validator.hpp"
#include "taskgraph/generator.hpp"
#include "test_helpers.hpp"

namespace resched {
namespace {

using testing::HwImpl;
using testing::SwImpl;

void ExpectAllValid(const Instance& inst) {
  const Schedule pa = SchedulePa(inst);
  EXPECT_TRUE(ValidateSchedule(inst, pa).ok())
      << "PA: " << ValidateSchedule(inst, pa).Summary();
  IskOptions isk;
  isk.k = 2;
  isk.node_budget = 4000;
  const Schedule is = ScheduleIsk(inst, isk);
  EXPECT_TRUE(ValidateSchedule(inst, is).ok())
      << "IS: " << ValidateSchedule(inst, is).Summary();
  const Schedule grid = ScheduleFixedGrid(inst);
  EXPECT_TRUE(ValidateSchedule(inst, grid).ok())
      << "grid: " << ValidateSchedule(inst, grid).Summary();
}

TEST(PathologicalTest, LongChain) {
  Instance inst{"chain", MakeZedBoard(), testing::MakeChain(120, 900, 700,
                                                            3000)};
  ExpectAllValid(inst);
}

TEST(PathologicalTest, WideStar) {
  // One source feeding 80 independent children.
  TaskGraph g;
  const TaskId hub = g.AddTask("hub");
  g.AddImpl(hub, SwImpl(2000));
  g.AddImpl(hub, HwImpl(500, 800));
  for (int i = 0; i < 80; ++i) {
    const TaskId t = g.AddTask("leaf" + std::to_string(i));
    g.AddImpl(t, SwImpl(4000));
    g.AddImpl(t, HwImpl(1200, 600));
    g.AddEdge(hub, t);
  }
  Instance inst{"star", MakeZedBoard(), std::move(g)};
  ExpectAllValid(inst);
}

TEST(PathologicalTest, InvertedStar) {
  // 60 sources converging into one sink.
  TaskGraph g;
  const TaskId sink = g.AddTask("sink");
  g.AddImpl(sink, SwImpl(2000));
  for (int i = 0; i < 60; ++i) {
    const TaskId t = g.AddTask("src" + std::to_string(i));
    g.AddImpl(t, SwImpl(4000));
    g.AddImpl(t, HwImpl(900, 500));
    g.AddEdge(t, sink);
  }
  Instance inst{"join", MakeZedBoard(), std::move(g)};
  ExpectAllValid(inst);
}

TEST(PathologicalTest, FullyIndependent) {
  Instance inst{"flat", MakeZedBoard(),
                testing::MakeIndependent(100, 1500, 900, 6000)};
  ExpectAllValid(inst);
}

TEST(PathologicalTest, SingleCoreNoHardwareAlternatives) {
  // Pure software workload on one core: everything serializes.
  TaskGraph g;
  TimeT total = 0;
  for (int i = 0; i < 10; ++i) {
    const TaskId t = g.AddTask("sw" + std::to_string(i));
    g.AddImpl(t, SwImpl(1000 + 100 * i));
    total += 1000 + 100 * i;
  }
  Instance inst{"sw-only", testing::MakeSmallPlatform(1), std::move(g)};
  const Schedule s = SchedulePa(inst);
  ASSERT_TRUE(ValidateSchedule(inst, s).ok());
  EXPECT_EQ(s.makespan, total);
}

TEST(PathologicalTest, HugeImplsForceSoftwareFallback) {
  // HW impls fit the device but are so large only one region fits; with a
  // long parallel layer most tasks must fall back to software.
  TaskGraph g;
  for (int i = 0; i < 12; ++i) {
    const TaskId t = g.AddTask("big" + std::to_string(i));
    g.AddImpl(t, SwImpl(5000));
    g.AddImpl(t, HwImpl(800, 2900, 30, 50));
  }
  Instance inst{"huge", testing::MakeSmallPlatform(), std::move(g)};
  ExpectAllValid(inst);
}

TEST(PathologicalTest, ExtremeTimeScales) {
  // Mix microsecond tasks with multi-second tasks.
  TaskGraph g;
  const TaskId tiny = g.AddTask("tiny");
  g.AddImpl(tiny, SwImpl(1));
  g.AddImpl(tiny, HwImpl(1, 100));
  const TaskId huge = g.AddTask("huge");
  g.AddImpl(huge, SwImpl(30'000'000));  // 30 s
  g.AddImpl(huge, HwImpl(5'000'000, 2000));
  g.AddEdge(tiny, huge);
  Instance inst{"scales", MakeZedBoard(), std::move(g)};
  ExpectAllValid(inst);
}

TEST(PathologicalTest, ManyCoresFewTasks) {
  Instance inst{"cores", MakeZedBoard().WithProcessors(16),
                testing::MakeIndependent(4, 1000, 500, 2000)};
  ExpectAllValid(inst);
}

TEST(PathologicalTest, DeepDependenciesWithSharedModules) {
  // Chain where all tasks share one module: module reuse (IS-k) should
  // collapse reconfigurations entirely.
  TaskGraph g;
  for (int i = 0; i < 30; ++i) {
    const TaskId t = g.AddTask(StrFormat("m%d", i));
    g.AddImpl(t, SwImpl(9000));
    g.AddImpl(t, HwImpl(1000, 1500, 0, 0, /*module=*/1));
    if (i > 0) g.AddEdge(static_cast<TaskId>(i - 1), t);
  }
  Instance inst{"mono", MakeZedBoard(), std::move(g)};
  IskOptions isk;
  isk.k = 1;
  const Schedule s = ScheduleIsk(inst, isk);
  ASSERT_TRUE(ValidateSchedule(inst, s).ok());
  EXPECT_TRUE(s.reconfigurations.empty());
  EXPECT_EQ(s.makespan, 30'000);
}

TEST(PathologicalTest, GeneratorExtremes) {
  // Degenerate generator configurations still produce valid instances.
  for (const std::size_t width : {1u, 50u}) {
    GeneratorOptions gen;
    gen.num_tasks = 50;
    gen.max_width = width;
    gen.max_parents = width == 1 ? 1 : 8;
    const Instance inst =
        GenerateInstance(MakeZedBoard(), gen, 3, "extreme");
    const Schedule s = SchedulePa(inst);
    EXPECT_TRUE(ValidateSchedule(inst, s).ok()) << "width " << width;
  }
}

}  // namespace
}  // namespace resched
