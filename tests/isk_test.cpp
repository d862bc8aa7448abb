// Tests for the IS-k baseline: greedy behaviour of IS-1 (the Figure-1
// trap), window optimization of IS-k, module reuse, prefetching, reference
// bounds, and validity sweeps.
#include <gtest/gtest.h>

#include "baseline/isk_scheduler.hpp"
#include "baseline/priority.hpp"
#include "baseline/reference.hpp"
#include "core/pa_scheduler.hpp"
#include "sched/validator.hpp"
#include "taskgraph/generator.hpp"
#include "test_helpers.hpp"

namespace resched {
namespace {

using testing::HwImpl;
using testing::MakeSmallPlatform;
using testing::SwImpl;

// ---------------------------------------------------------------- priority

TEST(PriorityTest, BottomLevelsOnChain) {
  const TaskGraph g = testing::MakeChain(3, /*hw_time=*/100, /*clb=*/10,
                                         /*sw_time=*/400);
  const auto blevel = ComputeBottomLevels(g);
  // min impl time per task = 100 (hardware).
  EXPECT_EQ(blevel, (std::vector<TimeT>{300, 200, 100}));
  const auto tails = ComputeTails(g);
  EXPECT_EQ(tails, (std::vector<TimeT>{200, 100, 0}));
}

TEST(PriorityTest, BottomLevelsOnDiamond) {
  const TaskGraph g = testing::MakeDiamond(100, 10, 400);
  const auto blevel = ComputeBottomLevels(g);
  EXPECT_EQ(blevel[3], 100);
  EXPECT_EQ(blevel[1], 200);
  EXPECT_EQ(blevel[2], 200);
  EXPECT_EQ(blevel[0], 300);
}

// ---------------------------------------------------------------- reference

TEST(ReferenceTest, AllSoftwareScheduleIsValid) {
  const Instance inst =
      GenerateInstance(MakeZedBoard(), GeneratorOptions{}, 9, "sw");
  const Schedule s = ScheduleAllSoftware(inst);
  EXPECT_TRUE(ValidateSchedule(inst, s).ok());
  EXPECT_EQ(s.NumHardwareTasks(), 0u);
}

TEST(ReferenceTest, AllSoftwareUsesBothCores) {
  const Instance inst{"par", MakeSmallPlatform(2),
                      testing::MakeIndependent(6)};
  const Schedule s = ScheduleAllSoftware(inst);
  bool used[2] = {false, false};
  for (const TaskSlot& slot : s.task_slots) {
    used[slot.target_index] = true;
  }
  EXPECT_TRUE(used[0]);
  EXPECT_TRUE(used[1]);
  // 6 tasks x 4000 on 2 cores = 12000.
  EXPECT_EQ(s.makespan, 12000);
}

TEST(ReferenceTest, WorkBoundBelowAllSchedules) {
  for (const std::uint64_t seed : {5u, 15u, 25u}) {
    GeneratorOptions gen;
    gen.num_tasks = 40;
    const Instance inst =
        GenerateInstance(MakeZedBoard(), gen, seed, "wb");
    const TimeT lb = CombinedLowerBound(inst);
    EXPECT_GE(ScheduleAllSoftware(inst).makespan, lb);
    IskOptions o1;
    o1.k = 1;
    EXPECT_GE(ScheduleIsk(inst, o1).makespan, lb);
  }
}

TEST(ReferenceTest, WorkBoundDominatesOnWideGraphs) {
  // 60 independent equal tasks on a small device: the critical path is one
  // task, but work conservation forces a much larger makespan.
  Instance inst{"wide", testing::MakeSmallPlatform(),
                testing::MakeIndependent(60, 2000, 1500, 9000)};
  EXPECT_GT(WorkLowerBound(inst), CriticalPathLowerBound(inst));
  const Schedule s = SchedulePa(inst);
  ASSERT_TRUE(ValidateSchedule(inst, s).ok());
  EXPECT_GE(s.makespan, CombinedLowerBound(inst));
}

TEST(ReferenceTest, CriticalPathBoundIsUnbeatable) {
  for (const std::uint64_t seed : {10u, 20u}) {
    const Instance inst =
        GenerateInstance(MakeZedBoard(), GeneratorOptions{}, seed, "lb");
    const TimeT lb = CriticalPathLowerBound(inst);
    IskOptions o5;
    o5.k = 5;
    o5.node_budget = 5000;
    EXPECT_GE(ScheduleIsk(inst, o5).makespan, lb);
    EXPECT_GE(ScheduleAllSoftware(inst).makespan, lb);
  }
}

// ---------------------------------------------------------------- IS-1

TEST(IskTest, Is1FallsIntoFigure1Trap) {
  // Same instance as pa_test's Figure-1: IS-1 greedily picks the fast
  // large implementation for t1 and ends up serializing t2/t3.
  const ResourceModel model = MakeClbBramDspModel();
  FabricGeometry geom = BuildInterleavedFabric(
      model, ResourceVec({1000, 10, 20}), {50, 5, 10}, 2);
  FpgaDevice device("fig1", model, std::move(geom));
  Platform platform("fig1", 1, std::move(device), 1.024e9);
  TaskGraph g;
  const TaskId t1 = g.AddTask("t1");
  const TaskId t2 = g.AddTask("t2");
  const TaskId t3 = g.AddTask("t3");
  g.AddEdge(t1, t2);
  g.AddEdge(t1, t3);
  g.AddImpl(t1, SwImpl(50000));
  g.AddImpl(t1, HwImpl(2000, 800));
  g.AddImpl(t1, HwImpl(4000, 300));
  g.AddImpl(t2, SwImpl(50000));
  g.AddImpl(t2, HwImpl(5000, 350));
  g.AddImpl(t3, SwImpl(50000));
  g.AddImpl(t3, HwImpl(5000, 330));
  Instance inst{"fig1", std::move(platform), std::move(g)};

  IskOptions o1;
  o1.k = 1;
  const Schedule s = ScheduleIsk(inst, o1);
  ASSERT_TRUE(ValidateSchedule(inst, s).ok());
  // Greedy local choice: the fast large implementation (index 1).
  EXPECT_EQ(s.task_slots[0].impl_index, 1u);
  // Which costs it dearly: strictly worse than the PA makespan of 9000.
  EXPECT_GT(s.makespan, 9000);
}

TEST(IskTest, SingleTaskOptimal) {
  TaskGraph g;
  const TaskId t = g.AddTask("t");
  g.AddImpl(t, SwImpl(1000));
  g.AddImpl(t, HwImpl(100, 200));
  Instance inst{"one", MakeSmallPlatform(), std::move(g)};
  const Schedule s = ScheduleIsk(inst, IskOptions{});
  EXPECT_EQ(s.makespan, 100);
  EXPECT_TRUE(ValidateSchedule(inst, s).ok());
}

TEST(IskTest, UsesSoftwareWhenCheaper) {
  // SW time below any HW time: IS-1 must put the task on a core.
  TaskGraph g;
  const TaskId t = g.AddTask("t");
  g.AddImpl(t, SwImpl(50));
  g.AddImpl(t, HwImpl(100, 200));
  Instance inst{"sw", MakeSmallPlatform(), std::move(g)};
  const Schedule s = ScheduleIsk(inst, IskOptions{});
  EXPECT_EQ(s.NumHardwareTasks(), 0u);
  EXPECT_EQ(s.makespan, 50);
}

TEST(IskTest, ModuleReuseSkipsReconfiguration) {
  TaskGraph g;
  for (std::size_t i = 0; i < 4; ++i) {
    const TaskId t = g.AddTask(StrFormat("m%zu", i));
    g.AddImpl(t, SwImpl(60000));
    g.AddImpl(t, HwImpl(2000, 2800, 0, 0, /*module=*/3));
    if (i > 0) g.AddEdge(static_cast<TaskId>(i - 1), t);
  }
  Instance inst{"reuse", MakeSmallPlatform(), std::move(g)};

  IskOptions with;
  with.module_reuse = true;
  const Schedule a = ScheduleIsk(inst, with);
  ASSERT_TRUE(ValidateSchedule(inst, a).ok());

  IskOptions without;
  without.module_reuse = false;
  const Schedule b = ScheduleIsk(inst, without);
  ValidationOptions strict;
  strict.allow_module_reuse = false;
  ASSERT_TRUE(ValidateSchedule(inst, b, strict).ok());

  EXPECT_LT(a.reconfigurations.size(), b.reconfigurations.size());
  EXPECT_LT(a.makespan, b.makespan);
}

TEST(IskTest, ReconfigurationPrefetching) {
  // Two independent 2-task chains forced into two regions; the second
  // task's reconfiguration can be prefetched while the first tasks still
  // run. Validity is the key property; prefetch shows as reconf.start
  // strictly before the preceding region task's successor would demand.
  GeneratorOptions gen;
  gen.num_tasks = 12;
  const Instance inst =
      GenerateInstance(MakeSmallPlatform(), gen, 77, "prefetch");
  const Schedule s = ScheduleIsk(inst, IskOptions{});
  EXPECT_TRUE(ValidateSchedule(inst, s).ok());
}

TEST(IskTest, DeterministicAcrossRuns) {
  const Instance inst =
      GenerateInstance(MakeZedBoard(), GeneratorOptions{}, 31, "det");
  IskOptions opt;
  opt.k = 2;
  opt.node_budget = 5000;
  const Schedule a = ScheduleIsk(inst, opt);
  const Schedule b = ScheduleIsk(inst, opt);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(IskTest, LargerWindowNeverHurtsOnSmallInstances) {
  // With an ample node budget, IS-3's window optimum cannot be worse than
  // IS-1's greedy on the same instance... per window. Globally the greedy
  // commitment order differs, so we only check IS-3 stays within 10% worse
  // and is usually better; hard guarantees need exhaustive search.
  double sum1 = 0.0;
  double sum3 = 0.0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    GeneratorOptions gen;
    gen.num_tasks = 12;
    const Instance inst = GenerateInstance(MakeZedBoard(), gen, seed, "k");
    IskOptions o1;
    o1.k = 1;
    IskOptions o3;
    o3.k = 3;
    o3.node_budget = 200000;
    const Schedule s1 = ScheduleIsk(inst, o1);
    const Schedule s3 = ScheduleIsk(inst, o3);
    EXPECT_TRUE(ValidateSchedule(inst, s1).ok());
    EXPECT_TRUE(ValidateSchedule(inst, s3).ok());
    sum1 += static_cast<double>(s1.makespan);
    sum3 += static_cast<double>(s3.makespan);
  }
  EXPECT_LE(sum3, sum1 * 1.05);
}

TEST(IskTest, TimeBudgetFallsBackToGreedy) {
  GeneratorOptions gen;
  gen.num_tasks = 30;
  const Instance inst = GenerateInstance(MakeZedBoard(), gen, 8, "budget");
  IskOptions opt;
  opt.k = 5;
  opt.node_budget = 100000;
  opt.time_budget_seconds = 1e-9;  // expires immediately
  const Schedule s = ScheduleIsk(inst, opt);
  EXPECT_TRUE(ValidateSchedule(inst, s).ok());
}

TEST(IskTest, MetadataPopulated) {
  const Instance inst =
      GenerateInstance(MakeZedBoard(), GeneratorOptions{}, 2, "meta");
  IskOptions opt;
  opt.k = 5;
  const Schedule s = ScheduleIsk(inst, opt);
  EXPECT_EQ(s.algorithm, "IS-5");
  EXPECT_GT(s.scheduling_seconds, 0.0);
  EXPECT_TRUE(s.floorplan_checked);
}

// ---------------------------------------------------------------- sweeps

struct IskParam {
  std::size_t k;
  std::size_t num_tasks;
  std::uint64_t seed;
};

class IskValiditySweep : public ::testing::TestWithParam<IskParam> {};

TEST_P(IskValiditySweep, ProducesValidSchedule) {
  const IskParam p = GetParam();
  GeneratorOptions gen;
  gen.num_tasks = p.num_tasks;
  const Instance inst = GenerateInstance(MakeZedBoard(), gen, p.seed, "s");
  IskOptions opt;
  opt.k = p.k;
  opt.node_budget = 20000;
  const Schedule s = ScheduleIsk(inst, opt);
  const ValidationResult r = ValidateSchedule(inst, s);
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_GE(s.makespan, CriticalPathLowerBound(inst));
}

INSTANTIATE_TEST_SUITE_P(
    Windows, IskValiditySweep,
    ::testing::Values(IskParam{1, 10, 1}, IskParam{1, 30, 2},
                      IskParam{1, 60, 3}, IskParam{2, 20, 4},
                      IskParam{3, 20, 5}, IskParam{5, 20, 6},
                      IskParam{5, 40, 7}, IskParam{4, 15, 8}),
    [](const ::testing::TestParamInfo<IskParam>& param_info) {
      return StrFormat("k%zu_n%zu_s%llu", param_info.param.k,
                       param_info.param.num_tasks,
                       static_cast<unsigned long long>(param_info.param.seed));
    });

}  // namespace
}  // namespace resched
