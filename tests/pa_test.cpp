// Tests for the PA deterministic scheduler: per-phase behaviour, the
// Figure-1 motivating property, option ablations, and parameterized
// end-to-end validity sweeps over generated instances.
#include <gtest/gtest.h>

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

Instance MakeFigure1Instance() {
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
  g.AddImpl(t1, HwImpl(2000, 800, 0, 0, -1, "t1_1"));  // fast, large
  g.AddImpl(t1, HwImpl(4000, 300, 0, 0, -1, "t1_2"));  // slow, small
  g.AddImpl(t2, SwImpl(50000));
  g.AddImpl(t2, HwImpl(5000, 350));
  g.AddImpl(t3, SwImpl(50000));
  g.AddImpl(t3, HwImpl(5000, 330));
  return Instance{"figure1", std::move(platform), std::move(g)};
}

// ---------------------------------------------------------------- figure 1

TEST(PaSchedulerTest, Figure1PicksResourceEfficientImplementation) {
  const Instance inst = MakeFigure1Instance();
  const Schedule s = SchedulePa(inst);
  ASSERT_TRUE(ValidateSchedule(inst, s).ok());

  // t1 must use the slow/small implementation (index 2, "t1_2").
  EXPECT_EQ(s.task_slots[0].impl_index, 2u);
  // All three tasks in hardware, in three separate regions, no
  // reconfigurations: t2 and t3 run in parallel.
  EXPECT_EQ(s.NumHardwareTasks(), 3u);
  EXPECT_EQ(s.regions.size(), 3u);
  EXPECT_TRUE(s.reconfigurations.empty());
  // t2 and t3 overlap in time.
  const TaskSlot& t2 = s.task_slots[1];
  const TaskSlot& t3 = s.task_slots[2];
  EXPECT_LT(std::max(t2.start, t3.start), std::min(t2.end, t3.end));
  // Makespan: 4000 (t1_2) + 5000 (parallel t2/t3) = 9000.
  EXPECT_EQ(s.makespan, 9000);
}

// ---------------------------------------------------------------- basics

TEST(PaSchedulerTest, SingleTaskGoesHardwareWhenFaster) {
  TaskGraph g;
  const TaskId t = g.AddTask("t");
  g.AddImpl(t, SwImpl(1000));
  g.AddImpl(t, HwImpl(100, 200));
  Instance inst{"single", MakeSmallPlatform(), std::move(g)};
  const Schedule s = SchedulePa(inst);
  ASSERT_TRUE(ValidateSchedule(inst, s).ok());
  EXPECT_EQ(s.NumHardwareTasks(), 1u);
  EXPECT_EQ(s.makespan, 100);
  EXPECT_EQ(s.regions.size(), 1u);
}

TEST(PaSchedulerTest, SoftwareOnlyTaskStaysOnCore) {
  TaskGraph g;
  const TaskId t = g.AddTask("t");
  g.AddImpl(t, SwImpl(700));
  Instance inst{"swonly", MakeSmallPlatform(), std::move(g)};
  const Schedule s = SchedulePa(inst);
  ASSERT_TRUE(ValidateSchedule(inst, s).ok());
  EXPECT_EQ(s.NumHardwareTasks(), 0u);
  EXPECT_EQ(s.makespan, 700);
  EXPECT_TRUE(s.regions.empty());
}

TEST(PaSchedulerTest, PrefersHardwareOnTies) {
  TaskGraph g;
  const TaskId t = g.AddTask("t");
  g.AddImpl(t, SwImpl(100));
  g.AddImpl(t, HwImpl(100, 200));
  Instance inst{"tie", MakeSmallPlatform(), std::move(g)};
  const Schedule s = SchedulePa(inst);
  EXPECT_EQ(s.NumHardwareTasks(), 1u);
}

TEST(PaSchedulerTest, ChainSharesRegionWithReconfigurations) {
  // Chain of equal 500-CLB tasks on a small device: capacity allows only a
  // few regions, so later tasks must reuse earlier regions with
  // reconfigurations in between (or fall back to software).
  TaskGraph g = testing::MakeChain(8, /*hw_time=*/4000, /*clb=*/1500,
                                   /*sw_time=*/40000);
  Instance inst{"chain", MakeSmallPlatform(), std::move(g)};
  const Schedule s = SchedulePa(inst);
  ASSERT_TRUE(ValidateSchedule(inst, s).ok()) << ValidateSchedule(inst, s)
                                                     .Summary();
  // The device fits at most 2 such regions (3200/1500); with 8 chain tasks
  // at least one region hosts multiple tasks.
  bool some_region_multi = false;
  for (const RegionInfo& r : s.regions) {
    if (r.tasks.size() > 1) some_region_multi = true;
  }
  EXPECT_TRUE(some_region_multi);
  EXPECT_FALSE(s.reconfigurations.empty());
}

TEST(PaSchedulerTest, DeterministicAcrossRuns) {
  const Instance inst =
      GenerateInstance(MakeZedBoard(), GeneratorOptions{}, 31, "det");
  const Schedule a = SchedulePa(inst);
  const Schedule b = SchedulePa(inst);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.task_slots.size(), b.task_slots.size());
  for (std::size_t t = 0; t < a.task_slots.size(); ++t) {
    EXPECT_EQ(a.task_slots[t].start, b.task_slots[t].start);
    EXPECT_EQ(a.task_slots[t].impl_index, b.task_slots[t].impl_index);
    EXPECT_EQ(a.task_slots[t].target_index, b.task_slots[t].target_index);
  }
}

TEST(PaSchedulerTest, MakespanRespectsCriticalPathLowerBound) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Instance inst =
        GenerateInstance(MakeZedBoard(), GeneratorOptions{}, seed, "lb");
    const Schedule s = SchedulePa(inst);
    EXPECT_GE(s.makespan, CriticalPathLowerBound(inst));
  }
}

TEST(PaSchedulerTest, FloorplanAttachedAndValid) {
  const Instance inst =
      GenerateInstance(MakeZedBoard(), GeneratorOptions{}, 5, "fp");
  const Schedule s = SchedulePa(inst);
  EXPECT_TRUE(s.floorplan_checked);
  ValidationOptions opt;
  opt.require_floorplan = true;
  EXPECT_TRUE(ValidateSchedule(inst, s, opt).ok());
}

TEST(PaSchedulerTest, NoFloorplanOptionSkipsCheck) {
  const Instance inst =
      GenerateInstance(MakeZedBoard(), GeneratorOptions{}, 5, "nofp");
  PaOptions opt;
  opt.run_floorplan = false;
  const Schedule s = SchedulePa(inst, opt);
  EXPECT_FALSE(s.floorplan_checked);
  EXPECT_TRUE(s.floorplan.empty());
  EXPECT_TRUE(ValidateSchedule(inst, s).ok());
}

TEST(PaSchedulerTest, TimingMetadataPopulated) {
  const Instance inst =
      GenerateInstance(MakeZedBoard(), GeneratorOptions{}, 5, "meta");
  const Schedule s = SchedulePa(inst);
  EXPECT_EQ(s.algorithm, "PA");
  EXPECT_GT(s.scheduling_seconds, 0.0);
  EXPECT_GT(s.floorplanning_seconds, 0.0);
}

// ---------------------------------------------------------------- ablations

TEST(PaSchedulerTest, AllOrderingsProduceValidSchedules) {
  const Instance inst =
      GenerateInstance(MakeZedBoard(), GeneratorOptions{}, 13, "ord");
  for (const NonCriticalOrder ord :
       {NonCriticalOrder::kEfficiency, NonCriticalOrder::kRandom,
        NonCriticalOrder::kFastestFirst, NonCriticalOrder::kGraphOrder}) {
    PaOptions opt;
    opt.ordering = ord;
    opt.seed = 99;
    const Schedule s = SchedulePa(inst, opt);
    EXPECT_TRUE(ValidateSchedule(inst, s).ok())
        << "ordering " << static_cast<int>(ord) << ": "
        << ValidateSchedule(inst, s).Summary();
  }
}

TEST(PaSchedulerTest, SwBalancingOffStillValid) {
  const Instance inst =
      GenerateInstance(MakeZedBoard(), GeneratorOptions{}, 29, "bal");
  PaOptions opt;
  opt.sw_balancing = false;
  const Schedule s = SchedulePa(inst, opt);
  EXPECT_TRUE(ValidateSchedule(inst, s).ok());
}

TEST(PaSchedulerTest, ModuleReuseSkipsReconfigurations) {
  // Chain of 6 tasks all sharing the same module: with reuse, a region can
  // run them back-to-back with zero reconfigurations.
  TaskGraph g;
  for (std::size_t i = 0; i < 6; ++i) {
    const TaskId t = g.AddTask(StrFormat("m%zu", i));
    g.AddImpl(t, SwImpl(50000));
    g.AddImpl(t, HwImpl(2000, 2500, 0, 0, /*module=*/7));
    if (i > 0) g.AddEdge(static_cast<TaskId>(i - 1), t);
  }
  Instance inst{"reuse", MakeSmallPlatform(), std::move(g)};

  PaOptions with_reuse;
  with_reuse.module_reuse = true;
  const Schedule a = SchedulePa(inst, with_reuse);
  ValidationOptions vopt;
  vopt.allow_module_reuse = true;
  ASSERT_TRUE(ValidateSchedule(inst, a, vopt).ok())
      << ValidateSchedule(inst, a, vopt).Summary();

  PaOptions without_reuse;
  without_reuse.module_reuse = false;
  const Schedule b = SchedulePa(inst, without_reuse);
  ASSERT_TRUE(ValidateSchedule(inst, b).ok());

  EXPECT_LT(a.reconfigurations.size(), b.reconfigurations.size());
  EXPECT_LE(a.makespan, b.makespan);
}

TEST(PaSchedulerTest, ModuleAwareRegionSelectionAvoidsReconfigs) {
  // Chain t0(m0) -> t1(m1) -> t2(m1), both modules 500 CLB, capacity for
  // exactly two regions. Region A hosts t0, region B hosts t1. For t2 the
  // two candidate regions tie on bitstream; only the module-aware
  // preference routes it after its same-module sibling in region B, which
  // removes every reconfiguration.
  const ResourceModel model = MakeClbBramDspModel();
  FabricGeometry geom = BuildInterleavedFabric(
      model, ResourceVec({1000, 10, 20}), {50, 5, 10}, 2);
  FpgaDevice device("mr", model, std::move(geom));
  Platform platform("mr", 1, std::move(device), 2.56e8);

  TaskGraph g;
  const TaskId t0 = g.AddTask("t0");
  const TaskId t1 = g.AddTask("t1");
  const TaskId t2 = g.AddTask("t2");
  g.AddEdge(t0, t1);
  g.AddEdge(t1, t2);
  g.AddImpl(t0, SwImpl(90000));
  g.AddImpl(t0, HwImpl(10000, 500, 0, 0, /*module=*/0));
  g.AddImpl(t1, SwImpl(90000));
  g.AddImpl(t1, HwImpl(10000, 500, 0, 0, /*module=*/1));
  g.AddImpl(t2, SwImpl(90000));
  g.AddImpl(t2, HwImpl(10000, 500, 0, 0, /*module=*/1));
  Instance inst{"mr", std::move(platform), std::move(g)};

  PaOptions reuse;
  reuse.module_reuse = true;
  const Schedule s = SchedulePa(inst, reuse);
  ValidationOptions vopt;
  vopt.allow_module_reuse = true;
  ASSERT_TRUE(ValidateSchedule(inst, s, vopt).ok())
      << ValidateSchedule(inst, s, vopt).Summary();
  EXPECT_EQ(s.NumHardwareTasks(), 3u);
  EXPECT_TRUE(s.reconfigurations.empty());
  EXPECT_EQ(s.makespan, 30000);
  // t1 and t2 share a region.
  EXPECT_EQ(s.task_slots[1].target_index, s.task_slots[2].target_index);
}

TEST(PaSchedulerTest, ZeroShrinkRoundsForcesAllSoftware) {
  const Instance inst =
      GenerateInstance(MakeZedBoard(), GeneratorOptions{}, 3, "allsw");
  PaOptions opt;
  opt.max_shrink_rounds = 0;  // round 0 already runs with zero capacity
  const Schedule s = SchedulePa(inst, opt);
  EXPECT_TRUE(ValidateSchedule(inst, s).ok());
  EXPECT_EQ(s.NumHardwareTasks(), 0u);
  EXPECT_TRUE(s.regions.empty());
}

// ---------------------------------------------------------------- sweeps

struct SweepParam {
  std::size_t num_tasks;
  std::uint64_t seed;
};

class PaValiditySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PaValiditySweep, ProducesValidSchedule) {
  const SweepParam p = GetParam();
  GeneratorOptions gen;
  gen.num_tasks = p.num_tasks;
  const Instance inst =
      GenerateInstance(MakeZedBoard(), gen, p.seed, "sweep");
  const Schedule s = SchedulePa(inst);
  const ValidationResult r = ValidateSchedule(inst, s);
  EXPECT_TRUE(r.ok()) << "n=" << p.num_tasks << " seed=" << p.seed << "\n"
                      << r.Summary();
  EXPECT_GE(s.makespan, CriticalPathLowerBound(inst));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PaValiditySweep,
    ::testing::Values(SweepParam{1, 4}, SweepParam{2, 8}, SweepParam{5, 1},
                      SweepParam{10, 2}, SweepParam{10, 3}, SweepParam{20, 4},
                      SweepParam{20, 5}, SweepParam{40, 6}, SweepParam{40, 7},
                      SweepParam{70, 8}, SweepParam{100, 9}),
    [](const ::testing::TestParamInfo<SweepParam>& param_info) {
      return StrFormat("n%zu_s%llu", param_info.param.num_tasks,
                       static_cast<unsigned long long>(param_info.param.seed));
    });

class PaSmallDeviceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PaSmallDeviceSweep, HighContentionStillValid) {
  // A small device forces heavy region reuse and software fallbacks.
  GeneratorOptions gen;
  gen.num_tasks = 25;
  const Instance inst = GenerateInstance(testing::MakeSmallPlatform(),
                                         gen, GetParam(), "tight");
  const Schedule s = SchedulePa(inst);
  const ValidationResult r = ValidateSchedule(inst, s);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaSmallDeviceSweep,
                         ::testing::Range<std::uint64_t>(100, 112));

}  // namespace
}  // namespace resched
