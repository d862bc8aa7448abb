// Property-based tests: randomized sweeps asserting structural invariants
// rather than concrete values.
//
//   * CPM windows satisfy every precedence/gap/release constraint and the
//     criticality definition on random DAGs with random ordering edges;
//   * JSON values round-trip through Dump/Parse for every indent mode;
//   * the floorplanner agrees with an independent brute-force oracle on
//     tiny fabrics;
//   * the validator never crashes on randomly mutated schedules and stays
//     deterministic.
#include <gtest/gtest.h>

#include "core/pa_scheduler.hpp"
#include "floorplan/floorplanner.hpp"
#include "sched/validator.hpp"
#include "sim/executor.hpp"
#include "sim/faults.hpp"
#include "taskgraph/generator.hpp"
#include "taskgraph/timing.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"

namespace resched {
namespace {

// ---------------------------------------------------------------- timing

class TimingPropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimingPropertySweep, WindowInvariantsHold) {
  Rng rng(GetParam());

  // Random DAG.
  const auto n = static_cast<std::size_t>(rng.UniformInt(2, 30));
  TaskGraph g;
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId t = g.AddTask(StrFormat("t%zu", i));
    g.AddImpl(t, testing::SwImpl(rng.UniformInt(1, 500)));
  }
  for (std::size_t b = 1; b < n; ++b) {
    const auto parents = static_cast<std::size_t>(rng.UniformInt(0, 2));
    for (std::size_t k = 0; k < parents; ++k) {
      g.AddEdge(static_cast<TaskId>(
                    rng.UniformInt(0, static_cast<std::int64_t>(b) - 1)),
                static_cast<TaskId>(b));
    }
  }

  TimingContext timing(g);
  for (std::size_t t = 0; t < n; ++t) {
    timing.SetExecTime(static_cast<TaskId>(t), rng.UniformInt(1, 500));
  }
  // Random base edge gaps and releases.
  for (std::size_t t = 0; t < n; ++t) {
    for (const TaskId s : g.Successors(static_cast<TaskId>(t))) {
      if (rng.Bernoulli(0.3)) {
        timing.SetBaseEdgeGap(static_cast<TaskId>(t), s,
                              rng.UniformInt(0, 50));
      }
    }
    if (rng.Bernoulli(0.2)) {
      timing.RaiseRelease(static_cast<TaskId>(t), rng.UniformInt(0, 300));
    }
  }
  // Random (acyclic) extra ordering edges: only lower id -> higher id.
  for (int k = 0; k < 5; ++k) {
    const auto a = static_cast<TaskId>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 2));
    const auto b = static_cast<TaskId>(
        rng.UniformInt(a + 1, static_cast<std::int64_t>(n) - 1));
    try {
      timing.AddOrderingEdge(a, b, rng.UniformInt(0, 40));
    } catch (const InternalError&) {
      // Edge would close a cycle against a base edge; skip.
    }
  }

  const TimeWindows& win = timing.Windows();

  TimeT max_end = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const TimeT es = win.earliest_start[t];
    const TimeT lf = win.latest_finish[t];
    const TimeT exec = timing.ExecTime(static_cast<TaskId>(t));
    // Window sanity.
    EXPECT_GE(es, timing.Release(static_cast<TaskId>(t)));
    EXPECT_GE(lf - es, exec);
    EXPECT_EQ(win.critical[t], lf - es == exec);
    max_end = std::max(max_end, es + exec);
  }
  EXPECT_EQ(win.makespan, max_end);

  // Edge constraints on earliest starts AND latest finishes.
  for (std::size_t a = 0; a < n; ++a) {
    const TimeT exec_a = timing.ExecTime(static_cast<TaskId>(a));
    for (const TaskId b : g.Successors(static_cast<TaskId>(a))) {
      const auto bi = static_cast<std::size_t>(b);
      const TimeT gap = timing.BaseEdgeGap(static_cast<TaskId>(a), b);
      EXPECT_GE(win.earliest_start[bi],
                win.earliest_start[a] + exec_a + gap);
      EXPECT_LE(win.latest_finish[a] + gap +
                    timing.ExecTime(b),
                win.latest_finish[bi]);
    }
  }
  for (const OrderingEdge& e : timing.ExtraEdges()) {
    const auto ai = static_cast<std::size_t>(e.from);
    const auto bi = static_cast<std::size_t>(e.to);
    EXPECT_GE(win.earliest_start[bi],
              win.earliest_start[ai] +
                  timing.ExecTime(e.from) + e.gap);
  }

  // A critical task attains time 0 and another attains the makespan.
  bool critical_at_zero = false;
  bool critical_at_end = false;
  for (std::size_t t = 0; t < n; ++t) {
    if (!win.critical[t]) continue;
    // With releases, the earliest critical start is the release, not
    // necessarily 0; check end attainment only.
    if (win.earliest_start[t] + timing.ExecTime(static_cast<TaskId>(t)) ==
        win.makespan) {
      critical_at_end = true;
    }
    critical_at_zero = true;
  }
  EXPECT_TRUE(critical_at_zero);  // some critical task exists
  EXPECT_TRUE(critical_at_end);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimingPropertySweep,
                         ::testing::Range<std::uint64_t>(1, 25));

// ---------------------------------------------------------------- json

JsonValue RandomJson(Rng& rng, int depth) {
  const std::int64_t kind = rng.UniformInt(0, depth <= 0 ? 4 : 6);
  switch (kind) {
    case 0: return JsonValue(nullptr);
    case 1: return JsonValue(rng.Bernoulli(0.5));
    case 2: return JsonValue(rng.UniformInt(-1'000'000'000, 1'000'000'000));
    case 3: {
      // Dyadic doubles survive round-trip exactly.
      return JsonValue(static_cast<double>(rng.UniformInt(-4096, 4096)) /
                       64.0);
    }
    case 4: {
      std::string s;
      const auto len = static_cast<std::size_t>(rng.UniformInt(0, 12));
      for (std::size_t i = 0; i < len; ++i) {
        // Mix printable ASCII with characters needing escapes.
        const char* pool = "ab\"\\\n\t {}[]:,\xC3\xA9";
        s += pool[static_cast<std::size_t>(
            rng.UniformInt(0, 13))];
      }
      return JsonValue(std::move(s));
    }
    case 5: {
      JsonArray arr;
      const auto len = static_cast<std::size_t>(rng.UniformInt(0, 4));
      for (std::size_t i = 0; i < len; ++i) {
        arr.push_back(RandomJson(rng, depth - 1));
      }
      return JsonValue(std::move(arr));
    }
    default: {
      JsonObject obj;
      const auto len = static_cast<std::size_t>(rng.UniformInt(0, 4));
      for (std::size_t i = 0; i < len; ++i) {
        obj.emplace(StrFormat("k%zu", i), RandomJson(rng, depth - 1));
      }
      return JsonValue(std::move(obj));
    }
  }
}

class JsonRoundTripSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonRoundTripSweep, DumpParseIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const JsonValue v = RandomJson(rng, 3);
    for (const int indent : {-1, 0, 2, 4}) {
      const JsonValue back = JsonValue::Parse(v.Dump(indent));
      EXPECT_EQ(back, v) << v.Dump(2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripSweep,
                         ::testing::Range<std::uint64_t>(100, 108));

// ---------------------------------------------------------------- floorplan

/// Independent brute-force feasibility oracle: enumerates ALL rectangles
/// per region (not just minimal ones) and tries every combination.
bool BruteForceFeasible(const FpgaDevice& device,
                        const std::vector<ResourceVec>& regions) {
  const Fabric fabric(device);
  std::vector<std::vector<Rect>> all(regions.size());
  for (std::size_t i = 0; i < regions.size(); ++i) {
    for (std::size_t h = 1; h <= fabric.Rows(); ++h) {
      for (std::size_t r0 = 0; r0 + h <= fabric.Rows(); ++r0) {
        for (std::size_t c0 = 0; c0 < fabric.Columns(); ++c0) {
          for (std::size_t w = 1; c0 + w <= fabric.Columns(); ++w) {
            if (regions[i].FitsWithin(fabric.RectResources(c0, w, h))) {
              all[i].push_back(Rect{c0, r0, w, h});
            }
          }
        }
      }
    }
    if (all[i].empty()) return false;
  }
  // DFS over combinations.
  std::vector<Rect> chosen(regions.size());
  std::function<bool(std::size_t)> dfs = [&](std::size_t depth) {
    if (depth == regions.size()) return true;
    for (const Rect& rect : all[depth]) {
      bool clash = false;
      for (std::size_t d = 0; d < depth; ++d) {
        if (rect.Overlaps(chosen[d])) {
          clash = true;
          break;
        }
      }
      if (clash) continue;
      chosen[depth] = rect;
      if (dfs(depth + 1)) return true;
    }
    return false;
  };
  return dfs(0);
}

class FloorplanOracleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FloorplanOracleSweep, MatchesBruteForce) {
  Rng rng(GetParam());
  // Tiny random fabric: 4-7 columns x 2 rows.
  const ResourceModel model = MakeClbBramDspModel();
  FabricGeometry geom;
  geom.rows = 2;
  const auto cols = static_cast<std::size_t>(rng.UniformInt(4, 7));
  for (std::size_t c = 0; c < cols; ++c) {
    const auto kind =
        static_cast<ResourceKind>(rng.UniformInt(0, 2));
    const std::int64_t units = kind == 0 ? 100 : (kind == 1 ? 10 : 20);
    geom.columns.push_back(ColumnSpec{kind, units});
  }
  // Ensure at least one CLB column so CLB demands are satisfiable.
  geom.columns[0] = ColumnSpec{0, 100};
  const FpgaDevice device("tiny", model, geom);

  // 1-3 random regions.
  const auto num_regions = static_cast<std::size_t>(rng.UniformInt(1, 3));
  std::vector<ResourceVec> regions;
  for (std::size_t i = 0; i < num_regions; ++i) {
    ResourceVec r({rng.UniformInt(50, 250),
                   rng.Bernoulli(0.4) ? rng.UniformInt(1, 15) : 0,
                   rng.Bernoulli(0.4) ? rng.UniformInt(1, 25) : 0});
    regions.push_back(r);
  }

  FloorplanOptions options;
  options.max_nodes = 0;
  options.time_budget_seconds = 0.0;  // exhaustive
  const FloorplanResult got = FindFloorplan(device, regions, options);
  ASSERT_FALSE(got.budget_exhausted);
  const bool expected = BruteForceFeasible(device, regions);
  EXPECT_EQ(got.feasible, expected);
  if (got.feasible) {
    EXPECT_TRUE(IsValidFloorplan(device, regions, got.rects));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FloorplanOracleSweep,
                         ::testing::Range<std::uint64_t>(200, 230));

// ---------------------------------------------------------------- validator

class ValidatorFuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ValidatorFuzzSweep, MutationsNeverCrashAndStayDeterministic) {
  Rng rng(GetParam());
  GeneratorOptions gen;
  gen.num_tasks = 15;
  const Instance inst =
      GenerateInstance(MakeZedBoard(), gen, GetParam(), "fuzz");
  const Schedule base = SchedulePa(inst);
  ASSERT_TRUE(ValidateSchedule(inst, base).ok());

  for (int i = 0; i < 40; ++i) {
    Schedule mutated = base;
    const std::int64_t mutation = rng.UniformInt(0, 5);
    const auto t = static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(mutated.task_slots.size()) - 1));
    switch (mutation) {
      case 0: {  // shift a slot
        const TimeT delta = rng.UniformInt(-5000, 5000);
        mutated.task_slots[t].start += delta;
        mutated.task_slots[t].end += delta;
        break;
      }
      case 1:  // change slot length
        mutated.task_slots[t].end += rng.UniformInt(1, 1000);
        break;
      case 2:  // retarget
        mutated.task_slots[t].target_index += 1;
        break;
      case 3:  // drop a reconfiguration
        if (!mutated.reconfigurations.empty()) {
          mutated.reconfigurations.pop_back();
        }
        break;
      case 4:  // shrink a region
        if (!mutated.regions.empty()) {
          mutated.regions[0].res = mutated.regions[0].res.ScaledDown(0.5);
        }
        break;
      default:  // corrupt the makespan
        mutated.makespan += rng.UniformInt(1, 100);
    }
    const ValidationResult first = ValidateSchedule(inst, mutated);
    const ValidationResult second = ValidateSchedule(inst, mutated);
    EXPECT_EQ(first.violations, second.violations);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidatorFuzzSweep,
                         ::testing::Range<std::uint64_t>(300, 308));

// ---------------------------------------------------------------- schedulers

class SchedulerInvariantSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerInvariantSweep, PaInvariantsOnRandomShapes) {
  Rng rng(GetParam());
  GeneratorOptions gen;
  gen.num_tasks = static_cast<std::size_t>(rng.UniformInt(3, 60));
  gen.max_width = static_cast<std::size_t>(rng.UniformInt(1, 12));
  gen.sw_slowdown_lo = 1.5;
  gen.sw_slowdown_hi = rng.UniformDouble(2.0, 8.0);
  gen.share_prob = rng.UniformDouble(0.0, 0.5);
  const Instance inst =
      GenerateInstance(MakeZedBoard(), gen, GetParam() * 7919, "shape");
  const Schedule s = SchedulePa(inst);
  const ValidationResult r = ValidateSchedule(inst, s);
  EXPECT_TRUE(r.ok()) << "n=" << gen.num_tasks << "\n" << r.Summary();
  // Makespan bounded below by every task's fastest implementation.
  for (std::size_t t = 0; t < inst.graph.NumTasks(); ++t) {
    EXPECT_GE(s.makespan,
              s.task_slots[t].end - s.task_slots[t].start);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerInvariantSweep,
                         ::testing::Range<std::uint64_t>(400, 420));

// ----------------------------------------------------------------- simulator

class SimulatorPropertySweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorPropertySweep, ZeroJitterZeroFaultNeverStretches) {
  // With nominal durations and no faults the replay can only compact
  // schedule slack, and the explicitly-empty scenario must reproduce the
  // default (pre-fault) executor bit for bit.
  GeneratorOptions gen;
  gen.num_tasks = 25 + GetParam() % 20;
  const Instance inst =
      GenerateInstance(MakeZedBoard(), gen, GetParam(), "simprop");
  const Schedule s = SchedulePa(inst);
  const sim::SimResult base = sim::Simulate(inst, s);
  EXPECT_LE(base.stretch, 1.0);
  EXPECT_LE(base.makespan, s.makespan);

  sim::SimOptions empty_scenario;
  empty_scenario.faults = sim::FaultScenario{};
  const sim::SimResult same = sim::Simulate(inst, s, empty_scenario);
  EXPECT_EQ(base.makespan, same.makespan);
  EXPECT_EQ(base.task_start, same.task_start);
  EXPECT_EQ(base.task_end, same.task_end);
}

TEST_P(SimulatorPropertySweep, FaultedReplaySurvivesRandomShapes) {
  Rng rng(GetParam() ^ 0xFA017);
  GeneratorOptions gen;
  gen.num_tasks = static_cast<std::size_t>(rng.UniformInt(5, 45));
  gen.max_width = static_cast<std::size_t>(rng.UniformInt(1, 10));
  const Instance inst =
      GenerateInstance(MakeZedBoard(), gen, GetParam() * 104729, "simshape");
  const Schedule s = SchedulePa(inst);
  sim::SimOptions opt;
  opt.task_jitter = 0.3;
  opt.reconf_jitter = 0.3;
  opt.seed = DeriveSeed(kJitterSeedStream, GetParam());
  opt.faults = sim::GenerateFaultScenario(
      s, sim::UniformFaultRates(0.35), DeriveSeed(kFaultSeedStream, GetParam()));
  opt.recovery.policy = static_cast<RecoveryPolicy>(GetParam() % 3);
  const sim::SimResult r = sim::Simulate(inst, s, opt);
  EXPECT_TRUE(r.recovery.survived);
  ValidationOptions vopt;
  vopt.executed = true;
  vopt.outages = sim::OutagesFromScenario(opt.faults);
  const ValidationResult v = ValidateSchedule(inst, r.executed, vopt);
  EXPECT_TRUE(v.ok()) << v.Summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorPropertySweep,
                         ::testing::Range<std::uint64_t>(500, 515));

}  // namespace
}  // namespace resched
