// Pinned output bytes of PA, PA-R and PA-LS on the configurations the
// perfbench workloads never run: the Pynq-Z1, two reconfiguration
// controllers, the module-reuse extension, communication-overhead edge
// data, SW balancing off, every NonCriticalOrder, multi-threaded PA-R and
// PA-LS, over seeded 10-100-task instances.
//
// Each case's schedule is serialized with ScheduleToJson(...).Dump(-1),
// with the wall-clock `*_seconds` fields zeroed (as perfbench does), and
// hashed with HashCanonicalText. Every digest must match
// data/pa_golden.txt, which was recorded before the PA-R restart speed-ups
// of the §V-C region picks and the §V-G pick order: those changes must
// not move a byte. A failing case prints its current golden line.
//
// Four-thread PA-R pins the makespan only. Its candidate set and best
// makespan do not depend on the thread count, but among candidates of
// equal makespan the one a worker accepts first wins, so its bytes may
// vary from run to run.
//
// Regenerating the golden file (only for an intended output change): run
// the test, collect the `golden:` lines it prints, and list every moved
// line in CHANGES.md.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "arch/zynq.hpp"
#include "core/local_search.hpp"
#include "core/pa_scheduler.hpp"
#include "core/randomized.hpp"
#include "io/instance_hash.hpp"
#include "io/schedule_io.hpp"
#include "taskgraph/generator.hpp"

#ifndef RESCHED_TEST_DATA_DIR
#error "RESCHED_TEST_DATA_DIR must be defined by the build"
#endif

namespace resched {
namespace {

/// One instance together with the PA options every scheduler runs it with.
struct Scenario {
  std::string name;
  Instance instance;
  PaOptions base;
};

Instance Generate(const Platform& platform, std::size_t tasks,
                  std::uint64_t seed, const std::string& name,
                  double share_prob = 0.15, bool comm = false) {
  GeneratorOptions gen;
  gen.num_tasks = tasks;
  gen.share_prob = share_prob;
  if (comm) {
    gen.comm_bytes_lo = 256;
    gen.comm_bytes_hi = 1 << 20;
  }
  return GenerateInstance(platform, gen, seed, name);
}

std::vector<Scenario> Scenarios() {
  const Platform zed = MakeZedBoard();
  const Platform pynq = MakePynqZ1();
  std::vector<Scenario> out;
  std::uint64_t seed = 101;
  for (const std::size_t n : {10u, 25u, 50u, 100u}) {
    const std::string size = std::to_string(n);
    out.push_back({"zed" + size, Generate(zed, n, seed, "g-zed" + size), {}});
    out.push_back(
        {"pynq" + size, Generate(pynq, n, seed + 1, "g-pynq" + size), {}});
    seed += 2;
  }
  const Platform two = zed.WithReconfigurators(2);
  out.push_back({"twoctl30", Generate(two, 30, 201, "g-two30"), {}});
  out.push_back({"twoctl80", Generate(two, 80, 202, "g-two80"), {}});

  PaOptions reuse;
  reuse.module_reuse = true;
  out.push_back(
      {"reuse35", Generate(zed, 35, 301, "g-reuse35", 0.5), reuse});
  out.push_back(
      {"reuse70", Generate(pynq, 70, 302, "g-reuse70", 0.5), reuse});
  out.push_back({"reuse2ctl60", Generate(two, 60, 303, "g-reuse2ctl60", 0.5),
                 reuse});

  const Platform comm = pynq.WithHwSwBandwidth(4e8);
  out.push_back(
      {"comm20", Generate(comm, 20, 401, "g-comm20", 0.15, true), {}});
  out.push_back({"comm90", Generate(zed.WithHwSwBandwidth(2e8), 90, 402,
                                    "g-comm90", 0.15, true),
                 {}});

  PaOptions nobal;
  nobal.sw_balancing = false;
  out.push_back({"nobal40", Generate(zed, 40, 501, "g-nobal40"), nobal});
  out.push_back({"nobal60", Generate(pynq, 60, 502, "g-nobal60"), nobal});
  return out;
}

std::string ScheduleLine(const std::string& name, const Instance& instance,
                         Schedule schedule, bool with_bytes) {
  std::string line = name + " makespan=" + std::to_string(schedule.makespan);
  if (!with_bytes) return line;
  schedule.scheduling_seconds = 0.0;
  schedule.floorplanning_seconds = 0.0;
  const std::string bytes = ScheduleToJson(instance, schedule).Dump(-1);
  return line + " " + HashCanonicalText(bytes).ToHex();
}

std::map<std::string, std::string> LoadGolden() {
  std::ifstream in(std::string(RESCHED_TEST_DATA_DIR) + "/pa_golden.txt");
  std::map<std::string, std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    golden[line.substr(0, line.find(' '))] = line;
  }
  return golden;
}

/// Runs `schedule` on every scenario and compares each line with the
/// golden file's line of the same case name.
void ExpectPinned(const std::string& family,
                  const std::function<Schedule(const Scenario&)>& schedule,
                  bool with_bytes = true) {
  static const std::map<std::string, std::string> golden = LoadGolden();
  ASSERT_FALSE(golden.empty()) << "missing or empty data/pa_golden.txt";
  for (const Scenario& sc : Scenarios()) {
    const std::string name = family + "/" + sc.name;
    const std::string line =
        ScheduleLine(name, sc.instance, schedule(sc), with_bytes);
    const auto it = golden.find(name);
    if (it == golden.end() || it->second != line) {
      ADD_FAILURE() << "output bytes changed for " << name << "\n  want: "
                    << (it == golden.end() ? "<absent>" : it->second)
                    << "\ngolden: " << line;
    }
  }
}

PaROptions ParOptions(const Scenario& sc, std::size_t threads) {
  PaROptions par;
  par.time_budget_seconds = 0.0;
  par.max_iterations = 48;
  par.threads = threads;
  par.seed = 7;
  par.base = sc.base;
  return par;
}

TEST(PaGoldenTest, DeterministicPaBytesArePinned) {
  ExpectPinned("pa", [](const Scenario& sc) {
    return SchedulePa(sc.instance, sc.base);
  });
}

TEST(PaGoldenTest, EveryNonCriticalOrderIsPinned) {
  const std::pair<const char*, NonCriticalOrder> orders[] = {
      {"order-efficiency", NonCriticalOrder::kEfficiency},
      {"order-random", NonCriticalOrder::kRandom},
      {"order-fastest", NonCriticalOrder::kFastestFirst},
      {"order-graph", NonCriticalOrder::kGraphOrder},
      {"order-explicit", NonCriticalOrder::kExplicit},
  };
  for (const auto& [family, order] : orders) {
    ExpectPinned(family, [order = order](const Scenario& sc) {
      PaOptions options = sc.base;
      options.ordering = order;
      options.seed = 13;
      // Reverse id order: far from both the efficiency and the id order.
      for (std::size_t t = sc.instance.graph.NumTasks(); t-- > 0;) {
        options.explicit_order.push_back(static_cast<TaskId>(t));
      }
      return SchedulePa(sc.instance, options);
    });
  }
}

TEST(PaGoldenTest, SingleThreadPaRBytesArePinned) {
  ExpectPinned("par1", [](const Scenario& sc) {
    const PaRResult result = SchedulePaR(sc.instance, ParOptions(sc, 1));
    EXPECT_TRUE(result.found) << sc.name;
    return result.best;
  });
}

TEST(PaGoldenTest, FourThreadPaRMakespanIsPinned) {
  ExpectPinned(
      "par4",
      [](const Scenario& sc) {
        const PaRResult result = SchedulePaR(sc.instance, ParOptions(sc, 4));
        EXPECT_TRUE(result.found) << sc.name;
        return result.best;
      },
      /*with_bytes=*/false);
}

TEST(PaGoldenTest, PaLsBytesArePinned) {
  ExpectPinned("pals", [](const Scenario& sc) {
    PaLsOptions ls;
    ls.time_budget_seconds = 0.0;
    ls.max_iterations = 48;
    ls.seed = 11;
    ls.base = sc.base;
    const PaRResult result = SchedulePaLs(sc.instance, ls);
    EXPECT_TRUE(result.found) << sc.name;
    return result.best;
  });
}

}  // namespace
}  // namespace resched
