// Micro-benchmarks (google-benchmark) for the individual components: CPM
// window recomputation, placement enumeration, floorplan feasibility
// queries, instance generation, the PA core and one IS-k window. These
// back the Table-I runtime decomposition with per-component numbers. The
// Ingest* cases time reschedd's request ingest stage by stage (run them
// alone with --benchmark_filter=Ingest).
#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "io/instance_hash.hpp"
#include "io/instance_io.hpp"
#include "service/protocol.hpp"
#include "taskgraph/timing.hpp"

#ifndef RESCHED_DATA_DIR
#error "RESCHED_DATA_DIR must be defined by the build"
#endif

using namespace resched;
using namespace resched::bench;

namespace {

Instance MakeBenchInstance(std::size_t n, std::uint64_t seed = 77) {
  GeneratorOptions gen;
  gen.num_tasks = n;
  return GenerateInstance(MakeZedBoard(), gen, seed, "micro");
}

void BM_GenerateInstance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeBenchInstance(n, seed++));
  }
}
BENCHMARK(BM_GenerateInstance)->Arg(10)->Arg(50)->Arg(100);

void BM_CpmWindows(benchmark::State& state) {
  const Instance inst = MakeBenchInstance(
      static_cast<std::size_t>(state.range(0)));
  TimingContext timing(inst.graph);
  for (std::size_t t = 0; t < inst.graph.NumTasks(); ++t) {
    timing.SetExecTime(static_cast<TaskId>(t),
                       inst.graph.GetTask(static_cast<TaskId>(t))
                           .impls.front()
                           .exec_time);
  }
  TimeT flip = 1000;
  for (auto _ : state) {
    // Alternate an exec time so every Windows() call recomputes.
    timing.SetExecTime(0, flip);
    flip = flip == 1000 ? 1001 : 1000;
    benchmark::DoNotOptimize(timing.Windows().makespan);
  }
}
BENCHMARK(BM_CpmWindows)->Arg(10)->Arg(50)->Arg(100);

void BM_EnumeratePlacements(benchmark::State& state) {
  const FpgaDevice device = MakeXc7z020();
  const Fabric fabric(device);
  const ResourceVec req(
      {state.range(1), state.range(1) / 100, state.range(1) / 50});
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateFeasiblePlacements(fabric, req));
  }
  (void)state.range(0);
}
BENCHMARK(BM_EnumeratePlacements)->Args({0, 500})->Args({0, 2000})
    ->Args({0, 6000});

void BM_FloorplanFeasible(benchmark::State& state) {
  const FpgaDevice device = MakeXc7z020();
  const auto regions = static_cast<std::size_t>(state.range(0));
  std::vector<ResourceVec> reqs(regions, ResourceVec({1200, 8, 10}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindFloorplan(device, reqs));
  }
}
BENCHMARK(BM_FloorplanFeasible)->Arg(2)->Arg(5)->Arg(8);

void BM_PaCore(benchmark::State& state) {
  const Instance inst = MakeBenchInstance(
      static_cast<std::size_t>(state.range(0)));
  PaOptions opt;
  opt.run_floorplan = false;
  Rng rng(1);
  const ResourceVec cap = inst.platform.Device().Capacity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunPaCore(inst, opt, cap, rng));
  }
}
BENCHMARK(BM_PaCore)->Arg(10)->Arg(50)->Arg(100);

void BM_PaWithFloorplan(benchmark::State& state) {
  const Instance inst = MakeBenchInstance(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchedulePa(inst));
  }
}
BENCHMARK(BM_PaWithFloorplan)->Arg(10)->Arg(50)->Arg(100);

void BM_Is1(benchmark::State& state) {
  const Instance inst = MakeBenchInstance(
      static_cast<std::size_t>(state.range(0)));
  IskOptions opt;
  opt.k = 1;
  opt.run_floorplan = false;
  const ResourceVec cap = inst.platform.Device().Capacity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunIskCore(inst, opt, cap));
  }
}
BENCHMARK(BM_Is1)->Arg(10)->Arg(50)->Arg(100);

void BM_Is5Window(benchmark::State& state) {
  const Instance inst = MakeBenchInstance(40);
  IskOptions opt;
  opt.k = 5;
  opt.node_budget = static_cast<std::size_t>(state.range(0));
  opt.run_floorplan = false;
  const ResourceVec cap = inst.platform.Device().Capacity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunIskCore(inst, opt, cap));
  }
}
BENCHMARK(BM_Is5Window)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_Validator(benchmark::State& state) {
  const Instance inst = MakeBenchInstance(
      static_cast<std::size_t>(state.range(0)));
  const Schedule s = SchedulePa(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidateSchedule(inst, s));
  }
}
BENCHMARK(BM_Validator)->Arg(10)->Arg(100);

/// A schedule request line carrying `instance` inline, as a client sends it.
std::string RequestLine(const JsonValue& instance) {
  JsonObject request;
  request["verb"] = "schedule";
  request["id"] = "bench";
  request["algo"] = "pa";
  request["instance"] = instance;
  return JsonValue(std::move(request)).Dump(-1);
}

void CountRequests(benchmark::State& state, std::size_t bytes) {
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}

void BM_IngestParseRequest(benchmark::State& state) {
  const std::string line = RequestLine(InstanceToJson(MakeBenchInstance(
      static_cast<std::size_t>(state.range(0)))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::ParseRequest(line));
  }
  CountRequests(state, line.size());
}
BENCHMARK(BM_IngestParseRequest)->Arg(40)->Arg(70)->Arg(100);

/// ParseRequest on the shipped data/instances/large_100.json; the perf
/// smoke gates its rate (tests/perf_baseline.txt, `ingest:` entry).
void BM_IngestParseRequestLarge100(benchmark::State& state) {
  std::ifstream in(std::string(RESCHED_DATA_DIR) +
                   "/instances/large_100.json");
  std::ostringstream text;
  text << in.rdbuf();
  const std::string line = RequestLine(JsonValue::Parse(text.str()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::ParseRequest(line));
  }
  CountRequests(state, line.size());
}
BENCHMARK(BM_IngestParseRequestLarge100);

void BM_IngestCanonicalInstanceText(benchmark::State& state) {
  const Instance inst =
      MakeBenchInstance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CanonicalInstanceText(inst));
  }
  CountRequests(state, CanonicalInstanceText(inst).size());
}
BENCHMARK(BM_IngestCanonicalInstanceText)->Arg(40)->Arg(70)->Arg(100);

void BM_IngestHashCanonicalText(benchmark::State& state) {
  const std::string text = CanonicalInstanceText(
      MakeBenchInstance(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashCanonicalText(text));
  }
  CountRequests(state, text.size());
}
BENCHMARK(BM_IngestHashCanonicalText)->Arg(40)->Arg(70)->Arg(100);

void BM_IngestInstanceToJsonDump(benchmark::State& state) {
  const Instance inst =
      MakeBenchInstance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(InstanceToJson(inst).Dump(-1));
  }
  CountRequests(state, CanonicalInstanceText(inst).size());
}
BENCHMARK(BM_IngestInstanceToJsonDump)->Arg(40)->Arg(70)->Arg(100);

}  // namespace

BENCHMARK_MAIN();
