// Micro-benchmarks (google-benchmark) for the individual components: CPM
// window recomputation, placement enumeration, floorplan feasibility
// queries, instance generation, the PA core and one IS-k window. These
// back the Table-I runtime decomposition with per-component numbers. The
// Ingest* cases time reschedd's request ingest stage by stage (run them
// alone with --benchmark_filter=Ingest). The FloorplanCorpus*/
// FloorplanCatalog* cases time the floorplan layer on the fixed query
// corpus data/floorplan_corpus.txt (--benchmark_filter=Floorplan); when
// RESCHED_BENCH_OUT is set they also write their ledger, behaviour
// counters included, to $RESCHED_BENCH_OUT/micro_floorplan.csv.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "bench_common.hpp"
#include "floorplan/floorplan_cache.hpp"
#include "io/instance_hash.hpp"
#include "io/instance_io.hpp"
#include "io/schedule_io.hpp"
#include "service/protocol.hpp"
#include "taskgraph/timing.hpp"
#include "util/simd.hpp"

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

/// A timing context over a bench instance with every exec time set, and a
/// topological order of its tasks.
struct CpmFixture {
  explicit CpmFixture(std::size_t n)
      : inst(MakeBenchInstance(n)), timing(inst.graph),
        order(inst.graph.TopologicalOrder()) {
    SetExecTimes();
  }
  void SetExecTimes() {
    for (std::size_t t = 0; t < inst.graph.NumTasks(); ++t) {
      timing.SetExecTime(static_cast<TaskId>(t),
                         inst.graph.GetTask(static_cast<TaskId>(t))
                             .impls.front()
                             .exec_time);
    }
  }
  /// Restart reset outside the timed region, once per `period` mutations.
  void MaybeReset(benchmark::State& state, std::size_t& count,
                  std::size_t period) {
    if (++count < period) return;
    count = 0;
    state.PauseTiming();
    timing.Reset();
    SetExecTimes();
    benchmark::DoNotOptimize(timing.Makespan());
    state.ResumeTiming();
  }

  Instance inst;
  TimingContext timing;
  std::vector<TaskId> order;
};

// Full CPM: an exec-time decrease is not monotone, so every read reruns
// the forward sweep, then Windows() adds the backward sweep.
void BM_CpmFullSweep(benchmark::State& state) {
  CpmFixture f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    f.timing.SetExecTime(0, 1001);
    f.timing.SetExecTime(0, 1000);
    benchmark::DoNotOptimize(f.timing.Windows().makespan);
  }
}
BENCHMARK(BM_CpmFullSweep)->Arg(10)->Arg(50)->Arg(100);

// The PA hot-loop pattern: serialize two tasks a few topological positions
// apart, then read T_MIN (seed propagation only).
void BM_CpmIncrementalEdge(benchmark::State& state) {
  CpmFixture f(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = f.order.size();
  Rng rng(7);
  std::size_t count = 0;
  for (auto _ : state) {
    const auto a = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 2));
    const std::size_t b =
        std::min(n - 1, a + static_cast<std::size_t>(rng.UniformInt(1, 8)));
    f.timing.AddOrderingEdge(f.order[a], f.order[b], 0);
    benchmark::DoNotOptimize(f.timing.EarliestStarts().data());
    f.MaybeReset(state, count, 2 * n);
  }
}
BENCHMARK(BM_CpmIncrementalEdge)->Arg(10)->Arg(50)->Arg(100);

// §V-G delay propagation: raise one task's release past its T_MIN, then
// read T_MIN.
void BM_CpmIncrementalRelease(benchmark::State& state) {
  CpmFixture f(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = f.order.size();
  Rng rng(7);
  std::size_t count = 0;
  for (auto _ : state) {
    const TaskId t = f.order[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 1))];
    const TimeT es = f.timing.EarliestStarts()[static_cast<std::size_t>(t)];
    f.timing.RaiseRelease(t, es + rng.UniformInt(1, 500));
    benchmark::DoNotOptimize(f.timing.EarliestStarts().data());
    f.MaybeReset(state, count, 2 * n);
  }
}
BENCHMARK(BM_CpmIncrementalRelease)->Arg(10)->Arg(50)->Arg(100);

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

/// One query of data/floorplan_corpus.txt with the verdict it recorded.
struct CorpusQuery {
  std::string outcome;
  std::size_t nodes = 0;
  std::vector<ResourceVec> regions;
};

std::vector<CorpusQuery> LoadFloorplanCorpus() {
  std::ifstream in(std::string(RESCHED_DATA_DIR) + "/floorplan_corpus.txt");
  std::vector<CorpusQuery> corpus;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    CorpusQuery query;
    std::string bar;
    fields >> query.outcome >> query.nodes >> bar;
    std::int64_t clb = 0;
    std::int64_t bram = 0;
    std::int64_t dsp = 0;
    char comma = 0;
    while (fields >> clb >> comma >> bram >> comma >> dsp) {
      query.regions.push_back(ResourceVec({clb, bram, dsp}));
    }
    corpus.push_back(std::move(query));
  }
  return corpus;
}

/// The engine's floorplan options; the node budget makes the counters a
/// function of the code.
FloorplanOptions CorpusOptions() {
  FloorplanOptions options;
  options.max_nodes = 2'000'000;
  options.max_placements_per_region = 4096;
  return options;
}

/// Every distinct requirement of the corpus, in first-seen order.
std::vector<ResourceVec> CorpusRequirements(
    const std::vector<CorpusQuery>& corpus) {
  std::vector<ResourceVec> reqs;
  for (const CorpusQuery& query : corpus) {
    for (const ResourceVec& req : query.regions) {
      if (std::find(reqs.begin(), reqs.end(), req) == reqs.end()) {
        reqs.push_back(req);
      }
    }
  }
  return reqs;
}

/// The DFS alone: every corpus query solved over prebuilt catalogs, as a
/// FloorplanCache miss does. One iteration is one pass over the corpus;
/// items are DFS nodes, so items_per_second is the nodes/s the perf smoke
/// gates (`floorplan:corpus`).
void BM_FloorplanCorpusSolve(benchmark::State& state) {
  const FpgaDevice device = MakeXc7z020();
  const Fabric fabric(device);
  const FloorplanOptions options = CorpusOptions();
  const std::vector<CorpusQuery> corpus = LoadFloorplanCorpus();
  FloorplanCache cache(device);
  std::vector<std::shared_ptr<const PlacementSet>> catalog;
  std::vector<std::vector<const PlacementSet*>> candidates;
  for (const CorpusQuery& query : corpus) {
    candidates.emplace_back();
    for (const ResourceVec& req : query.regions) {
      catalog.push_back(
          cache.Placements(req, options.max_placements_per_region));
      candidates.back().push_back(catalog.back().get());
    }
  }
  std::size_t nodes = 0;
  std::size_t feasible = 0;
  std::size_t exhausted = 0;
  for (auto _ : state) {
    nodes = feasible = exhausted = 0;
    for (std::size_t q = 0; q < corpus.size(); ++q) {
      const FloorplanResult r =
          SolveFloorplanFeasibility(fabric, candidates[q], options);
      benchmark::DoNotOptimize(r.rects.data());
      const char* outcome = r.budget_exhausted ? "exhausted"
                            : r.feasible       ? "feasible"
                                               : "infeasible";
      if (r.nodes_explored != corpus[q].nodes ||
          corpus[q].outcome != outcome) {
        state.SkipWithError("corpus query disagrees with its recorded verdict");
        return;
      }
      nodes += r.nodes_explored;
      feasible += r.feasible ? 1 : 0;
      exhausted += r.budget_exhausted ? 1 : 0;
    }
  }
  state.counters["queries"] = static_cast<double>(corpus.size());
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["feasible"] = static_cast<double>(feasible);
  state.counters["exhausted"] = static_cast<double>(exhausted);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_FloorplanCorpusSolve)->Unit(benchmark::kMillisecond);

/// The catalog alone: enumeration plus dominance prune plus candidate
/// columns for every distinct corpus requirement, as FloorplanCache
/// builds them on a catalog miss. Items are catalog builds.
void BM_FloorplanCatalogBuild(benchmark::State& state) {
  const FpgaDevice device = MakeXc7z020();
  const Fabric fabric(device);
  const std::size_t cap = CorpusOptions().max_placements_per_region;
  const std::vector<ResourceVec> reqs =
      CorpusRequirements(LoadFloorplanCorpus());
  std::size_t placements = 0;
  for (auto _ : state) {
    placements = 0;
    for (const ResourceVec& req : reqs) {
      const PlacementSet set = EnumeratePrunedPlacementSet(fabric, req, cap);
      benchmark::DoNotOptimize(set.key_columns.data());
      placements += set.rects.size();
    }
  }
  state.counters["requirements"] = static_cast<double>(reqs.size());
  state.counters["placements"] = static_cast<double>(placements);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(reqs.size()));
}
BENCHMARK(BM_FloorplanCatalogBuild)->Unit(benchmark::kMillisecond);

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

/// The writer path behind every schedule response body: build the
/// schedule DOM and serialize it compact.
void BM_IngestScheduleToJsonDump(benchmark::State& state) {
  const Instance inst =
      MakeBenchInstance(static_cast<std::size_t>(state.range(0)));
  const Schedule schedule = SchedulePa(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScheduleToJson(inst, schedule).Dump(-1));
  }
  CountRequests(state, ScheduleToJson(inst, schedule).Dump(-1).size());
}
BENCHMARK(BM_IngestScheduleToJsonDump)->Arg(40)->Arg(70)->Arg(100);

/// Display reporter (whatever --benchmark_format selects) that also
/// collects the runs of the cases carrying a behaviour counter (the
/// Floorplan* ledger) and writes them as micro_floorplan.csv: one row per
/// case, the median pass time and rate over repetitions and the counters
/// as exact integers.
class FloorplanLedger : public benchmark::BenchmarkReporter {
 public:
  explicit FloorplanLedger(benchmark::BenchmarkReporter* display)
      : display_(display) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void Finalize() override { display_->Finalize(); }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      if (run.counters.count("nodes") == 0 &&
          run.counters.count("placements") == 0) {
        continue;
      }
      Row& row = rows_[run.run_name.function_name];
      row.pass_ms.push_back(run.GetAdjustedRealTime());
      for (const auto& [name, counter] : run.counters) {
        row.counters[name] = counter.value;
      }
      const auto rate = run.counters.find("items_per_second");
      row.items_per_second.push_back(
          rate == run.counters.end() ? 0.0 : rate->second.value);
    }
    display_->ReportRuns(runs);
  }

  void Write(const BenchConfig& config) const {
    if (rows_.empty()) return;
    const auto count = [](const Row& row, const char* name) {
      const auto it = row.counters.find(name);
      return it == row.counters.end()
                 ? std::string()
                 : std::to_string(static_cast<std::uint64_t>(it->second));
    };
    const auto median = [](std::vector<double> values) {
      std::sort(values.begin(), values.end());
      return values[values.size() / 2];
    };
    // Same layout as the committed before/after table, so
    // `scripts/bench_to_json.py --diff` pairs rows on (case, impl, simd).
    const std::string simd_name = simd::BackendName(simd::ActiveBackend());
    std::vector<std::vector<std::string>> out;
    for (const auto& [name, row] : rows_) {
      out.push_back({name.substr(name.rfind('_') + 1), "current", simd_name,
                     count(row, "queries"), count(row, "nodes"),
                     count(row, "feasible"), count(row, "exhausted"),
                     count(row, "requirements"), count(row, "placements"),
                     StrFormat("%.2f", median(row.pass_ms)),
                     StrFormat("%.0f", median(row.items_per_second))});
    }
    WriteCsv(config, "micro_floorplan",
             {"case", "impl", "simd", "queries", "nodes", "feasible",
              "exhausted", "requirements", "placements", "pass_ms",
              "items_per_sec"},
             out);
  }

 private:
  struct Row {
    std::vector<double> pass_ms;
    std::map<std::string, double> counters;
    std::vector<double> items_per_second;
  };
  benchmark::BenchmarkReporter* display_;
  std::map<std::string, Row> rows_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  FloorplanLedger ledger(benchmark::CreateDefaultDisplayReporter());
  benchmark::RunSpecifiedBenchmarks(&ledger);
  benchmark::Shutdown();
  if (std::getenv("RESCHED_BENCH_OUT") != nullptr) ledger.Write(LoadConfig());
  return 0;
}
