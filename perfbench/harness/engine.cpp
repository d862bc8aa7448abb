// engine workload: the core and floorplan layers alone.
//
// Per-call cost is heavy-tailed and set by the instance: a few region sets
// send the floorplanner into long searches. A small pool cycled many times
// would make the tail percentiles a property of a handful of instances, and
// a pool drawn per run seed would move them with the seed. So every call
// gets a distinct instance of one fixed suite (sizes 20, 40, ..., 100
// interleaved), the run seed only orders the calls, and every run solves
// the whole suite. Two generator threads double the calls a run measures.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "core/randomized.hpp"
#include "replay.hpp"
#include "sched/validator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace resched;

namespace {

constexpr std::uint64_t kInstanceStream = 0xE9E1'0000'0000'0001ULL;
constexpr std::uint64_t kSolveSeedStream = 0xE9E1'0000'0000'0002ULL;
constexpr std::uint64_t kCheckStream = 0xE9E1'0000'0000'0003ULL;
constexpr std::uint64_t kOrderStream = 0xE9E1'0000'0000'0004ULL;
constexpr std::size_t kThreads = 2;

struct EnginePool {
  std::vector<Instance> instances;
  std::vector<std::uint64_t> seeds;
  std::vector<std::size_t> order;  ///< call order, drawn from the run seed
};

EnginePool MakePool(const RunArgs& args, std::size_t count) {
  const JsonArray& sizes =
      args.config.At("workloads").At("engine").At("sizes").AsArray();
  EnginePool pool;
  pool.instances.reserve(count);
  for (std::size_t idx = 0; idx < count; ++idx) {
    const auto n = static_cast<std::size_t>(sizes[idx % sizes.size()].AsInt());
    pool.instances.push_back(
        MakeInstance(n, DeriveSeed(kSuiteSeed ^ kInstanceStream, idx),
                     "engine-" + std::to_string(n) + "-" + std::to_string(idx)));
    pool.seeds.push_back(DeriveSeed(kSuiteSeed ^ kSolveSeedStream, idx));
  }
  for (std::size_t idx = 0; idx < count; ++idx) pool.order.push_back(idx);
  Rng order(DeriveSeed(args.seed ^ kOrderStream, 0));
  order.Shuffle(pool.order);
  return pool;
}

PaROptions SolveOptions(std::uint64_t seed) {
  PaROptions par;
  par.threads = 1;
  par.max_iterations = 32;  // the service's default restart cap
  par.time_budget_seconds = 0.0;
  par.seed = seed;
  return par;
}

/// Solves every pool entry in the run's order from kThreads threads and
/// validates every result.
void MeasurePass(const RunArgs& args, const EnginePool& pool,
                 Report& report) {
  const std::size_t n = pool.instances.size();
  std::vector<double> ms(n, 0.0);
  std::vector<char> valid(n, 0);
  // By pool index: the suite and its solve seeds are the same on every
  // run, so the bytes and makespans repeat exactly whatever the run order.
  std::vector<std::string> bytes(n);
  std::vector<TimeT> makespan(n, 0);
  std::atomic<std::size_t> next{0};

  const Clock::time_point start = Clock::now();
  const auto worker = [&] {
    for (std::size_t k = next.fetch_add(1); k < n; k = next.fetch_add(1)) {
      const std::size_t idx = pool.order[k];
      const Instance& instance = pool.instances[idx];
      const Clock::time_point t0 = Clock::now();
      const PaRResult result =
          SchedulePaR(instance, SolveOptions(pool.seeds[idx]));
      ms[k] = MsBetween(t0, Clock::now());
      valid[k] = result.found && ValidateSchedule(instance, result.best).ok();
      bytes[idx] = ScheduleBytes(instance, result.best);
      makespan[idx] = result.best.makespan;
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  const double wall_s = SecondsBetween(start, Clock::now());

  Samples latency_ms;
  std::uint64_t invalid = 0;
  for (std::size_t k = 0; k < n; ++k) {
    latency_ms.Add(ms[k]);
    if (!valid[k]) ++invalid;
  }

  // Determinism: a seeded sample of the suite, solved again, must give the
  // same bytes.
  Rng rng(DeriveSeed(args.seed ^ kCheckStream, 0));
  std::size_t differ = 0;
  const std::size_t checks = args.smoke ? 1 : 4;
  for (std::size_t c = 0; c < checks; ++c) {
    const auto idx = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
    const PaRResult again =
        SchedulePaR(pool.instances[idx], SolveOptions(pool.seeds[idx]));
    if (ScheduleBytes(pool.instances[idx], again.best) != bytes[idx]) {
      ++differ;
    }
  }

  report.attempted = n;
  report.failed = invalid;
  double makespan_sum = 0.0;
  for (const TimeT m : makespan) makespan_sum += static_cast<double>(m);
  report.Add("latency_ms_p50", latency_ms.Quantile(50.0), "ms", n);
  report.Add("latency_ms_p99", latency_ms.Quantile(99.0), "ms", n);
  report.Add("throughput_rps", static_cast<double>(n) / wall_s, "1/s", n);
  // Generator ticks are microseconds.
  report.Add("makespan_mean_ms", makespan_sum / static_cast<double>(n) / 1e3,
             kMakespanUnit, n);
  report.Add("failed_frac",
             static_cast<double>(invalid) / static_cast<double>(n), "frac",
             n);
  report.Note("engine: " + std::to_string(n) +
              " distinct SchedulePaR calls from " + std::to_string(kThreads) +
              " threads in " + std::to_string(wall_s) + " s");
  report.Note("output_digest " + SetDigest(bytes) + " (" + std::to_string(n) +
              " suite schedules)");
  if (invalid != 0) {
    report.Fail(std::to_string(invalid) +
                " engine results failed ValidateSchedule");
  }
  if (differ != 0) {
    report.Fail(std::to_string(differ) + " of " + std::to_string(checks) +
                " repeated solves differ from the first solve");
  }
}

}  // namespace

void RunEngine(const RunArgs& args, Report& report) {
  // Sized so the seed commit takes about --seconds for the whole suite.
  const auto pool_size = static_cast<std::size_t>(
      std::ceil(ConfigNumber(args, "calls_per_s") * args.seconds));
  const std::size_t repeats = args.smoke ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  EnginePool pool;
  for (std::size_t r = 0; r < repeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    pool = MakePool(args, pool_size);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());

  if (!args.trace) {
    MeasurePass(args, pool, report);
  } else {
    // The traced engine run is the replay: pool entries through the timed
    // mirror, then through the library for the byte check. The mirror
    // versus library time of the same call is the tracing overhead.
    const auto replays = std::min<std::size_t>(
        pool.instances.size(),
        static_cast<std::size_t>(
            args.smoke ? 5.0 : ConfigNumber(args, "replay_calls")));
    LayerLedger ledger;
    for (std::size_t k = 0; k < replays; ++k) {
      const std::size_t idx = pool.order[k];
      const PaROptions par = SolveOptions(pool.seeds[idx]);
      (void)ReplayChecked(pool.instances[idx], par.base, &par, nullptr,
                          ledger);
    }
    report.attempted = ledger.compared;
    AddLedgerMetrics(ledger, report);
    report.Add("bench.trace_overhead_p50_frac",
               ledger.mirror_ms.Quantile(50.0) /
                       ledger.library_ms.Quantile(50.0) -
                   1.0,
               "frac", ledger.compared);
    report.Add("bench.trace_overhead_rps_frac",
               ledger.library_ms.Sum() / ledger.mirror_ms.Sum() - 1.0, "frac",
               ledger.compared);
  }
  report.Add("peak_rss_mb", PeakRssMb(), "MiB", 1);
}

}  // namespace perfbench
