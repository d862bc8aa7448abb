// Micro-benchmark for the PR-4 restart hot path: PA-R restarts/second and
// heap allocations/restart, comparing
//
//   legacy       — rebuild the full per-iteration state every restart and
//                  solve every floorplan query from scratch (pre-PR-4),
//   reuse        — shared PaContext + per-worker reusable PaScratch,
//   reuse+cache  — reuse plus the shared floorplan-feasibility cache
//                  (the production configuration).
//
// All legs are bit-identical by construction (per-iteration RNG streams,
// replay-exact cache hits); the harness aborts if any leg disagrees on the
// best makespan, so a speedup here can never hide a behaviour change. The
// workload is the Fig. 6 convergence setup (one suite instance per size)
// under a fixed iteration cap, at 1 and 8 worker threads. Rows carry
// impl=current, so `scripts/bench_to_json.py --diff` pairs a fresh run with
// the newest side of the committed before/after table.
//
// Allocations are counted by replacing global operator new with a relaxed
// atomic counter; new[] and the nothrow/aligned forms forward here, so the
// count covers every heap allocation in the process.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>

#include "bench_common.hpp"
#include "util/simd.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto al = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + al - 1) / al * al;
  if (void* p = std::aligned_alloc(al, rounded ? rounded : al)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace resched;
using namespace resched::bench;

namespace {

struct Mode {
  const char* name;
  bool reuse_scratch;
  bool floorplan_cache;
};

constexpr Mode kModes[] = {
    {"legacy", false, false},
    {"reuse", true, false},
    {"reuse+cache", true, true},
};

}  // namespace

int main() {
  const BenchConfig config = LoadConfig();
  const auto iterations = static_cast<std::size_t>(
      std::max(64.0, 192.0 * config.scale));
  std::cout << "=== micro_restart: PA-R restart throughput ("
            << iterations << " restarts/leg) ===\n";

  std::vector<std::vector<std::string>> csv_rows;
  double speedup_product_8t = 1.0;
  std::size_t speedup_count_8t = 0;
  for (const std::size_t n : {20u, 40u, 80u, 100u}) {
    const Instance instance = Group(config, n).front();
    std::cout << "\n-- " << instance.name << " (" << n << " tasks) --\n";
    PrintRow({"mode", "threads", "restarts/s", "allocs/iter", "hit rate",
              "makespan[ms]"});

    TimeT reference_makespan = 0;
    double legacy_rate[2] = {0.0, 0.0};  // indexed by (threads == 8)
    for (const Mode& mode : kModes) {
      for (const std::size_t threads : {1u, 8u}) {
        PaROptions opt;
        opt.max_iterations = iterations;
        opt.time_budget_seconds = 0.0;
        opt.threads = threads;
        opt.seed = 2016;
        opt.reuse_scratch = mode.reuse_scratch;
        opt.base.floorplan_cache = mode.floorplan_cache;

        const std::uint64_t allocs_before =
            g_allocs.load(std::memory_order_relaxed);
        const PaRResult result = SchedulePaR(instance, opt);
        const std::uint64_t allocs =
            g_allocs.load(std::memory_order_relaxed) - allocs_before;

        if (!result.found) {
          std::cerr << "FATAL: no schedule found for " << instance.name
                    << "\n";
          return 1;
        }
        // Every leg must agree: the hot path is an optimization, not a
        // behaviour change.
        if (reference_makespan == 0) {
          reference_makespan = result.best.makespan;
        } else if (result.best.makespan != reference_makespan) {
          std::cerr << "FATAL: makespan mismatch in mode " << mode.name
                    << " threads=" << threads << ": "
                    << result.best.makespan << " vs " << reference_makespan
                    << "\n";
          return 1;
        }

        const double rate =
            static_cast<double>(result.iterations) / result.seconds;
        const double allocs_per_iter =
            static_cast<double>(allocs) /
            static_cast<double>(result.iterations);
        const FloorplanCacheStats& fc = result.floorplan_cache;
        if (!mode.reuse_scratch && !mode.floorplan_cache) {
          legacy_rate[threads == 8u] = rate;
        }

        PrintRow({mode.name, std::to_string(threads),
                  StrFormat("%.0f", rate), StrFormat("%.1f", allocs_per_iter),
                  StrFormat("%.2f", fc.HitRate()),
                  StrFormat("%.2f",
                            static_cast<double>(result.best.makespan) / 1e3)});
        csv_rows.push_back(
            {instance.name, std::to_string(n), mode.name,
             std::to_string(threads), std::to_string(result.iterations),
             StrFormat("%.6f", result.seconds), StrFormat("%.1f", rate),
             StrFormat("%.2f", allocs_per_iter),
             std::to_string(result.best.makespan),
             std::to_string(fc.queries), std::to_string(fc.hits),
             std::to_string(fc.misses), std::to_string(fc.evictions),
             StrFormat("%.4f", fc.HitRate()),
             simd::BackendName(simd::ActiveBackend()), "current"});
        if (mode.floorplan_cache && legacy_rate[threads == 8u] > 0.0) {
          const double speedup = rate / legacy_rate[threads == 8u];
          std::cout << "   speedup vs legacy @" << threads
                    << " threads: " << StrFormat("%.2fx", speedup) << "\n";
          if (threads == 8u) {
            speedup_product_8t *= speedup;
            ++speedup_count_8t;
          }
        }
      }
    }
  }
  WriteCsv(config, "micro_restart",
           {"instance", "num_tasks", "mode", "threads", "iterations",
            "seconds", "restarts_per_sec", "allocs_per_iter",
            "best_makespan_us", "cache_queries", "cache_hits", "cache_misses",
            "cache_evictions", "cache_hit_rate", "simd", "impl"},
           csv_rows);
  if (speedup_count_8t > 0) {
    std::cout << "\ngeomean speedup @8 threads (reuse+cache vs legacy): "
              << StrFormat("%.2fx",
                           std::pow(speedup_product_8t,
                                    1.0 / static_cast<double>(
                                              speedup_count_8t)))
              << "\n";
  }
  std::cout << "Expectation: reuse+cache sustains >= 2x the legacy restart "
               "rate at 8 threads (geomean over the Fig. 6 sizes) with "
               "identical makespans.\n";
  return 0;
}
