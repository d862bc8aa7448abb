#include "replay.hpp"

#include <optional>

#include "core/pa_state.hpp"
#include "floorplan/floorplan_cache.hpp"
#include "io/schedule_io.hpp"
#include "sched/recovery.hpp"
#include "sched/validator.hpp"
#include "sim/executor.hpp"
#include "sim/faults.hpp"

namespace perfbench {

using namespace resched;

namespace {

/// Times `fn()` into `into` (microseconds).
template <typename Fn>
void Timed(Samples& into, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  into.Add(UsBetween(t0, Clock::now()));
}

/// Mirror of RunPaCore(ctx, scratch, avail_cap, rng, out).
void ReplayCore(const pa::PaContext& ctx, pa::PaScratch& scratch,
                const ResourceVec& avail_cap, Rng& rng, Schedule& out,
                LayerLedger& ledger) {
  Timed(ledger.reset_us, [&] { scratch.Reset(avail_cap); });
  Timed(ledger.impl_select_us,
        [&] { pa::RunImplementationSelection(ctx, scratch); });
  Timed(ledger.critical_path_us,
        [&] { pa::RunCriticalPathExtraction(ctx, scratch); });
  Timed(ledger.regions_us,
        [&] { pa::RunRegionsDefinition(ctx, scratch, rng); });
  if (ctx.Options().sw_balancing) {
    Timed(ledger.sw_balance_us,
          [&] { pa::RunSoftwareTaskBalancing(ctx, scratch); });
  }
  Timed(ledger.sw_map_us, [&] { pa::RunSoftwareTaskMapping(ctx, scratch); });
  Timed(ledger.reconf_us,
        [&] { pa::RunReconfigurationScheduling(ctx, scratch); });
  Timed(ledger.assemble_us, [&] { pa::AssembleSchedule(ctx, scratch, out); });
  out.algorithm = ctx.Options().ordering == NonCriticalOrder::kRandom
                      ? "PA-R(inner)"
                      : "PA";
  ++ledger.passes;
}

FloorplanResult ReplayQuery(FloorplanCache* cache, const Instance& instance,
                            const Schedule& schedule,
                            const FloorplanOptions& options,
                            LayerLedger& ledger) {
  FloorplanResult fp;
  Timed(ledger.query_us, [&] {
    fp = cache != nullptr
             ? cache->Query(schedule.RegionRequirements(), options)
             : FindFloorplan(instance.platform.Device(),
                             schedule.RegionRequirements(), options);
  });
  ++ledger.queries;
  if (fp.feasible) ++ledger.feasible;
  return fp;
}

void CountCache(const FloorplanCacheStats& delta, LayerLedger& ledger) {
  ledger.hits += delta.hits;
  ledger.solve_nodes += delta.solve_nodes;
}

/// Mirror of SchedulePa's body after instance validation (SchedulePaWarm),
/// with the context build timed.
Schedule ReplayPaBody(const Instance& instance, const PaOptions& options,
                      FloorplanCache* cache, LayerLedger& ledger) {
  std::optional<pa::PaContext> ctx;
  std::optional<pa::PaScratch> scratch;
  Timed(ledger.context_us, [&] {
    ctx.emplace(instance, options);
    scratch.emplace(*ctx);
  });
  Rng rng(options.seed);

  std::optional<FloorplanCache> own_cache;
  if (cache == nullptr && options.floorplan_cache && options.run_floorplan) {
    own_cache.emplace(instance.platform.Device());
  }
  FloorplanCache* fp_cache =
      cache != nullptr ? cache : (own_cache ? &*own_cache : nullptr);
  const FloorplanCacheStats stats_before =
      fp_cache != nullptr ? fp_cache->Stats() : FloorplanCacheStats{};

  ResourceVec avail_cap = instance.platform.Device().Capacity();
  Schedule schedule;
  for (std::size_t round = 0; round <= options.max_shrink_rounds; ++round) {
    const bool last_round = round == options.max_shrink_rounds;
    if (last_round) avail_cap = avail_cap.ScaledDown(0.0);
    ReplayCore(*ctx, *scratch, avail_cap, rng, schedule, ledger);
    schedule.floorplan_retries = round;
    if (!options.run_floorplan) break;
    const FloorplanResult fp =
        ReplayQuery(fp_cache, instance, schedule, options.floorplan, ledger);
    if (fp.feasible) {
      schedule.floorplan = fp.rects;
      schedule.floorplan_checked = true;
      break;
    }
    avail_cap = avail_cap.ScaledDown(options.shrink_factor);
  }
  schedule.algorithm = "PA";
  if (fp_cache != nullptr) {
    schedule.floorplan_cache = fp_cache->Stats().Since(stats_before);
    if (own_cache) CountCache(schedule.floorplan_cache, ledger);
  }
  return schedule;
}

/// Mirror of SchedulePa(instance, options, cache).
Schedule ReplayPa(const Instance& instance, const PaOptions& options,
                  FloorplanCache* cache, LayerLedger& ledger) {
  instance.graph.Validate(instance.platform.Device());
  const FloorplanCacheStats before =
      cache != nullptr ? cache->Stats() : FloorplanCacheStats{};
  Schedule schedule = ReplayPaBody(instance, options, cache, ledger);
  if (cache != nullptr) CountCache(cache->Stats().Since(before), ledger);
  ++ledger.solves;
  return schedule;
}

/// Mirror of SchedulePaR(instance, options, cache) for threads == 1 and an
/// iteration cap with no wall-clock budget.
Schedule ReplayPaR(const Instance& instance, const PaROptions& options,
                   FloorplanCache* cache, LayerLedger& ledger) {
  RESCHED_CHECK_MSG(options.threads <= 1 && options.max_iterations > 0 &&
                        options.time_budget_seconds <= 0.0 &&
                        options.reuse_scratch && options.cancel == nullptr,
                    "the PA-R replay mirrors the single-threaded, "
                    "iteration-capped configuration only");
  instance.graph.Validate(instance.platform.Device());

  PaOptions inner = options.base;
  inner.ordering = NonCriticalOrder::kRandom;
  inner.run_floorplan = false;
  const ResourceVec full_cap = instance.platform.Device().Capacity();

  std::optional<pa::PaContext> ctx;
  Timed(ledger.context_us, [&] { ctx.emplace(instance, inner); });
  std::optional<FloorplanCache> own_cache;
  if (cache == nullptr && options.base.floorplan_cache) {
    own_cache.emplace(instance.platform.Device());
    cache = &*own_cache;
  }
  const FloorplanCacheStats stats_before =
      cache != nullptr ? cache->Stats() : FloorplanCacheStats{};

  PaRResult result;
  TimeT best_makespan = kTimeInfinity;
  if (options.seed_with_deterministic) {
    PaOptions det = options.base;
    det.ordering = NonCriticalOrder::kEfficiency;
    det.run_floorplan = true;
    instance.graph.Validate(instance.platform.Device());
    Schedule warm = ReplayPaBody(instance, det, cache, ledger);
    warm.algorithm = "PA-R";
    best_makespan = warm.makespan;
    result.best = std::move(warm);
    result.found = true;
  }

  std::optional<pa::PaScratch> scratch;
  Timed(ledger.context_us, [&] { scratch.emplace(*ctx); });
  Schedule candidate;
  std::size_t completed = 0;
  for (std::size_t iter = 1; iter <= options.max_iterations; ++iter) {
    Rng rng(DeriveSeed(kParSeedStream ^ options.seed, iter));
    const double factor = rng.UniformDouble(options.capacity_factor_lo,
                                            options.capacity_factor_hi);
    const ResourceVec avail_cap = full_cap.ScaledDown(factor);
    ReplayCore(*ctx, *scratch, avail_cap, rng, candidate, ledger);
    ++completed;
    if (candidate.makespan >= best_makespan) continue;
    const FloorplanResult fp =
        ReplayQuery(cache, instance, candidate, inner.floorplan, ledger);
    if (!fp.feasible) continue;
    best_makespan = candidate.makespan;
    candidate.floorplan = fp.rects;
    candidate.floorplan_checked = true;
    candidate.algorithm = "PA-R";
    result.best = std::move(candidate);
    result.found = true;
  }

  result.iterations = completed;
  if (cache != nullptr) {
    result.floorplan_cache = cache->Stats().Since(stats_before);
    CountCache(result.floorplan_cache, ledger);
    if (result.found) result.best.floorplan_cache = result.floorplan_cache;
  }
  ++ledger.solves;
  return result.best;
}

}  // namespace

Schedule ReplayChecked(const Instance& instance, const PaOptions& pa,
                       const PaROptions* par, FloorplanCache* cache,
                       LayerLedger& ledger) {
  const Clock::time_point t0 = Clock::now();
  const Schedule mirror = par != nullptr
                              ? ReplayPaR(instance, *par, cache, ledger)
                              : ReplayPa(instance, pa, cache, ledger);
  const Clock::time_point t1 = Clock::now();
  const Schedule library = par != nullptr
                               ? SchedulePaR(instance, *par).best
                               : SchedulePa(instance, pa);
  ledger.mirror_ms.Add(MsBetween(t0, t1));
  ledger.library_ms.Add(MsBetween(t1, Clock::now()));
  ++ledger.compared;
  if (ScheduleBytes(instance, mirror) != ScheduleBytes(instance, library)) {
    ++ledger.mismatches;
  }

  ValidationResult check;
  Timed(ledger.validate_us,
        [&] { check = ValidateSchedule(instance, library); });
  if (!check.ok()) ++ledger.mismatches;
  std::string bytes;
  Timed(ledger.serialize_us,
        [&] { bytes = ScheduleToJson(instance, library).Dump(-1); });
  ledger.response_bytes.Add(static_cast<double>(bytes.size()));
  return library;
}

void ReplaySimulate(const Instance& instance, const Schedule& schedule,
                    std::uint64_t seed, std::size_t trials, double fault_rate,
                    double jitter, LayerLedger& ledger) {
  sim::SimOptions sim_options;
  sim_options.task_jitter = jitter;
  sim_options.reconf_jitter = jitter;
  sim_options.recovery.policy = ParseRecoveryPolicy("retry");
  for (std::size_t i = 0; i < trials; ++i) {
    const sim::FaultScenario scenario = sim::GenerateFaultScenario(
        schedule, sim::UniformFaultRates(fault_rate),
        DeriveSeed(kFaultSeedStream ^ seed, i));
    sim_options.faults = scenario;
    sim_options.seed = DeriveSeed(kJitterSeedStream ^ seed, i);
    Samples& into =
        scenario.Empty() ? ledger.sim_nominal_us : ledger.sim_faulted_us;
    Timed(into, [&] {
      try {
        (void)sim::Simulate(instance, schedule, sim_options);
      } catch (const InstanceError&) {
        // A lost trial (recovery deadlock) is a legal simulate outcome.
      }
    });
  }
}

void AddLedgerMetrics(const LayerLedger& l, Report& r) {
  const auto per_call = [&](const char* name, const Samples& s) {
    r.Add(name, s.Mean(), "us", s.Count());
  };
  per_call("core.context_us", l.context_us);
  per_call("core.reset_us", l.reset_us);
  per_call("core.impl_select_us", l.impl_select_us);
  per_call("core.critical_path_us", l.critical_path_us);
  per_call("core.regions_us", l.regions_us);
  per_call("core.sw_balance_us", l.sw_balance_us);
  per_call("core.sw_map_us", l.sw_map_us);
  per_call("core.reconf_us", l.reconf_us);
  per_call("core.assemble_us", l.assemble_us);
  const double solves = static_cast<double>(l.solves);
  const double queries = static_cast<double>(l.queries);
  r.Add("core.passes_per_solve",
        l.solves == 0 ? 0.0 : static_cast<double>(l.passes) / solves, "count",
        l.solves);
  r.Add("floorplan.query_us_p50", l.query_us.Quantile(50.0), "us",
        l.query_us.Count());
  r.Add("floorplan.query_us_p99", l.query_us.Quantile(99.0), "us",
        l.query_us.Count());
  r.Add("floorplan.queries_per_solve", l.solves == 0 ? 0.0 : queries / solves,
        "count", l.solves);
  r.Add("floorplan.hit_frac",
        l.queries == 0 ? 0.0 : static_cast<double>(l.hits) / queries, "frac",
        l.queries);
  r.Add("floorplan.feasible_frac",
        l.queries == 0 ? 0.0 : static_cast<double>(l.feasible) / queries,
        "frac", l.queries);
  r.Add("floorplan.solve_nodes_per_solve",
        l.solves == 0 ? 0.0 : static_cast<double>(l.solve_nodes) / solves,
        "count", l.solves);
  per_call("sched.validate_us", l.validate_us);
  per_call("io.serialize_us", l.serialize_us);
  r.Add("io.response_bytes", l.response_bytes.Mean(), "bytes",
        l.response_bytes.Count());
  per_call("sim.nominal_us", l.sim_nominal_us);
  per_call("sim.faulted_us", l.sim_faulted_us);
  per_call("service.parse_us", l.parse_us);
  per_call("service.key_us", l.key_us);
  r.Add("service.request_bytes", l.request_bytes.Mean(), "bytes",
        l.request_bytes.Count());
  per_call("service.journal_append_us", l.journal_append_us);
  r.Add("bench.replay_mismatches", static_cast<double>(l.mismatches), "count",
        l.compared);
  if (l.mismatches != 0) {
    r.Fail("replay mirror diverged from the library on " +
           std::to_string(l.mismatches) + " of " +
           std::to_string(l.compared) + " traced calls");
  }
}

}  // namespace perfbench
