// The traced replay: re-runs PA and PA-R single-threaded through their
// public building blocks (pa::Run* phases, AssembleSchedule,
// FloorplanCache::Query, DeriveSeed(kParSeedStream ^ seed, iter)) with a
// timer around every call, and proves on every call that the result is
// byte-identical to the library's own SchedulePa / SchedulePaR.
//
// The mirrors below copy the control flow of core/pa_scheduler.cpp and
// core/randomized.cpp (threads = 1, no budget, no cancellation). If the
// library's algorithm changes and the mirror does not, the byte check
// fails the traced run rather than reporting phase times of a drifted copy.
#pragma once

#include <cstdint>

#include "common.hpp"
#include "core/randomized.hpp"

namespace resched {
class FloorplanCache;
}

namespace perfbench {

/// Per-layer accumulators filled by the replay (times in microseconds).
struct LayerLedger {
  // core
  Samples context_us;  ///< PaContext + PaScratch construction
  Samples reset_us;    ///< PaScratch::Reset per pass
  Samples impl_select_us, critical_path_us, regions_us, sw_balance_us,
      sw_map_us, reconf_us, assemble_us;
  std::uint64_t passes = 0;
  std::uint64_t solves = 0;  ///< SchedulePa / SchedulePaR calls replayed
  // floorplan
  Samples query_us;
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t feasible = 0;
  std::uint64_t solve_nodes = 0;
  // sched / io
  Samples validate_us, serialize_us, response_bytes;
  // sim
  Samples sim_nominal_us, sim_faulted_us;
  // service
  Samples parse_us, key_us, request_bytes, journal_append_us;
  // byte-identity of the mirror against the library, and what the timers
  // cost: the same call timed through the mirror and through the library
  Samples mirror_ms, library_ms;
  std::uint64_t compared = 0;
  std::uint64_t mismatches = 0;
};

/// Replays one schedule request (PA when `par` is null), runs the library
/// call with the same arguments on a fresh private cache, compares the
/// two byte for byte (counting a mismatch), then times ValidateSchedule
/// and ScheduleToJson on the result. Returns the library's schedule.
resched::Schedule ReplayChecked(const resched::Instance& instance,
                                const resched::PaOptions& pa,
                                const resched::PaROptions* par,
                                resched::FloorplanCache* cache,
                                LayerLedger& ledger);

/// Times sim::Simulate for `trials` trials the way the service's simulate
/// verb runs them (same scenario and jitter seeds).
void ReplaySimulate(const resched::Instance& instance,
                    const resched::Schedule& schedule, std::uint64_t seed,
                    std::size_t trials, double fault_rate, double jitter,
                    LayerLedger& ledger);

/// Adds every per-layer metric of the core, floorplan, sched, io and sim
/// layers, plus the service parse/key/journal figures, to `report`.
void AddLedgerMetrics(const LayerLedger& ledger, Report& report);

}  // namespace perfbench
