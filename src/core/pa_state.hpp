// Per-worker reusable working state threaded through the PA phases
// (§V-A..§V-G).
//
// Phase functions mutate a PaScratch in sequence; the driver in
// pa_scheduler.cpp owns the phase order. The scratch wraps a TimingContext
// so that every implementation switch, region-ordering edge or release
// bump transparently re-derives the paper's time windows: the stages read
// T_MIN (`EarliestStarts()`, kept current incrementally), and T_MAX and
// task criticality are derived on demand (`Windows()`).
//
// Hot-path contract (DESIGN.md §8): a PaScratch is constructed once per
// worker against a shared immutable PaContext and Reset() between
// restarts. Reset never frees — every vector (including the DraftRegion
// pool and the per-stage buffers) keeps its capacity, so a restart in
// steady state performs no heap allocation. A PaScratch borrows its
// PaContext, which must outlive it; scratches are never shared across
// threads.
#pragma once

#include <utility>
#include <vector>

#include "core/pa_context.hpp"
#include "sched/schedule.hpp"
#include "taskgraph/timing.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/timeline.hpp"

namespace resched::pa {

/// A reconfigurable region under construction. `tasks` is kept in the
/// serialization order enforced by the ordering edges. Task storage is
/// carved from the owning scratch's arena. `res` is fixed at creation, so
/// its Eq. (1) bitstream size is computed once, there.
struct DraftRegion {
  explicit DraftRegion(MonotonicArena& arena)
      : tasks(ArenaAllocator<TaskId>(arena)) {}

  ResourceVec res;
  double bits = 0.0;
  TimeT reconf_time = 0;
  ArenaVec<TaskId> tasks;
};

/// Cross-restart buffers owned by the pipeline stages (see each stage's
/// .cpp for the usage). Stages fully overwrite what they use; nothing here
/// carries meaning across a Reset(). Every buffer bump-allocates from the
/// owning PaScratch's arena (DESIGN.md §10), so the working set of one
/// worker lives in one slab chain.
struct StageBuffers {
  explicit StageBuffers(MonotonicArena& arena)
      : critical(ArenaAllocator<TaskId>(arena)),
        non_critical(ArenaAllocator<TaskId>(arena)),
        explicit_pos(ArenaAllocator<std::size_t>(arena)),
        balance_candidates(ArenaAllocator<TaskId>(arena)),
        sw_tasks(ArenaAllocator<TaskId>(arena)),
        last_on_core(ArenaAllocator<TaskId>(arena)),
        pending(ArenaAllocator<PendingReconf>(arena)),
        blockers(ArenaAllocator<std::size_t>(arena)),
        blocks(ArenaAllocator<std::vector<std::size_t>>(arena)),
        ready(ArenaAllocator<ReadyReconf>(arena)),
        reach_bits(ArenaAllocator<std::uint64_t>(arena)),
        tin_mask(ArenaAllocator<std::uint64_t>(arena)),
        reconf_in(ArenaAllocator<std::size_t>(arena)),
        combined_succs(ArenaAllocator<std::vector<TaskId>>(arena)),
        timeline(ArenaAllocator<ReconfSlot>(arena)),
        ingoing_of(ArenaAllocator<TaskId>(arena)),
        sorted_reconfs(ArenaAllocator<ReconfSlot>(arena)),
        controller_last_end(ArenaAllocator<TimeT>(arena)) {}

  // §V-G reconfigurations scheduling.
  struct PendingReconf {
    std::size_t region = 0;
    TaskId t_in = kInvalidTask;
    TaskId t_out = kInvalidTask;
    TimeT exe = 0;
    bool critical = false;
  };
  /// An available reconfiguration in the §V-G pick heap.
  struct ReadyReconf {
    bool critical = false;
    TimeT tmin = 0;
    std::size_t index = 0;
  };

  // §V-C regions definition.
  ArenaVec<TaskId> critical;
  ArenaVec<TaskId> non_critical;
  ArenaVec<std::size_t> explicit_pos;

  // §V-D software task balancing.
  ArenaVec<TaskId> balance_candidates;

  // §V-F software task mapping.
  ArenaVec<TaskId> sw_tasks;
  ArenaVec<TaskId> last_on_core;

  // §V-G reconfigurations scheduling. The inner vectors of `blocks` and
  // `combined_succs` stay heap-backed: their element counts vary per
  // restart and re-binding nested allocators would defeat the pool reuse.
  ArenaVec<PendingReconf> pending;
  ArenaVec<std::size_t> blockers;
  ArenaVec<std::vector<std::size_t>> blocks;
  ArenaVec<ReadyReconf> ready;
  ArenaVec<std::uint64_t> reach_bits;
  /// Ingoing tasks of the pending reconfigurations as a task bitset, and
  /// the pending index of each (the count of pending when none).
  ArenaVec<std::uint64_t> tin_mask;
  ArenaVec<std::size_t> reconf_in;
  ArenaVec<std::vector<TaskId>> combined_succs;
  /// Controller timeline produced by §V-G, consumed by the assembly.
  ArenaVec<ReconfSlot> timeline;
  /// Per-controller view of the §V-G timeline: the controller's own slots
  /// (sorted by start; disjoint, so ends are monotone too), a prefix-sum
  /// gap index over bucketed time answering "is this window clear?" in
  /// O(1), a fully-set-prefix cursor for it, and the resume index of the
  /// exact-scan fallback (see FirstLaneGap). Heap-backed like the nested
  /// vectors above: lane count tracks the platform, not the restart.
  struct ControllerLane {
    std::vector<std::pair<TimeT, TimeT>> slots;
    timeline::GapIndex index;
    timeline::GapCursor cursor;
    std::size_t resume = 0;
  };
  std::vector<ControllerLane> lanes;

  // Final assembly.
  ArenaVec<TaskId> ingoing_of;
  ArenaVec<ReconfSlot> sorted_reconfs;
  ArenaVec<TimeT> controller_last_end;
};

class PaScratch {
 public:
  /// Sizes every buffer for the context's instance and Reset()s against
  /// the full device capacity.
  explicit PaScratch(const PaContext& ctx);

  /// Restart reset: forgets the previous solution, installs the virtually
  /// available capacity for the next one. Keeps all buffer capacity.
  void Reset(const ResourceVec& avail_cap);

  const PaContext& Ctx() const { return *ctx_; }
  const Instance& Inst() const { return ctx_->Inst(); }
  const PaOptions& Options() const { return ctx_->Options(); }
  const ResourceVec& AvailCap() const { return avail_cap_; }
  const std::vector<double>& Weights() const { return ctx_->Weights(); }
  TimeT MaxT() const { return ctx_->MaxT(); }

  TimingContext& Timing() { return timing_; }
  const TimingContext& Timing() const { return timing_; }

  std::size_t NumTasks() const { return impl_of_.size(); }

  // ---- implementation choice ------------------------------------------
  void SetImpl(TaskId t, std::size_t impl_index);
  std::size_t ImplIndex(TaskId t) const {
    return impl_of_.at(static_cast<std::size_t>(t));
  }
  const Implementation& ChosenImpl(TaskId t) const;
  bool ChosenIsHardware(TaskId t) const {
    return ChosenImpl(t).IsHardware();
  }

  /// Switches `t` to its fastest software implementation (§V-C fallback).
  void SwitchToSoftware(TaskId t);

  /// §V-A bulk install: adopts the context's precomputed implementation
  /// selection (impl indices, execution times, communication gaps).
  void AdoptInitialImplementations();

  // ---- criticality snapshot --------------------------------------------
  /// §V-B bulk install: adopts the context's precomputed phase-B labels.
  void AdoptInitialCriticality();
  /// Recaptures the labels from the *current* windows (white-box tests).
  void SnapshotCriticality();
  bool WasCritical(TaskId t) const {
    return critical0_.at(static_cast<std::size_t>(t));
  }

  // ---- regions -----------------------------------------------------------
  std::size_t NumRegions() const { return num_regions_; }
  const DraftRegion& Region(std::size_t s) const {
    RESCHED_CHECK_MSG(s < num_regions_, "region out of range");
    return regions_[s];
  }
  /// Live region indices in ascending (Eq. (1) bits, index) order.
  const std::vector<std::size_t>& RegionsByBits() const { return by_bits_; }
  /// Region index of `t` or -1 when t runs in software.
  int RegionOf(TaskId t) const {
    return region_of_.at(static_cast<std::size_t>(t));
  }
  const ResourceVec& UsedCap() const { return used_cap_; }

  /// Free capacity check for creating a region of requirement `res`.
  bool HasFreeCapacity(const ResourceVec& res) const;

  /// Whether region `s` can host task `t` with implementation `impl_index`:
  /// resource fit plus pairwise-disjoint time windows against every task
  /// already in `s`, by an exact loop over those tasks. With
  /// `require_reconf_room`, windows must additionally leave reconf_s of
  /// slack on the side where the reconfiguration would run (§V-C step 1
  /// for critical tasks) — except between same-module neighbours when the
  /// module-reuse extension is active (no reconfiguration happens there,
  /// so no room is needed).
  bool CanHost(std::size_t region, TaskId t, std::size_t impl_index,
               bool require_reconf_room) const;

  /// Module-reuse extension: true when inserting (t, impl_index) into
  /// region `s` would sit directly after a task using the same module, so
  /// the reconfiguration before `t` disappears. Always false when the
  /// extension is off.
  bool WouldAvoidReconf(std::size_t region, TaskId t,
                        std::size_t impl_index) const;

  /// Creates a new region sized exactly for `t`'s implementation and
  /// assigns t to it; returns the region index.
  std::size_t CreateRegionFor(TaskId t);

  /// Assigns `t` into existing region `s` (implementation already chosen):
  /// inserts it in window order and adds the serialization edges with the
  /// appropriate reconfiguration gaps.
  void AssignToRegion(std::size_t region, TaskId t);

  /// Eq. (6): total reconfiguration time over all regions, assuming the
  /// first configuration of each region is free.
  TimeT TotalReconfTimeEstimate() const;

  /// Gap that must separate `before` and `after` in region `s`: the
  /// region's reconfiguration time, or zero when the module-reuse extension
  /// is active and both use the same module.
  TimeT RegionGap(std::size_t region, TaskId before, TaskId after) const;

  // ---- processors --------------------------------------------------------
  int ProcessorOf(TaskId t) const {
    return processor_of_.at(static_cast<std::size_t>(t));
  }
  void SetProcessor(TaskId t, std::size_t p) {
    processor_of_.at(static_cast<std::size_t>(t)) = static_cast<int>(p);
  }

  StageBuffers& Buffers() { return buffers_; }

  // ---- bucketed time axis of the §V-G controller lanes: bucket b covers
  // ticks [b << shift, (b+1) << shift), outward-rounded on store and on
  // query so a clear bucket window proves tick-level disjointness.
  // Saturates at the axis end (conservative).
  std::size_t TimeBuckets() const { return tl_bits_; }
  std::size_t TimeBucketLo(TimeT t) const {
    const std::size_t b = static_cast<std::size_t>(t) >> tl_shift_;
    return b < tl_bits_ ? b : tl_bits_ - 1;  // saturate: stays conservative
  }
  /// Exclusive bucket end for an exclusive tick end t >= 1.
  std::size_t TimeBucketHi(TimeT t) const {
    const std::size_t b = (static_cast<std::size_t>(t - 1) >> tl_shift_) + 1;
    return b < tl_bits_ ? b : tl_bits_;
  }

 private:
  const PaContext* ctx_;
  ResourceVec avail_cap_;

  std::vector<std::size_t> impl_of_;
  TimingContext timing_;
  std::vector<char> critical0_;

  /// Backing store for the stage buffers and draft-region task lists;
  /// declared before them so it outlives every container carved from it.
  MonotonicArena arena_;

  /// Region pool: only the first num_regions_ entries are live; dead
  /// entries keep their task-vector capacity for reuse.
  std::vector<DraftRegion> regions_;
  std::size_t num_regions_ = 0;
  std::vector<std::size_t> by_bits_;
  std::vector<int> region_of_;
  ResourceVec used_cap_;

  std::vector<int> processor_of_;

  std::size_t tl_shift_ = 0;
  std::size_t tl_bits_ = 1;

  StageBuffers buffers_;
};

// ---- phase entry points (called in order by the driver) -------------------

/// §V-A: installs the context's precomputed Eq.-(3) selection.
void RunImplementationSelection(const PaContext& ctx, PaScratch& s);

/// §V-B is implicit: the TimingContext already yields CPM windows; this
/// merely installs the precomputed criticality labels driving the phase-C
/// processing order.
void RunCriticalPathExtraction(const PaContext& ctx, PaScratch& s);

/// §V-C: defines the reconfigurable regions and maps hardware tasks to
/// them. `rng` is consulted only for NonCriticalOrder::kRandom.
void RunRegionsDefinition(const PaContext& ctx, PaScratch& s, Rng& rng);

/// §V-D: moves eligible software tasks back to underutilized regions.
void RunSoftwareTaskBalancing(const PaContext& ctx, PaScratch& s);

/// §V-F: binds software tasks to processors (Eq. 8/9).
void RunSoftwareTaskMapping(const PaContext& ctx, PaScratch& s);

/// §V-G: schedules the reconfiguration tasks on the single controller;
/// leaves the controller timeline in s.Buffers().timeline.
void RunReconfigurationScheduling(const PaContext& ctx, PaScratch& s);

/// Earliest start >= `lo` of a `duration`-long gap in one controller's
/// slot list (sorted by start, pairwise disjoint — so ends are monotone).
/// `resume`, when non-null, is a skip hint: on entry, an index i such
/// that every slot before i ended at or before some earlier query's
/// result; it is validated against `lo` (and recomputed by binary search
/// when stale), and updated on exit to the first slot index not wholly
/// before the returned start. Bit-identical to the head-to-tail scan for
/// every (lo, duration) — the hint only skips slots that end at or
/// before `lo`. Exposed for the differential regression test.
TimeT FirstLaneGap(const std::vector<std::pair<TimeT, TimeT>>& slots,
                   TimeT lo, TimeT duration, std::size_t* resume);

/// Final assembly: repairs any residual reconfiguration/slot inconsistency
/// introduced by late delay propagation, then freezes starts/ends into
/// `out` (§V-E start/end computation happens here, on the final windows).
/// Fully overwrites `out`, reusing its buffers.
void AssembleSchedule(const PaContext& ctx, PaScratch& s, Schedule& out);

}  // namespace resched::pa
