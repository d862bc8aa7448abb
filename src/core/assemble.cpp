// Final assembly: freezes the phase results into a Schedule (§V-E start and
// end computation, applied to the *final* windows after every delay
// propagation) and double-checks the reconfiguration timeline invariants
// that phase G establishes by construction.
//
// The output Schedule is fully overwritten in place so a restart loop can
// reuse one candidate object (its vectors keep their capacity).
#include <algorithm>

#include "core/pa_state.hpp"

namespace resched::pa {

void AssembleSchedule(const PaContext& ctx, PaScratch& s, Schedule& out) {
  const TaskGraph& graph = ctx.Inst().graph;
  const std::vector<TimeT>& es = s.Timing().EarliestStarts();
  StageBuffers& buf = s.Buffers();
  const ArenaVec<ReconfSlot>& reconfs = buf.timeline;

  // Ingoing task per reconfiguration (the region task preceding the loaded
  // one), for the invariant sweep below. A task lives in at most one
  // region and appears there once, so indexing by the loaded task is
  // unambiguous.
  ArenaVec<TaskId>& ingoing = buf.ingoing_of;
  ingoing.assign(graph.NumTasks(), kInvalidTask);
  for (std::size_t r = 0; r < s.NumRegions(); ++r) {
    const DraftRegion& region = s.Region(r);
    for (std::size_t i = 0; i + 1 < region.tasks.size(); ++i) {
      ingoing[static_cast<std::size_t>(region.tasks[i + 1])] =
          region.tasks[i];
    }
  }

  // Invariant sweep: under the final windows every reconfiguration must
  // start after its ingoing task ends, finish before its outgoing task
  // starts, and the controller timeline must be overlap-free. Phase G
  // guarantees all three; this is cheap insurance against regressions.
  {
    ArenaVec<ReconfSlot>& sorted = buf.sorted_reconfs;
    sorted.assign(reconfs.begin(), reconfs.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const ReconfSlot& a, const ReconfSlot& b) {
                return a.start < b.start;
              });
    ArenaVec<TimeT>& last_end = buf.controller_last_end;
    last_end.assign(ctx.Inst().platform.NumReconfigurators(), 0);
    for (const ReconfSlot& slot : sorted) {
      const TaskId in_task =
          ingoing[static_cast<std::size_t>(slot.loads_task)];
      RESCHED_CHECK_MSG(in_task != kInvalidTask,
                        "reconfiguration without an ingoing task");
      const auto in = static_cast<std::size_t>(in_task);
      const auto out_t = static_cast<std::size_t>(slot.loads_task);
      RESCHED_CHECK_MSG(
          slot.start >= es[in] + s.Timing().ExecTime(in_task),
          "reconfiguration starts before its ingoing task ends");
      RESCHED_CHECK_MSG(slot.end <= es[out_t],
                        "reconfiguration ends after its outgoing task starts");
      RESCHED_CHECK_MSG(slot.start >= last_end.at(slot.controller),
                        "reconfigurations overlap on a controller");
      last_end[slot.controller] = slot.end;
    }
  }

  // ---- freeze the schedule (§V-E on the final windows). Every field of
  // `out` is overwritten; vector assignments reuse capacity.
  out.task_slots.resize(graph.NumTasks());
  for (std::size_t ti = 0; ti < graph.NumTasks(); ++ti) {
    const auto t = static_cast<TaskId>(ti);
    TaskSlot& slot = out.task_slots[ti];
    slot.task = t;
    slot.impl_index = s.ImplIndex(t);
    slot.start = es[ti];
    slot.end = slot.start + s.Timing().ExecTime(t);
    if (s.RegionOf(t) >= 0) {
      slot.target = TargetKind::kRegion;
      slot.target_index = static_cast<std::size_t>(s.RegionOf(t));
    } else {
      RESCHED_CHECK_MSG(s.ProcessorOf(t) >= 0,
                        "software task was never mapped to a core");
      slot.target = TargetKind::kProcessor;
      slot.target_index = static_cast<std::size_t>(s.ProcessorOf(t));
    }
  }

  out.regions.resize(s.NumRegions());
  for (std::size_t r = 0; r < s.NumRegions(); ++r) {
    const DraftRegion& draft = s.Region(r);
    RegionInfo& info = out.regions[r];
    info.res = draft.res;
    info.reconf_time = draft.reconf_time;
    info.tasks.assign(draft.tasks.begin(), draft.tasks.end());
    std::sort(info.tasks.begin(), info.tasks.end(),
              [&out](TaskId a, TaskId b) {
                return out.SlotOf(a).start < out.SlotOf(b).start;
              });
  }

  out.reconfigurations.assign(buf.sorted_reconfs.begin(),
                              buf.sorted_reconfs.end());
  out.makespan = out.ComputeMakespan();

  // Solver metadata: reset to a freshly-scheduled state; the drivers fill
  // these in.
  out.algorithm.clear();
  out.scheduling_seconds = 0.0;
  out.floorplanning_seconds = 0.0;
  out.floorplan_retries = 0;
  out.floorplan.clear();
  out.floorplan_checked = false;
  out.floorplan_cache = {};
}

}  // namespace resched::pa
