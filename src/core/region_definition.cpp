// §V-C regions definition.
//
// Hardware tasks are processed critical-first and, within each class, by
// descending efficiency index (Eq. 5) — or in the order selected by
// PaOptions::ordering for non-critical tasks (the PA-R randomization point,
// §VI). Critical tasks prefer joining an existing region (lowest-bitstream
// one whose windows leave room for the reconfiguration), then a fresh
// region, then fall back to software. Non-critical tasks prefer a fresh
// region (maximize fabric utilization), then an existing one, then
// software.
//
// The class split and the base orders are precomputed in PaContext (they
// depend only on the phase-A selection); this stage copies the order that
// the active policy asks for into scratch buffers and applies it.
#include <algorithm>

#include "core/cost_model.hpp"
#include "core/pa_state.hpp"

namespace resched::pa {

namespace {

/// Picks, among regions that can host (t, impl), the one with the smallest
/// bitstream (== smallest reconfiguration time), the first created on a
/// tie; returns -1 when none. Under the module-reuse extension, regions
/// where the insertion lands right after a same-module task rank first
/// regardless of bitstream — the reconfiguration there costs nothing at
/// all. Walking the regions in (bits, index) order, the first host found
/// is that pick unless a later one is free. Most regions cannot hold the
/// implementation at all, so the inline resource fit rejects them before
/// CanHost reads any timing.
int PickSmallestBitstreamRegion(const PaScratch& s, TaskId t,
                                std::size_t impl_index,
                                bool require_reconf_room) {
  int fallback = -1;
  const ResourceVec& need = s.Inst().graph.GetImpl(t, impl_index).res;
  for (const std::size_t r : s.RegionsByBits()) {
    if (!need.FitsWithin(s.Region(r).res)) continue;
    if (!s.CanHost(r, t, impl_index, require_reconf_room)) continue;
    if (!s.Options().module_reuse || s.WouldAvoidReconf(r, t, impl_index)) {
      return static_cast<int>(r);
    }
    if (fallback < 0) fallback = static_cast<int>(r);
  }
  return fallback;
}

}  // namespace

void RunRegionsDefinition(const PaContext& ctx, PaScratch& s, Rng& rng) {
  StageBuffers& buf = s.Buffers();

  // Critical tasks always go by descending efficiency, as in the paper.
  ArenaVec<TaskId>& critical = buf.critical;
  critical.assign(ctx.CriticalByEfficiency().begin(),
                  ctx.CriticalByEfficiency().end());

  ArenaVec<TaskId>& non_critical = buf.non_critical;
  switch (s.Options().ordering) {
    case NonCriticalOrder::kEfficiency:
      non_critical.assign(ctx.NonCriticalByEfficiency().begin(),
                          ctx.NonCriticalByEfficiency().end());
      break;
    case NonCriticalOrder::kRandom:
      // The shuffle starts from the id-ordered list, matching the
      // pre-context behavior bit for bit.
      non_critical.assign(ctx.NonCriticalById().begin(),
                          ctx.NonCriticalById().end());
      rng.Shuffle(non_critical);
      break;
    case NonCriticalOrder::kFastestFirst:
      non_critical.assign(ctx.NonCriticalByExecTime().begin(),
                          ctx.NonCriticalByExecTime().end());
      break;
    case NonCriticalOrder::kGraphOrder:
      non_critical.assign(ctx.NonCriticalById().begin(),
                          ctx.NonCriticalById().end());
      break;
    case NonCriticalOrder::kExplicit: {
      // Position in the caller-supplied permutation; unlisted tasks keep
      // their efficiency order after all listed ones. The permutation is
      // re-read from the options every restart — PA-LS mutates it.
      const std::size_t n = ctx.NumTasks();
      ArenaVec<std::size_t>& pos = buf.explicit_pos;
      pos.assign(n, SIZE_MAX);
      for (std::size_t i = 0; i < s.Options().explicit_order.size(); ++i) {
        const TaskId t = s.Options().explicit_order[i];
        RESCHED_CHECK_MSG(t >= 0 && static_cast<std::size_t>(t) < n,
                          "explicit_order contains an unknown task id");
        pos[static_cast<std::size_t>(t)] = i;
      }
      non_critical.assign(ctx.NonCriticalByEfficiency().begin(),
                          ctx.NonCriticalByEfficiency().end());
      std::stable_sort(non_critical.begin(), non_critical.end(),
                       [&pos](TaskId a, TaskId b) {
                         return pos[static_cast<std::size_t>(a)] <
                                pos[static_cast<std::size_t>(b)];
                       });
      break;
    }
  }

  // ---- critical tasks: reuse -> create -> software ----------------------
  for (const TaskId t : critical) {
    const std::size_t impl = s.ImplIndex(t);
    const int reuse =
        PickSmallestBitstreamRegion(s, t, impl,
                                    /*require_reconf_room=*/true);
    if (reuse >= 0) {
      s.AssignToRegion(static_cast<std::size_t>(reuse), t);
      continue;
    }
    if (s.HasFreeCapacity(s.ChosenImpl(t).res)) {
      s.CreateRegionFor(t);
      continue;
    }
    s.SwitchToSoftware(t);
  }

  // ---- non-critical tasks: create -> reuse -> software ------------------
  for (const TaskId t : non_critical) {
    if (s.HasFreeCapacity(s.ChosenImpl(t).res)) {
      s.CreateRegionFor(t);
      continue;
    }
    const std::size_t impl = s.ImplIndex(t);
    const int reuse =
        PickSmallestBitstreamRegion(s, t, impl,
                                    /*require_reconf_room=*/false);
    if (reuse >= 0) {
      s.AssignToRegion(static_cast<std::size_t>(reuse), t);
      continue;
    }
    s.SwitchToSoftware(t);
  }
}

}  // namespace resched::pa
