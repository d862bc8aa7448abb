// §V-D software task balancing.
//
// After regions definition some tasks were demoted to software; if the
// schedule now leaves regions idle early on, promote software tasks (in
// increasing T_MIN order) back to hardware — but only when the task starts
// late enough (T_MIN > Eq.-(6) total reconfiguration time) that adding its
// reconfiguration cannot create contention on the controller.
#include <algorithm>

#include "core/pa_state.hpp"

namespace resched::pa {

void RunSoftwareTaskBalancing(const PaContext& ctx, PaScratch& s) {
  const TaskGraph& graph = s.Inst().graph;

  // Software tasks that do have hardware alternatives, by increasing T_MIN.
  ArenaVec<TaskId>& candidates = s.Buffers().balance_candidates;
  candidates.clear();
  for (std::size_t ti = 0; ti < graph.NumTasks(); ++ti) {
    const auto t = static_cast<TaskId>(ti);
    if (s.ChosenIsHardware(t)) continue;
    if (ctx.NumHwImpls(t) == 0) continue;
    candidates.push_back(t);
  }
  {
    const std::vector<TimeT>& es = s.Timing().EarliestStarts();
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](TaskId a, TaskId b) {
                       return es[static_cast<std::size_t>(a)] <
                              es[static_cast<std::size_t>(b)];
                     });
  }

  for (const TaskId t : candidates) {
    const TimeT tot_rec_time = s.TotalReconfTimeEstimate();
    const TimeT es_t =
        s.Timing().EarliestStarts()[static_cast<std::size_t>(t)];
    if (es_t <= tot_rec_time) continue;

    // Find a region able to host t with its lowest-cost fitting HW
    // implementation (Eq.-(3) costs precomputed in the context tables).
    const std::size_t num_impls = graph.GetTask(t).impls.size();
    for (std::size_t r = 0; r < s.NumRegions(); ++r) {
      std::size_t best_impl = num_impls;
      double best_cost = 0.0;
      for (std::size_t i = 0; i < ctx.NumHwImpls(t); ++i) {
        const std::size_t impl = ctx.HwImplIndex(t, i);
        if (!s.CanHost(r, t, impl, /*require_reconf_room=*/true)) continue;
        const double cost = ctx.HwImplCost(t, i);
        if (best_impl == num_impls || cost < best_cost) {
          best_impl = impl;
          best_cost = cost;
        }
      }
      if (best_impl == num_impls) continue;

      s.SetImpl(t, best_impl);
      s.AssignToRegion(r, t);
      break;
    }
  }
}

}  // namespace resched::pa
