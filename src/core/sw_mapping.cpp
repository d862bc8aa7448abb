// §V-F software task mapping.
//
// Software tasks are bound to processors in chronological (T_MIN) order;
// each goes to the core generating the least delay (Eq. 8 — with the min{}
// of the paper read as max{}: a delay is non-negative) and a serialization
// edge from the core's latest-ending task enforces the ordering, so Eq. (9)
// and the delay propagation of step 4 fall out of the window recomputation.
#include <algorithm>

#include "core/pa_state.hpp"

namespace resched::pa {

void RunSoftwareTaskMapping(const PaContext& ctx, PaScratch& s) {
  (void)ctx;
  const TaskGraph& graph = s.Inst().graph;
  const std::size_t cores = s.Inst().platform.NumProcessors();

  ArenaVec<TaskId>& sw_tasks = s.Buffers().sw_tasks;
  sw_tasks.clear();
  for (std::size_t ti = 0; ti < graph.NumTasks(); ++ti) {
    const auto t = static_cast<TaskId>(ti);
    if (!s.ChosenIsHardware(t)) sw_tasks.push_back(t);
  }
  {
    const std::vector<TimeT>& es = s.Timing().EarliestStarts();
    std::stable_sort(sw_tasks.begin(), sw_tasks.end(),
                     [&](TaskId a, TaskId b) {
                       return es[static_cast<std::size_t>(a)] <
                              es[static_cast<std::size_t>(b)];
                     });
  }

  // Latest-ending task per core, maintained incrementally.
  ArenaVec<TaskId>& last_on_core = s.Buffers().last_on_core;
  last_on_core.assign(cores, kInvalidTask);

  for (const TaskId t : sw_tasks) {
    const std::vector<TimeT>& es = s.Timing().EarliestStarts();
    const TimeT es_t = es[static_cast<std::size_t>(t)];

    // Eq. (8): lambda_p = max{0, max_{t2 in T_p}(T_END_t2 - T_MIN_t)}. With
    // chronological processing, the latest-ending task on the core attains
    // the inner max.
    std::size_t best_core = 0;
    TimeT best_delay = 0;
    for (std::size_t p = 0; p < cores; ++p) {
      TimeT delay = 0;
      if (last_on_core[p] != kInvalidTask) {
        const auto li = static_cast<std::size_t>(last_on_core[p]);
        const TimeT end_last = es[li] + s.Timing().ExecTime(last_on_core[p]);
        delay = std::max<TimeT>(0, end_last - es_t);
      }
      if (p == 0 || delay < best_delay) {
        best_core = p;
        best_delay = delay;
      }
      if (delay == 0) {
        // An idle-by-then core cannot be beaten; prefer the lowest index
        // for determinism.
        best_core = p;
        best_delay = 0;
        break;
      }
    }

    s.SetProcessor(t, best_core);
    if (last_on_core[best_core] != kInvalidTask) {
      // Eq. (9) + step 4: the ordering edge makes T_START = T_MIN +
      // lambda_p and propagates any delay through the window recomputation.
      s.Timing().AddOrderingEdge(last_on_core[best_core], t, /*gap=*/0);
    }
    last_on_core[best_core] = t;
  }
}

}  // namespace resched::pa
