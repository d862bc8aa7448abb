// §V-G reconfigurations scheduling.
//
// One reconfiguration task is generated between every pair of consecutive
// tasks in a region (skipped between same-module neighbours when the
// module-reuse extension is active). As in the paper, critical
// reconfigurations (those whose outgoing task is critical) get priority on
// the single controller, and every delay a reconfiguration induces is
// propagated over the task graph.
//
// Scheduling order: the paper processes reconfigurations by increasing
// T_MIN and shifts colliding ones "ahead in time", re-propagating delays.
// Iterating shift-and-propagate literally can churn for a long time when
// controller-order flips feed back through the task graph, so we use an
// equivalent correct-by-construction formulation: a reconfiguration R
// becomes *available* only when every reconfiguration R' whose outgoing
// task (weakly) precedes R's ingoing task has been scheduled — then R's
// T_MIN = end(t_in) is final. Among available reconfigurations we pick
// critical ones first, then lowest T_MIN, and place each in the earliest
// controller gap at or after its T_MIN, raising the outgoing task's
// release. The availability relation is acyclic (a cycle would imply a
// cycle among task dependencies), so this terminates in one pass and the
// emitted timeline satisfies every §III constraint by construction.
//
// R's T_MIN is final once R is available: a later placement only raises
// the release of its own outgoing task, and that task reaches R's ingoing
// task only if its reconfiguration blocks R — it was then scheduled
// before R became available. So T_MIN is read once, at availability, and
// the available set lives in a heap ordered by (critical first, T_MIN,
// pending index), which pops exactly the reconfiguration a scan of every
// pending one would pick. The relation itself comes from reachability
// rows: a task is the ingoing task of at most one reconfiguration (its
// successor within its one region), so row(t_out) AND the ingoing-task
// mask lists exactly the reconfigurations that R blocks.
#include <algorithm>
#include <bit>

#include "core/pa_state.hpp"

namespace resched::pa {

namespace {

using PendingReconf = StageBuffers::PendingReconf;
using ReadyReconf = StageBuffers::ReadyReconf;

/// Heap order of the available set: true when `a` is picked after `b`.
bool PickedAfter(const ReadyReconf& a, const ReadyReconf& b) {
  if (a.critical != b.critical) return b.critical;
  if (a.tmin != b.tmin) return a.tmin > b.tmin;
  return a.index > b.index;
}

TimeT EndOf(const PaScratch& s, TaskId t) {
  return s.Timing().EarliestStarts()[static_cast<std::size_t>(t)] +
         s.Timing().ExecTime(t);
}

/// Dense reachability over the task graph plus the scheduler's ordering
/// edges: reach[u] contains u itself and every task a path from u leads
/// to. The bitset and adjacency storage live in the scratch buffers.
class Reachability {
 public:
  Reachability(const PaScratch& s, StageBuffers& buf)
      : bits_(buf.reach_bits) {
    const TaskGraph& graph = s.Inst().graph;
    const std::size_t n = graph.NumTasks();
    words_ = (n + 63) / 64;
    bits_.assign(n * words_, 0);

    // Combined adjacency (graph + ordering edges).
    ArenaVec<std::vector<TaskId>>& succs = buf.combined_succs;
    if (succs.size() < n) succs.resize(n);
    for (std::size_t t = 0; t < n; ++t) {
      const std::vector<TaskId>& base = graph.Successors(static_cast<TaskId>(t));
      succs[t].assign(base.begin(), base.end());
    }
    for (const OrderingEdge& e : s.Timing().ExtraEdges()) {
      // Reused scratch: capacity persists across restarts, so these few
      // appends do not reallocate in steady state.
      auto& list = succs[static_cast<std::size_t>(e.from)];
      list.push_back(e.to);  // resched-lint: allow(reserve-before-push-hot)
    }

    const std::vector<TaskId>& order =
        s.Timing().CombinedTopologicalOrderRef();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const auto u = static_cast<std::size_t>(*it);
      Set(u, u);
      for (const TaskId v : succs[u]) {
        OrInto(u, static_cast<std::size_t>(v));
      }
    }
  }

  std::size_t Words() const { return words_; }
  /// reach[from] as Words() 64-bit words (bit t set when from reaches t).
  const std::uint64_t* Row(TaskId from) const {
    return bits_.data() + static_cast<std::size_t>(from) * words_;
  }

 private:
  void Set(std::size_t row, std::size_t bit) {
    bits_[row * words_ + bit / 64] |= std::uint64_t{1} << (bit % 64);
  }
  void OrInto(std::size_t dst_row, std::size_t src_row) {
    for (std::size_t w = 0; w < words_; ++w) {
      bits_[dst_row * words_ + w] |= bits_[src_row * words_ + w];
    }
  }

  std::size_t words_ = 0;
  ArenaVec<std::uint64_t>& bits_;
};

}  // namespace

TimeT FirstLaneGap(const std::vector<std::pair<TimeT, TimeT>>& slots,
                   TimeT lo, TimeT duration, std::size_t* resume) {
  std::size_t i = resume ? *resume : 0;
  // A hint is valid when every slot before it ends at or before lo; ends
  // are monotone (disjoint slots sorted by start), so checking the last
  // skipped slot covers the whole prefix. Stale hints (a smaller lo than
  // the previous query, or an insertion since) fall back to binary search
  // over the monotone ends.
  if (i > slots.size() || (i > 0 && slots[i - 1].second > lo)) {
    i = static_cast<std::size_t>(
        std::partition_point(slots.begin(), slots.end(),
                             [lo](const std::pair<TimeT, TimeT>& s) {
                               return s.second <= lo;
                             }) -
        slots.begin());
  }
  TimeT candidate = lo;
  for (; i < slots.size(); ++i) {
    if (slots[i].second <= candidate) continue;
    if (slots[i].first >= candidate + duration) break;
    candidate = slots[i].second;
  }
  // Every slot before i now ends at or before candidate — a valid hint
  // for any future query with lo >= candidate.
  if (resume) *resume = i;
  return candidate;
}

void RunReconfigurationScheduling(const PaContext& ctx, PaScratch& s) {
  (void)ctx;
  StageBuffers& buf = s.Buffers();
  ArenaVec<ReconfSlot>& timeline = buf.timeline;  // sorted by start
  timeline.clear();

  // ---- build the reconfiguration task set RT.
  ArenaVec<PendingReconf>& pending = buf.pending;
  pending.clear();
  {
    const TimeWindows& win = s.Timing().Windows();
    for (std::size_t r = 0; r < s.NumRegions(); ++r) {
      const DraftRegion& region = s.Region(r);
      for (std::size_t i = 0; i + 1 < region.tasks.size(); ++i) {
        const TaskId t_in = region.tasks[i];
        const TaskId t_out = region.tasks[i + 1];
        if (s.RegionGap(r, t_in, t_out) == 0) continue;  // module reuse
        pending.push_back(PendingReconf{
            r, t_in, t_out, region.reconf_time,
            win.critical[static_cast<std::size_t>(t_out)]});
      }
    }
  }
  if (pending.empty()) return;

  // Per-controller lanes: slot list + bucketed gap index + cursors. The
  // gap index is set-only within one run (slots are only ever added), the
  // GapCursor soundness precondition.
  const std::size_t controllers = s.Inst().platform.NumReconfigurators();
  if (buf.lanes.size() < controllers) buf.lanes.resize(controllers);
  for (std::size_t c = 0; c < controllers; ++c) {
    StageBuffers::ControllerLane& lane = buf.lanes[c];
    lane.slots.clear();
    lane.index.ResizeAndClear(s.TimeBuckets());
    lane.cursor = {};
    lane.resume = 0;
  }

  const Reachability reach(s, buf);

  // blocks[i]: the reconfigurations i must be scheduled before, because
  // i's outgoing task weakly precedes their ingoing task (so scheduling i
  // can still move their T_MIN).
  const std::size_t m = pending.size();
  const std::size_t words = reach.Words();
  ArenaVec<std::uint64_t>& tin_mask = buf.tin_mask;
  tin_mask.assign(words, 0);
  ArenaVec<std::size_t>& reconf_in = buf.reconf_in;
  reconf_in.assign(s.NumTasks(), m);
  for (std::size_t j = 0; j < m; ++j) {
    const auto t_in = static_cast<std::size_t>(pending[j].t_in);
    RESCHED_CHECK_MSG(reconf_in[t_in] == m,
                      "task is the ingoing task of two reconfigurations");
    reconf_in[t_in] = j;
    tin_mask[t_in / 64] |= std::uint64_t{1} << (t_in % 64);
  }
  ArenaVec<std::size_t>& blockers = buf.blockers;
  blockers.assign(m, 0);
  ArenaVec<std::vector<std::size_t>>& blocks = buf.blocks;
  if (blocks.size() < m) blocks.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    blocks[i].clear();
    const std::uint64_t* row = reach.Row(pending[i].t_out);
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t hit = row[w] & tin_mask[w]; hit != 0;
           hit &= hit - 1) {
        const std::size_t j =
            reconf_in[w * 64 + static_cast<std::size_t>(std::countr_zero(hit))];
        if (j == i) continue;
        blocks[i].push_back(j);
        ++blockers[j];
      }
    }
  }

  // Available set, keyed by the T_MIN read when each entry became
  // available (final from then on; see the header).
  ArenaVec<ReadyReconf>& ready = buf.ready;
  ready.clear();
  const auto make_available = [&](std::size_t j) {
    ready.push_back(ReadyReconf{pending[j].critical,
                                EndOf(s, pending[j].t_in), j});
    std::push_heap(ready.begin(), ready.end(), PickedAfter);
  };
  for (std::size_t j = 0; j < m; ++j) {
    if (blockers[j] == 0) make_available(j);
  }

  for (std::size_t scheduled = 0; scheduled < m; ++scheduled) {
    // Critical first (paper §V-G), then lowest T_MIN, then stable index.
    RESCHED_CHECK_MSG(!ready.empty(),
                      "reconfiguration availability relation has a cycle");
    std::pop_heap(ready.begin(), ready.end(), PickedAfter);
    const std::size_t pick = ready.back().index;
    const TimeT pick_tmin = ready.back().tmin;
    ready.pop_back();

    const PendingReconf& r = pending[pick];
    // Pick the controller offering the earliest gap (always controller 0
    // in the paper's single-controller model). The O(1) gap-index probe
    // answers the common "controller free at T_MIN" case without touching
    // the slot list; a blocked bucket window falls back to the exact
    // resume-cursor walk — bit-identical either way (outward-rounded
    // buckets: a clear window proves no tick-level overlap, so the exact
    // scan would return lo too; an occupied window decides nothing).
    std::size_t best_c = 0;
    TimeT start = kTimeInfinity;
    for (std::size_t c = 0; c < controllers; ++c) {
      StageBuffers::ControllerLane& lane = buf.lanes[c];
      const std::size_t blo = s.TimeBucketLo(pick_tmin);
      const std::size_t bhi = s.TimeBucketHi(pick_tmin + r.exe);
      TimeT gap_start;
      if (lane.index.FirstGap(blo, bhi - blo, &lane.cursor) == blo) {
        gap_start = pick_tmin;
      } else {
        gap_start = FirstLaneGap(lane.slots, pick_tmin, r.exe, &lane.resume);
      }
      if (gap_start < start) {
        start = gap_start;
        best_c = c;
        if (start == pick_tmin) break;  // no controller can start earlier
      }
    }
    const TimeT end = start + r.exe;
    const ReconfSlot slot{r.region, r.t_out, start, end, best_c};
    const auto pos = std::upper_bound(
        timeline.begin(), timeline.end(), slot,
        [](const ReconfSlot& a, const ReconfSlot& b) {
          return a.start < b.start;
        });
    timeline.insert(pos, slot);
    StageBuffers::ControllerLane& lane = buf.lanes[best_c];
    const std::pair<TimeT, TimeT> lane_slot{start, end};
    lane.slots.insert(
        std::upper_bound(lane.slots.begin(), lane.slots.end(), lane_slot),
        lane_slot);
    lane.index.Set(s.TimeBucketLo(start), s.TimeBucketHi(end));

    // Delay propagation: the outgoing task cannot start before the
    // reconfiguration completes; the window recomputation carries the
    // delay over the task graph.
    s.Timing().RaiseRelease(r.t_out, end);

    for (const std::size_t j : blocks[pick]) {
      if (--blockers[j] == 0) make_available(j);
    }
  }
}

}  // namespace resched::pa
