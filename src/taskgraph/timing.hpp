// Critical Path Method engine (§V-B) over the task graph plus the ordering
// edges the scheduler adds while building a solution.
//
// The paper manipulates three timing notions:
//   * a time window w_t = [T_MIN_t, T_MAX_t] per task (earliest start,
//     latest delay-free finish) recomputed "with respect to the current
//     tasks dependencies" whenever implementations or orderings change;
//   * extra dependencies inserted to serialize tasks sharing a
//     reconfigurable region or a processor;
//   * delay propagation when a task is forced to finish after T_MAX.
//
// TimingContext models all three: ordering edges carry a *gap* weight (the
// reconfiguration time that must elapse between two consecutive tasks in
// the same region — zero for processor ordering), and per-task release
// times encode externally imposed delays (reconfigurator contention).
//
// Update rule (DESIGN.md §8). T_MIN and the makespan are maintained; T_MAX
// and criticality are derived only when Windows() is read.
//   * Monotone mutations — an ordering edge, a release raise, an exec-time
//     or base-gap increase — can only raise T_MIN values. They queue seed
//     tasks (the edge's target, the released task, the slower task's
//     successors, the gap's target); the next read re-evaluates each seed
//     from its in-edges and pushes its successors only when its T_MIN rose.
//     Values only grow, so this reaches the fixpoint a full sweep computes.
//   * Every other mutation (Reset, an exec-time or base-gap decrease,
//     AssignBaseEdgeGaps) schedules one full forward sweep in O(V + E).
//   * Windows() adds the backward sweep (T_MAX) and the criticality labels,
//     rerun only when something changed since the last Windows() read.
//
// Hot-path note: a TimingContext sits inside every PaScratch and is Reset()
// once per PA-R restart, so all mutators and sweeps reuse member buffers —
// after warm-up, no call here allocates (see DESIGN.md §8).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "taskgraph/taskgraph.hpp"

namespace resched {

/// Ordering edge with a minimum time gap between from's end and to's start.
struct OrderingEdge {
  TaskId from = kInvalidTask;
  TaskId to = kInvalidTask;
  TimeT gap = 0;
};

/// CPM result. Windows follow the paper's convention: `earliest_start` is
/// T_MIN (earliest start instant) and `latest_finish` is T_MAX (latest
/// completion that does not delay the schedule).
struct TimeWindows {
  std::vector<TimeT> earliest_start;
  std::vector<TimeT> latest_finish;
  std::vector<bool> critical;
  TimeT makespan = 0;

  TimeT WindowLength(TaskId t) const {
    return latest_finish[static_cast<std::size_t>(t)] -
           earliest_start[static_cast<std::size_t>(t)];
  }
};

class TimingContext {
 public:
  /// Captures the graph topology; execution times start at 0 and must be
  /// set for every task before the first Windows() call.
  explicit TimingContext(const TaskGraph& graph);

  std::size_t NumTasks() const { return exec_.size(); }

  /// Returns to the just-constructed state (no extra edges, zero releases,
  /// no base-edge gaps, execution times unset) while keeping every buffer's
  /// capacity — the restart-loop reset.
  void Reset();

  void SetExecTime(TaskId t, TimeT exec);
  TimeT ExecTime(TaskId t) const;

  /// Serializes `from` before `to` with a minimum gap (reconfiguration
  /// time) between from's end and to's start. Throws InternalError if the
  /// edge would close a cycle.
  void AddOrderingEdge(TaskId from, TaskId to, TimeT gap);

  /// Raises the earliest admissible start of `t` (reconfigurator-contention
  /// delays); never lowers it.
  void RaiseRelease(TaskId t, TimeT release);
  TimeT Release(TaskId t) const;

  /// Communication-overhead extension: sets the minimum gap between the
  /// end of `from` and the start of `to` along the *base* graph edge
  /// (from, to). Unlike releases this may be lowered again — the gap
  /// depends on the endpoints' current HW/SW domains, which the scheduler
  /// revises. Requires the base edge to exist.
  void SetBaseEdgeGap(TaskId from, TaskId to, TimeT gap);
  TimeT BaseEdgeGap(TaskId from, TaskId to) const;

  /// Bulk variant: replaces the whole base-gap table with `gaps` (sorted or
  /// not; entries must reference existing edges and non-negative gaps).
  /// Used to install a precomputed phase-A gap state in one assignment.
  void AssignBaseEdgeGaps(
      const std::vector<std::pair<std::pair<TaskId, TaskId>, TimeT>>& gaps);

  const std::vector<OrderingEdge>& ExtraEdges() const { return extra_; }

  /// T_MIN per task over base + extra edges (brought up to date first).
  /// The reference stays valid for the context's lifetime; its values
  /// change with the next mutation. The PA hot loop reads this.
  const std::vector<TimeT>& EarliestStarts() const {
    UpdateEarliestStarts();
    return windows_.earliest_start;
  }
  TimeT Makespan() const {
    UpdateEarliestStarts();
    return windows_.makespan;
  }

  /// The full CPM windows: T_MIN plus T_MAX and criticality, whose
  /// backward sweep reruns only when a mutation happened since the last
  /// Windows() read.
  const TimeWindows& Windows() const;

  /// Topological order over base + extra edges (by value; see
  /// CombinedTopologicalOrderRef for the allocation-free variant).
  std::vector<TaskId> CombinedTopologicalOrder() const;

  /// Allocation-free variant, cached until the edge set changes: the
  /// returned reference stays valid until the next mutation of this
  /// context.
  const std::vector<TaskId>& CombinedTopologicalOrderRef() const;

 private:
  void UpdateEarliestStarts() const {
    if (full_sweep_pending_) {
      ForwardSweep();
    } else if (!seeds_.empty()) {
      Propagate();
    }
  }
  /// max(release, es[p] + exec[p] + gap) over the in-edges of task `ti`.
  TimeT StartFromInEdges(std::size_t ti) const;
  /// Full forward sweep: T_MIN and the makespan from scratch.
  void ForwardSweep() const;
  /// Drains the seed queue: re-evaluates each seed from its in-edges and
  /// queues its successors when its T_MIN rose.
  void Propagate() const;
  /// Queues `t` for re-evaluation (no-op while a full sweep is pending).
  void Seed(TaskId t) const;
  void SeedSuccessors(TaskId t) const;
  /// Backward sweep (T_MAX) plus the criticality labels.
  void BackwardSweep() const;
  /// True when a path `from` ~> `to` exists over base + extra edges.
  bool Reaches(TaskId from, TaskId to) const;
  /// Mirrors one base-gap table entry into the CSR gap arrays; returns the
  /// gap it replaced.
  TimeT WriteCsrGap(TaskId from, TaskId to, TimeT gap);
  /// Zeroes the CSR gap arrays iff any entry may be non-zero.
  void ClearCsrGaps();

  const TaskGraph* graph_;
  std::vector<TimeT> exec_;
  std::vector<TimeT> release_;
  /// Sparse base-edge gap table, sorted by (from, to); nearly always empty
  /// (only the communication-overhead extension populates it).
  std::vector<std::pair<std::pair<TaskId, TaskId>, TimeT>> base_gaps_;
  // Flat CSR image of the base graph, built once at construction. The CPM
  // sweeps and the seed propagation are the scheduler's innermost loop, so
  // they walk these contiguous arrays instead of chasing per-task
  // adjacency vectors and doing a gap lookup per edge.
  // `pred_gap_`/`succ_gap_` mirror base_gaps_ entry-for-entry and are all
  // zero whenever base_gaps_ is empty (the common case).
  std::vector<std::size_t> pred_off_;  // n + 1
  std::vector<std::size_t> succ_off_;  // n + 1
  std::vector<TaskId> pred_task_;
  std::vector<TaskId> succ_task_;
  std::vector<TimeT> pred_gap_;
  std::vector<TimeT> succ_gap_;
  /// True while any CSR gap slot may be non-zero (cleared lazily on Reset).
  bool have_base_gaps_ = false;
  std::vector<OrderingEdge> extra_;
  // Extra-edge adjacency for fast sweeps.
  std::vector<std::vector<std::size_t>> extra_out_;
  std::vector<std::vector<std::size_t>> extra_in_;

  // Reusable sweep/DFS scratch (sized once to NumTasks()).
  mutable std::vector<std::size_t> kahn_indegree_;
  mutable std::vector<TaskId> kahn_order_;
  /// kahn_order_ matches the current edge set (cleared by edge changes).
  mutable bool order_current_ = false;
  mutable std::vector<std::uint32_t> visit_stamp_;
  mutable std::uint32_t stamp_ = 0;
  mutable std::vector<TaskId> dfs_stack_;

  // Incremental T_MIN state: a FIFO of seed tasks (drained by the next
  // read) and a per-task queued flag so a task sits in it at most once.
  mutable std::vector<TaskId> seeds_;
  mutable std::vector<char> queued_;

  mutable TimeWindows windows_;
  /// T_MIN must be rebuilt from scratch (seeds are then ignored).
  mutable bool full_sweep_pending_ = true;
  /// T_MAX/criticality are older than the last mutation.
  mutable bool backward_stale_ = true;
};

}  // namespace resched
