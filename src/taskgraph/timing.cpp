#include "taskgraph/timing.hpp"

#include <algorithm>

namespace resched {

namespace {

/// Ordering for the sparse base-gap table.
bool GapKeyLess(const std::pair<std::pair<TaskId, TaskId>, TimeT>& entry,
                const std::pair<TaskId, TaskId>& key) {
  return entry.first < key;
}

}  // namespace

TimingContext::TimingContext(const TaskGraph& graph)
    : graph_(&graph),
      exec_(graph.NumTasks(), 0),
      release_(graph.NumTasks(), 0),
      extra_out_(graph.NumTasks()),
      extra_in_(graph.NumTasks()),
      visit_stamp_(graph.NumTasks(), 0),
      queued_(graph.NumTasks(), 0) {
  // Flatten the base graph into CSR once; the topology never changes over
  // the context's lifetime, only the gap weights do.
  const std::size_t n = graph.NumTasks();
  pred_off_.resize(n + 1, 0);
  succ_off_.resize(n + 1, 0);
  std::size_t edges = 0;
  for (std::size_t t = 0; t < n; ++t) {
    edges += graph.Predecessors(static_cast<TaskId>(t)).size();
  }
  pred_task_.reserve(edges);
  succ_task_.reserve(edges);
  for (std::size_t t = 0; t < n; ++t) {
    pred_off_[t] = pred_task_.size();
    for (const TaskId p : graph.Predecessors(static_cast<TaskId>(t))) {
      pred_task_.push_back(p);
    }
  }
  pred_off_[n] = pred_task_.size();
  for (std::size_t t = 0; t < n; ++t) {
    succ_off_[t] = succ_task_.size();
    for (const TaskId s : graph.Successors(static_cast<TaskId>(t))) {
      succ_task_.push_back(s);
    }
  }
  succ_off_[n] = succ_task_.size();
  pred_gap_.assign(pred_task_.size(), 0);
  succ_gap_.assign(succ_task_.size(), 0);
}

TimeT TimingContext::WriteCsrGap(TaskId from, TaskId to, TimeT gap) {
  const auto fi = static_cast<std::size_t>(from);
  const auto ti = static_cast<std::size_t>(to);
  TimeT old = 0;
  for (std::size_t e = pred_off_[ti]; e < pred_off_[ti + 1]; ++e) {
    if (pred_task_[e] == from) {
      old = pred_gap_[e];
      pred_gap_[e] = gap;
      break;
    }
  }
  for (std::size_t e = succ_off_[fi]; e < succ_off_[fi + 1]; ++e) {
    if (succ_task_[e] == to) {
      succ_gap_[e] = gap;
      break;
    }
  }
  if (gap != 0) have_base_gaps_ = true;
  return old;
}

void TimingContext::ClearCsrGaps() {
  if (!have_base_gaps_) return;
  std::fill(pred_gap_.begin(), pred_gap_.end(), TimeT{0});
  std::fill(succ_gap_.begin(), succ_gap_.end(), TimeT{0});
  have_base_gaps_ = false;
}

void TimingContext::Reset() {
  std::fill(exec_.begin(), exec_.end(), TimeT{0});
  std::fill(release_.begin(), release_.end(), TimeT{0});
  base_gaps_.clear();
  ClearCsrGaps();
  extra_.clear();
  for (auto& out : extra_out_) out.clear();
  for (auto& in : extra_in_) in.clear();
  order_current_ = false;
  full_sweep_pending_ = true;
  backward_stale_ = true;
}

void TimingContext::Seed(TaskId t) const {
  if (full_sweep_pending_) return;
  char& queued = queued_[static_cast<std::size_t>(t)];
  if (queued) return;
  queued = 1;
  seeds_.push_back(t);
}

void TimingContext::SeedSuccessors(TaskId t) const {
  const auto ti = static_cast<std::size_t>(t);
  for (std::size_t e = succ_off_[ti]; e < succ_off_[ti + 1]; ++e) {
    Seed(succ_task_[e]);
  }
  for (const std::size_t e : extra_out_[ti]) Seed(extra_[e].to);
}

void TimingContext::SetExecTime(TaskId t, TimeT exec) {
  RESCHED_CHECK_MSG(exec > 0, "execution time must be positive");
  const auto ti = static_cast<std::size_t>(t);
  TimeT& slot = exec_.at(ti);
  if (exec == slot) return;
  const bool grew = exec > slot;
  slot = exec;
  backward_stale_ = true;
  if (full_sweep_pending_) return;
  if (!grew) {
    // A shorter task can lower T_MIN values: not monotone.
    full_sweep_pending_ = true;
    return;
  }
  // t's own start is unchanged; its finish moved, so its successors and
  // the makespan may move. es[t] is a lower bound of its final value (a
  // pending seed can only raise it, and then Propagate retouches the
  // makespan), so the max below never overshoots.
  SeedSuccessors(t);
  windows_.makespan =
      std::max(windows_.makespan, windows_.earliest_start[ti] + exec);
}

TimeT TimingContext::ExecTime(TaskId t) const {
  return exec_.at(static_cast<std::size_t>(t));
}

bool TimingContext::Reaches(TaskId from, TaskId to) const {
  if (from == to) return true;
  // Epoch-stamped iterative DFS — no per-call allocation after warm-up.
  if (++stamp_ == 0) {  // stamp wrapped: invalidate everything once
    std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0u);
    stamp_ = 1;
  }
  dfs_stack_.clear();
  dfs_stack_.push_back(from);
  visit_stamp_[static_cast<std::size_t>(from)] = stamp_;
  while (!dfs_stack_.empty()) {
    const auto ui = static_cast<std::size_t>(dfs_stack_.back());
    dfs_stack_.pop_back();
    for (std::size_t e = succ_off_[ui]; e < succ_off_[ui + 1]; ++e) {
      const TaskId v = succ_task_[e];
      if (v == to) return true;
      auto& seen = visit_stamp_[static_cast<std::size_t>(v)];
      if (seen != stamp_) {
        seen = stamp_;
        dfs_stack_.push_back(v);
      }
    }
    for (const std::size_t e : extra_out_[ui]) {
      const TaskId v = extra_[e].to;
      if (v == to) return true;
      auto& seen = visit_stamp_[static_cast<std::size_t>(v)];
      if (seen != stamp_) {
        seen = stamp_;
        dfs_stack_.push_back(v);
      }
    }
  }
  return false;
}

void TimingContext::AddOrderingEdge(TaskId from, TaskId to, TimeT gap) {
  RESCHED_CHECK_MSG(gap >= 0, "negative ordering gap");
  RESCHED_CHECK_MSG(from != to, "self ordering edge");
  // Eager cycle check *before* inserting: the edge closes a cycle exactly
  // when `to` already reaches `from`. With current T_MIN values (and every
  // exec time positive, which a completed sweep guarantees) a path
  // to ~> from forces es[from] >= es[to] + exec[to], so the DFS only runs
  // when that holds or while a full sweep is still pending.
  bool may_close_cycle = true;
  if (!full_sweep_pending_) {
    UpdateEarliestStarts();
    const std::vector<TimeT>& es = windows_.earliest_start;
    const auto fi = static_cast<std::size_t>(from);
    const auto ti = static_cast<std::size_t>(to);
    may_close_cycle = es[fi] >= es[ti] + exec_[ti];
  }
  RESCHED_CHECK_MSG(!may_close_cycle || !Reaches(to, from),
                    "ordering edges introduced a cycle (scheduler bug)");
  const std::size_t index = extra_.size();
  extra_.push_back(OrderingEdge{from, to, gap});
  extra_out_[static_cast<std::size_t>(from)].push_back(index);
  extra_in_[static_cast<std::size_t>(to)].push_back(index);
  order_current_ = false;
  backward_stale_ = true;
  Seed(to);
}

void TimingContext::RaiseRelease(TaskId t, TimeT release) {
  auto& r = release_.at(static_cast<std::size_t>(t));
  if (release > r) {
    r = release;
    backward_stale_ = true;
    Seed(t);
  }
}

TimeT TimingContext::Release(TaskId t) const {
  return release_.at(static_cast<std::size_t>(t));
}

void TimingContext::SetBaseEdgeGap(TaskId from, TaskId to, TimeT gap) {
  RESCHED_CHECK_MSG(gap >= 0, "negative base edge gap");
  RESCHED_CHECK_MSG(graph_->HasEdge(from, to),
                    "SetBaseEdgeGap on a missing edge");
  const std::pair<TaskId, TaskId> key{from, to};
  const auto it =
      std::lower_bound(base_gaps_.begin(), base_gaps_.end(), key, GapKeyLess);
  const bool present = it != base_gaps_.end() && it->first == key;
  if (gap == 0) {
    if (present) base_gaps_.erase(it);
  } else if (present) {
    it->second = gap;
  } else {
    base_gaps_.insert(it, {key, gap});
  }
  const TimeT old = WriteCsrGap(from, to, gap);
  have_base_gaps_ = !base_gaps_.empty();
  if (gap == old) return;
  backward_stale_ = true;
  if (gap > old) {
    Seed(to);
  } else {
    full_sweep_pending_ = true;
  }
}

TimeT TimingContext::BaseEdgeGap(TaskId from, TaskId to) const {
  if (base_gaps_.empty()) return 0;  // the common case, checked first
  const std::pair<TaskId, TaskId> key{from, to};
  const auto it =
      std::lower_bound(base_gaps_.begin(), base_gaps_.end(), key, GapKeyLess);
  return it != base_gaps_.end() && it->first == key ? it->second : 0;
}

void TimingContext::AssignBaseEdgeGaps(
    const std::vector<std::pair<std::pair<TaskId, TaskId>, TimeT>>& gaps) {
  base_gaps_.assign(gaps.begin(), gaps.end());
  std::sort(base_gaps_.begin(), base_gaps_.end());
  ClearCsrGaps();
  for (const auto& [key, gap] : base_gaps_) {
    RESCHED_CHECK_MSG(gap >= 0, "negative base edge gap");
    RESCHED_CHECK_MSG(graph_->HasEdge(key.first, key.second),
                      "AssignBaseEdgeGaps on a missing edge");
    WriteCsrGap(key.first, key.second, gap);
  }
  full_sweep_pending_ = true;
  backward_stale_ = true;
}

const std::vector<TaskId>& TimingContext::CombinedTopologicalOrderRef() const {
  if (order_current_) return kahn_order_;
  const std::size_t n = exec_.size();
  kahn_indegree_.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    kahn_indegree_[t] = (pred_off_[t + 1] - pred_off_[t]) + extra_in_[t].size();
  }
  // Kahn's algorithm with the order vector doubling as the FIFO queue.
  kahn_order_.clear();
  for (std::size_t t = 0; t < n; ++t) {
    if (kahn_indegree_[t] == 0) kahn_order_.push_back(static_cast<TaskId>(t));
  }
  for (std::size_t head = 0; head < kahn_order_.size(); ++head) {
    const auto ti = static_cast<std::size_t>(kahn_order_[head]);
    for (std::size_t e = succ_off_[ti]; e < succ_off_[ti + 1]; ++e) {
      const TaskId s = succ_task_[e];
      if (--kahn_indegree_[static_cast<std::size_t>(s)] == 0) {
        kahn_order_.push_back(s);
      }
    }
    for (const std::size_t e : extra_out_[ti]) {
      const TaskId s = extra_[e].to;
      if (--kahn_indegree_[static_cast<std::size_t>(s)] == 0) {
        kahn_order_.push_back(s);
      }
    }
  }
  RESCHED_CHECK_MSG(kahn_order_.size() == n,
                    "ordering edges introduced a cycle (scheduler bug)");
  order_current_ = true;
  return kahn_order_;
}

std::vector<TaskId> TimingContext::CombinedTopologicalOrder() const {
  return CombinedTopologicalOrderRef();
}

const TimeWindows& TimingContext::Windows() const {
  UpdateEarliestStarts();
  if (backward_stale_) BackwardSweep();
  return windows_;
}

TimeT TimingContext::StartFromInEdges(std::size_t ti) const {
  // The CSR gap arrays are all-zero unless the communication-overhead
  // extension is active, so the common case is a pure `es[p] + exec[p]`
  // reduction over a contiguous slice.
  const auto& es = windows_.earliest_start;
  TimeT start = release_[ti];
  for (std::size_t e = pred_off_[ti]; e < pred_off_[ti + 1]; ++e) {
    const auto pi = static_cast<std::size_t>(pred_task_[e]);
    start = std::max(start, es[pi] + exec_[pi] + pred_gap_[e]);
  }
  for (const std::size_t e : extra_in_[ti]) {
    const auto pi = static_cast<std::size_t>(extra_[e].from);
    start = std::max(start, es[pi] + exec_[pi] + extra_[e].gap);
  }
  return start;
}

void TimingContext::ForwardSweep() const {
  const std::size_t n = exec_.size();
  for (std::size_t t = 0; t < n; ++t) {
    RESCHED_CHECK_MSG(exec_[t] > 0,
                      "Windows() before all execution times were set");
  }
  const std::vector<TaskId>& order = CombinedTopologicalOrderRef();

  // Forward sweep: T_MIN in topological order.
  auto& es = windows_.earliest_start;
  es.assign(n, 0);
  for (const TaskId t : order) {
    const auto ti = static_cast<std::size_t>(t);
    es[ti] = StartFromInEdges(ti);
  }

  TimeT makespan = 0;
  for (std::size_t t = 0; t < n; ++t) {
    makespan = std::max(makespan, es[t] + exec_[t]);
  }
  windows_.makespan = makespan;

  // The sweep covers every seed queued before it.
  for (const TaskId t : seeds_) queued_[static_cast<std::size_t>(t)] = 0;
  seeds_.clear();
  full_sweep_pending_ = false;
  backward_stale_ = true;
}

void TimingContext::Propagate() const {
  auto& es = windows_.earliest_start;
  TimeT makespan = windows_.makespan;
  // FIFO worklist: `seeds_` doubles as the queue, `head` walks it.
  for (std::size_t head = 0; head < seeds_.size(); ++head) {
    const TaskId t = seeds_[head];
    const auto ti = static_cast<std::size_t>(t);
    queued_[ti] = 0;
    const TimeT start = StartFromInEdges(ti);
    if (start <= es[ti]) continue;
    es[ti] = start;
    makespan = std::max(makespan, start + exec_[ti]);
    SeedSuccessors(t);
  }
  seeds_.clear();
  windows_.makespan = makespan;
}

void TimingContext::BackwardSweep() const {
  const std::size_t n = exec_.size();
  const std::vector<TaskId>& order = CombinedTopologicalOrderRef();
  const auto& es = windows_.earliest_start;
  const TimeT makespan = windows_.makespan;

  // Backward sweep: T_MAX.
  auto& lf = windows_.latest_finish;
  lf.assign(n, makespan);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const auto ti = static_cast<std::size_t>(*it);
    TimeT finish = lf[ti];
    for (std::size_t e = succ_off_[ti]; e < succ_off_[ti + 1]; ++e) {
      const auto si = static_cast<std::size_t>(succ_task_[e]);
      finish = std::min(finish, lf[si] - exec_[si] - succ_gap_[e]);
    }
    for (const std::size_t e : extra_out_[ti]) {
      const auto si = static_cast<std::size_t>(extra_[e].to);
      finish = std::min(finish, lf[si] - exec_[si] - extra_[e].gap);
    }
    lf[ti] = finish;
  }

  windows_.critical.assign(n, false);
  for (std::size_t t = 0; t < n; ++t) {
    windows_.critical[t] = (lf[t] - es[t] == exec_[t]);
  }
  backward_stale_ = false;
}

}  // namespace resched
