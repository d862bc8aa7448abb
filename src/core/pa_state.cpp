#include "core/pa_state.hpp"

#include <algorithm>

#include "core/cost_model.hpp"
#include "sched/comm.hpp"

namespace resched::pa {

PaScratch::PaScratch(const PaContext& ctx)
    : ctx_(&ctx),
      avail_cap_(ctx.Inst().platform.Device().Capacity()),
      impl_of_(ctx.NumTasks(), 0),
      timing_(ctx.Inst().graph),
      critical0_(ctx.NumTasks(), 0),
      region_of_(ctx.NumTasks(), -1),
      used_cap_(ctx.Inst().platform.Device().Model().ZeroVec()),
      processor_of_(ctx.NumTasks(), -1),
      buffers_(arena_) {
  // Controller-lane resolution: bucket the [0, MaxT] axis into at most
  // ~1024 bits so a lane's gap index stays a few words wide.
  const auto maxt = static_cast<std::uint64_t>(ctx.MaxT());
  while ((maxt >> tl_shift_) >= 1024) ++tl_shift_;
  tl_bits_ = static_cast<std::size_t>(maxt >> tl_shift_) + 2;
}

void PaScratch::Reset(const ResourceVec& avail_cap) {
  avail_cap_ = avail_cap;
  std::fill(impl_of_.begin(), impl_of_.end(), std::size_t{0});
  timing_.Reset();
  std::fill(critical0_.begin(), critical0_.end(), char{0});
  for (std::size_t s = 0; s < num_regions_; ++s) {
    regions_[s].tasks.clear();  // keeps capacity
  }
  num_regions_ = 0;
  by_bits_.clear();
  std::fill(region_of_.begin(), region_of_.end(), -1);
  used_cap_ = Inst().platform.Device().Model().ZeroVec();
  std::fill(processor_of_.begin(), processor_of_.end(), -1);
}

void PaScratch::SetImpl(TaskId t, std::size_t impl_index) {
  RESCHED_DCHECK_MSG(
      t >= 0 && static_cast<std::size_t>(t) < impl_of_.size(),
      "task id out of range");
  const Task& task = Inst().graph.GetTask(t);
  RESCHED_CHECK_MSG(impl_index < task.impls.size(), "impl index out of range");
  impl_of_[static_cast<std::size_t>(t)] = impl_index;
  timing_.SetExecTime(t, task.impls[impl_index].exec_time);

  // Communication-overhead extension: the HW/SW domain of `t` may have
  // changed, so refresh the transfer gaps on its incident edges.
  const TaskGraph& graph = Inst().graph;
  if (graph.HasEdgeData() &&
      Inst().platform.HwSwBandwidthBytesPerSec() > 0.0) {
    const bool t_hw = ChosenImpl(t).IsHardware();
    for (const TaskId p : graph.Predecessors(t)) {
      timing_.SetBaseEdgeGap(
          p, t,
          CommGap(Inst().platform, graph, p, t,
                  ChosenImpl(p).IsHardware(), t_hw));
    }
    for (const TaskId s : graph.Successors(t)) {
      timing_.SetBaseEdgeGap(
          t, s,
          CommGap(Inst().platform, graph, t, s, t_hw,
                  ChosenImpl(s).IsHardware()));
    }
  }
}

const Implementation& PaScratch::ChosenImpl(TaskId t) const {
  return Inst().graph.GetImpl(t, impl_of_.at(static_cast<std::size_t>(t)));
}

void PaScratch::SwitchToSoftware(TaskId t) {
  RESCHED_CHECK_MSG(RegionOf(t) < 0,
                    "cannot switch a region-assigned task to software");
  SetImpl(t, ctx_->FastestSoftwareImpl(t));
}

void PaScratch::AdoptInitialImplementations() {
  impl_of_ = ctx_->InitialImpls();
  const std::vector<TimeT>& exec = ctx_->InitialExecTimes();
  for (std::size_t ti = 0; ti < exec.size(); ++ti) {
    timing_.SetExecTime(static_cast<TaskId>(ti), exec[ti]);
  }
  timing_.AssignBaseEdgeGaps(ctx_->InitialEdgeGaps());
}

void PaScratch::AdoptInitialCriticality() {
  critical0_ = ctx_->InitialCriticalMask();
}

void PaScratch::SnapshotCriticality() {
  const TimeWindows& win = timing_.Windows();
  for (std::size_t t = 0; t < critical0_.size(); ++t) {
    critical0_[t] = win.critical[t] ? 1 : 0;
  }
}

bool PaScratch::HasFreeCapacity(const ResourceVec& res) const {
  return (used_cap_ + res).FitsWithin(avail_cap_);
}

bool PaScratch::CanHost(std::size_t region, TaskId t, std::size_t impl_index,
                        bool require_reconf_room) const {
  RESCHED_CHECK_MSG(region < num_regions_, "region out of range");
  const DraftRegion& r = regions_[region];
  const Implementation& impl = Inst().graph.GetImpl(t, impl_index);
  RESCHED_CHECK_MSG(impl.IsHardware(), "CanHost with software implementation");
  if (!impl.res.FitsWithin(r.res)) return false;

  // Overlap test on the *planned occupancy slots* [T_MIN, T_MIN + exec).
  //
  // Interpretation note (see DESIGN.md §4): testing on the full
  // [T_MIN, T_MAX] windows would reject almost every reuse, because
  // non-critical windows are wide and mutually overlapping; slots are what
  // the tasks will actually occupy (§V-E pins T_START = T_MIN), and the
  // serialization edges added on assignment guarantee region exclusivity
  // even when later delay propagation shifts the slots.
  const std::vector<TimeT>& es = timing_.EarliestStarts();
  const auto ti = static_cast<std::size_t>(t);
  const TimeT start_t = es[ti];
  const TimeT end_t = start_t + timing_.ExecTime(t);
  const TimeT room = require_reconf_room ? r.reconf_time : 0;
  for (const TaskId u : r.tasks) {
    const auto ui = static_cast<std::size_t>(u);
    const TimeT start_u = es[ui];
    const TimeT end_u = start_u + timing_.ExecTime(u);
    // Slots must be disjoint; with reconf room, the side on which the
    // reconfiguration would run must additionally fit reconf_s — unless
    // the pair shares a module under the reuse extension (no
    // reconfiguration will run between them).
    TimeT pair_room = room;
    if (pair_room > 0 && Options().module_reuse) {
      const Implementation& u_impl = ChosenImpl(u);
      if (u_impl.module_id >= 0 && u_impl.module_id == impl.module_id) {
        pair_room = 0;
      }
    }
    const bool u_before_t = end_u + pair_room <= start_t;
    const bool t_before_u = end_t + pair_room <= start_u;
    if (!u_before_t && !t_before_u) return false;
  }
  return true;
}

bool PaScratch::WouldAvoidReconf(std::size_t region, TaskId t,
                                 std::size_t impl_index) const {
  if (!Options().module_reuse) return false;
  const DraftRegion& r = Region(region);
  const Implementation& impl = Inst().graph.GetImpl(t, impl_index);
  if (impl.module_id < 0) return false;

  // Insertion position by earliest start (same rule as AssignToRegion).
  const std::vector<TimeT>& es = timing_.EarliestStarts();
  const TimeT es_t = es[static_cast<std::size_t>(t)];
  std::size_t pos = 0;
  while (pos < r.tasks.size() &&
         es[static_cast<std::size_t>(r.tasks[pos])] < es_t) {
    ++pos;
  }
  if (pos == 0) return false;  // would be first: initial config is free anyway
  return ChosenImpl(r.tasks[pos - 1]).module_id == impl.module_id;
}

std::size_t PaScratch::CreateRegionFor(TaskId t) {
  const Implementation& impl = ChosenImpl(t);
  RESCHED_CHECK_MSG(impl.IsHardware(), "region for a software implementation");
  RESCHED_CHECK_MSG(HasFreeCapacity(impl.res), "no capacity for new region");
  if (num_regions_ == regions_.size()) {
    regions_.emplace_back(arena_);  // pool growth (rare after warm-up)
  }
  DraftRegion& region = regions_[num_regions_];
  region.res = impl.res;
  region.bits = Inst().platform.Device().BitstreamBits(region.res);
  region.reconf_time = Inst().platform.ReconfTicks(region.res);
  region.tasks.clear();
  region.tasks.push_back(t);
  // Equal bits keep creation order: the new index goes after them.
  by_bits_.insert(std::upper_bound(by_bits_.begin(), by_bits_.end(),
                                   region.bits,
                                   [this](double bits, std::size_t r) {
                                     return bits < regions_[r].bits;
                                   }),
                  num_regions_);
  ++num_regions_;
  used_cap_ += impl.res;
  RESCHED_DCHECK_MSG(used_cap_.FitsWithin(avail_cap_),
                     "FPGA capacity invariant broken by region creation");
  region_of_[static_cast<std::size_t>(t)] =
      static_cast<int>(num_regions_ - 1);
  return num_regions_ - 1;
}

TimeT PaScratch::RegionGap(std::size_t region, TaskId before,
                           TaskId after) const {
  if (Options().module_reuse) {
    const Implementation& a = ChosenImpl(before);
    const Implementation& b = ChosenImpl(after);
    if (a.module_id >= 0 && a.module_id == b.module_id) return 0;
  }
  return Region(region).reconf_time;
}

void PaScratch::AssignToRegion(std::size_t region, TaskId t) {
  RESCHED_CHECK_MSG(region < num_regions_, "region out of range");
  RESCHED_CHECK_MSG(RegionOf(t) < 0, "task already assigned to a region");
  DraftRegion& r = regions_[region];
  const std::vector<TimeT>& es = timing_.EarliestStarts();
  const TimeT es_t = es[static_cast<std::size_t>(t)];

  // Insert position: tasks in a region have pairwise-disjoint windows, so
  // ordering by earliest start equals ordering by windows.
  std::size_t pos = 0;
  while (pos < r.tasks.size() &&
         es[static_cast<std::size_t>(r.tasks[pos])] < es_t) {
    ++pos;
  }
  r.tasks.insert(r.tasks.begin() + static_cast<std::ptrdiff_t>(pos), t);
  region_of_[static_cast<std::size_t>(t)] = static_cast<int>(region);
  // Region exclusivity invariant: insertion kept the serialization order
  // aligned with the earliest-start order on both sides.
  RESCHED_DCHECK_MSG(
      pos == 0 ||
          es[static_cast<std::size_t>(r.tasks[pos - 1])] <= es_t,
      "region serialization order broken on the left neighbour");
  RESCHED_DCHECK_MSG(
      pos + 1 >= r.tasks.size() ||
          es_t <= es[static_cast<std::size_t>(r.tasks[pos + 1])],
      "region serialization order broken on the right neighbour");

  // Serialization edges with reconfiguration gaps. Stale prev->next edges
  // from earlier insertions remain in the timing context but are dominated
  // by the two new edges, so they are harmless.
  if (pos > 0) {
    const TaskId prev = r.tasks[pos - 1];
    timing_.AddOrderingEdge(prev, t, RegionGap(region, prev, t));
  }
  if (pos + 1 < r.tasks.size()) {
    const TaskId next = r.tasks[pos + 1];
    timing_.AddOrderingEdge(t, next, RegionGap(region, t, next));
  }
}

TimeT PaScratch::TotalReconfTimeEstimate() const {
  TimeT total = 0;
  for (std::size_t s = 0; s < num_regions_; ++s) {
    const DraftRegion& r = regions_[s];
    if (r.tasks.size() > 1) {
      total += r.reconf_time * static_cast<TimeT>(r.tasks.size() - 1);
    }
  }
  return total;
}

}  // namespace resched::pa
