#include "taskgraph/taskgraph.hpp"

#include <algorithm>
#include <deque>

namespace resched {

TaskId TaskGraph::AddTask(std::string name) {
  const TaskId id = static_cast<TaskId>(tasks_.size());
  tasks_.push_back(Task{id, std::move(name), {}});
  succs_.emplace_back();
  preds_.emplace_back();
  return id;
}

std::size_t TaskGraph::AddImpl(TaskId task, Implementation impl) {
  CheckTask(task);
  RESCHED_CHECK_MSG(impl.exec_time > 0, "implementation with non-positive time");
  if (impl.IsSoftware()) {
    RESCHED_CHECK_MSG(impl.res.size() == 0 || impl.res.IsZero(),
                      "software implementation must not require resources");
  }
  tasks_[static_cast<std::size_t>(task)].impls.push_back(std::move(impl));
  return tasks_[static_cast<std::size_t>(task)].impls.size() - 1;
}

void TaskGraph::AddEdge(TaskId from, TaskId to) {
  CheckTask(from);
  CheckTask(to);
  RESCHED_CHECK_MSG(from != to, "self-dependency");
  if (HasEdge(from, to)) return;
  succs_[static_cast<std::size_t>(from)].push_back(to);
  preds_[static_cast<std::size_t>(to)].push_back(from);
  ++num_edges_;
}

void TaskGraph::SetEdgeData(TaskId from, TaskId to, std::int64_t bytes) {
  RESCHED_CHECK_MSG(HasEdge(from, to), "SetEdgeData on a missing edge");
  RESCHED_CHECK_MSG(bytes >= 0, "negative edge payload");
  if (bytes == 0) {
    edge_data_.erase({from, to});
  } else {
    edge_data_[{from, to}] = bytes;
  }
}

std::int64_t TaskGraph::EdgeData(TaskId from, TaskId to) const {
  RESCHED_CHECK_MSG(HasEdge(from, to), "EdgeData on a missing edge");
  const auto it = edge_data_.find({from, to});
  return it == edge_data_.end() ? 0 : it->second;
}

const Task& TaskGraph::GetTask(TaskId t) const {
  CheckTask(t);
  return tasks_[static_cast<std::size_t>(t)];
}

const Implementation& TaskGraph::GetImpl(TaskId t,
                                         std::size_t impl_index) const {
  const Task& task = GetTask(t);
  RESCHED_CHECK_MSG(impl_index < task.impls.size(), "impl index out of range");
  return task.impls[impl_index];
}

const std::vector<TaskId>& TaskGraph::Successors(TaskId t) const {
  CheckTask(t);
  return succs_[static_cast<std::size_t>(t)];
}

const std::vector<TaskId>& TaskGraph::Predecessors(TaskId t) const {
  CheckTask(t);
  return preds_[static_cast<std::size_t>(t)];
}

bool TaskGraph::HasEdge(TaskId from, TaskId to) const {
  CheckTask(from);
  CheckTask(to);
  const auto& s = succs_[static_cast<std::size_t>(from)];
  return std::find(s.begin(), s.end(), to) != s.end();
}

std::vector<TaskId> TaskGraph::TopologicalOrder() const {
  std::vector<std::size_t> indegree(tasks_.size(), 0);
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    indegree[t] = preds_[t].size();
  }
  std::deque<TaskId> ready;
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    if (indegree[t] == 0) ready.push_back(static_cast<TaskId>(t));
  }
  std::vector<TaskId> order;
  order.reserve(tasks_.size());
  while (!ready.empty()) {
    const TaskId t = ready.front();
    ready.pop_front();
    order.push_back(t);
    for (const TaskId s : succs_[static_cast<std::size_t>(t)]) {
      if (--indegree[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
    }
  }
  if (order.size() != tasks_.size()) {
    throw InstanceError("task graph contains a cycle");
  }
  return order;
}

void TaskGraph::Validate(const FpgaDevice& device) const {
  if (tasks_.empty()) throw InstanceError("task graph is empty");
  (void)TopologicalOrder();  // throws on cycles
  const std::size_t kinds = device.Model().NumKinds();
  for (const Task& task : tasks_) {
    bool has_sw = false;
    if (task.impls.empty()) {
      throw InstanceError("task '" + task.name + "' has no implementations");
    }
    for (const Implementation& impl : task.impls) {
      if (impl.exec_time <= 0) {
        throw InstanceError("task '" + task.name +
                            "' has an implementation with non-positive time");
      }
      if (impl.IsSoftware()) {
        has_sw = true;
      } else {
        if (impl.res.size() != kinds) {
          throw InstanceError(
              "task '" + task.name +
              "' has a hardware implementation whose resource vector does "
              "not match the device resource model");
        }
        if (impl.res.IsZero()) {
          throw InstanceError("task '" + task.name +
                              "' has a hardware implementation requiring no "
                              "resources");
        }
        if (!impl.res.FitsWithin(device.Capacity())) {
          throw InstanceError("task '" + task.name +
                              "' has a hardware implementation larger than "
                              "the whole device");
        }
      }
    }
    if (!has_sw) {
      throw InstanceError("task '" + task.name +
                          "' has no software implementation (the scheduler "
                          "requires at least one)");
    }
  }
}

std::size_t TaskGraph::FastestSoftwareImpl(TaskId t) const {
  const Task& task = GetTask(t);
  std::size_t best = task.impls.size();
  for (std::size_t i = 0; i < task.impls.size(); ++i) {
    if (!task.impls[i].IsSoftware()) continue;
    if (best == task.impls.size() ||
        task.impls[i].exec_time < task.impls[best].exec_time) {
      best = i;
    }
  }
  if (best == task.impls.size()) {
    throw InstanceError("task '" + task.name +
                        "' has no software implementation");
  }
  return best;
}

std::vector<std::size_t> TaskGraph::HardwareImpls(TaskId t) const {
  const Task& task = GetTask(t);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < task.impls.size(); ++i) {
    if (task.impls[i].IsHardware()) out.push_back(i);
  }
  return out;
}

TimeT TaskGraph::SerialLowerBoundTime() const {
  TimeT total = 0;
  for (const Task& task : tasks_) {
    RESCHED_CHECK_MSG(!task.impls.empty(), "task without implementations");
    TimeT best = task.impls.front().exec_time;
    for (const Implementation& impl : task.impls) {
      best = std::min(best, impl.exec_time);
    }
    total += best;
  }
  return total;
}

void TaskGraph::CheckTask(TaskId t) const {
  RESCHED_CHECK_MSG(t >= 0 && static_cast<std::size_t>(t) < tasks_.size(),
                    "task id out of range");
}

}  // namespace resched
