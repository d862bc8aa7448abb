#include "sim/executor.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>

#include "sched/comm.hpp"
#include "util/string_util.hpp"

namespace resched::sim {

namespace {

/// Node ids in the event graph: tasks are [0, n), reconfigurations are
/// [n, n + m).
struct EventGraph {
  std::vector<std::vector<std::size_t>> succs;
  std::vector<std::size_t> indegree;

  explicit EventGraph(std::size_t nodes)
      : succs(nodes), indegree(nodes, 0) {}

  void AddEdge(std::size_t from, std::size_t to) {
    succs[from].push_back(to);
    ++indegree[to];
  }
};

TimeT Jittered(TimeT nominal, double jitter, Rng& rng) {
  if (jitter <= 0.0) return nominal;
  const double factor = rng.UniformDouble(1.0 - jitter, 1.0 + jitter);
  return std::max<TimeT>(
      1, static_cast<TimeT>(std::llround(static_cast<double>(nominal) *
                                         factor)));
}

/// Nominal-time replay: the original static event-graph relaxation. Kept
/// as its own path so empty-scenario results stay bit-identical to the
/// pre-fault executor.
SimResult SimulateNominal(const Instance& instance, const Schedule& schedule,
                          const SimOptions& options) {
  const TaskGraph& graph = instance.graph;
  const std::size_t n = graph.NumTasks();
  const std::size_t m = schedule.reconfigurations.size();
  RESCHED_CHECK_MSG(schedule.task_slots.size() == n,
                    "schedule does not match instance");

  Rng rng(options.seed);

  // ---- jittered durations (drawn in a fixed order for determinism).
  std::vector<TimeT> task_dur(n);
  for (std::size_t t = 0; t < n; ++t) {
    const TaskSlot& slot = schedule.task_slots[t];
    const TimeT nominal =
        graph.GetImpl(slot.task, slot.impl_index).exec_time;
    task_dur[t] = Jittered(nominal, options.task_jitter, rng);
  }
  std::vector<TimeT> reconf_dur(m);
  for (std::size_t r = 0; r < m; ++r) {
    const ReconfSlot& slot = schedule.reconfigurations[r];
    RESCHED_CHECK_MSG(slot.region < schedule.regions.size(),
                      "reconfiguration references unknown region");
    reconf_dur[r] = Jittered(schedule.regions[slot.region].reconf_time,
                             options.reconf_jitter, rng);
  }

  // ---- event graph.
  EventGraph events(n + m);

  // Data dependencies (comm gaps are applied at relaxation time).
  for (std::size_t t = 0; t < n; ++t) {
    for (const TaskId s : graph.Successors(static_cast<TaskId>(t))) {
      events.AddEdge(t, static_cast<std::size_t>(s));
    }
  }

  // Per-core ordering (by scheduled start).
  for (std::size_t core = 0; core < instance.platform.NumProcessors();
       ++core) {
    std::vector<std::size_t> on_core;
    for (std::size_t t = 0; t < n; ++t) {
      const TaskSlot& slot = schedule.task_slots[t];
      if (!slot.OnFpga() && slot.target_index == core) on_core.push_back(t);
    }
    std::sort(on_core.begin(), on_core.end(), [&](std::size_t a,
                                                  std::size_t b) {
      return schedule.task_slots[a].start < schedule.task_slots[b].start;
    });
    for (std::size_t i = 0; i + 1 < on_core.size(); ++i) {
      events.AddEdge(on_core[i], on_core[i + 1]);
    }
  }

  // Per-region ordering and reconfiguration hooks.
  // reconf_of_task[t] = reconf index that loads t, or SIZE_MAX.
  std::vector<std::size_t> reconf_of_task(n, SIZE_MAX);
  for (std::size_t r = 0; r < m; ++r) {
    const ReconfSlot& slot = schedule.reconfigurations[r];
    const auto ti = static_cast<std::size_t>(slot.loads_task);
    RESCHED_CHECK_MSG(ti < n, "reconfiguration loads unknown task");
    RESCHED_CHECK_MSG(reconf_of_task[ti] == SIZE_MAX,
                      "task loaded by two reconfigurations");
    reconf_of_task[ti] = r;
  }
  for (std::size_t s = 0; s < schedule.regions.size(); ++s) {
    const RegionInfo& region = schedule.regions[s];
    for (std::size_t i = 0; i < region.tasks.size(); ++i) {
      const auto ti = static_cast<std::size_t>(region.tasks[i]);
      RESCHED_CHECK_MSG(schedule.task_slots[ti].OnFpga() &&
                            schedule.task_slots[ti].target_index == s,
                        "region task list inconsistent with slots");
      const std::size_t reconf = reconf_of_task[ti];
      if (reconf != SIZE_MAX) {
        RESCHED_CHECK_MSG(schedule.reconfigurations[reconf].region == s,
                          "reconfiguration region mismatch");
        // reconf -> task it loads.
        events.AddEdge(n + reconf, ti);
        if (i > 0) {
          // previous region task -> reconf.
          events.AddEdge(static_cast<std::size_t>(region.tasks[i - 1]),
                         n + reconf);
        }
      } else if (i > 0) {
        // Module reuse (or first task): direct region ordering.
        events.AddEdge(static_cast<std::size_t>(region.tasks[i - 1]), ti);
      }
    }
  }

  // Per-controller ordering of reconfigurations (by scheduled start).
  for (std::size_t c = 0; c < instance.platform.NumReconfigurators(); ++c) {
    std::vector<std::size_t> on_controller;
    for (std::size_t r = 0; r < m; ++r) {
      if (schedule.reconfigurations[r].controller == c) {
        on_controller.push_back(r);
      }
    }
    std::sort(on_controller.begin(), on_controller.end(),
              [&](std::size_t a, std::size_t b) {
                return schedule.reconfigurations[a].start <
                       schedule.reconfigurations[b].start;
              });
    for (std::size_t i = 0; i + 1 < on_controller.size(); ++i) {
      events.AddEdge(n + on_controller[i], n + on_controller[i + 1]);
    }
  }

  // ---- earliest-start relaxation in topological order.
  std::vector<TimeT> start(n + m, 0);
  std::vector<TimeT> end(n + m, 0);
  std::deque<std::size_t> ready;
  std::vector<std::size_t> indegree = events.indegree;
  for (std::size_t v = 0; v < n + m; ++v) {
    if (indegree[v] == 0) ready.push_back(v);
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    const std::size_t v = ready.front();
    ready.pop_front();
    ++processed;
    const TimeT dur = v < n ? task_dur[v] : reconf_dur[v - n];
    end[v] = start[v] + dur;
    for (const std::size_t w : events.succs[v]) {
      // Communication gap applies only on task->task data edges.
      TimeT gap = 0;
      if (v < n && w < n &&
          graph.HasEdge(static_cast<TaskId>(v), static_cast<TaskId>(w))) {
        gap = CommGap(instance.platform, graph, static_cast<TaskId>(v),
                      static_cast<TaskId>(w),
                      schedule.task_slots[v].OnFpga(),
                      schedule.task_slots[w].OnFpga());
      }
      start[w] = std::max(start[w], end[v] + gap);
      if (--indegree[w] == 0) ready.push_back(w);
    }
  }
  RESCHED_CHECK_MSG(processed == n + m,
                    "schedule decision structure contains a cycle");

  // ---- results.
  SimResult result;
  result.task_start.assign(n, 0);
  result.task_end.assign(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    result.task_start[t] = start[t];
    result.task_end[t] = end[t];
    result.makespan = std::max(result.makespan, end[t]);
  }
  result.stretch = schedule.makespan > 0
                       ? static_cast<double>(result.makespan) /
                             static_cast<double>(schedule.makespan)
                       : 0.0;

  // Utilization per core / region / controller.
  for (std::size_t core = 0; core < instance.platform.NumProcessors();
       ++core) {
    ResourceUsage usage;
    usage.name = StrFormat("cpu%zu", core);
    for (std::size_t t = 0; t < n; ++t) {
      const TaskSlot& slot = schedule.task_slots[t];
      if (!slot.OnFpga() && slot.target_index == core) {
        usage.busy += task_dur[t];
      }
    }
    result.usage.push_back(usage);
  }
  for (std::size_t s = 0; s < schedule.regions.size(); ++s) {
    ResourceUsage usage;
    usage.name = StrFormat("rr%zu", s);
    for (const TaskId t : schedule.regions[s].tasks) {
      usage.busy += task_dur[static_cast<std::size_t>(t)];
    }
    result.usage.push_back(usage);
  }
  for (std::size_t c = 0; c < instance.platform.NumReconfigurators(); ++c) {
    ResourceUsage usage;
    usage.name = StrFormat("icap%zu", c);
    for (std::size_t r = 0; r < m; ++r) {
      if (schedule.reconfigurations[r].controller == c) {
        usage.busy += reconf_dur[r];
      }
    }
    result.usage.push_back(usage);
  }
  for (ResourceUsage& usage : result.usage) {
    usage.utilization = result.makespan > 0
                            ? static_cast<double>(usage.busy) /
                                  static_cast<double>(result.makespan)
                            : 0.0;
  }

  // As-executed schedule: same decisions, simulated times.
  result.executed.task_slots = schedule.task_slots;
  for (std::size_t t = 0; t < n; ++t) {
    result.executed.task_slots[t].start = start[t];
    result.executed.task_slots[t].end = end[t];
  }
  result.executed.regions = schedule.regions;
  result.executed.reconfigurations = schedule.reconfigurations;
  for (std::size_t r = 0; r < m; ++r) {
    result.executed.reconfigurations[r].start = start[n + r];
    result.executed.reconfigurations[r].end = end[n + r];
  }
  std::stable_sort(result.executed.reconfigurations.begin(),
                   result.executed.reconfigurations.end(),
                   [](const ReconfSlot& a, const ReconfSlot& b) {
                     return a.start < b.start;
                   });
  result.executed.makespan = result.makespan;
  result.executed.algorithm = schedule.algorithm;
  result.executed.floorplan = schedule.floorplan;
  result.executed.floorplan_checked = schedule.floorplan_checked;
  return result;
}

// ===================================================================
// Faulted replay: a discrete-event engine over the schedule's decisions.
//
// Every waiting line (core queues, region entry lists, controller job
// queues) is processed strictly in order of a single global priority —
// the task's start time in the static schedule (ties by id). Dependency
// edges strictly increase that priority (the schedule is valid and
// durations are positive), and recovery insertions keep every pending
// queue sorted by it, so the globally minimal-priority pending task is
// always at the head of its queue with its reconfiguration at the head
// of its controller: the engine can never deadlock, only wait for time
// (backoff, repair windows), which Wake events bound.
// ===================================================================

/// Global dispatch priority: static scheduled start, ties by task id.
struct Prio {
  TimeT start = 0;
  TaskId id = kInvalidTask;
  friend bool operator<(const Prio& a, const Prio& b) {
    return a.start != b.start ? a.start < b.start : a.id < b.id;
  }
};

enum class EvKind : std::uint8_t {
  // Completions strictly before fault onsets at equal times: slots are
  // half-open, so an operation ending exactly at an onset is unharmed.
  kReconfDone = 0,
  kTaskDone = 1,
  kFault = 2,
  kWake = 3,
};

struct Event {
  TimeT time = 0;
  EvKind kind = EvKind::kWake;
  std::size_t id = 0;
  std::uint64_t epoch = 0;
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.id > b.id;
  }
};

enum class JobState : std::uint8_t { kPending, kRunning, kDone, kCancelled };

/// One reconfiguration job. Originals come from the schedule; recovery
/// appends fresh ones (suffix repair, broken module-reuse chains).
struct DesJob {
  std::size_t region = 0;
  TaskId task = kInvalidTask;
  std::size_t controller = 0;
  TimeT dur = 0;        ///< per-attempt duration (jittered for originals)
  TimeT nominal = 0;    ///< region reconf time — backoff denomination
  std::size_t fail_budget = 0;  ///< scenario-injected failures remaining
  std::size_t failed = 0;       ///< failed attempts so far
  TimeT not_before = 0;         ///< backoff / repair gate
  JobState state = JobState::kPending;
  TimeT start = 0, end = 0;     ///< last attempt
  std::uint64_t epoch = 0;      ///< bumped on interruption/cancellation
};

struct DesTask {
  std::size_t impl = 0;
  bool on_fpga = false;
  std::size_t target = 0;
  double jfactor = 1.0;   ///< jitter factor, drawn once per task
  double overrun = 1.0;   ///< scenario overrun multiplier
  std::size_t crash_budget = 0;
  bool done = false;
  bool running = false;
  TimeT start = 0, end = 0;  ///< last attempt
  std::uint64_t epoch = 0;
  Prio prio;
};

struct DesEntry {
  TaskId task = kInvalidTask;
  std::size_t job = SIZE_MAX;  ///< reconfiguration job, SIZE_MAX = reuse
};

struct DesRegion {
  std::vector<DesEntry> entries;  ///< done prefix, then pending by prio
  bool alive = true;
  TimeT offline_until = 0;
  TaskId running_task = kInvalidTask;
  std::size_t running_job = SIZE_MAX;
  TimeT busy_until = 0;
  /// Currently loaded configuration (survives transient faults — the
  /// repair window models scrubbing, which restores it).
  TaskId loaded_task = kInvalidTask;
  std::int32_t loaded_module = -1;
};

struct DesCore {
  std::vector<TaskId> queue;  ///< done prefix, then pending by prio
  TaskId running = kInvalidTask;
  TimeT busy_until = 0;
};

struct DesController {
  std::vector<std::size_t> queue;  ///< job ids, sorted by task prio
  std::size_t running = SIZE_MAX;
  TimeT busy_until = 0;
};

struct PendingFault {
  std::size_t region = 0;
  bool permanent = false;
  TimeT at = 0;
  TimeT window = 0;
};

class FaultedSim {
 public:
  FaultedSim(const Instance& instance, const Schedule& schedule,
             const SimOptions& options)
      : instance_(instance),
        graph_(instance.graph),
        schedule_(schedule),
        options_(options),
        n_(instance.graph.NumTasks()) {}

  SimResult Run();

 private:
  Prio PrioOf(TaskId t) const {
    return Prio{schedule_.task_slots[static_cast<std::size_t>(t)].start, t};
  }
  std::int32_t ModuleOf(TaskId t) const {
    return graph_.GetImpl(t, tasks_[static_cast<std::size_t>(t)].impl)
        .module_id;
  }
  DesTask& TaskOf(TaskId t) { return tasks_[static_cast<std::size_t>(t)]; }

  void Init();
  void ApplyScenario();
  TimeT AttemptDuration(TaskId t) const;
  TimeT ReadyTime(TaskId t) const;
  bool PredsDone(TaskId t) const;

  /// First entry whose task is not done, or SIZE_MAX.
  std::size_t HeadEntry(const DesRegion& region) const;
  void StartTask(TaskId t);
  void StartReconf(std::size_t job);
  void Dispatch();
  void PushWake(TimeT at);

  void OnTaskDone(const Event& e);
  void OnReconfDone(const Event& e);
  void OnFault(const PendingFault& f);
  void KillRunningTask(DesRegion& region, bool count_restart);
  void InterruptRunningJob(DesRegion& region, TimeT resume_gate);
  void AbandonJob(std::size_t job);
  void MigrateOrphans(const std::vector<TaskId>& orphans, bool forced);
  RecoveryContext BuildContext() const;
  void ApplyDecision(const RecoveryDecision& d);
  std::size_t PickController() const;
  void RepairReuseChain(std::size_t region_index);
  void InsertIntoCore(TaskId t);
  void InsertEntry(std::size_t region_index, DesEntry entry);
  void AccumulateTaskBusy(TaskId t, TimeT span);

  SimResult Finish();

  const Instance& instance_;
  const TaskGraph& graph_;
  const Schedule& schedule_;
  const SimOptions& options_;
  const std::size_t n_;

  std::vector<DesTask> tasks_;
  std::vector<DesJob> jobs_;
  std::vector<DesRegion> regions_;
  std::vector<DesCore> cores_;
  std::vector<DesController> controllers_;
  std::vector<PendingFault> faults_;

  std::priority_queue<Event, std::vector<Event>, EventAfter> heap_;
  TimeT now_ = 0;
  std::size_t done_count_ = 0;
  RecoveryStats stats_;

  std::vector<TimeT> core_busy_;
  std::vector<TimeT> region_busy_;
  std::vector<TimeT> controller_busy_;
};

void FaultedSim::Init() {
  RESCHED_CHECK_MSG(schedule_.task_slots.size() == n_,
                    "schedule does not match instance");
  const std::size_t m = schedule_.reconfigurations.size();

  Rng rng(options_.seed);
  tasks_.resize(n_);
  for (std::size_t t = 0; t < n_; ++t) {
    const TaskSlot& slot = schedule_.task_slots[t];
    DesTask& st = tasks_[t];
    st.impl = slot.impl_index;
    st.on_fpga = slot.OnFpga();
    st.target = slot.target_index;
    st.prio = PrioOf(static_cast<TaskId>(t));
    if (options_.task_jitter > 0.0) {
      st.jfactor = rng.UniformDouble(1.0 - options_.task_jitter,
                                     1.0 + options_.task_jitter);
    }
  }

  jobs_.resize(m);
  std::vector<std::size_t> reconf_of_task(n_, SIZE_MAX);
  for (std::size_t r = 0; r < m; ++r) {
    const ReconfSlot& slot = schedule_.reconfigurations[r];
    RESCHED_CHECK_MSG(slot.region < schedule_.regions.size(),
                      "reconfiguration references unknown region");
    RESCHED_CHECK_MSG(slot.controller <
                          instance_.platform.NumReconfigurators(),
                      "reconfiguration on unknown controller");
    const auto ti = static_cast<std::size_t>(slot.loads_task);
    RESCHED_CHECK_MSG(ti < n_, "reconfiguration loads unknown task");
    RESCHED_CHECK_MSG(reconf_of_task[ti] == SIZE_MAX,
                      "task loaded by two reconfigurations");
    reconf_of_task[ti] = r;
    DesJob& job = jobs_[r];
    job.region = slot.region;
    job.task = slot.loads_task;
    job.controller = slot.controller;
    job.nominal = schedule_.regions[slot.region].reconf_time;
    job.dur = Jittered(job.nominal, options_.reconf_jitter, rng);
  }

  regions_.resize(schedule_.regions.size());
  for (std::size_t s = 0; s < schedule_.regions.size(); ++s) {
    const RegionInfo& region = schedule_.regions[s];
    DesRegion& ds = regions_[s];
    for (std::size_t i = 0; i < region.tasks.size(); ++i) {
      const auto ti = static_cast<std::size_t>(region.tasks[i]);
      RESCHED_CHECK_MSG(schedule_.task_slots[ti].OnFpga() &&
                            schedule_.task_slots[ti].target_index == s,
                        "region task list inconsistent with slots");
      DesEntry entry;
      entry.task = region.tasks[i];
      entry.job = reconf_of_task[ti];
      if (entry.job != SIZE_MAX) {
        RESCHED_CHECK_MSG(jobs_[entry.job].region == s,
                          "reconfiguration region mismatch");
      }
      ds.entries.push_back(entry);
    }
    // A leading entry without a reconfiguration models the module being
    // part of the initial configuration: pretend it is pre-loaded.
    if (!ds.entries.empty() && ds.entries.front().job == SIZE_MAX) {
      ds.loaded_task = ds.entries.front().task;
      ds.loaded_module = ModuleOf(ds.entries.front().task);
    }
  }

  cores_.resize(instance_.platform.NumProcessors());
  for (std::size_t t = 0; t < n_; ++t) {
    const TaskSlot& slot = schedule_.task_slots[t];
    if (slot.OnFpga()) continue;
    RESCHED_CHECK_MSG(slot.target_index < cores_.size(),
                      "task assigned to unknown processor");
    cores_[slot.target_index].queue.push_back(static_cast<TaskId>(t));
  }
  for (DesCore& core : cores_) {
    std::sort(core.queue.begin(), core.queue.end(),
              [&](TaskId a, TaskId b) { return PrioOf(a) < PrioOf(b); });
  }

  controllers_.resize(instance_.platform.NumReconfigurators());
  for (std::size_t r = 0; r < m; ++r) {
    controllers_[jobs_[r].controller].queue.push_back(r);
  }
  for (DesController& controller : controllers_) {
    std::sort(controller.queue.begin(), controller.queue.end(),
              [&](std::size_t a, std::size_t b) {
                return PrioOf(jobs_[a].task) < PrioOf(jobs_[b].task);
              });
  }

  core_busy_.assign(cores_.size(), 0);
  region_busy_.assign(regions_.size(), 0);
  controller_busy_.assign(controllers_.size(), 0);
}

void FaultedSim::ApplyScenario() {
  for (const FaultEvent& event : options_.faults.events) {
    switch (event.kind) {
      case FaultKind::kReconfFailure:
        if (event.index >= jobs_.size()) {
          throw InstanceError(StrFormat(
              "fault event references unknown reconfiguration %zu",
              event.index));
        }
        jobs_[event.index].fail_budget += std::max<std::size_t>(1,
                                                                event.count);
        break;
      case FaultKind::kTaskCrash:
        if (event.index >= n_) {
          throw InstanceError(StrFormat(
              "fault event references unknown task %zu", event.index));
        }
        tasks_[event.index].crash_budget +=
            std::max<std::size_t>(1, event.count);
        break;
      case FaultKind::kTaskOverrun:
        if (event.index >= n_) {
          throw InstanceError(StrFormat(
              "fault event references unknown task %zu", event.index));
        }
        if (event.factor > 0.0) tasks_[event.index].overrun *= event.factor;
        break;
      case FaultKind::kTransientRegionFault:
      case FaultKind::kPermanentRegionLoss: {
        if (event.index >= regions_.size()) {
          throw InstanceError(StrFormat(
              "fault event references unknown region %zu", event.index));
        }
        PendingFault fault;
        fault.region = event.index;
        fault.permanent = event.kind == FaultKind::kPermanentRegionLoss;
        fault.at = std::max<TimeT>(0, event.at);
        fault.window = std::max<TimeT>(1, event.window);
        heap_.push(Event{fault.at, EvKind::kFault, faults_.size(), 0});
        faults_.push_back(fault);
        break;
      }
    }
  }
}

TimeT FaultedSim::AttemptDuration(TaskId t) const {
  const DesTask& st = tasks_[static_cast<std::size_t>(t)];
  const TimeT nominal = graph_.GetImpl(t, st.impl).exec_time;
  const double factor = st.jfactor * st.overrun;
  if (factor == 1.0) return std::max<TimeT>(1, nominal);
  return std::max<TimeT>(
      1, static_cast<TimeT>(
             std::llround(static_cast<double>(nominal) * factor)));
}

bool FaultedSim::PredsDone(TaskId t) const {
  for (const TaskId p : graph_.Predecessors(t)) {
    if (!tasks_[static_cast<std::size_t>(p)].done) return false;
  }
  return true;
}

TimeT FaultedSim::ReadyTime(TaskId t) const {
  TimeT ready = 0;
  const DesTask& st = tasks_[static_cast<std::size_t>(t)];
  for (const TaskId p : graph_.Predecessors(t)) {
    const DesTask& sp = tasks_[static_cast<std::size_t>(p)];
    const TimeT gap =
        CommGap(instance_.platform, graph_, p, t, sp.on_fpga, st.on_fpga);
    ready = std::max(ready, sp.end + gap);
  }
  return ready;
}

std::size_t FaultedSim::HeadEntry(const DesRegion& region) const {
  for (std::size_t i = 0; i < region.entries.size(); ++i) {
    if (!tasks_[static_cast<std::size_t>(region.entries[i].task)].done) {
      return i;
    }
  }
  return SIZE_MAX;
}

void FaultedSim::PushWake(TimeT at) {
  if (at > now_) heap_.push(Event{at, EvKind::kWake, 0, 0});
}

void FaultedSim::StartTask(TaskId t) {
  DesTask& st = TaskOf(t);
  st.running = true;
  st.start = now_;
  const TimeT end = now_ + AttemptDuration(t);
  if (st.on_fpga) {
    DesRegion& region = regions_[st.target];
    region.running_task = t;
    region.busy_until = end;
  } else {
    DesCore& core = cores_[st.target];
    core.running = t;
    core.busy_until = end;
  }
  heap_.push(
      Event{end, EvKind::kTaskDone, static_cast<std::size_t>(t), st.epoch});
}

void FaultedSim::StartReconf(std::size_t job_index) {
  DesJob& job = jobs_[job_index];
  job.state = JobState::kRunning;
  job.start = now_;
  const TimeT end = now_ + job.dur;
  DesController& controller = controllers_[job.controller];
  controller.running = job_index;
  controller.busy_until = end;
  DesRegion& region = regions_[job.region];
  region.running_job = job_index;
  region.busy_until = end;
  heap_.push(Event{end, EvKind::kReconfDone, job_index, job.epoch});
}

void FaultedSim::Dispatch() {
  bool progress = true;
  while (progress) {
    progress = false;

    // Controllers: strictly the first pending job of each queue.
    for (DesController& controller : controllers_) {
      if (controller.running != SIZE_MAX) continue;
      std::size_t head = SIZE_MAX;
      for (const std::size_t j : controller.queue) {
        if (jobs_[j].state == JobState::kPending) {
          head = j;
          break;
        }
      }
      if (head == SIZE_MAX) continue;
      const DesJob& job = jobs_[head];
      const DesRegion& region = regions_[job.region];
      if (!region.alive) continue;  // cancellation is in flight
      const std::size_t h = HeadEntry(region);
      if (h == SIZE_MAX || region.entries[h].job != head) continue;
      if (region.running_task != kInvalidTask ||
          region.running_job != SIZE_MAX) {
        continue;
      }
      const TimeT gate = std::max(job.not_before, region.offline_until);
      if (gate > now_) {
        PushWake(gate);
        continue;
      }
      StartReconf(head);
      progress = true;
    }

    // Regions: strictly the head entry.
    for (DesRegion& region : regions_) {
      if (!region.alive || region.running_task != kInvalidTask ||
          region.running_job != SIZE_MAX) {
        continue;
      }
      if (region.offline_until > now_) continue;  // wake already queued
      const std::size_t h = HeadEntry(region);
      if (h == SIZE_MAX) continue;
      const DesEntry& entry = region.entries[h];
      const TaskId t = entry.task;
      const std::int32_t mod = ModuleOf(t);
      const bool loaded =
          entry.job != SIZE_MAX
              ? jobs_[entry.job].state == JobState::kDone
              : (region.loaded_task == t ||
                 (region.loaded_module >= 0 && region.loaded_module == mod));
      if (!loaded || !PredsDone(t)) continue;
      const TimeT ready = ReadyTime(t);
      if (ready > now_) {
        PushWake(ready);
        continue;
      }
      StartTask(t);
      progress = true;
    }

    // Cores: strictly the first unfinished task of each queue.
    for (DesCore& core : cores_) {
      if (core.running != kInvalidTask) continue;
      TaskId head = kInvalidTask;
      for (const TaskId t : core.queue) {
        if (!TaskOf(t).done) {
          head = t;
          break;
        }
      }
      if (head == kInvalidTask || TaskOf(head).running) continue;
      if (!PredsDone(head)) continue;
      const TimeT ready = ReadyTime(head);
      if (ready > now_) {
        PushWake(ready);
        continue;
      }
      StartTask(head);
      progress = true;
    }
  }
}

void FaultedSim::AccumulateTaskBusy(TaskId t, TimeT span) {
  const DesTask& st = tasks_[static_cast<std::size_t>(t)];
  if (st.on_fpga) {
    region_busy_[st.target] += span;
  } else {
    core_busy_[st.target] += span;
  }
}

void FaultedSim::OnTaskDone(const Event& e) {
  const TaskId t = static_cast<TaskId>(e.id);
  DesTask& st = TaskOf(t);
  if (!st.running || e.epoch != st.epoch) return;  // stale (killed attempt)
  st.running = false;
  AccumulateTaskBusy(t, now_ - st.start);
  if (st.on_fpga) {
    regions_[st.target].running_task = kInvalidTask;
  } else {
    cores_[st.target].running = kInvalidTask;
  }
  if (st.crash_budget > 0) {
    // The attempt ran to completion but its result is discarded; the task
    // stays at the head of its queue and re-runs in place.
    --st.crash_budget;
    ++stats_.task_restarts;
    return;
  }
  st.done = true;
  st.end = now_;
  ++done_count_;
}

void FaultedSim::OnReconfDone(const Event& e) {
  DesJob& job = jobs_[e.id];
  if (job.state != JobState::kRunning || e.epoch != job.epoch) return;
  DesController& controller = controllers_[job.controller];
  controller.running = SIZE_MAX;
  controller_busy_[job.controller] += now_ - job.start;
  DesRegion& region = regions_[job.region];
  region.running_job = SIZE_MAX;
  if (job.fail_budget > 0) {
    --job.fail_budget;
    ++job.failed;
    ++stats_.reconf_retries;
    if (job.failed >= options_.recovery.max_reconf_attempts) {
      AbandonJob(e.id);
      return;
    }
    job.state = JobState::kPending;
    job.not_before =
        now_ + RetryBackoff(options_.recovery, job.nominal, job.failed);
    PushWake(job.not_before);
    return;
  }
  job.state = JobState::kDone;
  job.end = now_;
  region.loaded_task = job.task;
  region.loaded_module = ModuleOf(job.task);
}

void FaultedSim::KillRunningTask(DesRegion& region, bool count_restart) {
  if (region.running_task == kInvalidTask) return;
  const TaskId t = region.running_task;
  DesTask& st = TaskOf(t);
  AccumulateTaskBusy(t, now_ - st.start);
  ++st.epoch;  // the queued TaskDone is now stale
  st.running = false;
  region.running_task = kInvalidTask;
  if (count_restart) ++stats_.task_restarts;
}

void FaultedSim::InterruptRunningJob(DesRegion& region, TimeT resume_gate) {
  if (region.running_job == SIZE_MAX) return;
  DesJob& job = jobs_[region.running_job];
  DesController& controller = controllers_[job.controller];
  controller.running = SIZE_MAX;
  controller_busy_[job.controller] += now_ - job.start;
  ++job.epoch;  // the queued ReconfDone is now stale
  job.state = JobState::kPending;
  // The wasted attempt does not consume the failure budget and does not
  // push the job toward abandonment — it retries once the region is back.
  job.not_before = std::max(
      resume_gate,
      now_ + RetryBackoff(options_.recovery, job.nominal, job.failed + 1));
  ++stats_.reconf_retries;
  region.running_job = SIZE_MAX;
  PushWake(job.not_before);
}

void FaultedSim::OnFault(const PendingFault& f) {
  DesRegion& region = regions_[f.region];
  if (!region.alive) return;
  if (!f.permanent) {
    region.offline_until = std::max(region.offline_until, now_ + f.window);
    if (options_.recovery.policy == RecoveryPolicy::kSoftwareFallback &&
        region.running_task != kInvalidTask) {
      // Eager policy: the killed task does not wait out the repair window,
      // it moves to its software implementation right away.
      const TaskId killed = region.running_task;
      KillRunningTask(region, /*count_restart=*/false);
      for (std::size_t i = 0; i < region.entries.size(); ++i) {
        if (region.entries[i].task == killed) {
          region.entries.erase(region.entries.begin() +
                               static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      MigrateOrphans({killed}, /*forced=*/true);
      RepairReuseChain(f.region);
    } else {
      KillRunningTask(region, /*count_restart=*/true);
    }
    InterruptRunningJob(region, region.offline_until);
    PushWake(region.offline_until);
    return;
  }

  // Permanent loss: the region is gone; everything unfinished on it
  // becomes an orphan for the recovery planner.
  region.alive = false;
  ++stats_.abandoned_regions;
  KillRunningTask(region, /*count_restart=*/false);
  if (region.running_job != SIZE_MAX) {
    DesJob& job = jobs_[region.running_job];
    DesController& controller = controllers_[job.controller];
    controller.running = SIZE_MAX;
    controller_busy_[job.controller] += now_ - job.start;
    ++job.epoch;
    job.state = JobState::kCancelled;
    region.running_job = SIZE_MAX;
  }
  for (DesJob& job : jobs_) {
    if (job.region == f.region && job.state == JobState::kPending) {
      job.state = JobState::kCancelled;
    }
  }
  std::vector<TaskId> orphans;
  std::vector<DesEntry> keep;
  for (const DesEntry& entry : region.entries) {
    if (tasks_[static_cast<std::size_t>(entry.task)].done) {
      keep.push_back(entry);
    } else {
      orphans.push_back(entry.task);  // entry order is dependency-safe
    }
  }
  region.entries = std::move(keep);
  MigrateOrphans(orphans, /*forced=*/true);
}

void FaultedSim::AbandonJob(std::size_t job_index) {
  DesJob& job = jobs_[job_index];
  job.state = JobState::kCancelled;
  const std::size_t s = job.region;
  DesRegion& region = regions_[s];
  for (std::size_t i = 0; i < region.entries.size(); ++i) {
    if (region.entries[i].task == job.task) {
      region.entries.erase(region.entries.begin() +
                           static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  MigrateOrphans({job.task}, /*forced=*/true);
  RepairReuseChain(s);
}

RecoveryContext FaultedSim::BuildContext() const {
  RecoveryContext ctx;
  ctx.now = now_;
  ctx.core_load.resize(cores_.size());
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    const DesCore& core = cores_[c];
    TimeT load = core.running != kInvalidTask ? std::max(now_,
                                                         core.busy_until)
                                              : now_;
    for (const TaskId t : core.queue) {
      const DesTask& st = tasks_[static_cast<std::size_t>(t)];
      if (st.done || st.running) continue;
      load += graph_.GetImpl(t, st.impl).exec_time;
    }
    ctx.core_load[c] = load;
  }
  ctx.regions.resize(regions_.size());
  for (std::size_t s = 0; s < regions_.size(); ++s) {
    const DesRegion& region = regions_[s];
    RecoveryContext::RegionState& out = ctx.regions[s];
    out.usable = region.alive;
    out.res = schedule_.regions[s].res;
    out.reconf_time = schedule_.regions[s].reconf_time;
    TimeT load = std::max(now_, region.offline_until);
    if (region.running_task != kInvalidTask ||
        region.running_job != SIZE_MAX) {
      load = std::max(load, region.busy_until);
    }
    for (const DesEntry& entry : region.entries) {
      const DesTask& st = tasks_[static_cast<std::size_t>(entry.task)];
      if (st.done || st.running) continue;
      if (entry.job != SIZE_MAX &&
          jobs_[entry.job].state == JobState::kPending) {
        load += jobs_[entry.job].dur;
      }
      load += graph_.GetImpl(entry.task, st.impl).exec_time;
    }
    out.load = load;
  }
  ctx.controller_load.resize(controllers_.size());
  for (std::size_t c = 0; c < controllers_.size(); ++c) {
    const DesController& controller = controllers_[c];
    TimeT load = controller.running != SIZE_MAX
                     ? std::max(now_, controller.busy_until)
                     : now_;
    for (const std::size_t j : controller.queue) {
      if (jobs_[j].state == JobState::kPending) load += jobs_[j].dur;
    }
    ctx.controller_load[c] = load;
  }
  return ctx;
}

std::size_t FaultedSim::PickController() const {
  std::size_t best = 0;
  std::size_t best_pending = SIZE_MAX;
  for (std::size_t c = 0; c < controllers_.size(); ++c) {
    std::size_t pending = 0;
    for (const std::size_t j : controllers_[c].queue) {
      if (jobs_[j].state == JobState::kPending) ++pending;
    }
    if (pending < best_pending) {
      best_pending = pending;
      best = c;
    }
  }
  return best;
}

void FaultedSim::InsertIntoCore(TaskId t) {
  DesCore& core = cores_[TaskOf(t).target];
  const Prio prio = PrioOf(t);
  auto it = core.queue.begin();
  for (; it != core.queue.end(); ++it) {
    if (!TaskOf(*it).done && prio < PrioOf(*it)) break;
  }
  core.queue.insert(it, t);
}

void FaultedSim::InsertEntry(std::size_t region_index, DesEntry entry) {
  DesRegion& region = regions_[region_index];
  const Prio prio = PrioOf(entry.task);
  auto it = region.entries.begin();
  for (; it != region.entries.end(); ++it) {
    // Never insert in front of a completed or in-flight attempt: those
    // entries are the region's immutable past (and present).
    const DesTask& st = tasks_[static_cast<std::size_t>(it->task)];
    if (!st.done && !st.running && prio < PrioOf(it->task)) break;
  }
  region.entries.insert(it, entry);
}

void FaultedSim::RepairReuseChain(std::size_t region_index) {
  DesRegion& region = regions_[region_index];
  if (!region.alive) return;
  TaskId prev_task = region.loaded_task;
  std::int32_t prev_module = region.loaded_module;
  bool past_head = false;
  for (DesEntry& entry : region.entries) {
    const DesTask& st = tasks_[static_cast<std::size_t>(entry.task)];
    const std::int32_t mod = ModuleOf(entry.task);
    if (st.done || st.running) {
      // Completed or in-flight: the module is (being) executed from the
      // fabric as-is — it must never be given a fresh reconfiguration.
      prev_task = entry.task;
      prev_module = mod;
      continue;
    }
    const bool has_job =
        entry.job != SIZE_MAX && jobs_[entry.job].state != JobState::kCancelled;
    // The head entry compares against the currently loaded configuration;
    // later entries against their predecessor in the (possibly edited)
    // sequence. Module reuse needs a shared non-unique module id.
    const bool reuse_ok =
        (!past_head && prev_task == entry.task) ||
        (prev_module >= 0 && prev_module == mod);
    if (!has_job && !reuse_ok) {
      DesJob job;
      job.region = region_index;
      job.task = entry.task;
      job.controller = PickController();
      job.nominal = schedule_.regions[region_index].reconf_time;
      job.dur = job.nominal;
      jobs_.push_back(job);
      const std::size_t job_index = jobs_.size() - 1;
      entry.job = job_index;
      DesController& controller = controllers_[job.controller];
      const Prio prio = PrioOf(entry.task);
      auto it = controller.queue.begin();
      for (; it != controller.queue.end(); ++it) {
        if (jobs_[*it].state == JobState::kPending &&
            prio < PrioOf(jobs_[*it].task)) {
          break;
        }
      }
      controller.queue.insert(it, job_index);
    }
    past_head = true;
    prev_task = entry.task;
    prev_module = mod;
  }
}

void FaultedSim::ApplyDecision(const RecoveryDecision& d) {
  DesTask& st = TaskOf(d.task);
  st.impl = d.impl_index;
  st.on_fpga = d.to_region;
  st.target = d.target;
  if (!d.to_region) {
    InsertIntoCore(d.task);
    return;
  }
  DesJob job;
  job.region = d.target;
  job.task = d.task;
  job.controller = d.controller;
  job.nominal = schedule_.regions[d.target].reconf_time;
  job.dur = job.nominal;
  jobs_.push_back(job);
  const std::size_t job_index = jobs_.size() - 1;
  DesController& controller = controllers_[job.controller];
  const Prio prio = PrioOf(d.task);
  auto it = controller.queue.begin();
  for (; it != controller.queue.end(); ++it) {
    if (jobs_[*it].state == JobState::kPending &&
        prio < PrioOf(jobs_[*it].task)) {
      break;
    }
  }
  controller.queue.insert(it, job_index);
  DesEntry entry;
  entry.task = d.task;
  entry.job = job_index;
  InsertEntry(d.target, entry);
  RepairReuseChain(d.target);
}

void FaultedSim::MigrateOrphans(const std::vector<TaskId>& orphans,
                                bool forced) {
  if (orphans.empty()) return;
  RESCHED_CHECK_MSG(forced, "orphans only arise from forced events");
  RecoveryContext ctx = BuildContext();
  const RecoveryPolicy policy = options_.recovery.policy;
  // kRetry falls back to software only when forced — and every call site
  // is a forced one (permanent loss, abandoned reconfiguration).
  std::vector<RecoveryDecision> plan =
      policy == RecoveryPolicy::kSuffixReschedule
          ? PlanSuffixRepair(graph_, orphans, ctx)
          : PlanSoftwareFallback(graph_, orphans, ctx);
  for (const RecoveryDecision& d : plan) {
    ApplyDecision(d);
    if (policy == RecoveryPolicy::kSuffixReschedule) {
      ++stats_.rescheduled_tasks;
    } else {
      ++stats_.migrations;
    }
  }
}

SimResult FaultedSim::Finish() {
  RESCHED_CHECK_MSG(
      done_count_ == n_,
      StrFormat("fault simulation stalled before completing all tasks at "
                "t=%lld (%zu/%zu done)",
                static_cast<long long>(now_), done_count_, n_));
  SimResult result;
  result.task_start.assign(n_, 0);
  result.task_end.assign(n_, 0);
  for (std::size_t t = 0; t < n_; ++t) {
    result.task_start[t] = tasks_[t].start;
    result.task_end[t] = tasks_[t].end;
    result.makespan = std::max(result.makespan, tasks_[t].end);
  }
  result.stretch = schedule_.makespan > 0
                       ? static_cast<double>(result.makespan) /
                             static_cast<double>(schedule_.makespan)
                       : 0.0;
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    result.usage.push_back(ResourceUsage{StrFormat("cpu%zu", c),
                                         core_busy_[c], 0.0});
  }
  for (std::size_t s = 0; s < regions_.size(); ++s) {
    result.usage.push_back(ResourceUsage{StrFormat("rr%zu", s),
                                         region_busy_[s], 0.0});
  }
  for (std::size_t c = 0; c < controllers_.size(); ++c) {
    result.usage.push_back(ResourceUsage{StrFormat("icap%zu", c),
                                         controller_busy_[c], 0.0});
  }
  for (ResourceUsage& usage : result.usage) {
    usage.utilization = result.makespan > 0
                            ? static_cast<double>(usage.busy) /
                                  static_cast<double>(result.makespan)
                            : 0.0;
  }
  result.recovery = stats_;
  result.recovery.survived = true;

  // As-executed schedule: final placements, final successful attempts.
  Schedule& executed = result.executed;
  executed.task_slots.resize(n_);
  for (std::size_t t = 0; t < n_; ++t) {
    TaskSlot& slot = executed.task_slots[t];
    slot.task = static_cast<TaskId>(t);
    slot.impl_index = tasks_[t].impl;
    slot.target =
        tasks_[t].on_fpga ? TargetKind::kRegion : TargetKind::kProcessor;
    slot.target_index = tasks_[t].target;
    slot.start = tasks_[t].start;
    slot.end = tasks_[t].end;
  }
  executed.regions.resize(regions_.size());
  for (std::size_t s = 0; s < regions_.size(); ++s) {
    executed.regions[s].res = schedule_.regions[s].res;
    executed.regions[s].reconf_time = schedule_.regions[s].reconf_time;
  }
  std::vector<TaskId> by_start(n_);
  for (std::size_t t = 0; t < n_; ++t) by_start[t] = static_cast<TaskId>(t);
  std::sort(by_start.begin(), by_start.end(), [&](TaskId a, TaskId b) {
    const DesTask& ta = tasks_[static_cast<std::size_t>(a)];
    const DesTask& tb = tasks_[static_cast<std::size_t>(b)];
    return ta.start != tb.start ? ta.start < tb.start : a < b;
  });
  for (const TaskId t : by_start) {
    const DesTask& st = tasks_[static_cast<std::size_t>(t)];
    if (st.on_fpga) executed.regions[st.target].tasks.push_back(t);
  }
  for (const DesJob& job : jobs_) {
    if (job.state != JobState::kDone) continue;
    ReconfSlot slot;
    slot.region = job.region;
    slot.loads_task = job.task;
    slot.start = job.start;
    slot.end = job.end;
    slot.controller = job.controller;
    executed.reconfigurations.push_back(slot);
  }
  std::sort(executed.reconfigurations.begin(),
            executed.reconfigurations.end(),
            [](const ReconfSlot& a, const ReconfSlot& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.region != b.region) return a.region < b.region;
              return a.loads_task < b.loads_task;
            });
  executed.makespan = result.makespan;
  executed.algorithm = schedule_.algorithm;
  executed.floorplan = schedule_.floorplan;
  executed.floorplan_checked = schedule_.floorplan_checked;
  return result;
}

SimResult FaultedSim::Run() {
  Init();
  ApplyScenario();
  Dispatch();
  while (!heap_.empty()) {
    const Event e = heap_.top();
    heap_.pop();
    RESCHED_CHECK_MSG(e.time >= now_, "event heap went backwards");
    now_ = e.time;
    switch (e.kind) {
      case EvKind::kReconfDone:
        OnReconfDone(e);
        break;
      case EvKind::kTaskDone:
        OnTaskDone(e);
        break;
      case EvKind::kFault:
        OnFault(faults_[e.id]);
        break;
      case EvKind::kWake:
        break;
    }
    Dispatch();
  }
  return Finish();
}

}  // namespace

SimResult Simulate(const Instance& instance, const Schedule& schedule,
                   const SimOptions& options) {
  if (options.faults.Empty()) {
    return SimulateNominal(instance, schedule, options);
  }
  FaultedSim sim(instance, schedule, options);
  return sim.Run();
}

}  // namespace resched::sim
