#include "io/schedule_io.hpp"

#include <fstream>
#include <sstream>

namespace resched {

namespace {

JsonValue ResToJson(const ResourceVec& res, const ResourceModel& model) {
  JsonObject obj;
  for (std::size_t k = 0; k < res.size(); ++k) {
    if (res[k] != 0) obj.emplace(model.Kind(k).name, res[k]);
  }
  return JsonValue(std::move(obj));
}

ResourceVec ResFromJson(const JsonValue& json, const ResourceModel& model) {
  ResourceVec res = model.ZeroVec();
  for (const auto& [name, value] : json.AsObject()) {
    res[model.KindIndex(name)] = value.AsInt();
  }
  return res;
}

}  // namespace

JsonValue ScheduleToJson(const Instance& instance, const Schedule& schedule) {
  const ResourceModel& model = instance.platform.Device().Model();

  // Members go in by emplace: a braced JsonObject{...} builds from an
  // initializer_list, whose elements can only be copied, so it would
  // deep-copy every nested array.
  JsonArray tasks;
  tasks.reserve(schedule.task_slots.size());
  for (const TaskSlot& slot : schedule.task_slots) {
    JsonObject obj;
    obj.emplace("task", static_cast<std::int64_t>(slot.task));
    obj.emplace("impl", slot.impl_index);
    obj.emplace("target", slot.OnFpga() ? "region" : "cpu");
    obj.emplace("index", slot.target_index);
    obj.emplace("start", slot.start);
    obj.emplace("end", slot.end);
    tasks.emplace_back(std::move(obj));
  }

  JsonArray regions;
  regions.reserve(schedule.regions.size());
  for (const RegionInfo& region : schedule.regions) {
    JsonArray ids;
    ids.reserve(region.tasks.size());
    for (const TaskId t : region.tasks) {
      ids.emplace_back(static_cast<std::int64_t>(t));
    }
    JsonObject obj;
    obj.emplace("res", ResToJson(region.res, model));
    obj.emplace("reconf_time", region.reconf_time);
    obj.emplace("tasks", std::move(ids));
    regions.emplace_back(std::move(obj));
  }

  JsonArray reconfs;
  reconfs.reserve(schedule.reconfigurations.size());
  for (const ReconfSlot& r : schedule.reconfigurations) {
    JsonObject obj;
    obj.emplace("region", r.region);
    obj.emplace("loads", static_cast<std::int64_t>(r.loads_task));
    obj.emplace("start", r.start);
    obj.emplace("end", r.end);
    obj.emplace("controller", r.controller);
    reconfs.emplace_back(std::move(obj));
  }

  JsonObject doc;
  doc.emplace("format", "resched-schedule");
  doc.emplace("version", 1);
  doc.emplace("instance", instance.name);
  doc.emplace("algorithm", schedule.algorithm);
  doc.emplace("makespan", schedule.makespan);
  doc.emplace("scheduling_seconds", schedule.scheduling_seconds);
  doc.emplace("floorplanning_seconds", schedule.floorplanning_seconds);
  doc.emplace("floorplan_retries", schedule.floorplan_retries);
  doc.emplace("tasks", std::move(tasks));
  doc.emplace("regions", std::move(regions));
  doc.emplace("reconfigurations", std::move(reconfs));
  if (!schedule.floorplan.empty()) {
    JsonArray rects;
    rects.reserve(schedule.floorplan.size());
    for (const Rect& r : schedule.floorplan) {
      JsonObject obj;
      obj.emplace("col", r.col0);
      obj.emplace("row", r.row0);
      obj.emplace("w", r.width);
      obj.emplace("h", r.height);
      rects.emplace_back(std::move(obj));
    }
    doc.emplace("floorplan", std::move(rects));
  }
  return JsonValue(std::move(doc));
}

Schedule ScheduleFromJson(const Instance& instance, const JsonValue& json) {
  if (json.GetString("format", "") != "resched-schedule") {
    throw InstanceError("not a resched-schedule document");
  }
  if (json.GetInt("version", 0) != 1) {
    throw InstanceError("unsupported schedule format version");
  }
  const ResourceModel& model = instance.platform.Device().Model();

  Schedule schedule;
  schedule.algorithm = json.GetString("algorithm", "?");
  schedule.makespan = json.At("makespan").AsInt();
  schedule.scheduling_seconds = json.GetDouble("scheduling_seconds", 0.0);
  schedule.floorplanning_seconds =
      json.GetDouble("floorplanning_seconds", 0.0);
  schedule.floorplan_retries = static_cast<std::size_t>(
      json.GetInt("floorplan_retries", 0));

  for (const JsonValue& tj : json.At("tasks").AsArray()) {
    TaskSlot slot;
    slot.task = static_cast<TaskId>(tj.At("task").AsInt());
    slot.impl_index = static_cast<std::size_t>(tj.At("impl").AsInt());
    const std::string target = tj.At("target").AsString();
    if (target == "region") {
      slot.target = TargetKind::kRegion;
    } else if (target == "cpu") {
      slot.target = TargetKind::kProcessor;
    } else {
      throw InstanceError("unknown schedule target: " + target);
    }
    slot.target_index = static_cast<std::size_t>(tj.At("index").AsInt());
    slot.start = tj.At("start").AsInt();
    slot.end = tj.At("end").AsInt();
    schedule.task_slots.push_back(slot);
  }
  if (schedule.task_slots.size() != instance.graph.NumTasks()) {
    throw InstanceError("schedule task count does not match the instance");
  }

  for (const JsonValue& rj : json.At("regions").AsArray()) {
    RegionInfo region;
    region.res = ResFromJson(rj.At("res"), model);
    region.reconf_time = rj.At("reconf_time").AsInt();
    for (const JsonValue& id : rj.At("tasks").AsArray()) {
      region.tasks.push_back(static_cast<TaskId>(id.AsInt()));
    }
    schedule.regions.push_back(std::move(region));
  }

  for (const JsonValue& rj : json.At("reconfigurations").AsArray()) {
    ReconfSlot slot;
    slot.region = static_cast<std::size_t>(rj.At("region").AsInt());
    slot.loads_task = static_cast<TaskId>(rj.At("loads").AsInt());
    slot.start = rj.At("start").AsInt();
    slot.end = rj.At("end").AsInt();
    slot.controller = static_cast<std::size_t>(rj.GetInt("controller", 0));
    schedule.reconfigurations.push_back(slot);
  }

  if (json.Contains("floorplan")) {
    for (const JsonValue& rj : json.At("floorplan").AsArray()) {
      schedule.floorplan.push_back(
          Rect{static_cast<std::size_t>(rj.At("col").AsInt()),
               static_cast<std::size_t>(rj.At("row").AsInt()),
               static_cast<std::size_t>(rj.At("w").AsInt()),
               static_cast<std::size_t>(rj.At("h").AsInt())});
    }
    schedule.floorplan_checked = true;
  }
  return schedule;
}

std::string ScheduleToString(const Instance& instance,
                             const Schedule& schedule) {
  return ScheduleToJson(instance, schedule).Dump(2);
}

Schedule ScheduleFromString(const Instance& instance,
                            const std::string& text) {
  return ScheduleFromJson(instance, JsonValue::Parse(text));
}

void SaveSchedule(const Instance& instance, const Schedule& schedule,
                  const std::string& path) {
  std::ofstream out(path);
  if (!out) throw InstanceError("cannot open for writing: " + path);
  out << ScheduleToString(instance, schedule) << '\n';
  if (!out) throw InstanceError("write failed: " + path);
}

Schedule LoadSchedule(const Instance& instance, const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InstanceError("cannot open for reading: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ScheduleFromString(instance, buf.str());
}

}  // namespace resched
