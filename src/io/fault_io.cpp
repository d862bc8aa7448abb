#include "io/fault_io.hpp"

#include <fstream>
#include <sstream>

namespace resched {

namespace {

sim::FaultKind KindFromName(std::string_view name) {
  using sim::FaultKind;
  for (const FaultKind kind :
       {FaultKind::kReconfFailure, FaultKind::kTransientRegionFault,
        FaultKind::kPermanentRegionLoss, FaultKind::kTaskCrash,
        FaultKind::kTaskOverrun}) {
    if (name == sim::ToString(kind)) return kind;
  }
  throw InstanceError("unknown fault kind: " + std::string(name));
}

}  // namespace

JsonValue FaultScenarioToJson(const sim::FaultScenario& scenario) {
  JsonArray events;
  for (const sim::FaultEvent& event : scenario.events) {
    const char* kind = sim::ToString(event.kind);
    switch (event.kind) {
      case sim::FaultKind::kReconfFailure:
      case sim::FaultKind::kTaskCrash:
        events.push_back(JsonObject{
            {"kind", kind}, {"index", event.index}, {"count", event.count}});
        break;
      case sim::FaultKind::kTransientRegionFault:
        events.push_back(JsonObject{{"kind", kind},
                                    {"index", event.index},
                                    {"at", event.at},
                                    {"window", event.window}});
        break;
      case sim::FaultKind::kPermanentRegionLoss:
        events.push_back(JsonObject{
            {"kind", kind}, {"index", event.index}, {"at", event.at}});
        break;
      case sim::FaultKind::kTaskOverrun:
        events.push_back(JsonObject{
            {"kind", kind}, {"index", event.index}, {"factor", event.factor}});
        break;
    }
  }
  return JsonValue(JsonObject{{"format", "resched-faults"},
                              {"version", 1},
                              {"events", std::move(events)}});
}

sim::FaultScenario FaultScenarioFromJson(const JsonValue& json) {
  if (json.GetString("format", "") != "resched-faults") {
    throw InstanceError("not a resched-faults document");
  }
  if (json.GetInt("version", 0) != 1) {
    throw InstanceError("unsupported fault-scenario format version");
  }
  sim::FaultScenario scenario;
  for (const JsonValue& ej : json.At("events").AsArray()) {
    sim::FaultEvent event;
    event.kind = KindFromName(ej.At("kind").AsString());
    event.index = static_cast<std::size_t>(ej.At("index").AsInt());
    event.at = ej.GetInt("at", 0);
    event.window = ej.GetInt("window", 0);
    event.count = static_cast<std::size_t>(ej.GetInt("count", 1));
    event.factor = ej.GetDouble("factor", 1.0);
    scenario.events.push_back(event);
  }
  return scenario;
}

std::string FaultScenarioToString(const sim::FaultScenario& scenario) {
  return FaultScenarioToJson(scenario).Dump(2);
}

sim::FaultScenario FaultScenarioFromString(const std::string& text) {
  return FaultScenarioFromJson(JsonValue::Parse(text));
}

void SaveFaultScenario(const sim::FaultScenario& scenario,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out) throw InstanceError("cannot open for writing: " + path);
  out << FaultScenarioToString(scenario) << '\n';
  if (!out) throw InstanceError("write failed: " + path);
}

sim::FaultScenario LoadFaultScenario(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InstanceError("cannot open for reading: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return FaultScenarioFromString(buf.str());
}

}  // namespace resched
