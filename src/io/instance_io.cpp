#include "io/instance_io.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

namespace resched {

namespace {

FpgaDevice DeviceFromJson(const JsonValue& json) {
  std::vector<ResourceModel::KindInfo> kinds;
  for (const JsonValue& k : json.At("resource_kinds").AsArray()) {
    kinds.push_back(ResourceModel::KindInfo{
        std::string(k.At("name").AsString()),
        k.At("bits_per_unit").AsDouble()});
  }
  ResourceModel model(std::move(kinds));

  // The geometry is checked here, where a bad document is an
  // InstanceError, before FpgaDevice asserts the same invariants.
  const JsonValue& fabric = json.At("fabric");
  FabricGeometry geom;
  const std::int64_t rows = fabric.At("rows").AsInt();
  if (rows <= 0) throw InstanceError("fabric rows must be positive");
  geom.rows = static_cast<std::size_t>(rows);
  for (const JsonValue& c : fabric.At("columns").AsArray()) {
    // KindIndex rejects a kind outside the resource model.
    const ColumnSpec column{model.KindIndex(c.At("kind").AsString()),
                            c.At("units").AsInt()};
    if (column.units_per_cell <= 0) {
      throw InstanceError("fabric column units must be positive");
    }
    geom.columns.push_back(column);
  }
  if (geom.columns.empty()) throw InstanceError("fabric has no columns");
  return FpgaDevice(json.GetString("name", "device"), std::move(model),
                    std::move(geom));
}

Implementation ImplFromJson(const JsonValue& json, const ResourceModel& model) {
  Implementation impl;
  impl.name = json.GetString("name", "impl");
  const std::string_view kind = json.At("kind").AsString();
  if (kind == "hw") {
    impl.kind = ImplKind::kHardware;
  } else if (kind == "sw") {
    impl.kind = ImplKind::kSoftware;
  } else {
    throw InstanceError("unknown implementation kind: " + std::string(kind));
  }
  impl.exec_time = json.At("time").AsInt();
  if (impl.IsHardware()) {
    impl.res = model.ZeroVec();
    for (const auto& [name, value] : json.At("res").AsObject()) {
      impl.res[model.KindIndex(name)] = value.AsInt();
    }
    impl.module_id = static_cast<std::int32_t>(json.GetInt("module", -1));
  }
  return impl;
}

// The canonical writer. Every object's keys go out in byte order (the
// order a JsonObject iterates them), so the text is a fixed point of
// JsonValue::Parse + Dump(-1).

/// Appends `,"key":` for every member after an object's first.
void AppendKey(std::string& out, const char* key) {
  out += ",\"";
  out += key;
  out += "\":";
}

void AppendImpl(std::string& out, const Implementation& impl,
                const ResourceModel& model,
                const std::vector<std::size_t>& kinds_by_name) {
  out += impl.IsHardware() ? "{\"kind\":\"hw\"" : "{\"kind\":\"sw\"";
  if (impl.IsHardware() && impl.module_id >= 0) {
    AppendKey(out, "module");
    AppendJsonInt(out, impl.module_id);
  }
  AppendKey(out, "name");
  AppendJsonString(out, impl.name);
  if (impl.IsHardware()) {
    AppendKey(out, "res");
    out += '{';
    const std::string* last = nullptr;
    for (const std::size_t k : kinds_by_name) {
      const std::string& name = model.Kind(k).name;
      // Zero entries are omitted; of two kinds sharing a name the first
      // non-zero one wins, as a JSON object holds one value per key.
      if (k >= impl.res.size() || impl.res[k] == 0 ||
          (last != nullptr && *last == name)) {
        continue;
      }
      if (last != nullptr) out += ',';
      last = &name;
      AppendJsonString(out, name);
      out += ':';
      AppendJsonInt(out, impl.res[k]);
    }
    out += '}';
  }
  AppendKey(out, "time");
  AppendJsonInt(out, impl.exec_time);
  out += '}';
}

void AppendPlatform(std::string& out, const Platform& platform) {
  const FpgaDevice& device = platform.Device();
  const ResourceModel& model = device.Model();
  out += "{\"device\":{\"fabric\":{\"columns\":[";
  const std::vector<ColumnSpec>& columns = device.Geometry().columns;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c != 0) out += ',';
    out += "{\"kind\":";
    AppendJsonString(out, model.Kind(columns[c].kind).name);
    AppendKey(out, "units");
    AppendJsonInt(out, columns[c].units_per_cell);
    out += '}';
  }
  out += ']';
  AppendKey(out, "rows");
  AppendJsonInt(out, static_cast<std::int64_t>(device.Geometry().rows));
  out += '}';
  AppendKey(out, "name");
  AppendJsonString(out, device.Name());
  AppendKey(out, "resource_kinds");
  out += '[';
  for (std::size_t k = 0; k < model.NumKinds(); ++k) {
    if (k != 0) out += ',';
    out += "{\"bits_per_unit\":";
    AppendJsonDouble(out, model.Kind(k).bits_per_unit);
    AppendKey(out, "name");
    AppendJsonString(out, model.Kind(k).name);
    out += '}';
  }
  out += "]}";
  AppendKey(out, "hw_sw_bandwidth_bytes_per_sec");
  AppendJsonDouble(out, platform.HwSwBandwidthBytesPerSec());
  AppendKey(out, "name");
  AppendJsonString(out, platform.Name());
  AppendKey(out, "processors");
  AppendJsonInt(out, static_cast<std::int64_t>(platform.NumProcessors()));
  AppendKey(out, "recfreq_bits_per_sec");
  AppendJsonDouble(out, platform.RecFreqBitsPerSec());
  AppendKey(out, "reconfigurators");
  AppendJsonInt(out, static_cast<std::int64_t>(platform.NumReconfigurators()));
  out += '}';
}

}  // namespace

std::string CanonicalInstanceText(const Instance& instance,
                                  ByteSpan* platform_span) {
  const TaskGraph& graph = instance.graph;
  const ResourceModel& model = instance.platform.Device().Model();
  std::string out = "{\"edges\":[";
  bool first = true;
  for (std::size_t t = 0; t < graph.NumTasks(); ++t) {
    const auto from = static_cast<TaskId>(t);
    for (const TaskId to : graph.Successors(from)) {
      if (!first) out += ',';
      first = false;
      out += '[';
      AppendJsonInt(out, static_cast<std::int64_t>(from));
      out += ',';
      AppendJsonInt(out, static_cast<std::int64_t>(to));
      const std::int64_t bytes =
          graph.HasEdgeData() ? graph.EdgeData(from, to) : 0;
      if (bytes > 0) {
        out += ',';
        AppendJsonInt(out, bytes);
      }
      out += ']';
    }
  }
  out += "],\"format\":\"resched-instance\"";
  AppendKey(out, "name");
  AppendJsonString(out, instance.name);
  AppendKey(out, "platform");
  const std::size_t platform_begin = out.size();
  AppendPlatform(out, instance.platform);
  if (platform_span != nullptr) {
    *platform_span = ByteSpan{platform_begin, out.size()};
  }

  // `res` keys go out in name order, not kind-index order.
  std::vector<std::size_t> kinds_by_name(model.NumKinds());
  for (std::size_t k = 0; k < kinds_by_name.size(); ++k) kinds_by_name[k] = k;
  std::stable_sort(kinds_by_name.begin(), kinds_by_name.end(),
                   [&model](std::size_t a, std::size_t b) {
                     return model.Kind(a).name < model.Kind(b).name;
                   });
  AppendKey(out, "tasks");
  out += '[';
  for (std::size_t t = 0; t < graph.NumTasks(); ++t) {
    const Task& task = graph.GetTask(static_cast<TaskId>(t));
    out += t == 0 ? "{\"impls\":[" : ",{\"impls\":[";
    for (std::size_t i = 0; i < task.impls.size(); ++i) {
      if (i != 0) out += ',';
      AppendImpl(out, task.impls[i], model, kinds_by_name);
    }
    out += ']';
    AppendKey(out, "name");
    AppendJsonString(out, task.name);
    out += '}';
  }
  out += "],\"version\":1}";
  return out;
}

JsonValue InstanceToJson(const Instance& instance) {
  return JsonValue::Parse(CanonicalInstanceText(instance));
}

Instance InstanceFromJson(const JsonValue& json) {
  const JsonValue* format = json.Find("format");
  if (format == nullptr || format->AsString() != "resched-instance") {
    throw InstanceError("not a resched-instance document");
  }
  if (json.GetInt("version", 0) != 1) {
    throw InstanceError("unsupported instance format version");
  }

  const JsonValue& pj = json.At("platform");
  FpgaDevice device = DeviceFromJson(pj.At("device"));
  const ResourceModel model = device.Model();
  Platform platform(pj.GetString("name", "platform"),
                    static_cast<std::size_t>(pj.At("processors").AsInt()),
                    std::move(device),
                    pj.At("recfreq_bits_per_sec").AsDouble(),
                    static_cast<std::size_t>(pj.GetInt("reconfigurators", 1)));
  platform = platform.WithHwSwBandwidth(
      pj.GetDouble("hw_sw_bandwidth_bytes_per_sec", 0.0));

  TaskGraph graph;
  for (const JsonValue& tj : json.At("tasks").AsArray()) {
    const TaskId id = graph.AddTask(tj.GetString("name", "task"));
    for (const JsonValue& ij : tj.At("impls").AsArray()) {
      graph.AddImpl(id, ImplFromJson(ij, model));
    }
  }
  for (const JsonValue& ej : json.At("edges").AsArray()) {
    const JsonArray& tuple = ej.AsArray();
    if (tuple.size() != 2 && tuple.size() != 3) {
      throw InstanceError("edge must be [from, to] or [from, to, bytes]");
    }
    const auto from = static_cast<TaskId>(tuple[0].AsInt());
    const auto to = static_cast<TaskId>(tuple[1].AsInt());
    graph.AddEdge(from, to);
    if (tuple.size() == 3) graph.SetEdgeData(from, to, tuple[2].AsInt());
  }

  Instance instance{json.GetString("name", "instance"), std::move(platform),
                    std::move(graph)};
  instance.graph.Validate(instance.platform.Device());
  return instance;
}

std::string InstanceToString(const Instance& instance) {
  return InstanceToJson(instance).Dump(2);
}

Instance InstanceFromString(const std::string& text) {
  return InstanceFromJson(JsonValue::Parse(text));
}

void SaveInstance(const Instance& instance, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw InstanceError("cannot open for writing: " + path);
  out << InstanceToString(instance) << '\n';
  if (!out) throw InstanceError("write failed: " + path);
}

Instance LoadInstance(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InstanceError("cannot open for reading: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return InstanceFromString(buf.str());
}

}  // namespace resched
