#include "service/protocol.hpp"

#include <string_view>
#include <utility>

#include "io/instance_io.hpp"
#include "sched/recovery.hpp"
#include "util/build_info.hpp"
#include "util/check.hpp"

namespace resched::service {
namespace {

/// Validated field extraction for the post-id phase: every shape error from
/// here on is the client's fault and carries the request id.
std::uint64_t GetSeed(const JsonValue& doc) {
  const std::int64_t raw = doc.GetInt("seed", 1);
  return static_cast<std::uint64_t>(raw);
}

ScheduleParams ParseScheduleParams(const JsonValue& doc,
                                   const std::string& id) {
  ScheduleParams p;
  p.algo = doc.GetString("algo", "pa");
  if (p.algo != "pa" && p.algo != "par" && p.algo != "allsw") {
    throw ProtocolError(kErrBadRequest, "unknown algo: " + p.algo, id);
  }
  p.seed = GetSeed(doc);
  p.budget_seconds = doc.GetDouble("budget", 0.0);
  if (p.budget_seconds < 0.0) {
    throw ProtocolError(kErrBadRequest, "budget must be >= 0", id);
  }
  // Without a wall-clock budget PA-R needs an iteration cap; 32 restarts is
  // the deterministic default. With a budget the cap defaults to unbounded.
  const std::int64_t iterations =
      doc.GetInt("iterations", p.budget_seconds > 0.0 ? 0 : 32);
  if (iterations < 0) {
    throw ProtocolError(kErrBadRequest, "iterations must be >= 0", id);
  }
  p.iterations = static_cast<std::size_t>(iterations);
  if (p.algo == "par" && p.budget_seconds <= 0.0 && p.iterations == 0) {
    throw ProtocolError(kErrBadRequest,
                        "par needs iterations > 0 or budget > 0", id);
  }
  p.module_reuse = doc.GetBool("module_reuse", false);
  p.sw_balancing = !doc.GetBool("no_balancing", false);
  p.run_floorplan = !doc.GetBool("no_floorplan", false);
  p.use_cache = doc.GetBool("cache", true);
  return p;
}

SimulateParams ParseSimulateParams(const JsonValue& doc,
                                   const std::string& id) {
  SimulateParams p;
  p.fault_rate = doc.GetDouble("fault_rate", 0.0);
  if (p.fault_rate < 0.0 || p.fault_rate > 1.0) {
    throw ProtocolError(kErrBadRequest, "fault_rate must be in [0, 1]", id);
  }
  const std::int64_t trials = doc.GetInt("trials", 1);
  if (trials <= 0) {
    throw ProtocolError(kErrBadRequest, "trials must be positive", id);
  }
  p.trials = static_cast<std::size_t>(trials);
  p.policy = doc.GetString("policy", "retry");
  try {
    (void)ParseRecoveryPolicy(p.policy);
  } catch (const InstanceError& e) {
    throw ProtocolError(kErrBadRequest, e.what(), id);
  }
  p.jitter = doc.GetDouble("jitter", 0.0);
  if (p.jitter < 0.0 || p.jitter >= 1.0) {
    throw ProtocolError(kErrBadRequest, "jitter must be in [0, 1)", id);
  }
  return p;
}

void ParseInstancePayload(const JsonValue& doc, Request& req) {
  if (!doc.Contains("instance") || !doc.At("instance").IsObject()) {
    throw ProtocolError(kErrBadRequest,
                        "an inline \"instance\" object is required", req.id);
  }
  try {
    // InstanceFromJson validates the graph against its device.
    req.instance =
        std::make_shared<const Instance>(InstanceFromJson(doc.At("instance")));
  } catch (const InstanceError& e) {
    throw ProtocolError(kErrBadRequest, e.what(), req.id);
  }
  // One canonical text feeds both digests: the whole text keys the result
  // cache, the bytes of its platform object key the shared floorplan-cache
  // pool (identical fabrics share one cache).
  ByteSpan platform;
  const std::string canonical =
      CanonicalInstanceText(*req.instance, &platform);
  req.instance_digest = HashCanonicalText(canonical);
  req.platform_digest = HashCanonicalText(std::string_view(canonical).substr(
      platform.begin, platform.end - platform.begin));
}

}  // namespace

const char* ToString(Verb verb) {
  switch (verb) {
    case Verb::kSchedule: return "schedule";
    case Verb::kSimulate: return "simulate";
    case Verb::kCancel: return "cancel";
    case Verb::kStats: return "stats";
    case Verb::kShutdown: return "shutdown";
  }
  return "unknown";
}

JsonParseLimits RequestParseLimits() {
  JsonParseLimits limits;
  limits.max_depth = 32;
  limits.max_bytes = 4u << 20;  // 4 MiB per request line
  // {"verb":"schedule","verb":"stats"} must be an error, not a coin flip
  // over which copy the validator saw versus which one ran.
  limits.reject_duplicate_keys = true;
  return limits;
}

bool ValidTenantName(const std::string& tenant) {
  if (tenant.empty() || tenant.size() > 64) return false;
  for (const char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Request ParseRequest(const std::string& line) {
  JsonValue doc;
  try {
    doc = JsonValue::Parse(line, RequestParseLimits());
  } catch (const JsonError& e) {
    throw ProtocolError(kErrParse, e.what());
  }
  if (!doc.IsObject()) {
    throw ProtocolError(kErrParse, "request must be a JSON object");
  }

  Request req;
  if (doc.Contains("id")) {
    const JsonValue& id = doc.At("id");
    if (!id.IsString() || id.AsString().empty()) {
      throw ProtocolError(kErrBadRequest, "id must be a non-empty string");
    }
    req.id = id.AsString();
    req.had_id = true;
  }

  try {
    const std::string verb = doc.GetString("verb", "");
    if (verb == "schedule") {
      req.verb = Verb::kSchedule;
    } else if (verb == "simulate") {
      req.verb = Verb::kSimulate;
    } else if (verb == "cancel") {
      req.verb = Verb::kCancel;
    } else if (verb == "stats") {
      req.verb = Verb::kStats;
    } else if (verb == "shutdown") {
      req.verb = Verb::kShutdown;
    } else if (verb.empty()) {
      throw ProtocolError(kErrBadRequest, "\"verb\" is required", req.id);
    } else {
      throw ProtocolError(kErrBadRequest, "unknown verb: " + verb, req.id);
    }

    req.deadline_present = doc.Contains("deadline_ms");
    req.deadline_ms = doc.GetDouble("deadline_ms", 0.0);
    if (req.deadline_ms < 0.0) {
      throw ProtocolError(kErrBadRequest, "deadline_ms must be >= 0", req.id);
    }

    if (doc.Contains("tenant")) {
      const JsonValue& tenant = doc.At("tenant");
      if (!tenant.IsString() || !ValidTenantName(tenant.AsString())) {
        throw ProtocolError(
            kErrBadRequest,
            "tenant must be 1-64 chars from [A-Za-z0-9_.-]", req.id);
      }
      req.tenant = tenant.AsString();
    }

    if (req.verb == Verb::kSchedule || req.verb == Verb::kSimulate) {
      ParseInstancePayload(doc, req);
      req.sched = ParseScheduleParams(doc, req.id);
      if (req.verb == Verb::kSimulate) {
        req.sim = ParseSimulateParams(doc, req.id);
      }
    } else if (req.verb == Verb::kCancel) {
      req.cancel_target = doc.GetString("target", "");
      if (req.cancel_target.empty()) {
        throw ProtocolError(kErrBadRequest,
                            "cancel needs a \"target\" request id", req.id);
      }
    }
  } catch (const JsonError& e) {
    // Wrong field type inside an otherwise-parsable document.
    throw ProtocolError(kErrBadRequest, e.what(), req.id);
  }
  return req;
}

std::string RequestKeyText(const Request& request) {
  JsonObject key;
  key["verb"] = ToString(request.verb);
  key["instance"] = request.instance_digest.ToHex();
  key["algo"] = request.sched.algo;
  key["seed"] = std::to_string(request.sched.seed);
  key["iterations"] = request.sched.iterations;
  key["budget"] = request.sched.budget_seconds;
  key["module_reuse"] = request.sched.module_reuse;
  key["sw_balancing"] = request.sched.sw_balancing;
  key["run_floorplan"] = request.sched.run_floorplan;
  if (request.verb == Verb::kSimulate) {
    key["fault_rate"] = request.sim.fault_rate;
    key["trials"] = request.sim.trials;
    key["policy"] = request.sim.policy;
    key["jitter"] = request.sim.jitter;
  }
  return JsonValue(std::move(key)).Dump(-1);
}

std::string OkBody(JsonObject fields) {
  fields["ok"] = true;
  return JsonValue(std::move(fields)).Dump(-1);
}

std::string ErrorBody(const std::string& code, const std::string& message) {
  JsonObject error;
  error["code"] = code;
  error["message"] = message;
  JsonObject body;
  body["ok"] = false;
  body["error"] = JsonValue(std::move(error));
  return JsonValue(std::move(body)).Dump(-1);
}

std::string WithId(const std::string& id, const std::string& body) {
  RESCHED_CHECK_MSG(body.size() > 2 && body.front() == '{' &&
                        body.back() == '}',
                    "response body must be a non-empty JSON object");
  // JsonValue(id).Dump escapes any quotes/control characters a hostile
  // client put into its id.
  const std::string id_json =
      id.empty() ? std::string("null") : JsonValue(id).Dump(-1);
  return "{\"id\":" + id_json + "," + body.substr(1);
}

bool StripResponseId(const std::string& line, std::string& body_out) {
  constexpr std::string_view kPrefix = "{\"id\":";
  if (line.size() < kPrefix.size() + 2 ||
      line.compare(0, kPrefix.size(), kPrefix) != 0 || line.back() != '}') {
    return false;
  }
  std::size_t pos = kPrefix.size();
  if (line[pos] == '"') {
    // String id: skip to the closing quote, honoring backslash escapes
    // (WithId escaped whatever the client sent, so the value may contain
    // \" sequences).
    ++pos;
    while (pos < line.size()) {
      if (line[pos] == '\\') {
        pos += 2;
        continue;
      }
      if (line[pos] == '"') break;
      ++pos;
    }
    if (pos >= line.size()) return false;
    ++pos;  // past the closing quote
  } else {
    // Non-string id (the `null` of an unparsable request): scan to the
    // separating comma — no nesting is possible before it.
    while (pos < line.size() && line[pos] != ',') ++pos;
  }
  if (pos >= line.size() || line[pos] != ',') return false;
  // assign + append rather than "{" + substr: same bytes, without the
  // temporary GCC 12 reports under -Wrestrict.
  body_out.assign(1, '{');
  body_out.append(line, pos + 1);
  return true;
}

std::string HandshakeLine() {
  const BuildInfo& build = GetBuildInfo();
  JsonObject info;
  info["version"] = build.version;
  info["git"] = build.git;
  info["build_type"] = build.build_type;
  info["sanitizers"] = build.sanitizers;
  info["compiler"] = build.compiler;
  JsonObject hs;
  hs["reschedd"] = JsonValue(std::move(info));
  hs["protocol"] = kProtocolVersion;
  return JsonValue(std::move(hs)).Dump(-1);
}

}  // namespace resched::service
