// reschedd wire protocol: JSON-lines requests and responses.
//
// One request per line, one response per line, matched by `id`. The
// transport (Unix socket, stdio, in-process pipe) only moves lines; this
// module owns parsing, validation and response formatting, so every
// transport speaks byte-identical JSON.
//
// Request:  {"verb": "schedule"|"simulate"|"cancel"|"stats"|"shutdown",
//            "id": "...",            // optional; server assigns "r<N>"
//            "tenant": "acme",       // optional fairness tenant ("default")
//            "deadline_ms": 250,     // optional per-request deadline
//            "instance": {...},      // schedule/simulate: inline instance
//            "algo": "pa"|"par"|"allsw", "seed": S,
//            "iterations": N,        // par restart cap (default 32)
//            "budget": SEC,          // par wall-clock budget (nondeterministic)
//            "module_reuse": b, "no_balancing": b, "no_floorplan": b,
//            "cache": b,             // opt out of the result cache
//            "trials": N, "fault_rate": R, "policy": "retry"|...,
//            "jitter": J,            // simulate only
//            "target": "r3"}         // cancel only
// Response: {"id": ..., "ok": true, ...} or
//           {"id": ..., "ok": false, "error": {"code": ..., "message": ...}}
//
// Determinism contract: a request with no wall-clock budget is a pure
// function of its canonical key (RequestKeyText) — the server strips the
// timing fields from schedule bodies and runs PA-R single-threaded, so
// identical submissions produce bit-identical response bodies at any
// worker count. Budgeted requests are nondeterministic by nature; they
// bypass the result cache and are skipped by journal replay comparison.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "io/instance_hash.hpp"
#include "taskgraph/taskgraph.hpp"
#include "util/json.hpp"

namespace resched::service {

inline constexpr int kProtocolVersion = 1;

enum class Verb { kSchedule, kSimulate, kCancel, kStats, kShutdown };

const char* ToString(Verb verb);

/// Stable error codes (the `error.code` field).
inline constexpr const char* kErrParse = "parse_error";
inline constexpr const char* kErrBadRequest = "bad_request";
inline constexpr const char* kErrOverloaded = "overloaded";
inline constexpr const char* kErrShuttingDown = "shutting_down";
inline constexpr const char* kErrDeadline = "deadline_exceeded";
inline constexpr const char* kErrCancelled = "cancelled";
inline constexpr const char* kErrInternal = "internal";
/// Router-only: every candidate backend for the request is unhealthy.
inline constexpr const char* kErrUnavailable = "unavailable";

/// Tenant assigned to requests that carry no "tenant" field. Old clients
/// land here and must observe bit-identical behaviour to the pre-tenant
/// protocol (the tenant never enters RequestKeyText or response bodies).
inline constexpr const char* kDefaultTenant = "default";

/// A rejected request line. `id` is the request id when it could be
/// extracted (so the client can still match the error response).
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string code, const std::string& message,
                std::string id = {})
      : std::runtime_error(message),
        code_(std::move(code)),
        id_(std::move(id)) {}

  const std::string& code() const { return code_; }
  const std::string& id() const { return id_; }

 private:
  std::string code_;
  std::string id_;
};

struct ScheduleParams {
  std::string algo = "pa";      ///< pa | par | allsw
  std::uint64_t seed = 1;
  std::size_t iterations = 32;  ///< par restart cap (0 = unbounded)
  double budget_seconds = 0.0;  ///< par wall-clock budget; > 0 is nondeterministic
  bool module_reuse = false;
  bool sw_balancing = true;
  bool run_floorplan = true;
  bool use_cache = true;        ///< per-request result-cache opt-out
};

struct SimulateParams {
  double fault_rate = 0.0;
  std::size_t trials = 1;
  std::string policy = "retry";
  double jitter = 0.0;
};

struct Request {
  Verb verb = Verb::kStats;
  std::string id;       ///< client-supplied, or assigned by the server
  bool had_id = false;
  double deadline_ms = 0.0;  ///< 0 = no deadline (unless explicitly sent)
  /// True when the request carried a deadline_ms field at all. An explicit
  /// `"deadline_ms":0` is a legal request for an already-expired deadline
  /// (the shed-on-pop test relies on it) and must not read as "none".
  bool deadline_present = false;

  /// Admission-fairness tenant from the optional "tenant" field
  /// ([A-Za-z0-9_.-], at most 64 chars), kDefaultTenant when absent.
  /// Deliberately NOT part of RequestKeyText: results are tenant-
  /// independent, the result cache is shared across tenants, and old
  /// clients (no field) get bit-identical bodies.
  std::string tenant = kDefaultTenant;

  /// schedule/simulate payload (validated against its device).
  std::shared_ptr<const Instance> instance;
  Digest128 instance_digest;
  Digest128 platform_digest;  ///< keys the shared floorplan-cache pool

  ScheduleParams sched;
  SimulateParams sim;
  std::string cancel_target;  ///< cancel verb

  /// True when the response body is a pure function of the request key
  /// (no wall-clock budget involved) — the cacheable/replayable class.
  bool Deterministic() const { return sched.budget_seconds <= 0.0; }
};

/// Hardened limits for untrusted request lines (tight versus the on-disk
/// file defaults): 4 MiB per line, nesting depth 32, duplicate object
/// keys rejected (a repeated key would silently change which value the
/// server acts on).
JsonParseLimits RequestParseLimits();

/// True when `tenant` is a legal tenant name: 1-64 chars from
/// [A-Za-z0-9_.-]. Keeps tenant names safe to embed in metrics labels,
/// stats keys and filenames.
bool ValidTenantName(std::string_view tenant);

/// Parses and validates one request line; throws ProtocolError carrying a
/// stable error code (and the id when it was readable).
Request ParseRequest(const std::string& line);

/// Canonical cache-key text of a request: verb, normalized scheduling
/// parameters and the instance digest — excluding `id` and `deadline_ms`,
/// which do not affect the result. Two requests with equal key text get
/// bit-identical response bodies (when deterministic).
std::string RequestKeyText(const Request& request);

/// Compact `{"ok":true, ...}` body from extra fields.
std::string OkBody(JsonObject fields);

/// Compact `{"ok":false,"error":{...}}` body.
std::string ErrorBody(const std::string& code, const std::string& message);

/// Splices the id in front of a body: `{"id":"r1","ok":...}`. An empty id
/// (unparsable request) becomes `"id":null`.
std::string WithId(const std::string& id, const std::string& body);

/// Inverse of WithId, textually: given a response line produced by
/// WithId, recovers the exact body bytes (`{"ok":...}`) by skipping the
/// spliced `"id":<value>,` prefix. Purely lexical on purpose — a JSON
/// parse/re-dump round trip could legally reorder or reformat, and the
/// warm-start cache must restore the *bit-identical* body the original
/// daemon served. Returns false when `line` is not WithId-shaped.
bool StripResponseId(const std::string& line, std::string& body_out);

/// The string id of a response line produced by WithId, read lexically
/// from its leading `{"id":"..."` without parsing the body. Empty when
/// the line is not WithId-shaped or its id is not a string (`null`, a
/// greeting), so it never matches a real request id.
std::string ResponseId(const std::string& line);

/// Greeting line sent once per connection: protocol version + build
/// provenance (the satellite build-info stamp).
std::string HandshakeLine();

}  // namespace resched::service
