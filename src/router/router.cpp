#include "router/router.hpp"

#include <exception>
#include <utility>

#include "io/instance_hash.hpp"
#include "service/client.hpp"
#include "service/framing.hpp"
#include "service/protocol.hpp"
#include "util/json.hpp"

namespace resched::router {
namespace {

using service::ClientEndpoint;
using service::ClientOptions;
using service::ErrorBody;
using service::OkBody;
using service::RescheddClient;
using service::WithId;

/// The one tenant of every per-backend forward queue.
constexpr const char* kForwardTenant = service::kDefaultTenant;

JsonValue AsInt64(std::uint64_t v) {
  return JsonValue(static_cast<std::int64_t>(v));
}

}  // namespace

RescheddRouter::RescheddRouter(service::Transport& front,
                               RouterOptions options)
    : front_(front),
      options_(std::move(options)),
      ring_(
          [&] {
            std::vector<std::string> names;
            for (RouterBackend& b : options_.backends) {
              if (b.name.empty()) {
                b.name = b.host + ":" + std::to_string(b.port);
              }
              names.push_back(b.name);
            }
            return names;
          }(),
          [&] {
            std::vector<std::uint32_t> weights;
            for (const RouterBackend& b : options_.backends) {
              weights.push_back(b.weight);
            }
            return weights;
          }(),
          options_.vnodes_per_weight) {
  for (const RouterBackend& cfg : options_.backends) {
    auto state = std::make_unique<BackendState>();
    state->cfg = cfg;
    service::FairQueueOptions queue_options;
    queue_options.per_tenant_capacity = options_.queue_capacity_per_backend;
    state->queue = std::make_unique<service::WeightedFairQueue<RouteItem>>(
        std::move(queue_options));
    backends_.push_back(std::move(state));
  }
}

bool RescheddRouter::BackendHealthy(std::size_t index) const {
  return backends_.at(index)->healthy.load(std::memory_order_relaxed);
}

void RescheddRouter::WriteFront(const std::string& line) {
  MutexLock lock(write_mu_);
  // resched-lint: allow(lock-held-over-blocking-call) — the front write
  // mutex exists precisely to serialize this blocking write across
  // forwarder threads; nothing else ever waits on it.
  (void)front_.WriteLine(line);
}

void RescheddRouter::CountTenantForward(const std::string& tenant) {
  MutexLock lock(tenants_mu_);
  ++tenant_forwarded_[tenant];
}

void RescheddRouter::Serve() {
  front_.SetGreeting(service::HandshakeLine());
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    backends_[i]->worker = std::thread([this, i] { ForwarderLoop(i); });
  }
  probe_thread_ = std::thread([this] { ProbeLoop(); });
  if (!options_.metrics_out_path.empty()) {
    metrics_thread_ = std::thread([this] { MetricsLoop(); });
  }

  std::string line;
  bool shutdown_requested = false;
  std::string shutdown_id;
  while (front_.ReadLine(line)) {
    if (HandleLine(line, shutdown_id)) {
      shutdown_requested = true;
      break;
    }
  }
  Drain(shutdown_requested, shutdown_id);
}

bool RescheddRouter::HandleLine(const std::string& line,
                                std::string& shutdown_id) {
  JsonValue doc;
  try {
    doc = JsonValue::Parse(line, service::RequestParseLimits());
  } catch (const std::exception& e) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    WriteFront(WithId(
        "", ErrorBody(service::kErrParse, std::string("bad json: ") +
                          e.what())));
    return false;
  }

  // Light-touch classification: the router only needs verb, id, tenant and
  // the shard key. Everything else — including malformed-but-parsable
  // requests — is validated by the owning backend, so error bodies stay
  // byte-identical to a single-daemon deployment.
  const auto string_member = [&doc](std::string_view key) {
    const JsonValue* v = doc.Find(key);
    return v != nullptr && v->IsString() ? v->AsString() : std::string_view();
  };
  // Copies: adding an id below rewrites the document.
  const std::string verb(string_member("verb"));
  std::string id(string_member("id"));
  std::string tenant = service::kDefaultTenant;
  if (const std::string_view t = string_member("tenant");
      service::ValidTenantName(t)) {
    tenant = t;
  }

  if (verb == "shutdown") {
    shutdown_id = id.empty() ? "x" + std::to_string(next_assigned_id_.fetch_add(
                                         1, std::memory_order_relaxed))
                             : id;
    return true;
  }
  if (verb == "stats") {
    WriteFront(WithId(id, StatsBody()));
    return false;
  }

  // Forwarded lines must carry an id: the resilient client's retry path is
  // only idempotent (and response matching only works) with one.
  std::string forwarded = line;
  if (doc.IsObject() && id.empty()) {
    id = "x" + std::to_string(
                   next_assigned_id_.fetch_add(1, std::memory_order_relaxed));
    doc.AsObject()["id"] = id;
    forwarded = doc.Dump(-1);
  }

  if (verb == "cancel") {
    BroadcastCancel(forwarded, id);
    return false;
  }

  // schedule / simulate / anything the backend should reject itself:
  // shard on the canonical instance text when present (same instance →
  // same backend → warm cache), else on the raw line.
  std::uint64_t point = 0;
  if (const JsonValue* instance = doc.Find("instance")) {
    const Digest128 d = HashCanonicalText(instance->Dump(-1));
    point = d.hi ^ d.lo;
  } else {
    const Digest128 d = HashCanonicalText(forwarded);
    point = d.hi ^ d.lo;
  }
  RouteLine(std::move(forwarded), std::move(id), std::move(tenant), point);
  return false;
}

void RescheddRouter::RouteLine(std::string line, std::string id,
                               std::string tenant, std::uint64_t point) {
  RouteItem item;
  item.line = std::move(line);
  item.id = std::move(id);
  item.tenant = std::move(tenant);
  item.preference = ring_.Preference(point);

  for (std::size_t pos = 0; pos < item.preference.size(); ++pos) {
    BackendState& backend = *backends_[item.preference[pos]];
    if (!backend.healthy.load(std::memory_order_relaxed)) continue;
    item.pos = pos;
    const std::string item_id = item.id;
    const std::string item_tenant = item.tenant;
    switch (backend.queue->TryPush(kForwardTenant, std::move(item))) {
      case service::PushOutcome::kAccepted:
        CountTenantForward(item_tenant);
        return;
      case service::PushOutcome::kFull:
        overloaded_.fetch_add(1, std::memory_order_relaxed);
        WriteFront(WithId(item_id,
                          ErrorBody(service::kErrOverloaded,
                                    "router forward queue is full")));
        return;
      case service::PushOutcome::kClosed:
        WriteFront(WithId(item_id, ErrorBody(service::kErrShuttingDown,
                                             "router is draining")));
        return;
    }
  }
  unavailable_.fetch_add(1, std::memory_order_relaxed);
  WriteFront(WithId(item.id,
                    ErrorBody(service::kErrUnavailable,
                              "every candidate backend is unhealthy")));
}

void RescheddRouter::BroadcastCancel(const std::string& line,
                                     const std::string& id) {
  cancels_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::size_t> healthy;
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    if (backends_[b]->healthy.load(std::memory_order_relaxed)) {
      healthy.push_back(b);
    }
  }
  if (healthy.empty()) {
    unavailable_.fetch_add(1, std::memory_order_relaxed);
    WriteFront(WithId(id, ErrorBody(service::kErrUnavailable,
                                    "every candidate backend is unhealthy")));
    return;
  }
  const auto fanout = std::make_shared<CancelFanout>(id, healthy.size());
  for (const std::size_t b : healthy) {
    RouteItem item;
    item.line = line;
    item.id = id;
    item.cancel = fanout;
    if (backends_[b]->queue->TryPush(kForwardTenant, std::move(item)) !=
        service::PushOutcome::kAccepted) {
      // Full or draining: that share of the broadcast goes unanswered.
      CancelShareDone(*fanout, /*reached=*/false, /*cancelled=*/false);
    }
  }
}

void RescheddRouter::CancelShareDone(CancelFanout& fanout, bool reached,
                                     bool cancelled) {
  if (reached) fanout.any_reached.store(true, std::memory_order_relaxed);
  if (cancelled) fanout.cancelled.store(true, std::memory_order_relaxed);
  if (fanout.remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (!fanout.any_reached.load(std::memory_order_relaxed)) {
    unavailable_.fetch_add(1, std::memory_order_relaxed);
    WriteFront(WithId(fanout.id,
                      ErrorBody(service::kErrUnavailable,
                                "every candidate backend is unhealthy")));
    return;
  }
  JsonObject body;
  body["verb"] = "cancel";
  body["cancelled"] = fanout.cancelled.load(std::memory_order_relaxed);
  WriteFront(WithId(fanout.id, OkBody(std::move(body))));
}

void RescheddRouter::ForwarderLoop(std::size_t index) {
  BackendState& self = *backends_[index];
  ClientOptions copts;
  copts.max_attempts = options_.attempts_per_backend;
  copts.backoff_initial_ms = options_.backoff_initial_ms;
  copts.backoff_max_ms = options_.backoff_max_ms;
  copts.backoff_multiplier = options_.backoff_multiplier;
  RescheddClient client(ClientEndpoint::Tcp(self.cfg.host, self.cfg.port),
                        copts);

  RouteItem item;
  while (self.queue->Pop(item)) {
    // No in-flight cap on a forward queue: release the slot on pop.
    self.queue->OnDone(kForwardTenant);
    if (item.cancel) {
      // A share of a cancel broadcast: report into the fanout instead of
      // writing a response, and never re-route (an unreachable backend
      // cannot be running the target either).
      bool reached = false;
      bool cancelled = false;
      try {
        const RescheddClient::Result result =
            client.Submit(item.line, item.id);
        reached = true;
        const JsonValue resp = JsonValue::Parse(result.response);
        const JsonValue* flag = resp.Find("cancelled");
        cancelled = flag != nullptr && flag->IsBool() && flag->AsBool();
      } catch (const SocketError&) {
        self.healthy.store(false, std::memory_order_relaxed);
        self.failed.fetch_add(1, std::memory_order_relaxed);
      }
      CancelShareDone(*item.cancel, reached, cancelled);
      continue;
    }
    try {
      const RescheddClient::Result result = client.Submit(item.line, item.id);
      self.forwarded.fetch_add(1, std::memory_order_relaxed);
      WriteFront(result.response);
      continue;
    } catch (const SocketError&) {
      // The backend stayed dead through the client's own retry budget:
      // stop sending it traffic and hand the request to the next backend
      // in its preference order.
      self.healthy.store(false, std::memory_order_relaxed);
      self.failed.fetch_add(1, std::memory_order_relaxed);
    }
    bool rerouted = false;
    for (std::size_t pos = item.pos + 1;
         pos < item.preference.size() && !rerouted; ++pos) {
      BackendState& next = *backends_[item.preference[pos]];
      if (!next.healthy.load(std::memory_order_relaxed)) continue;
      RouteItem moved = item;
      moved.pos = pos;
      switch (next.queue->TryPush(kForwardTenant, std::move(moved))) {
        case service::PushOutcome::kAccepted:
          self.rerouted.fetch_add(1, std::memory_order_relaxed);
          rerouted = true;
          break;
        case service::PushOutcome::kFull:
          overloaded_.fetch_add(1, std::memory_order_relaxed);
          WriteFront(WithId(item.id,
                            ErrorBody(service::kErrOverloaded,
                                      "router forward queue is full")));
          rerouted = true;  // answered; stop searching
          break;
        case service::PushOutcome::kClosed:
          WriteFront(WithId(item.id, ErrorBody(service::kErrShuttingDown,
                                               "router is draining")));
          rerouted = true;
          break;
      }
    }
    if (!rerouted) {
      unavailable_.fetch_add(1, std::memory_order_relaxed);
      WriteFront(WithId(item.id,
                        ErrorBody(service::kErrUnavailable,
                                  "every candidate backend is unhealthy")));
    }
  }
}

void RescheddRouter::ProbeLoop() {
  MutexLock lock(stop_mu_);
  while (!stop_) {
    // resched-lint: allow(lock-held-over-blocking-call) — WaitFor releases
    // stop_mu_ while sleeping; the probes below run with it held only
    // because nothing else contends for it (Drain takes it once, to stop).
    (void)stop_cv_.WaitFor(lock, options_.probe_interval_ms / 1000.0);
    if (stop_) return;
    for (const std::unique_ptr<BackendState>& backend : backends_) {
      if (backend->healthy.load(std::memory_order_relaxed)) continue;
      try {
        StreamSocket sock =
            StreamSocket::ConnectTcp(backend->cfg.host, backend->cfg.port);
        service::FrameReader reader(sock);
        std::string greeting;
        if (reader.Read(greeting) == service::FrameResult::kFrame) {
          backend->healthy.store(true, std::memory_order_relaxed);
        }
      } catch (const std::exception&) {
        // Still down; the next tick re-dials.
      }
    }
  }
}

std::string RescheddRouter::StatsBody() {
  JsonObject body;
  body["verb"] = "stats";
  body["router"] = true;
  body["uptime_s"] = uptime_.ElapsedSeconds();
  body["parse_errors"] = AsInt64(parse_errors_.load(std::memory_order_relaxed));
  body["unavailable"] = AsInt64(unavailable_.load(std::memory_order_relaxed));
  body["overloaded"] = AsInt64(overloaded_.load(std::memory_order_relaxed));
  body["cancels"] = AsInt64(cancels_.load(std::memory_order_relaxed));

  JsonObject backends;
  for (const std::unique_ptr<BackendState>& backend : backends_) {
    JsonObject b;
    b["host"] = backend->cfg.host;
    b["port"] = static_cast<std::int64_t>(backend->cfg.port);
    b["weight"] = static_cast<std::int64_t>(backend->cfg.weight);
    b["healthy"] = backend->healthy.load(std::memory_order_relaxed);
    b["queue_depth"] = backend->queue->Size();
    b["forwarded"] =
        AsInt64(backend->forwarded.load(std::memory_order_relaxed));
    b["failed"] = AsInt64(backend->failed.load(std::memory_order_relaxed));
    b["rerouted"] = AsInt64(backend->rerouted.load(std::memory_order_relaxed));
    backends[backend->cfg.name] = std::move(b);
  }
  body["backends"] = std::move(backends);

  JsonObject tenants;
  {
    MutexLock lock(tenants_mu_);
    for (const auto& [tenant, forwarded] : tenant_forwarded_) {
      JsonObject t;
      t["forwarded"] = AsInt64(forwarded);
      tenants[tenant] = std::move(t);
    }
  }
  body["tenants"] = std::move(tenants);
  return OkBody(std::move(body));
}

std::vector<service::MetricFamily> RescheddRouter::BuildMetricFamilies() {
  std::vector<service::MetricFamily> families;

  families.push_back(service::MetricFamily{
      "reschedd_router_up",
      "1 while the router process is serving.",
      "gauge",
      {service::MetricSample{{}, 1.0}}});

  service::MetricFamily events{
      "reschedd_router_requests_total",
      "Router-level request events by kind.",
      "counter",
      {}};
  const auto add_event = [&events](const char* kind, std::uint64_t v) {
    service::MetricSample s;
    s.labels["event"] = kind;
    s.value = static_cast<double>(v);
    events.samples.push_back(std::move(s));
  };
  add_event("parse_error", parse_errors_.load(std::memory_order_relaxed));
  add_event("unavailable", unavailable_.load(std::memory_order_relaxed));
  add_event("overloaded", overloaded_.load(std::memory_order_relaxed));
  add_event("cancel", cancels_.load(std::memory_order_relaxed));
  families.push_back(std::move(events));

  service::MetricFamily healthy{
      "reschedd_router_backend_healthy",
      "1 when the backend is in rotation, 0 while marked unhealthy.",
      "gauge",
      {}};
  service::MetricFamily depth{
      "reschedd_router_backend_queue_depth",
      "Requests waiting in the per-backend forward queue.",
      "gauge",
      {}};
  service::MetricFamily per_backend{
      "reschedd_router_backend_requests_total",
      "Per-backend forwarding outcomes.",
      "counter",
      {}};
  for (const std::unique_ptr<BackendState>& backend : backends_) {
    const std::string& name = backend->cfg.name;
    service::MetricSample h;
    h.labels["backend"] = name;
    h.value = backend->healthy.load(std::memory_order_relaxed) ? 1.0 : 0.0;
    healthy.samples.push_back(std::move(h));
    service::MetricSample d;
    d.labels["backend"] = name;
    d.value = static_cast<double>(backend->queue->Size());
    depth.samples.push_back(std::move(d));
    const auto add_outcome = [&per_backend, &name](const char* outcome,
                                                   std::uint64_t v) {
      service::MetricSample s;
      s.labels["backend"] = name;
      s.labels["outcome"] = outcome;
      s.value = static_cast<double>(v);
      per_backend.samples.push_back(std::move(s));
    };
    add_outcome("forwarded", backend->forwarded.load(std::memory_order_relaxed));
    add_outcome("failed", backend->failed.load(std::memory_order_relaxed));
    add_outcome("rerouted", backend->rerouted.load(std::memory_order_relaxed));
  }
  families.push_back(std::move(healthy));
  families.push_back(std::move(depth));
  families.push_back(std::move(per_backend));

  service::MetricFamily tenants{
      "reschedd_router_tenant_forwarded_total",
      "Requests forwarded to the fleet, by tenant.",
      "counter",
      {}};
  {
    MutexLock lock(tenants_mu_);
    for (const auto& [tenant, forwarded] : tenant_forwarded_) {
      service::MetricSample s;
      s.labels["tenant"] = tenant;
      s.value = static_cast<double>(forwarded);
      tenants.samples.push_back(std::move(s));
    }
  }
  families.push_back(std::move(tenants));
  return families;
}

void RescheddRouter::WriteMetricsNow() {
  const std::string text = service::RenderPrometheus(BuildMetricFamilies());
  std::string error;
  if (service::WriteTextfileAtomic(options_.metrics_out_path, text, &error)) {
    metrics_writes_.fetch_add(1, std::memory_order_relaxed);
  } else {
    metrics_errors_.fetch_add(1, std::memory_order_relaxed);
  }
}

void RescheddRouter::MetricsLoop() {
  MutexLock lock(stop_mu_);
  while (!stop_) {
    // resched-lint: allow(lock-held-over-blocking-call) — same contract as
    // ProbeLoop: stop_mu_ exists only to carry the stop signal.
    (void)stop_cv_.WaitFor(lock, options_.metrics_interval_ms / 1000.0);
    if (stop_) return;
    WriteMetricsNow();
  }
}

void RescheddRouter::Drain(bool broadcast_shutdown,
                           const std::string& shutdown_id) {
  for (const std::unique_ptr<BackendState>& backend : backends_) {
    backend->queue->Close();
  }
  for (const std::unique_ptr<BackendState>& backend : backends_) {
    if (backend->worker.joinable()) backend->worker.join();
  }

  if (broadcast_shutdown) {
    // The fleet drains before the broadcast, so every forwarded request
    // was answered before its backend is told to exit.
    for (const std::unique_ptr<BackendState>& backend : backends_) {
      try {
        ClientOptions copts;
        copts.max_attempts = 1;
        RescheddClient client(
            ClientEndpoint::Tcp(backend->cfg.host, backend->cfg.port), copts);
        JsonObject req;
        req["verb"] = "shutdown";
        req["id"] = shutdown_id + "." + backend->cfg.name;
        (void)client.Submit(JsonValue(std::move(req)).Dump(-1));
      } catch (const std::exception&) {
        // Already gone — which is what shutdown wanted anyway.
      }
    }
    JsonObject body;
    body["verb"] = "shutdown";
    body["drained"] = true;
    WriteFront(WithId(shutdown_id, OkBody(std::move(body))));
  }

  {
    MutexLock lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.NotifyAll();
  if (probe_thread_.joinable()) probe_thread_.join();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  if (!options_.metrics_out_path.empty()) WriteMetricsNow();
}

}  // namespace resched::router
