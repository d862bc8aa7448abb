#include "service/server.hpp"

#include <cstdio>
#include <fstream>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "baseline/reference.hpp"
#include "core/pa_scheduler.hpp"
#include "core/pa_state.hpp"
#include "core/randomized.hpp"
#include "floorplan/floorplan_cache.hpp"
#include "io/schedule_io.hpp"
#include "sched/validator.hpp"
#include "sim/executor.hpp"
#include "util/build_info.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace resched::service {
namespace {

std::int64_t AsInt64(std::uint64_t v) { return static_cast<std::int64_t>(v); }

FairQueueOptions MakeQueueOptions(const ServerOptions& options) {
  FairQueueOptions q;
  q.per_tenant_capacity = options.queue_capacity;
  q.per_tenant_inflight = options.per_tenant_inflight;
  q.weights = options.tenant_weights;
  q.default_weight = options.default_tenant_weight;
  return q;
}

/// Bound on the exact-sample vectors (record_latency_samples) so a long
/// bench run cannot grow them without limit.
constexpr std::size_t kMaxLatencySamples = 1u << 16;

}  // namespace

RescheddServer::WarmSlot::WarmSlot() = default;
RescheddServer::WarmSlot::~WarmSlot() = default;

RescheddServer::RescheddServer(Transport& transport, ServerOptions options)
    : transport_(transport),
      options_(options),
      queue_(MakeQueueOptions(options)) {
  RESCHED_CHECK_MSG(options_.workers > 0, "reschedd needs at least 1 worker");
  RESCHED_CHECK_MSG(options_.queue_capacity > 0,
                    "admission queue capacity must be positive");
  // Drain-expiry probe: lets Close()-time draining hand out already-dead
  // requests first so shutdown never executes doomed work.
  queue_.SetExpiryProbe(
      [](const Pending& p) { return p.token != nullptr && p.token->Cancelled(); });
  if (options_.result_cache) {
    result_cache_ = std::make_unique<
        ConcurrentMemoMap<Digest128, std::string, DigestHash>>(
        options_.result_cache_capacity);
  }
  if (!options_.journal_path.empty()) {
    // Recovery-first: the Journal ctor truncates any torn tail before the
    // warm-start scan below reads the file, so recovery only ever replays
    // whole records.
    journal_ = std::make_unique<Journal>(options_.journal_path,
                                         options_.journal_sync);
  }
  if (!options_.warm_start_path.empty()) WarmStart();
}

void RescheddServer::WarmStart() {
  recovery_.enabled = true;
  const std::string& path = options_.warm_start_path;
  {
    // A daemon's first boot has no journal yet: that is a cold start with
    // warm-start armed, not an error.
    std::ifstream probe(path);
    if (!probe) return;
  }
  const JournalScan scan = ScanJournalFile(path, /*truncate_torn=*/false);
  recovery_.records_scanned = scan.records.size();
  recovery_.torn_bytes = scan.torn_bytes;
  if (journal_ && path == options_.journal_path) {
    // The Journal ctor already cut the tail; report what it dropped.
    recovery_.torn_bytes = journal_->Report().torn_bytes;
  }

  // Pair request records with their response by id, in journal order.
  std::map<std::string, std::string> raw_requests;
  for (const JournalRecord& record : scan.records) {
    if (record.kind == "request") {
      raw_requests[record.id] = record.line;
      continue;
    }
    if (record.kind != "response") continue;
    const auto found = raw_requests.find(record.id);
    if (found == raw_requests.end()) continue;

    Request request;
    try {
      request = ParseRequest(found->second);
    } catch (const ProtocolError&) {
      continue;  // journaled by an older/newer build; not restorable
    }
    if (request.verb != Verb::kSchedule && request.verb != Verb::kSimulate) {
      continue;  // control responses depend on server state
    }
    std::string body;
    if (!StripResponseId(record.line, body)) continue;
    bool was_ok = false;
    try {
      was_ok = JsonValue::Parse(body).GetBool("ok", false);
    } catch (const std::exception&) {
      continue;
    }
    if (!was_ok) continue;  // errors are retryable, not replayable history

    RememberCompleted(record.id, body);
    ++recovery_.dedup_restored;
    if (result_cache_ && request.Deterministic() && request.sched.use_cache) {
      result_cache_->Insert(HashCanonicalText(RequestKeyText(request)), body);
      ++recovery_.cache_restored;
    }
  }
}

bool RescheddServer::FindCompleted(const std::string& id, std::string& body) {
  MutexLock lock(completed_mu_);
  const auto it = completed_.find(id);
  if (it == completed_.end()) return false;
  body = it->second;
  return true;
}

void RescheddServer::RememberCompleted(const std::string& id,
                                       const std::string& body) {
  MutexLock lock(completed_mu_);
  if (completed_.size() >= options_.completed_capacity &&
      completed_.find(id) == completed_.end()) {
    completed_.erase(completed_.begin());
  }
  completed_[id] = body;
}

RescheddServer::~RescheddServer() {
  queue_.Close();
  if (metrics_thread_.joinable()) {
    // Serve() normally joins; this is the Serve-threw (or never-ran) path.
    {
      MutexLock lock(metrics_mu_);
      metrics_stop_ = true;
    }
    metrics_cv_.NotifyAll();
    metrics_thread_.join();
  }
}

void RescheddServer::Serve() {
  transport_.SetGreeting(HandshakeLine());

  if (!options_.metrics_out_path.empty()) {
    metrics_thread_ = std::thread([this] { MetricsLoop(); });
  }

  // Destruction order matters: `closer` runs before `pool`'s destructor,
  // so even when ReadLoop throws (transport failure) the queue closes
  // first and the workers drain and exit instead of blocking in Pop().
  ThreadPool pool(options_.workers);
  struct QueueCloser {
    WeightedFairQueue<Pending>& queue;
    ~QueueCloser() { queue.Close(); }
  } closer{queue_};

  for (std::size_t w = 0; w < options_.workers; ++w) {
    pool.Submit([this] { WorkerLoop(); });
  }

  const bool shutdown_requested = ReadLoop();

  queue_.Close();
  pool.Wait();  // drain: every accepted request has been answered

  if (shutdown_requested) {
    JsonObject body;
    body["verb"] = "shutdown";
    body["drained"] = true;
    Respond(shutdown_id_, OkBody(std::move(body)), "control");
  }
  if (journal_) {
    try {
      journal_->Sync();  // a graceful exit leaves a durable journal
    } catch (const JournalError& e) {
      journal_errors_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "reschedd: %s\n", e.what());
    }
  }
  if (metrics_thread_.joinable()) {
    {
      MutexLock lock(metrics_mu_);
      metrics_stop_ = true;
    }
    metrics_cv_.NotifyAll();
    metrics_thread_.join();
    WriteMetricsNow();  // final snapshot covers the full lifetime
  }
}

bool RescheddServer::ReadLoop() {
  std::string line;
  while (transport_.ReadLine(line)) {
    if (line.empty()) continue;
    received_.fetch_add(1, std::memory_order_relaxed);

    Request request;
    try {
      request = ParseRequest(line);
    } catch (const ProtocolError& e) {
      rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
      Respond(e.id(), ErrorBody(e.code(), e.what()), "error");
      continue;
    }
    if (!request.had_id) request.id = NextId();
    if (journal_) {
      try {
        journal_->AppendRequest(request.id, line);
      } catch (const JournalError& e) {
        journal_errors_.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "reschedd: %s\n", e.what());
      }
    }

    switch (request.verb) {
      case Verb::kStats:
        Respond(request.id, StatsBody(), "control");
        break;
      case Verb::kCancel: {
        JsonObject body;
        body["verb"] = "cancel";
        body["target"] = request.cancel_target;
        body["cancelled"] = CancelTarget(request.cancel_target);
        Respond(request.id, OkBody(std::move(body)), "control");
        break;
      }
      case Verb::kShutdown:
        shutdown_id_ = request.id;
        return true;
      case Verb::kSchedule:
      case Verb::kSimulate:
        Admit(std::move(request));
        break;
    }
  }
  return false;
}

std::string RescheddServer::NextId() {
  std::string id = "r";
  id += std::to_string(next_id_.fetch_add(1) + 1);
  return id;
}

double RescheddServer::UptimeMs() const {
  return static_cast<double>(uptime_.ElapsedMicros()) / 1000.0;
}

void RescheddServer::Admit(Request request) {
  const std::string id = request.id;
  const std::string tenant = request.tenant;
  TenantStats& tstats = TenantStatsFor(tenant);

  // Idempotent resubmission: a client that reconnected and resent a
  // request (it cannot tell a lost response from a slow one) must not
  // trigger a second execution. A finished id is re-answered from the
  // completed ledger; an id still in flight is dropped silently — the
  // original execution's response goes to the live connection.
  if (request.had_id) {
    std::string body;
    if (FindCompleted(id, body)) {
      deduped_.fetch_add(1, std::memory_order_relaxed);
      tstats.deduped.fetch_add(1, std::memory_order_relaxed);
      Respond(id, body, "dedup");
      return;
    }
    {
      MutexLock lock(registry_mu_);
      if (registry_.find(id) != registry_.end()) {
        deduped_.fetch_add(1, std::memory_order_relaxed);
        tstats.deduped.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  }

  auto token = std::make_shared<CancelToken>(
      request.deadline_ms > 0.0 ? request.deadline_ms / 1000.0 : 0.0);
  if (request.deadline_present && request.deadline_ms <= 0.0) {
    // An explicit 0ms deadline is already expired; Deadline cannot arm a
    // zero-length window, so the token is force-expired instead.
    token->ExpireDeadlineNow();
  }
  {
    // Registered before the push so a cancel verb racing the worker can
    // always find the token.
    MutexLock lock(registry_mu_);
    registry_[id] = token;
  }
  Pending item;
  item.request = std::move(request);
  item.token = std::move(token);
  item.admitted_at_ms = UptimeMs();
  const PushOutcome outcome = queue_.TryPush(tenant, std::move(item));
  if (outcome == PushOutcome::kAccepted) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
    tstats.admitted.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  {
    MutexLock lock(registry_mu_);
    registry_.erase(id);
  }
  if (outcome == PushOutcome::kClosed) {
    rejected_shutting_down_.fetch_add(1, std::memory_order_relaxed);
    tstats.shed_shutdown.fetch_add(1, std::memory_order_relaxed);
    Respond(id, ErrorBody(kErrShuttingDown, "server is shutting down"),
            "error");
  } else {
    rejected_overloaded_.fetch_add(1, std::memory_order_relaxed);
    tstats.shed_overload.fetch_add(1, std::memory_order_relaxed);
    Respond(id, ErrorBody(kErrOverloaded, "admission queue is full"),
            "error");
  }
}

bool RescheddServer::CancelTarget(const std::string& target) {
  MutexLock lock(registry_mu_);
  auto it = registry_.find(target);
  if (it == registry_.end()) return false;
  it->second->Cancel();
  return true;
}

void RescheddServer::WorkerLoop() {
  WarmSlot warm;
  Pending item;
  bool expired_in_drain = false;
  while (queue_.Pop(item, &expired_in_drain)) {
    item.popped_at_ms = UptimeMs();
    TenantStats& tstats = TenantStatsFor(item.request.tenant);
    RecordQueueWait(tstats, item.popped_at_ms - item.admitted_at_ms);
    if (expired_in_drain) {
      tstats.drain_shed.fetch_add(1, std::memory_order_relaxed);
    }
    // Deadline-aware shedding: a request whose deadline (or cancel)
    // already fired while queued is answered here, not handed to the
    // scheduler — and not served from the result cache either, which
    // would fake a success the client has stopped waiting for.
    if (item.token->Cancelled()) {
      const std::string body =
          CancelledBody(*item.token, tstats, "deadline expired while queued");
      {
        MutexLock lock(registry_mu_);
        registry_.erase(item.request.id);
      }
      Respond(item.request.id, body, "error");
      queue_.OnDone(item.request.tenant);
    } else {
      Process(item, warm);
    }
    item = Pending{};  // release the instance/token before blocking again
  }
}

void RescheddServer::Process(Pending& item, WarmSlot& warm) {
  const Request& request = item.request;
  TenantStats& tstats = TenantStatsFor(request.tenant);

  // Closes the Admit-time dedup race: a duplicate that slipped past both
  // Admit checks (original finished between them) finds the completed
  // entry here, because RememberCompleted runs before the registry erase.
  if (request.had_id) {
    std::string done_body;
    if (FindCompleted(request.id, done_body)) {
      deduped_.fetch_add(1, std::memory_order_relaxed);
      tstats.deduped.fetch_add(1, std::memory_order_relaxed);
      Answer(item, done_body, "dedup");
      return;
    }
  }

  const bool cacheable = result_cache_ != nullptr && request.Deterministic() &&
                         request.sched.use_cache;
  if (!cacheable) {
    Lead(std::move(item), warm, nullptr);
    return;
  }

  // Singleflight: the cache probe and the flight lookup share one lock
  // with the leader's cache-fill-and-land step, so exactly one of "hit",
  // "join" or "lead" holds for each copy of a key.
  const Digest128 key = HashCanonicalText(RequestKeyText(request));
  std::shared_ptr<const std::string> hit;
  {
    MutexLock lock(flights_mu_);
    hit = result_cache_->Find(key);
    if (!hit) {
      const auto [flight, leading] = flights_.try_emplace(key);
      if (!leading) {
        joined_.fetch_add(1, std::memory_order_relaxed);
        tstats.joined.fetch_add(1, std::memory_order_relaxed);
        flight->second.push_back(std::move(item));
        return;  // parked: the flight's leader answers it
      }
    }
  }
  if (hit) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    tstats.cache_hits.fetch_add(1, std::memory_order_relaxed);
    Answer(item, *hit, "cache");
    return;
  }
  Lead(std::move(item), warm, &key);
}

void RescheddServer::Lead(Pending leader, WarmSlot& warm,
                          const Digest128* key) {
  for (;;) {
    std::string body;
    const bool ok = Solve(leader, warm, body);
    // Followers to answer now: all of them on success; on failure only
    // those whose own token fired, while the first live one re-leads and
    // the rest re-park on it.
    std::vector<Pending> settled;
    std::optional<Pending> successor;
    if (key != nullptr) {
      MutexLock lock(flights_mu_);
      const auto flight = flights_.find(*key);
      RESCHED_CHECK_MSG(flight != flights_.end(), "leader lost its flight");
      std::vector<Pending> parked;
      parked.swap(flight->second);
      if (ok) {
        result_cache_->Insert(*key, body);
        settled = std::move(parked);
      } else {
        for (Pending& follower : parked) {
          if (follower.token->Cancelled()) {
            settled.push_back(std::move(follower));
          } else if (!successor) {
            successor = std::move(follower);
          } else {
            flight->second.push_back(std::move(follower));
          }
        }
      }
      if (!successor) flights_.erase(flight);
    }
    Answer(leader, body, ok ? "exec" : "error");
    for (Pending& follower : settled) {
      if (follower.token->Cancelled()) {
        Answer(follower,
               CancelledBody(*follower.token,
                             TenantStatsFor(follower.request.tenant),
                             "deadline exceeded"),
               "error");
      } else {
        Answer(follower, body, "join");
      }
    }
    if (!successor) return;
    leader = std::move(*successor);
  }
}

bool RescheddServer::Solve(Pending& item, WarmSlot& warm, std::string& body) {
  TenantStats& tstats = TenantStatsFor(item.request.tenant);
  try {
    // A request can spend its whole deadline queued; charge that too.
    item.token->ThrowIfCancelled();
    body = Execute(item.request, *item.token, warm);
    tstats.exec.fetch_add(1, std::memory_order_relaxed);
    return true;
  } catch (const CancelledError&) {
    body = CancelledBody(*item.token, tstats, "deadline exceeded");
  } catch (const std::exception& e) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    tstats.failed.fetch_add(1, std::memory_order_relaxed);
    body = ErrorBody(kErrInternal, e.what());
  }
  return false;
}

std::string RescheddServer::CancelledBody(const CancelToken& token,
                                          TenantStats& tstats,
                                          const char* deadline_message) {
  if (token.ExplicitlyCancelled()) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    tstats.cancelled.fetch_add(1, std::memory_order_relaxed);
    return ErrorBody(kErrCancelled, "request cancelled");
  }
  deadline_expired_.fetch_add(1, std::memory_order_relaxed);
  tstats.deadline_expired.fetch_add(1, std::memory_order_relaxed);
  return ErrorBody(kErrDeadline, deadline_message);
}

void RescheddServer::Answer(Pending& item, const std::string& body,
                            const char* served) {
  const std::string& id = item.request.id;
  const std::string_view tag(served);
  if (tag == "exec" || tag == "cache" || tag == "join") {
    completed_ok_.fetch_add(1, std::memory_order_relaxed);
    // Into the dedup ledger BEFORE leaving the registry: a duplicate
    // checks completed-then-registry, so at least one of the two must see
    // this request at any instant. Only ok bodies are remembered — an
    // error (deadline, overload) is exactly what a client retries.
    if (item.request.had_id) RememberCompleted(id, body);
  }
  {
    MutexLock lock(registry_mu_);
    registry_.erase(id);
  }
  Respond(id, body, served);
  TenantStatsFor(item.request.tenant)
      .service_time.Record(UptimeMs() - item.popped_at_ms);
  queue_.OnDone(item.request.tenant);
}

std::string RescheddServer::Execute(const Request& request,
                                    const CancelToken& token, WarmSlot& warm) {
  return request.verb == Verb::kSimulate
             ? ExecuteSimulate(request, token, warm)
             : ExecuteSchedule(request, token, warm);
}

FloorplanCache* RescheddServer::PoolFor(const Request& request) {
  if (!options_.floorplan_cache) return nullptr;
  const std::string key = request.platform_digest.ToHex();
  {
    MutexLock lock(pool_mu_);
    auto it = floorplan_pool_.find(key);
    if (it != floorplan_pool_.end()) return it->second.cache.get();
  }
  // Miss: build the cache outside the lock — constructing a FloorplanCache
  // walks the whole fabric to index placements, and the old code did that
  // under pool_mu_, stalling every worker on every platform behind one
  // build (a gap the lock-scope audit for the annotation rollout caught).
  // Two workers can race the same platform; the loser's empty cache is
  // discarded by emplace, which is harmless and keeps hits pure.
  PlatformCacheEntry entry;
  entry.anchor = request.instance;
  entry.cache =
      std::make_unique<FloorplanCache>(request.instance->platform.Device());
  MutexLock lock(pool_mu_);
  auto it = floorplan_pool_.emplace(key, std::move(entry)).first;
  return it->second.cache.get();
}

Schedule RescheddServer::ComputeSchedule(const Request& request,
                                         const CancelToken& token,
                                         WarmSlot& warm,
                                         std::size_t& iterations) {
  iterations = 0;
  PaOptions pa_options;
  pa_options.module_reuse = request.sched.module_reuse;
  pa_options.sw_balancing = request.sched.sw_balancing;
  pa_options.run_floorplan = request.sched.run_floorplan;
  pa_options.seed = request.sched.seed;

  FloorplanCache* fp_cache = PoolFor(request);

  if (request.sched.algo == "allsw") {
    return ScheduleAllSoftware(*request.instance);
  }
  if (request.sched.algo == "par") {
    PaROptions par;
    par.base = pa_options;
    par.time_budget_seconds = request.sched.budget_seconds;
    par.max_iterations = request.sched.iterations;
    // Single-threaded on purpose: equal-makespan tie acceptance depends on
    // worker timing at threads > 1, and the service promises bit-identical
    // bodies for identical deterministic requests.
    par.threads = 1;
    par.seed = request.sched.seed;
    par.cancel = &token;
    const PaRResult result = SchedulePaR(*request.instance, par, fp_cache);
    iterations = result.iterations;
    return result.best;
  }

  // Deterministic PA through the per-worker warm slot: consecutive
  // requests for the same (instance, options) reuse the context/scratch.
  const std::string fingerprint =
      request.instance_digest.ToHex() + "|" + RequestKeyText(request);
  if (warm.fingerprint != fingerprint) {
    warm.fingerprint.clear();  // stay invalid if a rebuild throws
    warm.instance = request.instance;
    warm.options = std::make_unique<PaOptions>(pa_options);
    warm.ctx = std::make_unique<pa::PaContext>(*warm.instance, *warm.options);
    warm.scratch = std::make_unique<pa::PaScratch>(*warm.ctx);
    warm.fingerprint = fingerprint;
  }
  return SchedulePaWarm(*warm.ctx, *warm.scratch, fp_cache, &token);
}

std::string RescheddServer::ExecuteSchedule(const Request& request,
                                            const CancelToken& token,
                                            WarmSlot& warm) {
  const Instance& instance = *request.instance;
  std::size_t iterations = 0;
  Schedule schedule = ComputeSchedule(request, token, warm, iterations);

  const ValidationResult check = ValidateSchedule(instance, schedule);
  RESCHED_CHECK_MSG(check.ok(), "scheduler emitted an invalid schedule");

  JsonValue schedule_json = ScheduleToJson(instance, schedule);
  // Wall-clock fields would break the bit-identical response contract.
  schedule_json.AsObject().erase("scheduling_seconds");
  schedule_json.AsObject().erase("floorplanning_seconds");

  JsonObject body;
  body["verb"] = "schedule";
  body["algo"] = request.sched.algo;
  body["instance_digest"] = request.instance_digest.ToHex();
  body["makespan"] = schedule.makespan;
  if (request.sched.algo == "par" && request.Deterministic()) {
    body["iterations"] = iterations;
  }
  body["schedule"] = std::move(schedule_json);
  return OkBody(std::move(body));
}

std::string RescheddServer::ExecuteSimulate(const Request& request,
                                            const CancelToken& token,
                                            WarmSlot& warm) {
  const Instance& instance = *request.instance;
  std::size_t iterations = 0;
  const Schedule schedule = ComputeSchedule(request, token, warm, iterations);

  sim::SimOptions sim_options;
  sim_options.task_jitter = request.sim.jitter;
  sim_options.reconf_jitter = request.sim.jitter;
  sim_options.recovery.policy = ParseRecoveryPolicy(request.sim.policy);

  std::size_t survived = 0;
  std::size_t invalid = 0;
  std::size_t lost = 0;
  std::vector<double> stretches;
  sim::RecoveryStats totals;
  for (std::size_t i = 0; i < request.sim.trials; ++i) {
    token.ThrowIfCancelled();
    const sim::FaultScenario scenario = sim::GenerateFaultScenario(
        schedule, sim::UniformFaultRates(request.sim.fault_rate),
        DeriveSeed(kFaultSeedStream ^ request.sched.seed, i));
    sim_options.faults = scenario;
    sim_options.seed = DeriveSeed(kJitterSeedStream ^ request.sched.seed, i);
    try {
      const sim::SimResult result =
          sim::Simulate(instance, schedule, sim_options);
      ValidationOptions vopt;
      vopt.executed = true;
      vopt.outages = sim::OutagesFromScenario(scenario);
      if (!ValidateSchedule(instance, result.executed, vopt).ok()) {
        ++invalid;
        continue;
      }
      ++survived;
      stretches.push_back(result.stretch);
      totals.reconf_retries += result.recovery.reconf_retries;
      totals.task_restarts += result.recovery.task_restarts;
      totals.migrations += result.recovery.migrations;
      totals.rescheduled_tasks += result.recovery.rescheduled_tasks;
      totals.abandoned_regions += result.recovery.abandoned_regions;
    } catch (const InstanceError&) {
      // Recovery deadlock (no software fallback left): the trial is lost.
      ++lost;
    }
  }

  JsonObject recovery;
  recovery["reconf_retries"] = totals.reconf_retries;
  recovery["task_restarts"] = totals.task_restarts;
  recovery["migrations"] = totals.migrations;
  recovery["rescheduled_tasks"] = totals.rescheduled_tasks;
  recovery["abandoned_regions"] = totals.abandoned_regions;

  JsonObject body;
  body["verb"] = "simulate";
  body["algo"] = request.sched.algo;
  body["instance_digest"] = request.instance_digest.ToHex();
  body["makespan"] = schedule.makespan;
  body["trials"] = request.sim.trials;
  body["survived"] = survived;
  body["invalid"] = invalid;
  body["lost"] = lost;
  if (!stretches.empty()) {
    double sum = 0.0;
    for (const double s : stretches) sum += s;
    body["mean_stretch"] = sum / static_cast<double>(stretches.size());
    body["p95_stretch"] = Percentile(stretches, 95.0);
  }
  body["recovery"] = JsonValue(std::move(recovery));
  return OkBody(std::move(body));
}

std::string RescheddServer::StatsBody() {
  JsonObject counters;
  counters["received"] = AsInt64(received_.load(std::memory_order_relaxed));
  counters["accepted"] = AsInt64(accepted_.load(std::memory_order_relaxed));
  counters["rejected_overloaded"] =
      AsInt64(rejected_overloaded_.load(std::memory_order_relaxed));
  counters["rejected_invalid"] =
      AsInt64(rejected_invalid_.load(std::memory_order_relaxed));
  counters["completed_ok"] =
      AsInt64(completed_ok_.load(std::memory_order_relaxed));
  counters["failed"] = AsInt64(failed_.load(std::memory_order_relaxed));
  counters["cancelled"] = AsInt64(cancelled_.load(std::memory_order_relaxed));
  counters["deadline_expired"] =
      AsInt64(deadline_expired_.load(std::memory_order_relaxed));
  counters["cache_hits"] =
      AsInt64(cache_hits_.load(std::memory_order_relaxed));
  counters["joined"] = AsInt64(joined_.load(std::memory_order_relaxed));
  counters["deduped"] = AsInt64(deduped_.load(std::memory_order_relaxed));
  counters["rejected_shutting_down"] =
      AsInt64(rejected_shutting_down_.load(std::memory_order_relaxed));
  counters["journal_errors"] =
      AsInt64(journal_errors_.load(std::memory_order_relaxed));

  const BuildInfo& build_info = GetBuildInfo();
  JsonObject build;
  build["version"] = build_info.version;
  build["git"] = build_info.git;
  build["build_type"] = build_info.build_type;
  build["sanitizers"] = build_info.sanitizers;

  JsonObject body;
  body["verb"] = "stats";
  body["protocol"] = kProtocolVersion;
  body["workers"] = options_.workers;
  body["queue_capacity"] = options_.queue_capacity;
  body["queue_depth"] = queue_.Size();
  body["build"] = JsonValue(std::move(build));
  body["counters"] = JsonValue(std::move(counters));
  if (result_cache_) {
    const auto cache_counters = result_cache_->Snapshot();
    JsonObject cache;
    cache["hits"] = AsInt64(cache_counters.hits);
    cache["misses"] = AsInt64(cache_counters.misses);
    cache["evictions"] = AsInt64(cache_counters.evictions);
    cache["capacity"] = result_cache_->Capacity();
    body["result_cache"] = JsonValue(std::move(cache));
  }
  {
    MutexLock lock(pool_mu_);
    body["floorplan_caches"] = floorplan_pool_.size();
  }

  // Per-tenant section: admission outcomes, served-by breakdown and
  // queue-wait / service-time quantiles (exact when sample recording is
  // on, histogram-interpolated otherwise).
  {
    std::map<std::string, std::size_t> depths = queue_.Depths();
    std::vector<std::pair<std::string, TenantStats*>> snapshot;
    {
      MutexLock lock(tenants_mu_);
      snapshot.reserve(tenant_stats_.size());
      for (const auto& [name, stats] : tenant_stats_) {
        snapshot.emplace_back(name, stats.get());
      }
    }
    JsonObject tenants;
    for (const auto& [name, stats] : snapshot) {
      JsonObject t;
      t["admitted"] = AsInt64(stats->admitted.load(std::memory_order_relaxed));
      t["shed_overload"] =
          AsInt64(stats->shed_overload.load(std::memory_order_relaxed));
      t["shed_shutdown"] =
          AsInt64(stats->shed_shutdown.load(std::memory_order_relaxed));
      t["cancelled"] =
          AsInt64(stats->cancelled.load(std::memory_order_relaxed));
      t["deadline_expired"] =
          AsInt64(stats->deadline_expired.load(std::memory_order_relaxed));
      t["exec"] = AsInt64(stats->exec.load(std::memory_order_relaxed));
      t["cache_hits"] =
          AsInt64(stats->cache_hits.load(std::memory_order_relaxed));
      t["joined"] = AsInt64(stats->joined.load(std::memory_order_relaxed));
      t["deduped"] = AsInt64(stats->deduped.load(std::memory_order_relaxed));
      t["failed"] = AsInt64(stats->failed.load(std::memory_order_relaxed));
      t["drain_shed"] =
          AsInt64(stats->drain_shed.load(std::memory_order_relaxed));
      const auto depth = depths.find(name);
      t["queue_depth"] =
          depth != depths.end() ? depth->second : std::size_t{0};
      double p50 = 0.0;
      double p99 = 0.0;
      QueueWaitQuantiles(*stats, p50, p99);
      t["queue_wait_p50_ms"] = p50;
      t["queue_wait_p99_ms"] = p99;
      const LatencyHistogram::Snapshot service = stats->service_time.Take();
      t["service_p50_ms"] = HistogramQuantileMs(service, 0.50);
      t["service_p99_ms"] = HistogramQuantileMs(service, 0.99);
      tenants[name] = JsonValue(std::move(t));
    }
    body["tenants"] = JsonValue(std::move(tenants));
  }
  if (!options_.metrics_out_path.empty()) {
    JsonObject metrics;
    metrics["path"] = options_.metrics_out_path;
    metrics["writes"] =
        AsInt64(metrics_writes_.load(std::memory_order_relaxed));
    metrics["errors"] =
        AsInt64(metrics_errors_.load(std::memory_order_relaxed));
    body["metrics"] = JsonValue(std::move(metrics));
  }
  if (recovery_.enabled) {
    JsonObject recovery;
    recovery["records_scanned"] = recovery_.records_scanned;
    recovery["torn_bytes"] = AsInt64(
        static_cast<std::uint64_t>(recovery_.torn_bytes));
    recovery["cache_restored"] = recovery_.cache_restored;
    recovery["dedup_restored"] = recovery_.dedup_restored;
    body["recovery"] = JsonValue(std::move(recovery));
  }
  return OkBody(std::move(body));
}

void RescheddServer::Respond(const std::string& id, const std::string& body,
                             const char* served) {
  const std::string line = WithId(id, body);
  // Deliberately held across the transport write and the journal append:
  // this lock's entire job is making the two one atomic step, so the
  // journal's response order is the order the client observed (replay
  // byte-compares against it). See the ledger in DESIGN.md §11.
  MutexLock lock(write_mu_);
  (void)transport_.WriteLine(  // resched-lint: allow(lock-held-over-blocking-call)
      line);
  if (journal_) {
    try {
      journal_->AppendResponse(id, line, served);
    } catch (const JournalError& e) {
      // Surfaced, not fatal: the daemon keeps serving with a lagging
      // journal (whose recovery scan handles the torn record), and the
      // stats counter makes the degradation visible.
      journal_errors_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "reschedd: %s\n", e.what());
    }
  }
}

RescheddServer::TenantStats& RescheddServer::TenantStatsFor(
    const std::string& tenant) {
  MutexLock lock(tenants_mu_);
  auto it = tenant_stats_.find(tenant);
  if (it == tenant_stats_.end()) {
    it = tenant_stats_.emplace(tenant, std::make_unique<TenantStats>()).first;
  }
  return *it->second;
}

void RescheddServer::RecordQueueWait(TenantStats& stats, double wait_ms) {
  if (wait_ms < 0.0) wait_ms = 0.0;
  stats.queue_wait.Record(wait_ms);
  if (options_.record_latency_samples) {
    MutexLock lock(stats.samples_mu);
    if (stats.queue_wait_samples.size() < kMaxLatencySamples) {
      stats.queue_wait_samples.push_back(wait_ms);
    }
  }
}

void RescheddServer::QueueWaitQuantiles(TenantStats& stats, double& p50,
                                        double& p99) {
  if (options_.record_latency_samples) {
    std::vector<double> samples;
    {
      MutexLock lock(stats.samples_mu);
      samples = stats.queue_wait_samples;
    }
    if (!samples.empty()) {
      p50 = Percentile(samples, 50.0);
      p99 = Percentile(samples, 99.0);
      return;
    }
  }
  const LatencyHistogram::Snapshot snap = stats.queue_wait.Take();
  p50 = HistogramQuantileMs(snap, 0.50);
  p99 = HistogramQuantileMs(snap, 0.99);
}

std::vector<MetricFamily> RescheddServer::BuildMetricFamilies() {
  std::vector<MetricFamily> families;

  MetricFamily up{"reschedd_up", "Whether this reschedd process is serving.",
                  "gauge", {}};
  up.samples.push_back(MetricSample{{}, 1.0});
  families.push_back(std::move(up));

  MetricFamily requests{"reschedd_requests_total",
                        "Request events by outcome across all tenants.",
                        "counter",
                        {}};
  const auto add_event = [&requests](const char* event, std::uint64_t v) {
    requests.samples.push_back(
        MetricSample{{{"event", event}}, static_cast<double>(v)});
  };
  const ServiceCounters c = Counters();
  add_event("received", c.received);
  add_event("accepted", c.accepted);
  add_event("rejected_overloaded", c.rejected_overloaded);
  add_event("rejected_invalid", c.rejected_invalid);
  add_event("completed_ok", c.completed_ok);
  add_event("failed", c.failed);
  add_event("cancelled", c.cancelled);
  add_event("deadline_expired", c.deadline_expired);
  add_event("cache_hits", c.cache_hits);
  add_event("joined", c.joined);
  add_event("deduped", c.deduped);
  add_event("rejected_shutting_down", c.rejected_shutting_down);
  add_event("journal_errors", c.journal_errors);
  families.push_back(std::move(requests));

  MetricFamily depth{"reschedd_queue_depth",
                     "Currently queued requests per tenant.", "gauge", {}};
  for (const auto& [tenant, n] : queue_.Depths()) {
    depth.samples.push_back(
        MetricSample{{{"tenant", tenant}}, static_cast<double>(n)});
  }
  families.push_back(std::move(depth));

  std::vector<std::pair<std::string, TenantStats*>> snapshot;
  {
    MutexLock lock(tenants_mu_);
    snapshot.reserve(tenant_stats_.size());
    for (const auto& [name, stats] : tenant_stats_) {
      snapshot.emplace_back(name, stats.get());
    }
  }
  MetricFamily tenant_requests{
      "reschedd_tenant_requests_total",
      "Per-tenant request outcomes (admitted, shed, served-by).", "counter",
      {}};
  for (const auto& [name, stats] : snapshot) {
    const auto add = [&tenant_requests, &name = name](const char* outcome,
                                                      std::uint64_t v) {
      tenant_requests.samples.push_back(MetricSample{
          {{"tenant", name}, {"outcome", outcome}}, static_cast<double>(v)});
    };
    add("admitted", stats->admitted.load(std::memory_order_relaxed));
    add("shed_overload", stats->shed_overload.load(std::memory_order_relaxed));
    add("shed_shutdown", stats->shed_shutdown.load(std::memory_order_relaxed));
    add("cancelled", stats->cancelled.load(std::memory_order_relaxed));
    add("deadline_expired",
        stats->deadline_expired.load(std::memory_order_relaxed));
    add("exec", stats->exec.load(std::memory_order_relaxed));
    add("cache", stats->cache_hits.load(std::memory_order_relaxed));
    add("join", stats->joined.load(std::memory_order_relaxed));
    add("dedup", stats->deduped.load(std::memory_order_relaxed));
    add("failed", stats->failed.load(std::memory_order_relaxed));
    add("drain_shed", stats->drain_shed.load(std::memory_order_relaxed));
  }
  families.push_back(std::move(tenant_requests));

  for (const auto& [name, stats] : snapshot) {
    AppendHistogramFamily(families, "reschedd_tenant_queue_wait_ms",
                          "Queue wait per tenant in milliseconds.",
                          {{"tenant", name}}, stats->queue_wait.Take());
  }
  for (const auto& [name, stats] : snapshot) {
    AppendHistogramFamily(families, "reschedd_tenant_service_ms",
                          "Service time per tenant in milliseconds.",
                          {{"tenant", name}}, stats->service_time.Take());
  }
  return families;
}

void RescheddServer::WriteMetricsNow() {
  std::string error;
  if (WriteTextfileAtomic(options_.metrics_out_path,
                          RenderPrometheus(BuildMetricFamilies()), &error)) {
    metrics_writes_.fetch_add(1, std::memory_order_relaxed);
  } else {
    metrics_errors_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "reschedd: metrics write failed: %s\n",
                 error.c_str());
  }
}

void RescheddServer::MetricsLoop() {
  const double interval_s =
      options_.metrics_interval_ms > 0.0 ? options_.metrics_interval_ms / 1000.0
                                         : 1.0;
  for (;;) {
    {
      MutexLock lock(metrics_mu_);
      if (!metrics_stop_) (void)metrics_cv_.WaitFor(lock, interval_s);
      if (metrics_stop_) return;  // Serve() writes the final snapshot
    }
    WriteMetricsNow();
  }
}

ServiceCounters RescheddServer::Counters() const {
  ServiceCounters c;
  c.received = received_.load(std::memory_order_relaxed);
  c.accepted = accepted_.load(std::memory_order_relaxed);
  c.rejected_overloaded = rejected_overloaded_.load(std::memory_order_relaxed);
  c.rejected_invalid = rejected_invalid_.load(std::memory_order_relaxed);
  c.completed_ok = completed_ok_.load(std::memory_order_relaxed);
  c.failed = failed_.load(std::memory_order_relaxed);
  c.cancelled = cancelled_.load(std::memory_order_relaxed);
  c.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  c.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  c.joined = joined_.load(std::memory_order_relaxed);
  c.deduped = deduped_.load(std::memory_order_relaxed);
  c.rejected_shutting_down =
      rejected_shutting_down_.load(std::memory_order_relaxed);
  c.journal_errors = journal_errors_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace resched::service
