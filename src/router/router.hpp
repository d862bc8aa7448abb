// reschedd-router: a consistent-hash front end for a fleet of reschedd
// backends.
//
// The router speaks the same protocol as a single daemon on its front
// transport (greeting line, JSON-lines requests, responses matched by id)
// so existing clients point at it unchanged. Behind it, schedule/simulate
// requests are sharded by Digest128 of the canonical instance text onto N
// TCP backends over a weighted consistent-hash ring (router/ring.hpp):
// the same instance always lands on the same backend, which keeps that
// backend's result cache and dedup ledger authoritative for its keyspace.
//
// Failure handling layers two retry mechanisms:
//   * same-backend retries ride the resilient client's reconnect +
//     idempotent-resubmission path (safe: backends dedup by request id);
//   * when a backend stays dead, the forwarder marks it unhealthy,
//     re-routes the request to the next backend in its preference order,
//     and a probe thread keeps re-dialing the dead backend until its
//     greeting comes back.
// A request whose every candidate backend is unhealthy gets a terminal
// `unavailable` error rather than queueing forever.
//
// Caveat, documented rather than papered over: dedup ledgers are
// per-backend, so a request re-routed *after* its original backend
// executed it (crash after exec, before the response escaped) can execute
// once more on the failover backend. Deterministic requests still return
// bit-identical bodies; the consistency harness measures exactly this.
//
// Verb handling: schedule/simulate shard; cancel broadcasts to every
// healthy backend and ORs the results; stats answers inline with router
// state; shutdown drains the forward queues, then broadcasts shutdown to
// the fleet, then answers. Front EOF drains without killing backends.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "router/ring.hpp"
#include "service/fair_queue.hpp"
#include "service/metrics_export.hpp"
#include "service/transport.hpp"
#include "util/mutex.hpp"
#include "util/timer.hpp"

namespace resched::router {

struct RouterBackend {
  std::string name;  ///< defaults to "host:port" when empty
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint32_t weight = 1;
};

struct RouterOptions {
  std::vector<RouterBackend> backends;
  std::size_t vnodes_per_weight = 64;

  /// Same-backend attempts per forward (the resilient client's
  /// max_attempts); past these the request re-routes.
  std::size_t attempts_per_backend = 2;
  double backoff_initial_ms = 10.0;
  double backoff_max_ms = 200.0;
  double backoff_multiplier = 2.0;

  /// How often the probe thread re-dials unhealthy backends.
  double probe_interval_ms = 200.0;

  /// Per-backend forward-queue capacity; a full queue rejects with
  /// `overloaded` (backpressure, same contract as backend admission).
  std::size_t queue_capacity_per_backend = 256;

  /// Prometheus textfile (empty = disabled), rewritten atomically every
  /// metrics_interval_ms and once more on exit.
  std::string metrics_out_path;
  double metrics_interval_ms = 1000.0;
};

class RescheddRouter {
 public:
  /// The router serves `front` until a shutdown verb or front EOF.
  RescheddRouter(service::Transport& front, RouterOptions options);

  RescheddRouter(const RescheddRouter&) = delete;
  RescheddRouter& operator=(const RescheddRouter&) = delete;

  /// Blocks: reads request lines from the front transport, routes them,
  /// and returns once the fleet is drained (shutdown verb broadcasts
  /// shutdown to every backend first; front EOF does not).
  void Serve();

  /// Test hook: current health flag of backend `index`.
  bool BackendHealthy(std::size_t index) const;

 private:
  /// Shared state of one cancel broadcast fanned out across the forwarder
  /// queues. Cancels must ride the per-backend forwarder connections: a
  /// backend transport serves one connection at a time, so a side-channel
  /// dial would park in the backlog behind the forwarder's own persistent
  /// connection and wedge the front thread.
  struct CancelFanout {
    CancelFanout(std::string id_, std::size_t shares)
        : id(std::move(id_)), remaining(shares) {}
    std::string id;                      ///< front-facing request id
    std::atomic<std::size_t> remaining;  ///< shares still unanswered
    std::atomic<bool> any_reached{false};
    std::atomic<bool> cancelled{false};
  };

  /// One routed request in flight between the reader and a forwarder.
  struct RouteItem {
    std::string line;    ///< forwarded request line (carries an id)
    std::string id;      ///< extracted/assigned request id
    std::string tenant;  ///< for per-tenant counters only
    std::vector<std::size_t> preference;  ///< ring failover order
    std::size_t pos = 0;  ///< index into preference of the current target
    std::shared_ptr<CancelFanout> cancel;  ///< set for cancel shares only
  };

  struct BackendState {
    RouterBackend cfg;
    /// Forward queue: one tenant, so a bounded FIFO.
    std::unique_ptr<service::WeightedFairQueue<RouteItem>> queue;
    std::atomic<bool> healthy{true};
    std::atomic<std::uint64_t> forwarded{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> rerouted{0};
    std::thread worker;
  };

  /// Returns true when `line` carried a shutdown verb (Serve then drains
  /// and stops); all other verbs are fully handled here.
  bool HandleLine(const std::string& line, std::string& shutdown_id);

  /// Routes one schedule/simulate (or unclassifiable) line to the first
  /// healthy backend in its preference order.
  void RouteLine(std::string line, std::string id, std::string tenant,
                 std::uint64_t point);

  /// Enqueues one cancel share onto every healthy backend's forward
  /// queue; the last share to complete ORs the `cancelled` results into
  /// one front response (see CancelFanout).
  void BroadcastCancel(const std::string& line, const std::string& id);

  /// Records one finished cancel share; the share that drops `remaining`
  /// to zero writes the aggregated response.
  void CancelShareDone(CancelFanout& fanout, bool reached, bool cancelled)
      RESCHED_EXCLUDES(write_mu_);

  void ForwarderLoop(std::size_t index);
  void ProbeLoop();
  void MetricsLoop();

  void WriteFront(const std::string& line) RESCHED_EXCLUDES(write_mu_);
  void CountTenantForward(const std::string& tenant)
      RESCHED_EXCLUDES(tenants_mu_);
  std::string StatsBody() RESCHED_EXCLUDES(tenants_mu_);
  std::vector<service::MetricFamily> BuildMetricFamilies()
      RESCHED_EXCLUDES(tenants_mu_);
  void WriteMetricsNow();

  /// Drains the forward queues; when `broadcast_shutdown`, also sends a
  /// shutdown verb to every backend afterwards.
  void Drain(bool broadcast_shutdown, const std::string& shutdown_id);

  service::Transport& front_;
  RouterOptions options_;  ///< backend names are normalized in the ctor
  HashRing ring_;
  std::vector<std::unique_ptr<BackendState>> backends_;
  WallTimer uptime_;

  Mutex write_mu_;  ///< serializes front WriteLine across forwarders

  Mutex tenants_mu_;
  std::map<std::string, std::uint64_t> tenant_forwarded_
      RESCHED_GUARDED_BY(tenants_mu_);

  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> unavailable_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::uint64_t> cancels_{0};
  std::atomic<std::uint64_t> next_assigned_id_{0};
  std::atomic<std::uint64_t> metrics_writes_{0};
  std::atomic<std::uint64_t> metrics_errors_{0};

  std::thread probe_thread_;
  std::thread metrics_thread_;
  Mutex stop_mu_;
  CondVar stop_cv_;
  bool stop_ RESCHED_GUARDED_BY(stop_mu_) = false;
};

}  // namespace resched::router
