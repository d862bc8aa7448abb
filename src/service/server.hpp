// reschedd — the batch scheduling service core.
//
// One reader thread (the caller of Serve()) parses request lines, answers
// control verbs (stats/cancel) inline, and admits scheduling work into
// per-tenant weighted-fair queues (service/fair_queue.hpp); a
// util/thread_pool worker pool drains them under deficit round-robin.
// Each worker keeps a warm (PaContext, PaScratch) slot that is reused
// across consecutive requests for the same instance+options, and all
// workers share one FloorplanCache per distinct platform plus one result
// cache keyed on the canonical request digest — an identical submission
// is served bit-identically from the cache without touching the
// scheduler. The result cache is shared across tenants (tenant is an
// admission concept, not part of the request key). A copy that misses the
// cache while another worker is still solving its key parks on that
// solve (singleflight) and is answered with the same body when it lands.
//
// Lifecycle guarantees:
//   * admission is non-blocking: a tenant at its queue capacity rejects
//     with `overloaded` (backpressure per tenant, not buffering);
//   * every accepted request gets exactly one response, even across a
//     shutdown (the queues drain before Serve() returns, shedding
//     already-expired items first);
//   * the shutdown verb's own response is written last;
//   * deadlines and cancel verbs unwind cooperatively through the PA/PA-R
//     cancellation hooks — a worker is never killed mid-flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/fair_queue.hpp"
#include "service/journal.hpp"
#include "service/metrics_export.hpp"
#include "service/protocol.hpp"
#include "service/transport.hpp"
#include "util/cancel.hpp"
#include "util/memo_map.hpp"
#include "util/mutex.hpp"
#include "util/timer.hpp"

namespace resched {
class FloorplanCache;
struct Schedule;
struct PaOptions;
namespace pa {
class PaContext;
class PaScratch;
}  // namespace pa
}  // namespace resched

namespace resched::service {

struct ServerOptions {
  std::size_t workers = 2;
  /// Admission-queue capacity; requests beyond it are rejected with
  /// `overloaded` (backpressure, not buffering).
  std::size_t queue_capacity = 64;
  /// Serve identical deterministic submissions from a response cache.
  bool result_cache = true;
  std::size_t result_cache_capacity = 512;
  /// Share one floorplan-feasibility cache per distinct platform across
  /// requests and workers.
  bool floorplan_cache = true;
  /// Framed request journal (empty = disabled).
  std::string journal_path;
  /// When the journal pushes records through fsync (none|batch|always).
  JournalSync journal_sync = JournalSync::kBatch;
  /// Journal to replay into the result cache + dedup map at boot (empty =
  /// cold start; a missing file is a fresh boot, not an error). Usually
  /// the same path as journal_path on a restarted daemon.
  std::string warm_start_path;
  /// Bound on the id -> response dedup map (oldest-by-id eviction; a
  /// bound, not an LRU — its job is capping memory, not hit rate).
  std::size_t completed_capacity = 4096;

  /// Tenant -> DRR weight (quantum); unlisted tenants get
  /// default_tenant_weight. queue_capacity above is the *per-tenant*
  /// capacity (with only the default tenant active, admission is one
  /// bounded FIFO).
  std::map<std::string, std::uint32_t> tenant_weights;
  std::uint32_t default_tenant_weight = 1;
  /// Max popped-but-unfinished requests per tenant (0 = unlimited).
  std::size_t per_tenant_inflight = 0;
  /// Prometheus textfile target (empty = disabled). Written atomically
  /// every metrics_interval_ms and once more on Serve() exit.
  std::string metrics_out_path;
  double metrics_interval_ms = 1000.0;
  /// Keep exact per-tenant queue-wait samples (bounded) so stats can
  /// report exact p50/p99 instead of histogram-interpolated estimates.
  /// Bench/test-only: off by default to keep the serving path lean.
  bool record_latency_samples = false;
};

struct ServiceCounters {
  std::uint64_t received = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_overloaded = 0;
  std::uint64_t rejected_invalid = 0;  ///< parse/validation rejections
  std::uint64_t completed_ok = 0;
  std::uint64_t failed = 0;            ///< internal errors
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t cache_hits = 0;
  /// Copies that parked on an in-flight solve of their key (counted at
  /// park time; a follower promoted after a failed leader also counts
  /// its own execution).
  std::uint64_t joined = 0;
  std::uint64_t deduped = 0;         ///< duplicate ids answered from history
  std::uint64_t rejected_shutting_down = 0;
  std::uint64_t journal_errors = 0;  ///< appends/fsyncs that failed
};

/// What a warm start recovered from the journal (all zero on cold start).
struct RecoveryInfo {
  bool enabled = false;
  std::size_t records_scanned = 0;
  std::uint64_t torn_bytes = 0;      ///< tail bytes dropped by the scan
  std::size_t cache_restored = 0;    ///< result-cache entries re-inserted
  std::size_t dedup_restored = 0;    ///< completed ids re-registered
};

class RescheddServer {
 public:
  explicit RescheddServer(Transport& transport, ServerOptions options = {});
  ~RescheddServer();

  /// Runs the full serving loop; returns after a shutdown verb (drained)
  /// or transport end-of-stream. Call at most once.
  void Serve();

  ServiceCounters Counters() const;
  const RecoveryInfo& Recovery() const { return recovery_; }

 private:
  struct Pending {
    Request request;
    std::shared_ptr<CancelToken> token;
    double admitted_at_ms = 0.0;  ///< uptime stamp for queue-wait metrics
    double popped_at_ms = 0.0;    ///< uptime stamp for service-time metrics
  };

  /// Per-tenant observability. Counters are atomics and the histograms
  /// are internally locked, so the map lock (tenants_mu_) only covers
  /// slot creation/lookup — hot-path updates never serialize on it.
  struct TenantStats {
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> shed_overload{0};
    std::atomic<std::uint64_t> shed_shutdown{0};
    std::atomic<std::uint64_t> cancelled{0};
    std::atomic<std::uint64_t> deadline_expired{0};
    std::atomic<std::uint64_t> exec{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> joined{0};
    std::atomic<std::uint64_t> deduped{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> drain_shed{0};  ///< expired-first drain pops
    LatencyHistogram queue_wait;
    LatencyHistogram service_time;
    Mutex samples_mu;
    std::vector<double> queue_wait_samples RESCHED_GUARDED_BY(samples_mu);
  };

  /// Per-worker warm slot: the (context, scratch) pair is rebuilt only
  /// when the instance digest or scheduling options change between
  /// consecutive requests on this worker.
  struct WarmSlot {
    std::string fingerprint;
    std::shared_ptr<const Instance> instance;
    std::unique_ptr<PaOptions> options;
    std::unique_ptr<pa::PaContext> ctx;
    std::unique_ptr<pa::PaScratch> scratch;

    WarmSlot();
    ~WarmSlot();
  };

  struct PlatformCacheEntry {
    std::unique_ptr<FloorplanCache> cache;
    /// Keeps the device the cache was built from alive.
    std::shared_ptr<const Instance> anchor;
  };

  struct DigestHash {
    std::uint64_t operator()(const Digest128& d) const { return d.lo; }
  };
  struct DigestLess {
    bool operator()(const Digest128& a, const Digest128& b) const {
      return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
    }
  };

  bool ReadLoop();
  void Admit(Request request)
      RESCHED_EXCLUDES(registry_mu_, completed_mu_);
  bool CancelTarget(const std::string& target) RESCHED_EXCLUDES(registry_mu_);
  void WorkerLoop();
  /// Answers `item` from the dedup ledger or the result cache, parks it on
  /// the live flight of its key, or solves it as that key's leader. Every
  /// path ends in Answer(), which releases the item's fair-queue slot; a
  /// parked item is answered later by its flight's leader.
  void Process(Pending& item, WarmSlot& warm)
      RESCHED_EXCLUDES(flights_mu_, registry_mu_, write_mu_, completed_mu_);
  /// Solves `leader` and answers it. With a flight key, the success path
  /// fills the cache and answers the flight's followers with the same
  /// body; the failure path re-leads with the first live follower.
  void Lead(Pending leader, WarmSlot& warm, const Digest128* key)
      RESCHED_EXCLUDES(flights_mu_, registry_mu_, write_mu_, completed_mu_);
  /// Runs the scheduler for `item`; false (and an error body) on failure.
  bool Solve(Pending& item, WarmSlot& warm, std::string& body);
  /// The error body for a fired token, counted as cancel or deadline.
  std::string CancelledBody(const CancelToken& token, TenantStats& tstats,
                            const char* deadline_message);
  /// Ledger (fresh ok bodies only), registry, wire, service time and the
  /// fair-queue slot — the one way a dispatched request is finished.
  void Answer(Pending& item, const std::string& body, const char* served)
      RESCHED_EXCLUDES(registry_mu_, write_mu_, completed_mu_);
  /// Replays options_.warm_start_path into the result cache and the
  /// completed-id map (no re-solving — recorded bodies are restored
  /// byte-for-byte). Called from the constructor.
  void WarmStart() RESCHED_EXCLUDES(completed_mu_);
  /// Looks up a completed id; true (and fills `body`) on a hit.
  bool FindCompleted(const std::string& id, std::string& body)
      RESCHED_EXCLUDES(completed_mu_);
  /// Records a completed id's body, evicting at completed_capacity.
  void RememberCompleted(const std::string& id, const std::string& body)
      RESCHED_EXCLUDES(completed_mu_);
  std::string Execute(const Request& request, const CancelToken& token,
                      WarmSlot& warm);
  std::string ExecuteSchedule(const Request& request, const CancelToken& token,
                              WarmSlot& warm);
  std::string ExecuteSimulate(const Request& request, const CancelToken& token,
                              WarmSlot& warm);
  Schedule ComputeSchedule(const Request& request, const CancelToken& token,
                           WarmSlot& warm, std::size_t& iterations);
  std::string StatsBody() RESCHED_EXCLUDES(pool_mu_, tenants_mu_);
  FloorplanCache* PoolFor(const Request& request) RESCHED_EXCLUDES(pool_mu_);
  /// Finds (or creates) the stats slot for `tenant`.
  TenantStats& TenantStatsFor(const std::string& tenant)
      RESCHED_EXCLUDES(tenants_mu_);
  void RecordQueueWait(TenantStats& stats, double wait_ms);
  /// Exact p50/p99 from recorded samples when enabled, histogram
  /// interpolation otherwise.
  void QueueWaitQuantiles(TenantStats& stats, double& p50, double& p99);
  std::vector<MetricFamily> BuildMetricFamilies()
      RESCHED_EXCLUDES(tenants_mu_);
  void WriteMetricsNow();
  void MetricsLoop() RESCHED_EXCLUDES(metrics_mu_);
  /// `served` tags the journaled response record with where the body came
  /// from ("exec", "cache", "join", "dedup", "error", "control") — the
  /// chaos harness counts "exec" records to prove nothing ran twice.
  void Respond(const std::string& id, const std::string& body,
               const char* served) RESCHED_EXCLUDES(write_mu_);
  std::string NextId();
  double UptimeMs() const;

  Transport& transport_;
  ServerOptions options_;

  WeightedFairQueue<Pending> queue_;
  WallTimer uptime_;  ///< monotonic base for queue-wait stamps
  std::unique_ptr<ConcurrentMemoMap<Digest128, std::string, DigestHash>>
      result_cache_;
  std::unique_ptr<Journal> journal_;

  /// Serializes transport writes + journal order. Guards no member:
  /// transport_ and journal_ are internally thread-safe; this lock only
  /// pins "response hits the wire" and "response hits the journal" into
  /// one atomic step so the journal's replay order matches the client's.
  Mutex write_mu_;

  Mutex registry_mu_;
  std::map<std::string, std::shared_ptr<CancelToken>> registry_
      RESCHED_GUARDED_BY(registry_mu_);

  /// Completed id -> response body (without id): the idempotent-
  /// resubmission ledger. A duplicate of a finished request is re-answered
  /// from here ("dedup") instead of re-executing; warm start seeds it from
  /// the journal so the contract survives a restart.
  Mutex completed_mu_;
  std::map<std::string, std::string> completed_
      RESCHED_GUARDED_BY(completed_mu_);

  /// Singleflight: cache key -> requests parked on the solve its leader
  /// is running. A key is present exactly while a leader owns it; the
  /// leader fills the result cache and erases its flight under this lock,
  /// so a dispatcher probing both under it never sees a gap.
  Mutex flights_mu_;
  std::map<Digest128, std::vector<Pending>, DigestLess> flights_
      RESCHED_GUARDED_BY(flights_mu_);

  RecoveryInfo recovery_;  ///< written once in the ctor, read-only after

  Mutex pool_mu_;
  std::map<std::string, PlatformCacheEntry> floorplan_pool_
      RESCHED_GUARDED_BY(pool_mu_);

  std::atomic<std::uint64_t> next_id_{0};
  std::string shutdown_id_;

  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_overloaded_{0};
  std::atomic<std::uint64_t> rejected_invalid_{0};
  std::atomic<std::uint64_t> completed_ok_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> joined_{0};
  std::atomic<std::uint64_t> deduped_{0};
  std::atomic<std::uint64_t> rejected_shutting_down_{0};
  std::atomic<std::uint64_t> journal_errors_{0};

  Mutex tenants_mu_;
  /// unique_ptr slots so references stay stable while the map grows.
  std::map<std::string, std::unique_ptr<TenantStats>> tenant_stats_
      RESCHED_GUARDED_BY(tenants_mu_);

  /// Metrics-writer thread state (runs only when metrics_out_path set).
  std::thread metrics_thread_;
  Mutex metrics_mu_;
  CondVar metrics_cv_;
  bool metrics_stop_ RESCHED_GUARDED_BY(metrics_mu_) = false;
  std::atomic<std::uint64_t> metrics_writes_{0};
  std::atomic<std::uint64_t> metrics_errors_{0};
};

}  // namespace resched::service
