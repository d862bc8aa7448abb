// Per-tenant weighted-fair admission queue (deficit round-robin).
//
// Admission control is the service's backpressure mechanism: the reader
// thread *tries* to enqueue and, when the queue is at capacity, rejects the
// request immediately with an `overloaded` error instead of blocking — a
// blocked reader would stop serving cancel/stats verbs, and an unbounded
// queue would hide overload until memory runs out. Workers block on Pop().
//
// A single FIFO would give backpressure but no isolation: a chatty tenant
// that keeps it full both starves other tenants' queue positions and eats
// the whole capacity budget, so a quiet tenant's p99 queue wait grows with
// the *aggressor's* backlog. This queue gives every tenant its own FIFO
// with its own capacity, and workers pop via deficit round-robin:
//
//   * each tenant has a weight w (quantum); when its turn comes its
//     deficit is recharged to w and it dequeues up to w requests (unit
//     cost per request — admission cost is per message, the heavy
//     per-request work is bounded separately by in-flight caps) before
//     the turn passes on;
//   * a tenant whose queue empties leaves the ring and re-enters at the
//     back on its next push, so idle tenants cost nothing;
//   * a tenant at its in-flight cap is skipped (its turn is deferred, not
//     consumed) until OnDone() releases a slot.
//
// Fairness invariant: over any interval in which tenants A and B are both
// continuously backlogged and below their in-flight caps, the number of
// requests dequeued for A and B is proportional to their weights, within
// one quantum. One tenant's backlog therefore cannot delay another
// tenant's head-of-line request by more than (sum of other tenants'
// weights) requests per round.
//
// Single-tenant degeneration: with one tenant active, TryPush / Pop are a
// bounded FIFO with the same capacity and rejection outcomes — old clients
// observe bit-identical admission, and the router uses one single-tenant
// queue per backend as its forward queue.
//
// Close() flips the queue into drain mode: no further pushes are accepted,
// blocked Pop() calls keep returning the items already admitted, and once
// the queue is empty Pop() returns false — which is exactly the graceful-
// shutdown contract ("never lose an accepted request"). During drain, items
// whose deadline already passed (as judged by the installed expiry probe)
// are handed out *first* and flagged, so shutdown sheds doomed work
// immediately instead of executing a live backlog in front of requests
// that can only be answered with deadline errors.
//
// Every state member is guarded by mu_ (compiler-checked); notifications
// happen after the lock is dropped so a woken thread never bounces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "util/mutex.hpp"

namespace resched::service {

/// Why TryPush did (not) admit an item. A full queue and a closed queue
/// demand different client advice — "back off and retry" versus "this
/// daemon is going away" — so the rejection carries the reason.
enum class PushOutcome { kAccepted, kFull, kClosed };

struct FairQueueOptions {
  /// Queue capacity per tenant (the old global queue_capacity, now an
  /// isolation boundary: one tenant's backlog cannot consume another's
  /// admission budget).
  std::size_t per_tenant_capacity = 64;
  /// Max requests per tenant popped-but-not-yet-OnDone'd. 0 = unlimited.
  std::size_t per_tenant_inflight = 0;
  /// Tenant name -> DRR weight (quantum). Unlisted tenants get
  /// default_weight. Weight 0 entries are clamped to 1.
  std::map<std::string, std::uint32_t> weights;
  std::uint32_t default_weight = 1;
};

template <typename T>
class WeightedFairQueue {
 public:
  explicit WeightedFairQueue(FairQueueOptions options)
      : options_(std::move(options)) {
    if (options_.default_weight == 0) options_.default_weight = 1;
  }

  WeightedFairQueue(const WeightedFairQueue&) = delete;
  WeightedFairQueue& operator=(const WeightedFairQueue&) = delete;

  /// Non-blocking admission into `tenant`'s queue. kFull (*this tenant's*
  /// capacity is exhausted) / kClosed reject without queueing; the caller
  /// turns them into `overloaded` / `shutting_down` responses. Closed wins
  /// when both would apply: after Close() the capacity state is no longer
  /// meaningful to a client.
  PushOutcome TryPush(const std::string& tenant, T item)
      RESCHED_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (closed_) return PushOutcome::kClosed;
      Tenant& t = State(tenant);
      if (t.items.size() >= options_.per_tenant_capacity) {
        return PushOutcome::kFull;
      }
      t.items.push_back(std::move(item));
      if (!t.in_ring) {
        ring_.push_back(tenant);
        t.in_ring = true;
        t.deficit = 0;  // recharged when its turn arrives
      }
      ++size_;
    }
    cv_.NotifyOne();
    return PushOutcome::kAccepted;
  }

  /// Installs the drain-expiry probe: `probe(item)` answers "is this item
  /// already past its deadline?". Install before threads start popping
  /// (the server wires it up during construction).
  void SetExpiryProbe(std::function<bool(const T&)> probe)
      RESCHED_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    expiry_probe_ = std::move(probe);
  }

  /// Blocks for the next item under DRR order; false once closed and
  /// drained. During drain, already-expired items (per the probe) are
  /// handed out first and flagged, bypassing in-flight caps — shedding
  /// does not execute work, so it must never wait behind a cap.
  bool Pop(T& out, bool* expired_in_drain = nullptr) RESCHED_EXCLUDES(mu_) {
    if (expired_in_drain != nullptr) *expired_in_drain = false;
    MutexLock lock(mu_);
    for (;;) {
      if (closed_ && expiry_probe_ && size_ > 0) {
        if (PopExpiredLocked(out)) {
          if (expired_in_drain != nullptr) *expired_in_drain = true;
          return true;
        }
      }
      if (PopRoundRobinLocked(out)) return true;
      if (closed_ && size_ == 0) return false;
      // Empty, or every backlogged tenant is at its in-flight cap: wait
      // for a push, an OnDone, or Close.
      cv_.Wait(lock);
    }
  }

  /// Releases one of `tenant`'s in-flight slots. Every successful Pop
  /// must be matched by exactly one OnDone with the item's tenant.
  void OnDone(const std::string& tenant) RESCHED_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      Tenant& t = State(tenant);
      if (t.inflight > 0) --t.inflight;
    }
    cv_.NotifyAll();  // a capped tenant may have become eligible
  }

  /// Stops admission and wakes every blocked Pop(); already-admitted
  /// items drain (expired-first, see Pop). Idempotent.
  void Close() RESCHED_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.NotifyAll();
  }

  std::size_t Size() const RESCHED_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return size_;
  }

  /// Queue depth per currently-known tenant (for the stats verb).
  std::map<std::string, std::size_t> Depths() const RESCHED_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    std::map<std::string, std::size_t> out;
    for (const auto& [name, t] : tenants_) out[name] = t.items.size();
    return out;
  }

  std::size_t Capacity() const { return options_.per_tenant_capacity; }

 private:
  struct Tenant {
    std::deque<T> items;
    std::uint32_t weight = 1;
    std::uint32_t deficit = 0;
    std::size_t inflight = 0;
    bool in_ring = false;
  };

  Tenant& State(const std::string& tenant) RESCHED_REQUIRES(mu_) {
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      Tenant t;
      const auto w = options_.weights.find(tenant);
      t.weight = (w != options_.weights.end() && w->second > 0)
                     ? w->second
                     : options_.default_weight;
      it = tenants_.emplace(tenant, std::move(t)).first;
    }
    return it->second;
  }

  /// First expired item across all tenants, in deterministic (sorted
  /// tenant name, then FIFO) order.
  bool PopExpiredLocked(T& out) RESCHED_REQUIRES(mu_) {
    for (auto& [name, t] : tenants_) {
      for (auto it = t.items.begin(); it != t.items.end(); ++it) {
        if (expiry_probe_(*it)) {
          out = std::move(*it);
          t.items.erase(it);
          --size_;
          ++t.inflight;  // matched by the caller's OnDone
          if (t.items.empty()) RemoveFromRing(name, t);
          return true;
        }
      }
    }
    return false;
  }

  /// One DRR dequeue attempt. Tenants at their in-flight cap are skipped
  /// without consuming their turn; false when nothing is eligible.
  bool PopRoundRobinLocked(T& out) RESCHED_REQUIRES(mu_) {
    const std::size_t cap = options_.per_tenant_inflight;
    for (std::size_t scanned = 0; scanned < ring_.size(); ++scanned) {
      const std::string& name = ring_.front();
      Tenant& t = tenants_.at(name);
      if (cap != 0 && t.inflight >= cap) {
        // Deferred, not consumed: move behind the others and keep looking.
        ring_.push_back(name);
        ring_.pop_front();
        continue;
      }
      if (t.deficit == 0) t.deficit = t.weight;  // turn starts: recharge
      out = std::move(t.items.front());
      t.items.pop_front();
      --size_;
      --t.deficit;
      ++t.inflight;
      if (t.items.empty()) {
        RemoveFromRing(name, t);
      } else if (t.deficit == 0) {
        // Quantum spent: to the back of the ring.
        ring_.push_back(name);
        ring_.pop_front();
      }
      return true;
    }
    return false;
  }

  void RemoveFromRing(const std::string& name, Tenant& t)
      RESCHED_REQUIRES(mu_) {
    for (auto it = ring_.begin(); it != ring_.end(); ++it) {
      if (*it == name) {
        ring_.erase(it);
        break;
      }
    }
    t.in_ring = false;
    t.deficit = 0;
  }

  mutable Mutex mu_;
  CondVar cv_;
  FairQueueOptions options_;
  std::map<std::string, Tenant> tenants_ RESCHED_GUARDED_BY(mu_);
  /// Round-robin order over tenants with queued items (front = next turn).
  std::deque<std::string> ring_ RESCHED_GUARDED_BY(mu_);
  std::size_t size_ RESCHED_GUARDED_BY(mu_) = 0;
  bool closed_ RESCHED_GUARDED_BY(mu_) = false;
  std::function<bool(const T&)> expiry_probe_ RESCHED_GUARDED_BY(mu_);
};

}  // namespace resched::service
