// The two service workloads: load generation, the systems under test, the
// timing transport decorator and the post-run output checks.
//
// Load comes from this one process: an open-loop phase (Poisson arrivals
// at a fixed rate, one sender thread plus the receiving caller, each
// request timed from its due time) and a closed-loop phase (a fixed number
// of requests outstanding), each on a freshly started system with its own
// key range.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "core/randomized.hpp"
#include "floorplan/floorplan_cache.hpp"
#include "io/instance_hash.hpp"
#include "io/instance_io.hpp"
#include "io/schedule_io.hpp"
#include "replay.hpp"
#include "router/router.hpp"
#include "sched/validator.hpp"
#include "service/client.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace resched;
using namespace resched::service;

namespace {

constexpr std::uint64_t kInstanceStream = 0x10AD'0000'0000'0001ULL;
constexpr std::uint64_t kKeyStream = 0x10AD'0000'0000'0002ULL;
constexpr std::uint64_t kArrivalStream = 0x10AD'0000'0000'0003ULL;
constexpr std::uint64_t kCheckStream = 0x10AD'0000'0000'0004ULL;
constexpr std::size_t kParIterations = 32;
constexpr std::size_t kSimTrials = 4;
constexpr double kSimJitter = 0.1;
constexpr double kFaultRate = 0.15;
/// A response not back this long after the last send counts as missing.
constexpr double kDrainTimeoutS = 30.0;
/// Share of --seconds spent in the open-loop phase (latency); the rest
/// sizes the closed loop (throughput).
constexpr double kOpenShare = 0.8;
/// Requests outstanding in the closed loop.
constexpr std::size_t kClosedWindow = 8;
/// Open-loop requests per latency window (see OpenLatency).
constexpr std::size_t kWindowRequests = 100;
/// Median generator lateness (send time minus due time) above which an
/// open-loop window ran while a contended host stalled the whole process.
/// Uncontended it reads ~0.00 ms; stalled windows read 0.3-2 ms with their
/// latency p50 up 1.5-50x. Isolated late wake-ups (p99 up to ~8 ms) leave
/// latency unchanged and do not count.
constexpr double kLatenessBoundMs = 0.25;
/// Keys whose response makespan is compared with a direct library call.
constexpr std::size_t kMakespanChecks = 8;

// ------------------------------------------------------------- inputs --

struct KeySpec {
  std::size_t instance = 0;
  bool simulate = false;
  bool par = false;
  std::uint64_t seed = 0;
  double fault_rate = 0.0;
};

/// One phase's request sequence: key index per request, plus due times
/// (seconds from phase start) in the open loop.
struct PhasePlan {
  std::string id_prefix;
  std::vector<std::size_t> seq;
  std::vector<double> due_s;
  /// Trace position of request 0 (see Rotate).
  std::size_t first = 0;
};

struct Plan {
  std::vector<std::string> texts;  ///< compact instance JSON per instance
  std::vector<KeySpec> keys;
  PhasePlan open;
  PhasePlan closed;
};

std::string RequestLine(const Plan& plan, std::size_t key_index,
                        const std::string& id) {
  const KeySpec& k = plan.keys[key_index];
  const std::string& text = plan.texts[k.instance];
  std::string line;
  line.reserve(text.size() + 192);
  line += "{\"id\":\"";
  line += id;
  line += k.simulate ? "\",\"verb\":\"simulate\"" : "\",\"verb\":\"schedule\"";
  line += k.par ? ",\"algo\":\"par\",\"iterations\":" +
                      std::to_string(kParIterations)
                : std::string(",\"algo\":\"pa\"");
  line += ",\"seed\":" + std::to_string(k.seed);
  if (k.simulate) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  ",\"trials\":%zu,\"jitter\":%.17g,\"fault_rate\":%.17g",
                  kSimTrials, kSimJitter, k.fault_rate);
    line += buf;
  }
  line += ",\"instance\":";
  line += text;
  line += '}';
  return line;
}

std::uint64_t KeySeed(std::size_t j) {
  // Kept below 2^52 so the seed is an exact JSON integer everywhere.
  return DeriveSeed(kSuiteSeed ^ kKeyStream, j) >> 12;
}

void AddInstance(Plan& plan, std::size_t tasks, const std::string& name) {
  const std::uint64_t seed =
      DeriveSeed(kSuiteSeed ^ kInstanceStream, plan.texts.size());
  plan.texts.push_back(
      InstanceToJson(MakeInstance(tasks, seed, name)).Dump(-1));
}

void PoissonDue(PhasePlan& phase, double rate, Rng& rng) {
  double t = 0.0;
  phase.due_s.reserve(phase.seq.size());
  for (std::size_t i = 0; i < phase.seq.size(); ++i) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate;
    phase.due_s.push_back(t);
  }
}

/// Starts `phase` at request `first` of its trace and wraps around: the
/// keys and (open loop) the gaps between due times move together, so the
/// rotated trace has the same neighbours, and the same queueing, everywhere
/// but at the seam.
void Rotate(PhasePlan& phase, std::size_t first) {
  const std::size_t n = phase.seq.size();
  if (n == 0) return;
  first %= n;
  phase.first = first;
  const auto shift = static_cast<std::ptrdiff_t>(first);
  std::rotate(phase.seq.begin(), phase.seq.begin() + shift, phase.seq.end());
  if (phase.due_s.empty()) return;
  std::vector<double> gaps(n);
  for (std::size_t i = 0; i < n; ++i) {
    gaps[i] = phase.due_s[i] - (i == 0 ? 0.0 : phase.due_s[i - 1]);
  }
  std::rotate(gaps.begin(), gaps.begin() + shift, gaps.end());
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) phase.due_s[i] = t += gaps[i];
}

/// Requests per phase for a run of `seconds`: the open loop sends at a
/// fixed rate for its share of the time; the closed loop gets as many
/// requests as the seed commit completes in the rest.
struct LoadShape {
  double rate_rps = 0.0;
  std::size_t open_requests = 0;
  double closed_s = 0.0;
  std::size_t closed_requests = 0;
};

LoadShape Shape(const RunArgs& args, double seconds) {
  LoadShape s;
  s.rate_rps = ConfigNumber(args, "open_rate_rps");
  const double open_s = seconds * kOpenShare;
  s.open_requests = static_cast<std::size_t>(std::ceil(s.rate_rps * open_s));
  s.closed_s = seconds - open_s;
  s.closed_requests = static_cast<std::size_t>(
      std::ceil(ConfigNumber(args, "closed_rps") * s.closed_s));
  return s;
}

std::size_t PickSize(const JsonArray& sizes, Rng& rng) {
  return static_cast<std::size_t>(
      sizes[static_cast<std::size_t>(rng.UniformInt(
                0, static_cast<std::int64_t>(sizes.size()) - 1))]
          .AsInt());
}

// Each phase of both service workloads replays one fixed trace (keys,
// their order and the Poisson gaps between due times, all drawn from
// kSuiteSeed): per-request cost is heavy-tailed and queueing behind a long
// solve sets the latency tail, so a key population or order drawn per run
// seed moved the tail percentiles 1.5-2x with the seed. The run seed picks
// where in the trace a run starts (see Rotate).

/// Rotates both phases of `plan` to a start drawn from the run seed, in
/// whole units of `unit` requests.
void StartAt(Plan& plan, const RunArgs& args, std::size_t unit) {
  Rng order(DeriveSeed(args.seed ^ kArrivalStream, 0));
  const std::size_t units =
      std::max<std::size_t>(1, plan.open.seq.size() / unit);
  const std::size_t first =
      unit * static_cast<std::size_t>(
                 order.UniformInt(0, static_cast<std::int64_t>(units) - 1));
  Rotate(plan.open, first);
  Rotate(plan.closed, first);
}

/// service_repeat: a pool of suite instances; keys are (instance, pa|par,
/// seed). Keys come in blocks of two, each key 4 times, shuffled within
/// the block, so 3 of 4 requests repeat an earlier key within 8 requests.
Plan MakeRepeatPlan(const RunArgs& args, const LoadShape& shape) {
  constexpr std::size_t kCopies = 4;
  constexpr std::size_t kBlockKeys = 2;
  Plan plan;
  const JsonArray& sizes =
      args.config.At("workloads").At(args.workload).At("sizes").AsArray();
  const auto per_size = static_cast<std::size_t>(
      args.smoke ? 1.0 : ConfigNumber(args, "instances_per_size"));
  for (std::size_t i = 0; i < per_size; ++i) {
    for (const JsonValue& size : sizes) {
      const auto n = static_cast<std::size_t>(size.AsInt());
      AddInstance(plan, n, "svc-" + std::to_string(n) + "-" + std::to_string(i));
    }
  }
  Rng suite(DeriveSeed(kSuiteSeed ^ kKeyStream, 0));
  const auto fill = [&](PhasePlan& phase, std::size_t requests) {
    const std::size_t keys = kBlockKeys * std::max<std::size_t>(
        1, (requests + kCopies * kBlockKeys - 1) / (kCopies * kBlockKeys));
    std::vector<std::size_t> ids;
    for (std::size_t k = 0; k < keys; ++k) {
      KeySpec key;
      key.instance = static_cast<std::size_t>(suite.UniformInt(
          0, static_cast<std::int64_t>(plan.texts.size()) - 1));
      key.par = suite.Bernoulli(0.5);
      key.seed = KeySeed(plan.keys.size());
      ids.push_back(plan.keys.size());
      plan.keys.push_back(key);
    }
    suite.Shuffle(ids);
    for (std::size_t b = 0; b < keys; b += kBlockKeys) {
      std::vector<std::size_t> block;
      for (std::size_t k = b; k < b + kBlockKeys; ++k) {
        block.insert(block.end(), kCopies, ids[k]);
      }
      suite.Shuffle(block);
      phase.seq.insert(phase.seq.end(), block.begin(), block.end());
    }
  };
  plan.open.id_prefix = "o";
  plan.closed.id_prefix = "c";
  fill(plan.open, shape.open_requests);
  fill(plan.closed, shape.closed_requests);
  PoissonDue(plan.open, shape.rate_rps, suite);
  StartAt(plan, args, kCopies * kBlockKeys);  // whole bursts
  return plan;
}

/// fleet_unique: one suite instance per request; 60% pa, 25% par/32, 15%
/// simulate, alternating nominal (fault rate 0) and faulted simulates.
Plan MakeUniquePlan(const RunArgs& args, const LoadShape& shape) {
  Plan plan;
  const JsonArray& sizes =
      args.config.At("workloads").At(args.workload).At("sizes").AsArray();
  Rng suite(DeriveSeed(kSuiteSeed ^ kKeyStream, 0));
  std::size_t simulates = 0;
  const auto fill = [&](PhasePlan& phase, std::size_t requests) {
    for (std::size_t i = 0; i < requests; ++i) {
      const std::size_t idx = plan.texts.size();
      const std::size_t n = PickSize(sizes, suite);
      AddInstance(plan, n,
                  "fleet-" + std::to_string(n) + "-" + std::to_string(idx));
      KeySpec key;
      key.instance = idx;
      const double u = suite.UniformDouble();
      key.par = u >= 0.60 && u < 0.85;
      key.simulate = u >= 0.85;
      if (key.simulate) {
        key.fault_rate = simulates++ % 2 == 0 ? 0.0 : kFaultRate;
      }
      key.seed = KeySeed(plan.keys.size());
      phase.seq.push_back(plan.keys.size());
      plan.keys.push_back(key);
    }
  };
  plan.open.id_prefix = "o";
  plan.closed.id_prefix = "c";
  fill(plan.open, shape.open_requests);
  fill(plan.closed, shape.closed_requests);
  PoissonDue(plan.open, shape.rate_rps, suite);
  StartAt(plan, args, 1);
  return plan;
}

// ------------------------------------------------- timing decorator --

/// `"id"` of a protocol line that starts with `{"id":"` (every request
/// this benchmark sends and every response WithId builds); empty otherwise.
std::string LeadingId(const std::string& line) {
  static const std::string kPrefix = "{\"id\":\"";
  if (line.compare(0, kPrefix.size(), kPrefix) != 0) return {};
  const std::size_t end = line.find('"', kPrefix.size());
  if (end == std::string::npos) return {};
  return line.substr(kPrefix.size(), end - kPrefix.size());
}

/// Transport decorator that stamps when each request id was read and
/// when its response was written: the residence of a request in the
/// server (or router) behind it, measured without touching its code.
class TimedTransport : public Transport {
 public:
  explicit TimedTransport(Transport& inner) : inner_(inner) {}

  bool ReadLine(std::string& line) override {
    const bool ok = inner_.ReadLine(line);
    if (ok) Stamp(reads_, line);
    return ok;
  }
  bool WriteLine(const std::string& line) override {
    const bool ok = inner_.WriteLine(line);
    Stamp(writes_, line);
    return ok;
  }
  void SetGreeting(const std::string& line) override {
    inner_.SetGreeting(line);
  }

  /// Residence in ms per id that was both read and answered.
  std::map<std::string, double> Residence() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, double> out;
    for (const auto& [id, read] : reads_) {
      const auto w = writes_.find(id);
      if (w != writes_.end()) out[id] = MsBetween(read, w->second);
    }
    return out;
  }
  std::size_t ReadCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reads_.size();
  }

 private:
  void Stamp(std::map<std::string, Clock::time_point>& into,
             const std::string& line) {
    const Clock::time_point now = Clock::now();
    std::string id = LeadingId(line);
    if (id.empty() || id.rfind("__", 0) == 0) return;  // control verbs
    std::lock_guard<std::mutex> lock(mu_);
    into.emplace(std::move(id), now);
  }

  Transport& inner_;
  mutable std::mutex mu_;
  std::map<std::string, Clock::time_point> reads_;
  std::map<std::string, Clock::time_point> writes_;
};

Samples ToSamples(const std::map<std::string, double>& m) {
  Samples s;
  for (const auto& [id, v] : m) s.Add(v);
  return s;
}

// ---------------------------------------------------- systems under test --

/// Receives lines until one carries `id` (or the stream ends).
bool ReceiveId(PipeTransport& pipe, const std::string& id, std::string& line) {
  while (pipe.Receive(line)) {
    if (LeadingId(line) == id) return true;
  }
  return false;
}

/// The stats verb's queue-wait quantiles for the default tenant.
void QueueWait(const std::string& stats_line, double& p50, double& p99) {
  const JsonValue stats = JsonValue::Parse(stats_line);
  const JsonValue& t = stats.At("tenants").At(kDefaultTenant);
  p50 = t.GetDouble("queue_wait_p50_ms", 0.0);
  p99 = t.GetDouble("queue_wait_p99_ms", 0.0);
}

/// What one reschedd reported after a phase.
struct ServerRun {
  double queue_p50 = 0.0;
  double queue_p99 = 0.0;
  ServiceCounters counters;
  std::map<std::string, double> residence_by_id;
  std::size_t reads = 0;
};

/// One system under test: a front pipe a client drives, behind which sits
/// either one reschedd (service_repeat) or a router and its TCP backends
/// (fleet_unique). Construction returns once the front greeted.
class System {
 public:
  System() = default;
  System(const System&) = delete;
  System& operator=(const System&) = delete;
  virtual ~System() = default;

  PipeTransport& Front() { return front_; }
  /// Ends the run: stops and joins everything (idempotent).
  virtual void Stop() = 0;
  /// Sent by the watchdog when responses stop coming: the front shuts
  /// down, answers what it holds, and closes the response stream.
  void Abort() { front_.Send("{\"id\":\"__abort\",\"verb\":\"shutdown\"}"); }

 protected:
  PipeTransport front_;
};

class Daemon : public System {
 public:
  Daemon(ServerOptions options, bool traced) {
    if (traced) timed_.emplace(front_);
    Transport& t = timed_ ? static_cast<Transport&>(*timed_)
                          : static_cast<Transport&>(front_);
    server_ = std::make_unique<RescheddServer>(t, std::move(options));
    thread_ = std::thread([this] {
      server_->Serve();
      front_.CloseResponses();
    });
    std::string greeting;
    front_.Receive(greeting);
  }
  ~Daemon() override { Stop(); }

  /// Stats verb when `want_stats` (call with nothing in flight), then
  /// shutdown.
  ServerRun Finish(bool want_stats) {
    ServerRun run;
    std::string line;
    if (want_stats) {
      front_.Send("{\"id\":\"__stats\",\"verb\":\"stats\"}");
      if (ReceiveId(front_, "__stats", line)) {
        QueueWait(line, run.queue_p50, run.queue_p99);
      }
    }
    Stop();
    run.counters = server_->Counters();
    if (timed_) {
      run.residence_by_id = timed_->Residence();
      run.reads = timed_->ReadCount();
    }
    return run;
  }

  void Stop() override {
    if (!thread_.joinable()) return;
    front_.Send("{\"id\":\"__stop\",\"verb\":\"shutdown\"}");
    std::string line;
    ReceiveId(front_, "__stop", line);
    thread_.join();
  }

 private:
  std::optional<TimedTransport> timed_;
  std::unique_ptr<RescheddServer> server_;
  std::thread thread_;
};

class Fleet : public System {
 public:
  struct FleetRun {
    std::vector<ServerRun> backends;
    std::map<std::string, double> router_residence;
  };

  Fleet(std::size_t backends, bool traced) : traced_(traced) {
    router::RouterOptions options;
    options.queue_capacity_per_backend = 1u << 20;
    for (std::size_t i = 0; i < backends; ++i) {
      auto b = std::make_unique<Backend>();
      if (traced) b->timed.emplace(b->transport);
      ServerOptions so;
      so.workers = 1;
      so.result_cache = true;
      so.queue_capacity = 1u << 20;
      so.record_latency_samples = traced;
      Transport& t = b->timed ? static_cast<Transport&>(*b->timed)
                              : static_cast<Transport&>(b->transport);
      b->server = std::make_unique<RescheddServer>(t, so);
      Backend* raw = b.get();
      b->thread = std::thread([raw] { raw->server->Serve(); });
      router::RouterBackend rb;
      rb.name = "be" + std::to_string(i);
      rb.host = "127.0.0.1";
      rb.port = b->transport.Port();
      options.backends.push_back(rb);
      backends_.push_back(std::move(b));
    }
    if (traced) front_timed_.emplace(front_);
    Transport& front = front_timed_ ? static_cast<Transport&>(*front_timed_)
                                    : static_cast<Transport&>(front_);
    router_ = std::make_unique<router::RescheddRouter>(front, options);
    router_thread_ = std::thread([this] {
      router_->Serve();
      front_.CloseResponses();
    });
    std::string greeting;
    front_.Receive(greeting);
  }
  ~Fleet() override { Stop(); }

  /// Drains the router (front end-of-stream), reads each backend's stats
  /// over a fresh connection when traced, then stops the backends.
  FleetRun Finish() {
    FleetRun run;
    StopRouter();
    for (auto& b : backends_) {
      ServerRun s;
      if (traced_ && b->thread.joinable()) {
        try {
          RescheddClient client(
              ClientEndpoint::Tcp("127.0.0.1", b->transport.Port()));
          const RescheddClient::Result r =
              client.Submit("{\"id\":\"__stats\",\"verb\":\"stats\"}");
          QueueWait(r.response, s.queue_p50, s.queue_p99);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: backend stats failed: %s\n",
                       e.what());
        }
      }
      StopBackend(*b);
      s.counters = b->server->Counters();
      if (b->timed) {
        s.residence_by_id = b->timed->Residence();
        s.reads = b->timed->ReadCount();
      }
      run.backends.push_back(std::move(s));
    }
    if (front_timed_) run.router_residence = front_timed_->Residence();
    return run;
  }

  void Stop() override {
    StopRouter();
    for (auto& b : backends_) StopBackend(*b);
  }

 private:
  struct Backend {
    TcpServerTransport transport{"127.0.0.1", 0};
    std::optional<TimedTransport> timed;
    std::unique_ptr<RescheddServer> server;
    std::thread thread;
  };

  void StopRouter() {
    if (!router_thread_.joinable()) return;
    front_.CloseRequests();
    router_thread_.join();
  }
  static void StopBackend(Backend& b) {
    if (!b.thread.joinable()) return;
    b.transport.Close();
    b.thread.join();
  }

  bool traced_;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::optional<TimedTransport> front_timed_;
  std::unique_ptr<router::RescheddRouter> router_;
  std::thread router_thread_;
};

// -------------------------------------------------------------- load --

/// What one phase observed from the client side.
struct PhaseResult {
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t missing = 0;
  std::size_t backlog_end = 0;
  double throughput_rps = 0.0;  ///< closed loop
  std::size_t completions = 0;
  /// Per request; due_at in the open loop only.
  std::vector<Clock::time_point> due_at, send_at, recv_at;
  /// Id-stripped body of the first ok response per key, and the later
  /// copies that differed from it.
  std::map<std::size_t, std::string> bodies;
  std::size_t body_mismatches = 0;
};

/// Books one response line of `phase`; false when the line is not one of
/// the phase's responses.
bool Book(const PhasePlan& phase, const std::string& line,
          Clock::time_point at, PhaseResult& out) {
  const std::string id = LeadingId(line);
  if (id.size() <= phase.id_prefix.size() ||
      id.compare(0, phase.id_prefix.size(), phase.id_prefix) != 0) {
    return false;
  }
  const std::size_t i = std::stoul(id.substr(phase.id_prefix.size()));
  if (i >= phase.seq.size() || out.recv_at[i] != Clock::time_point{}) {
    return false;
  }
  out.recv_at[i] = at;
  std::string body;
  // Bodies are compact JSON with sorted keys; no nested object of a
  // schedule or simulate body has an "ok" key, and a string value cannot
  // hold the unescaped quotes.
  if (!StripResponseId(line, body) ||
      body.find("\"ok\":true") == std::string::npos) {
    return true;
  }
  ++out.ok;
  const auto [it, inserted] = out.bodies.emplace(phase.seq[i], body);
  if (!inserted && it->second != body) ++out.body_mismatches;
  return true;
}

Clock::duration Secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Sleeps to shortly before `due`, then yields until it. A plain timed
/// sleep on a small VM wakes up to ~10 ms late at p99; the final yield
/// loop keeps send times within about a millisecond of due.
void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::milliseconds(2);
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) std::this_thread::yield();
}

PhaseResult RunOpenLoop(System& sys, const Plan& plan) {
  const PhasePlan& phase = plan.open;
  const std::size_t n = phase.seq.size();
  PhaseResult out;
  out.send_at.resize(n);
  out.recv_at.resize(n);
  std::atomic<std::size_t> received{0};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::thread sender([&] {
    for (std::size_t i = 0; i < n; ++i) {
      std::string line =
          RequestLine(plan, phase.seq[i], phase.id_prefix + std::to_string(i));
      WaitUntil(start + Secs(phase.due_s[i]));
      out.send_at[i] = Clock::now();
      sys.Front().Send(std::move(line));
    }
    out.backlog_end = n - received.load();
    // Watchdog: a response that never comes must not hang the run.
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, Secs(kDrainTimeoutS), [&] { return done; })) {
      sys.Abort();
    }
  });

  std::string line;
  while (received.load() < n && sys.Front().Receive(line)) {
    if (Book(phase, line, Clock::now(), out)) received.fetch_add(1);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  sender.join();

  out.sent = n;
  out.due_at.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.due_at.push_back(start + Secs(phase.due_s[i]));
    if (out.recv_at[i] == Clock::time_point{}) ++out.missing;
  }
  return out;
}

/// Open-loop latency, from due time to response. The phase's trace is cut
/// into windows of kWindowRequests consecutive requests, by trace position,
/// so a window holds the same requests whichever rotation the run sends
/// (only the window across the seam is split in time). A window whose
/// median generator lateness exceeds kLatenessBoundMs ran while the host
/// stalled the process and is left out; a run with fewer than half of its
/// windows clean is invalid. The p50 and p99 are the lower quartiles over
/// the clean windows of each window's p50 and p99. A shared host steals
/// CPU from the VM in stretches that slow the server without stalling the
/// generator (latency p50 up 2-3x in 3 of 10 runs); a stretch moves the
/// lower quartile only if it covers three quarters of the windows, and the
/// few heaviest requests of a run set one window's p99, not the run's.
struct OpenLatency {
  double p50 = 0.0;
  double p99 = 0.0;
  double lateness_p99 = 0.0;  ///< over the whole phase
  std::size_t samples = 0;    ///< responses in the clean windows
  std::size_t windows = 0;
  std::size_t clean = 0;
};

OpenLatency MeasureOpenLatency(const PhasePlan& phase, const PhaseResult& r) {
  OpenLatency out;
  const std::size_t n = r.due_at.size();
  if (n == 0) return out;
  out.windows = std::max<std::size_t>(1, n / kWindowRequests);
  std::vector<std::vector<double>> late(out.windows);
  std::vector<std::vector<double>> latency(out.windows);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t w = (i + phase.first) % n * out.windows / n;
    late[w].push_back(MsBetween(r.due_at[i], r.send_at[i]));
    if (r.recv_at[i] != Clock::time_point{}) {
      latency[w].push_back(MsBetween(r.due_at[i], r.recv_at[i]));
    }
  }
  std::vector<double> all_late;
  std::vector<double> window_p50;
  std::vector<double> window_p99;
  for (std::size_t w = 0; w < out.windows; ++w) {
    all_late.insert(all_late.end(), late[w].begin(), late[w].end());
    if (latency[w].empty() || Median(late[w]) > kLatenessBoundMs) {
      continue;
    }
    ++out.clean;
    out.samples += latency[w].size();
    window_p50.push_back(Median(latency[w]));
    window_p99.push_back(Percentile(latency[w], 99.0));
  }
  out.lateness_p99 = Percentile(all_late, 99.0);
  if (out.clean != 0) {
    out.p50 = Percentile(window_p50, 25.0);
    out.p99 = Percentile(window_p99, 25.0);
  }
  return out;
}

/// Sends every request of the closed phase with `window` outstanding;
/// throughput is the completions over the time to the last response. The
/// work is fixed so that the measured request set is the same on every
/// run; `expected_s` only arms the watchdog.
PhaseResult RunClosedLoop(System& sys, const Plan& plan, double expected_s,
                          std::size_t window) {
  const PhasePlan& phase = plan.closed;
  const std::size_t n = phase.seq.size();
  PhaseResult out;
  out.send_at.resize(n);
  out.recv_at.resize(n);
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, Secs(3.0 * expected_s + kDrainTimeoutS),
                     [&] { return done; })) {
      sys.Abort();
    }
  });

  const Clock::time_point start = Clock::now();
  std::size_t next = 0;
  std::size_t inflight = 0;
  const auto send = [&] {
    out.send_at[next] = Clock::now();
    sys.Front().Send(RequestLine(plan, phase.seq[next],
                                 phase.id_prefix + std::to_string(next)));
    ++next;
    ++inflight;
  };
  while (next < window && next < n) send();
  Clock::time_point last = start;
  std::string line;
  while (inflight > 0 && sys.Front().Receive(line)) {
    const Clock::time_point at = Clock::now();
    if (!Book(phase, line, at, out)) continue;
    --inflight;
    ++out.completions;
    last = at;
    if (next < n) send();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  watchdog.join();

  out.sent = next;
  out.throughput_rps = static_cast<double>(out.completions) /
                       std::max(1e-9, SecondsBetween(start, last));
  for (std::size_t i = 0; i < next; ++i) {
    if (out.recv_at[i] == Clock::time_point{}) ++out.missing;
  }
  return out;
}

/// Share of requests repeating an earlier key of the phase, and of those
/// sent before the key's first copy was answered.
void RepeatShares(const PhasePlan& phase, const PhaseResult& r,
                  double& repeat_frac, double& inflight_frac) {
  std::map<std::size_t, std::size_t> first;
  std::size_t repeats = 0;
  std::size_t inflight = 0;
  for (std::size_t i = 0; i < r.sent; ++i) {
    const auto [it, inserted] = first.emplace(phase.seq[i], i);
    if (inserted) continue;
    ++repeats;
    const Clock::time_point answered = r.recv_at[it->second];
    if (answered == Clock::time_point{} || r.send_at[i] < answered) {
      ++inflight;
    }
  }
  const auto sent = static_cast<double>(std::max<std::size_t>(1, r.sent));
  repeat_frac = static_cast<double>(repeats) / sent;
  inflight_frac = static_cast<double>(inflight) / sent;
}

// ------------------------------------------------------------ checks --

PaROptions KeyParOptions(const KeySpec& k) {
  PaROptions par;
  par.base.seed = k.seed;  // what the service sets for pa and par alike
  par.time_budget_seconds = 0.0;
  par.max_iterations = kParIterations;
  par.threads = 1;
  par.seed = k.seed;
  return par;
}

/// Every schedule in a response body passes ValidateSchedule; a seeded
/// sample of keys has the makespan of a direct library call.
void CheckBodies(const RunArgs& args, const Plan& plan,
                 const std::map<std::size_t, std::string>& bodies,
                 Report& report) {
  std::size_t invalid = 0;
  std::size_t checked = 0;
  std::map<std::size_t, TimeT> makespans;
  for (const auto& [key, body] : bodies) {
    const JsonValue doc = JsonValue::Parse(body);
    makespans[key] = doc.GetInt("makespan", -1);
    if (!doc.Contains("schedule")) continue;
    const Instance instance =
        InstanceFromString(plan.texts[plan.keys[key].instance]);
    ++checked;
    if (!ValidateSchedule(instance, ScheduleFromJson(instance, doc.At("schedule")))
             .ok()) {
      ++invalid;
    }
  }
  if (invalid != 0) {
    report.Fail(std::to_string(invalid) + " of " + std::to_string(checked) +
                " response schedules failed ValidateSchedule");
  }

  std::vector<std::size_t> keys;
  for (const auto& [key, m] : makespans) keys.push_back(key);
  Rng rng(DeriveSeed(args.seed ^ kCheckStream, 0));
  rng.Shuffle(keys);
  const std::size_t samples = args.smoke ? 2 : kMakespanChecks;
  std::size_t wrong = 0;
  std::size_t sampled = 0;
  for (std::size_t i = 0; i < keys.size() && i < samples; ++i) {
    const KeySpec& k = plan.keys[keys[i]];
    const Instance instance = InstanceFromString(plan.texts[k.instance]);
    const PaROptions par = KeyParOptions(k);
    const TimeT direct = k.par ? SchedulePaR(instance, par).best.makespan
                               : SchedulePa(instance, par.base).makespan;
    ++sampled;
    if (direct != makespans[keys[i]]) ++wrong;
  }
  report.Note("checks: " + std::to_string(checked) +
              " response schedules validated; makespan equals a direct "
              "library call on " +
              std::to_string(sampled - wrong) + "/" + std::to_string(sampled) +
              " sampled keys");
  if (wrong != 0) {
    report.Fail(std::to_string(wrong) +
                " sampled responses differ in makespan from a direct "
                "library call");
  }
}

std::vector<std::string> BodyList(const PhaseResult& r) {
  std::vector<std::string> v;
  v.reserve(r.bodies.size());
  for (const auto& [key, body] : r.bodies) v.push_back(body);
  return v;
}

// ----------------------------------------------------------- the run --

struct PassResult {
  PhaseResult open;
  PhaseResult closed;
  ServerRun open_server;       ///< service_repeat
  Fleet::FleetRun open_fleet;  ///< fleet_unique
};

bool IsFleet(const RunArgs& args) { return args.workload == "fleet_unique"; }

std::unique_ptr<System> StartSystem(const RunArgs& args, bool traced) {
  if (IsFleet(args)) return std::make_unique<Fleet>(2, traced);
  ServerOptions so;
  so.workers = 2;
  so.result_cache = true;
  so.queue_capacity = 1u << 20;  // a stall shows as latency, not rejections
  // No journal in the timed server: on a small VM every journal write-back
  // (fsync or page-cache flush) stalls the whole guest for 5-25 ms at
  // random, which moved p99 latency by 1.6x and generator lateness by 300x
  // between runs of one seed. The traced replay times the appends
  // (service.journal_append_us) instead.
  so.record_latency_samples = traced;
  return std::make_unique<Daemon>(so, traced);
}

/// Runs the open-loop phase on `first` (started during set-up, or now)
/// and the closed loop on a fresh system.
PassResult RunPass(const RunArgs& args, const Plan& plan,
                   const LoadShape& shape, bool traced,
                   std::unique_ptr<System> first) {
  PassResult pass;
  if (!first) first = StartSystem(args, traced);
  pass.open = RunOpenLoop(*first, plan);
  if (IsFleet(args)) {
    pass.open_fleet = static_cast<Fleet&>(*first).Finish();
  } else {
    pass.open_server = static_cast<Daemon&>(*first).Finish(traced);
  }
  first.reset();

  const std::unique_ptr<System> second = StartSystem(args, traced);
  pass.closed = RunClosedLoop(*second, plan, shape.closed_s, kClosedWindow);
  second->Stop();
  return pass;
}

/// Failed requests and copies of one key with differing bodies, over
/// every phase of `passes`.
void CountOutcomes(const std::vector<const PassResult*>& passes,
                   Report& report) {
  std::size_t mismatches = 0;
  for (const PassResult* p : passes) {
    for (const PhaseResult* r : {&p->open, &p->closed}) {
      report.attempted += r->sent;
      report.failed += r->sent - r->ok;
      mismatches += r->body_mismatches;
    }
  }
  if (report.failed != 0) {
    report.Fail(std::to_string(report.failed) +
                " requests were not answered ok");
  }
  if (mismatches != 0) {
    report.Fail(std::to_string(mismatches) +
                " responses differ from the first body of their key");
  }
}

void ReportEndToEnd(const RunArgs& args, const Plan& plan,
                    const PassResult& pass, Report& report) {
  const PhaseResult& o = pass.open;
  const PhaseResult& c = pass.closed;
  CountOutcomes({&pass}, report);
  const OpenLatency latency = MeasureOpenLatency(plan.open, o);
  report.Add("latency_ms_p50", latency.p50, "ms", latency.samples);
  report.Add("latency_ms_p99", latency.p99, "ms", latency.samples);
  report.Add("throughput_rps", c.throughput_rps, "1/s", c.completions);
  // Every open-phase key: the key set is fixed by the suite, so the
  // quality number repeats exactly whatever the run's order.
  double makespan_sum = 0.0;
  for (const auto& [key, body] : o.bodies) {
    makespan_sum +=
        static_cast<double>(JsonValue::Parse(body).GetInt("makespan", 0));
  }
  report.Add("makespan_mean_ms",
             o.bodies.empty()
                 ? 0.0
                 : makespan_sum / static_cast<double>(o.bodies.size()) / 1e3,
             kMakespanUnit, o.bodies.size());
  report.Add("failed_frac",
             static_cast<double>(report.failed) /
                 static_cast<double>(
                     std::max<std::uint64_t>(1, report.attempted)),
             "frac", report.attempted);

  report.Add("bench.lateness_ms_p99", latency.lateness_p99, "ms", o.sent);
  report.Add("bench.clean_windows", static_cast<double>(latency.clean),
             "count", latency.windows);
  report.Add("bench.backlog_end", static_cast<double>(o.backlog_end), "count",
             1);
  if (2 * latency.clean < latency.windows) {
    report.Fail("open-loop generator ran late (median lateness above " +
                std::to_string(kLatenessBoundMs) + " ms) in " +
                std::to_string(latency.windows - latency.clean) + " of " +
                std::to_string(latency.windows) +
                " windows: the run is invalid and its latency is not a "
                "result");
  }
  double repeat = 0.0;
  double inflight = 0.0;
  RepeatShares(plan.open, o, repeat, inflight);
  report.Note("open loop: " + std::to_string(o.sent) + " sent at " +
              std::to_string(ConfigNumber(args, "open_rate_rps")) +
              " req/s, " + std::to_string(o.ok) + " ok, " +
              std::to_string(o.missing) + " missing; repeat share " +
              std::to_string(repeat) + ", in-flight repeat share " +
              std::to_string(inflight));
  report.Note("closed loop: window " + std::to_string(kClosedWindow) + ", " +
              std::to_string(c.sent) + " sent, " +
              std::to_string(c.ok) + " ok, " + std::to_string(c.missing) +
              " missing");
  report.Note("output_digest " + SetDigest(BodyList(o)) + " (" +
              std::to_string(o.bodies.size()) + " open-loop keys)");

  std::map<std::size_t, std::string> all = o.bodies;
  all.insert(c.bodies.begin(), c.bodies.end());
  CheckBodies(args, plan, all, report);
}

/// Single-threaded replay of the open-loop sequence's first requests:
/// parse, key, journal append, then (first copy of a key only, as the
/// result cache would) the timed PA / PA-R mirror and simulate trials.
void ReplayRequests(const RunArgs& args, const Plan& plan,
                    const PhaseResult& open, LayerLedger& ledger) {
  const auto count = std::min<std::size_t>(
      plan.open.seq.size(),
      static_cast<std::size_t>(
          args.smoke ? 8.0 : ConfigNumber(args, "replay_requests")));
  // service_repeat's journal: batch sync, in the run's scratch directory.
  const std::string journal_path =
      IsFleet(args) ? std::string()
                    : args.scratch_dir + "/journal-" +
                          std::to_string(::getpid()) + ".rsj";
  std::optional<Journal> journal;
  if (!journal_path.empty()) journal.emplace(journal_path, JournalSync::kBatch);

  std::shared_ptr<const Instance> anchor;  // keeps the cache's device alive
  std::optional<FloorplanCache> shared;    // one per platform, as the server
  std::set<std::size_t> solved;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t key_index = plan.open.seq[i];
    const KeySpec& k = plan.keys[key_index];
    const std::string id = plan.open.id_prefix + std::to_string(i);
    const std::string line = RequestLine(plan, key_index, id);
    ledger.request_bytes.Add(static_cast<double>(line.size()));

    Clock::time_point t0 = Clock::now();
    const Request request = ParseRequest(line);
    ledger.parse_us.Add(UsBetween(t0, Clock::now()));
    t0 = Clock::now();
    const Digest128 digest = HashCanonicalText(RequestKeyText(request));
    ledger.key_us.Add(UsBetween(t0, Clock::now()));
    (void)digest;

    if (journal) {
      const auto body = open.bodies.find(key_index);
      const std::string response =
          WithId(id, body != open.bodies.end() ? body->second : "{}");
      t0 = Clock::now();
      journal->AppendRequest(id, line);
      journal->AppendResponse(id, response, "exec");
      ledger.journal_append_us.Add(UsBetween(t0, Clock::now()));
    }

    if (!solved.insert(key_index).second) continue;
    if (!shared) {
      anchor = request.instance;
      shared.emplace(anchor->platform.Device());
    }
    const PaROptions par = KeyParOptions(k);
    const Schedule schedule =
        ReplayChecked(*request.instance, par.base, k.par ? &par : nullptr,
                      &*shared, ledger);
    if (k.simulate) {
      ReplaySimulate(*request.instance, schedule, k.seed, kSimTrials,
                     k.fault_rate, kSimJitter, ledger);
    }
  }
  journal.reset();
  std::error_code ec;
  if (!journal_path.empty()) std::filesystem::remove(journal_path, ec);
}

void ReportLayers(const RunArgs& args, const Plan& plan,
                  const PassResult& untraced, const PassResult& traced,
                  Report& report) {
  const PhaseResult& o = traced.open;
  CountOutcomes({&untraced, &traced}, report);
  if (SetDigest(BodyList(untraced.open)) != SetDigest(BodyList(o))) {
    report.Fail("traced and untraced open-loop bodies differ");
  }

  double repeat = 0.0;
  double inflight = 0.0;
  RepeatShares(plan.open, o, repeat, inflight);
  report.Add("service.repeat_frac", repeat, "frac", o.sent);
  report.Add("service.inflight_repeat_frac", inflight, "frac", o.sent);

  const auto overhead = [&](const char* name, double traced_v,
                            double untraced_v, std::size_t samples) {
    report.Add(name, untraced_v > 0.0 ? traced_v / untraced_v - 1.0 : 0.0,
               "frac", samples);
  };
  const OpenLatency traced_latency = MeasureOpenLatency(plan.open, o);
  overhead("bench.trace_overhead_p50_frac", traced_latency.p50,
           MeasureOpenLatency(plan.open, untraced.open).p50,
           traced_latency.samples);
  overhead("bench.trace_overhead_rps_frac", traced.closed.throughput_rps,
           untraced.closed.throughput_rps, traced.closed.completions);

  std::vector<const ServerRun*> servers;
  if (IsFleet(args)) {
    for (const ServerRun& b : traced.open_fleet.backends) servers.push_back(&b);
  } else {
    servers.push_back(&traced.open_server);
  }
  std::map<std::string, double> residence;
  std::uint64_t hits = 0;
  std::uint64_t accepted = 0;
  double q50 = 0.0;
  double q99 = 0.0;
  std::size_t reads_total = 0;
  std::size_t reads_max = 0;
  for (const ServerRun* s : servers) {
    residence.insert(s->residence_by_id.begin(), s->residence_by_id.end());
    hits += s->counters.cache_hits;
    accepted += s->counters.accepted;
    // With several backends, the slowest backend's queue.
    q50 = std::max(q50, s->queue_p50);
    q99 = std::max(q99, s->queue_p99);
    reads_total += s->reads;
    reads_max = std::max(reads_max, s->reads);
  }
  const Samples server = ToSamples(residence);
  report.Add("service.queue_wait_ms_p50", q50, "ms", reads_total);
  report.Add("service.queue_wait_ms_p99", q99, "ms", reads_total);
  report.Add("service.residence_ms_p50", server.Quantile(50.0), "ms",
             server.Count());
  report.Add("service.residence_ms_p99", server.Quantile(99.0), "ms",
             server.Count());
  report.Add("service.cache_hit_frac",
             accepted == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(accepted),
             "frac", accepted);

  if (IsFleet(args)) {
    Samples router;
    Samples forward;
    for (const auto& [id, ms] : traced.open_fleet.router_residence) {
      router.Add(ms);
      const auto b = residence.find(id);
      if (b != residence.end()) forward.Add(ms - b->second);
    }
    report.Add("router.residence_ms_p50", router.Quantile(50.0), "ms",
               router.Count());
    report.Add("router.residence_ms_p99", router.Quantile(99.0), "ms",
               router.Count());
    report.Add("router.backend_residence_ms_p50", server.Quantile(50.0), "ms",
               server.Count());
    report.Add("router.backend_residence_ms_p99", server.Quantile(99.0), "ms",
               server.Count());
    report.Add("router.forward_ms_p50", forward.Quantile(50.0), "ms",
               forward.Count());
    report.Add("router.forward_ms_p99", forward.Quantile(99.0), "ms",
               forward.Count());
    report.Add("router.backend_share_max",
               reads_total == 0 ? 0.0
                                : static_cast<double>(reads_max) /
                                      static_cast<double>(reads_total),
               "frac", reads_total);
  }

  LayerLedger ledger;
  ReplayRequests(args, plan, o, ledger);
  AddLedgerMetrics(ledger, report);
}

}  // namespace

void RunService(const RunArgs& args, Report& report) {
  // A traced run measures an untraced and a traced pass of half length
  // each, so the two differ only in the tracing.
  const double pass_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  const LoadShape shape = Shape(args, pass_seconds);

  // Set-up: inputs generated and the first system up to its greeting;
  // repeated, and the median reported.
  const std::size_t repeats = args.smoke ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  Plan plan;
  std::unique_ptr<System> first;
  for (std::size_t r = 0; r < repeats; ++r) {
    first.reset();
    const Clock::time_point t0 = Clock::now();
    plan = IsFleet(args) ? MakeUniquePlan(args, shape)
                         : MakeRepeatPlan(args, shape);
    first = StartSystem(args, false);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());

  const PassResult untraced =
      RunPass(args, plan, shape, false, std::move(first));
  if (!args.trace) {
    ReportEndToEnd(args, plan, untraced, report);
  } else {
    const PassResult traced = RunPass(args, plan, shape, true, nullptr);
    ReportLayers(args, plan, untraced, traced, report);
  }
  report.Add("peak_rss_mb", PeakRssMb(), "MiB", 1);
}

}  // namespace perfbench
