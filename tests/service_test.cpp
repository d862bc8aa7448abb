// Lifecycle tests for the reschedd service: protocol parsing, admission
// backpressure, result-cache bit-identity, deadlines and cancellation,
// graceful shutdown, journal replay, and both in-process transports.
//
// Timing discipline: the only wall-clock dependences are *lower* bounds
// (a budgeted PA-R request is guaranteed to still be running when the
// next line is admitted), which hold under sanitizers too — slow builds
// only make the slow request slower.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "io/instance_hash.hpp"
#include "io/instance_io.hpp"
#include "io/schedule_io.hpp"
#include "service/admission.hpp"
#include "service/client.hpp"
#include "service/fair_queue.hpp"
#include "service/framing.hpp"
#include "service/journal.hpp"
#include "service/metrics_export.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "test_helpers.hpp"
#include "util/cancel.hpp"
#include "util/mutex.hpp"
#include "util/socket.hpp"

namespace resched {
namespace {

using service::BoundedQueue;
using service::PipeTransport;
using service::RescheddServer;
using service::ServerOptions;

Instance ServiceInstance(std::size_t tasks = 6) {
  Instance instance;
  instance.name = "svc-test";
  instance.platform = testing::MakeSmallPlatform();
  instance.graph = testing::MakeChain(tasks);
  return instance;
}

std::string MakeRequest(const std::string& verb, const Instance& instance,
                        JsonObject extra = {}) {
  JsonObject request;
  request["verb"] = verb;
  request["instance"] = InstanceToJson(instance);
  for (auto& [key, value] : extra) request[key] = std::move(value);
  return JsonValue(std::move(request)).Dump(-1);
}

/// Body of a response line with the spliced id prefix removed — the part
/// the bit-identity contract is about.
std::string StripId(const std::string& line) {
  const std::size_t comma = line.find(',');
  EXPECT_NE(comma, std::string::npos) << line;
  std::string body = "{";
  body += line.substr(comma + 1);
  return body;
}

std::string ErrorCode(const std::string& line) {
  const JsonValue v = JsonValue::Parse(line);
  if (v.GetBool("ok", true)) return "";
  return v.At("error").GetString("code", "");
}

std::string IdOf(const std::string& line) {
  return JsonValue::Parse(line).GetString("id", "");
}

/// A server on an in-process pipe, serving from a background thread.
class PipeServer {
 public:
  explicit PipeServer(ServerOptions options)
      : server_(pipe_, options), thread_([this] { server_.Serve(); }) {
    EXPECT_TRUE(pipe_.Receive(handshake_));
  }

  ~PipeServer() { Shutdown(); }

  void Send(const std::string& line) { pipe_.Send(line); }

  std::string Receive() {
    std::string line;
    EXPECT_TRUE(pipe_.Receive(line));
    return line;
  }

  std::string SubmitAndWait(const std::string& line) {
    Send(line);
    return Receive();
  }

  /// Sends a shutdown verb and drains responses until its ack; idempotent.
  void Shutdown() {
    if (stopped_) return;
    stopped_ = true;
    pipe_.Send(R"({"verb":"shutdown","id":"__stop"})");
    std::string line;
    while (pipe_.Receive(line)) {
      if (IdOf(line) == "__stop") break;
    }
    thread_.join();
  }

  /// For tests that issue their own shutdown and drain manually.
  void MarkStopped() {
    stopped_ = true;
    thread_.join();
  }

  const std::string& Handshake() const { return handshake_; }
  service::ServiceCounters Counters() const { return server_.Counters(); }
  PipeTransport& Pipe() { return pipe_; }

 private:
  PipeTransport pipe_;
  RescheddServer server_;
  std::string handshake_;
  std::thread thread_;
  bool stopped_ = false;
};

// ------------------------------------------------------------ admission --

TEST(BoundedQueueTest, RejectsWhenFullAndDrainsOnClose) {
  using service::PushOutcome;
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.TryPush(1), PushOutcome::kAccepted);
  EXPECT_EQ(queue.TryPush(2), PushOutcome::kAccepted);
  // Full: backpressure, not blocking — and the reason is reported so the
  // server can answer `overloaded` rather than a generic refusal.
  EXPECT_EQ(queue.TryPush(3), PushOutcome::kFull);
  EXPECT_EQ(queue.Size(), 2u);

  queue.Close();
  // Closed: no new admissions. Distinct from kFull — the server maps this
  // to `shutting_down`, and closed wins even while the queue is also full.
  EXPECT_EQ(queue.TryPush(4), PushOutcome::kClosed);

  int out = 0;
  EXPECT_TRUE(queue.Pop(out));  // admitted items still drain
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.Pop(out));  // drained + closed
}

TEST(BoundedQueueTest, CloseWakesBlockedPop) {
  BoundedQueue<int> queue(1);
  std::thread popper([&queue] {
    int out = 0;
    EXPECT_FALSE(queue.Pop(out));
  });
  queue.Close();
  popper.join();
}

// --------------------------------------------------------- cancellation --

TEST(CancelTokenTest, ExplicitCancelAndDeadline) {
  CancelToken token;
  EXPECT_FALSE(token.Cancelled());
  EXPECT_NO_THROW(token.ThrowIfCancelled());
  token.Cancel();
  EXPECT_TRUE(token.Cancelled());
  EXPECT_TRUE(token.ExplicitlyCancelled());
  EXPECT_THROW(token.ThrowIfCancelled(), CancelledError);

  CancelToken expired(1e-9);
  EXPECT_TRUE(expired.Cancelled());
  EXPECT_FALSE(expired.ExplicitlyCancelled());
  EXPECT_TRUE(expired.DeadlineExpired());

  CancelToken unarmed(0.0);  // <= 0 means no deadline
  EXPECT_FALSE(unarmed.Cancelled());
}

// -------------------------------------------------------------- protocol --

TEST(ProtocolTest, RejectsMalformedAndInvalidRequests) {
  struct Case {
    const char* line;
    const char* code;
  };
  const Case cases[] = {
      {"not json", service::kErrParse},
      {"[1,2]", service::kErrParse},
      {R"({"verb":"schedule"})", service::kErrBadRequest},  // no instance
      {R"({"verb":"warp"})", service::kErrBadRequest},
      {R"({"id":"","verb":"stats"})", service::kErrBadRequest},
      {R"({"id":7,"verb":"stats"})", service::kErrBadRequest},
      {R"({"verb":"cancel"})", service::kErrBadRequest},  // no target
      {R"({"verb":"stats","deadline_ms":-1})", service::kErrBadRequest},
  };
  for (const Case& c : cases) {
    try {
      (void)service::ParseRequest(c.line);
      FAIL() << "accepted: " << c.line;
    } catch (const service::ProtocolError& e) {
      EXPECT_EQ(e.code(), c.code) << c.line;
    }
  }
}

TEST(ProtocolTest, ParseErrorsCarryTheIdWhenReadable) {
  try {
    (void)service::ParseRequest(R"({"id":"x9","verb":"nope"})");
    FAIL();
  } catch (const service::ProtocolError& e) {
    EXPECT_EQ(e.id(), "x9");
  }
}

TEST(ProtocolTest, HostileLinesAreRejectedNotCrashed) {
  // Nesting far past the request limit (32) and an oversized line (4 MiB).
  std::string deep = R"({"verb":"stats","x":)";
  deep += std::string(1000, '[');
  EXPECT_THROW((void)service::ParseRequest(deep), service::ProtocolError);

  std::string big = R"({"verb":"stats","x":")";
  big += std::string(5u << 20, 'a');
  big += "\"}";
  EXPECT_THROW((void)service::ParseRequest(big), service::ProtocolError);
}

TEST(ProtocolTest, KeyTextIgnoresIdAndDeadline) {
  const Instance instance = ServiceInstance();
  JsonObject extra_a;
  extra_a["id"] = "a";
  extra_a["deadline_ms"] = 5000;
  const service::Request a =
      service::ParseRequest(MakeRequest("schedule", instance, std::move(extra_a)));
  JsonObject extra_b;
  extra_b["id"] = "b";
  const service::Request b =
      service::ParseRequest(MakeRequest("schedule", instance, std::move(extra_b)));
  EXPECT_EQ(service::RequestKeyText(a), service::RequestKeyText(b));

  JsonObject extra_c;
  extra_c["seed"] = 99;
  const service::Request c =
      service::ParseRequest(MakeRequest("schedule", instance, std::move(extra_c)));
  EXPECT_NE(service::RequestKeyText(a), service::RequestKeyText(c));
}

TEST(ProtocolTest, WithIdEscapesHostileIds) {
  const std::string line =
      service::WithId("a\"b", service::OkBody(JsonObject{}));
  const JsonValue parsed = JsonValue::Parse(line);
  EXPECT_EQ(parsed.GetString("id", ""), "a\"b");
  EXPECT_TRUE(parsed.GetBool("ok", false));
}

// --------------------------------------------------------- canonical hash --

TEST(InstanceHashTest, FormattingDoesNotChangeTheDigest) {
  const Instance instance = ServiceInstance();
  const Digest128 digest = HashInstance(instance);

  // Pretty-print and re-parse: semantically the same instance, textually
  // very different.
  const std::string pretty = InstanceToJson(instance).Dump(2);
  const Instance reparsed = InstanceFromString(pretty);
  EXPECT_EQ(HashInstance(reparsed), digest);

  Instance different = ServiceInstance(/*tasks=*/7);
  EXPECT_NE(HashInstance(different), digest);

  EXPECT_EQ(digest.ToHex().size(), 32u);
}

// ---------------------------------------------------------------- server --

TEST(RescheddServerTest, HandshakeCarriesBuildInfo) {
  ServerOptions options;
  options.workers = 1;
  PipeServer server(options);
  const JsonValue handshake = JsonValue::Parse(server.Handshake());
  EXPECT_EQ(handshake.GetInt("protocol", -1), service::kProtocolVersion);
  const JsonValue& build = handshake.At("reschedd");
  EXPECT_FALSE(build.GetString("version", "").empty());
  EXPECT_FALSE(build.GetString("git", "").empty());
  EXPECT_FALSE(build.GetString("build_type", "").empty());
}

TEST(RescheddServerTest, ScheduleRoundTripIsValidatedJson) {
  ServerOptions options;
  options.workers = 2;
  PipeServer server(options);
  const Instance instance = ServiceInstance();
  const std::string reply =
      server.SubmitAndWait(MakeRequest("schedule", instance));
  const JsonValue response = JsonValue::Parse(reply);
  ASSERT_TRUE(response.GetBool("ok", false)) << reply;
  EXPECT_EQ(response.GetString("id", ""), "r1");
  EXPECT_GT(response.GetInt("makespan", 0), 0);
  // The embedded schedule document round-trips through schedule_io.
  const Schedule schedule =
      ScheduleFromJson(instance, response.At("schedule"));
  EXPECT_EQ(schedule.makespan, response.GetInt("makespan", -1));
  // Wall-clock fields are stripped for bit-identity.
  EXPECT_FALSE(response.At("schedule").Contains("scheduling_seconds"));
  EXPECT_FALSE(response.At("schedule").Contains("floorplanning_seconds"));
}

TEST(RescheddServerTest, DuplicateSubmissionIsServedBitIdentically) {
  ServerOptions cached;
  cached.workers = 2;
  PipeServer server(cached);
  const Instance instance = ServiceInstance();

  JsonObject id1;
  id1["id"] = "a1";
  JsonObject id2;
  id2["id"] = "a2";
  const std::string first =
      server.SubmitAndWait(MakeRequest("schedule", instance, std::move(id1)));
  const std::string second =
      server.SubmitAndWait(MakeRequest("schedule", instance, std::move(id2)));
  EXPECT_EQ(StripId(first), StripId(second));
  EXPECT_EQ(server.Counters().cache_hits, 1u);

  // And the cache is not *inventing* the bytes: a cache-disabled server
  // recomputes the same body.
  ServerOptions uncached;
  uncached.workers = 1;
  uncached.result_cache = false;
  PipeServer plain(uncached);
  const std::string recomputed =
      plain.SubmitAndWait(MakeRequest("schedule", instance));
  EXPECT_EQ(StripId(recomputed), StripId(first));
  EXPECT_EQ(plain.Counters().cache_hits, 0u);
}

TEST(RescheddServerTest, ResponsesAreIdenticalAcrossWorkerCounts) {
  const Instance instance = ServiceInstance();
  // Distinct deterministic requests (different seeds); cache off so every
  // worker actually computes.
  std::vector<std::string> requests;
  for (int seed = 1; seed <= 6; ++seed) {
    JsonObject extra;
    extra["seed"] = seed;
    std::string id = "s";
    id += std::to_string(seed);
    extra["id"] = std::move(id);
    requests.push_back(MakeRequest("schedule", instance, std::move(extra)));
  }

  auto run = [&requests](std::size_t workers) {
    ServerOptions options;
    options.workers = workers;
    options.result_cache = false;
    PipeServer server(options);
    for (const std::string& r : requests) server.Send(r);
    std::vector<std::string> bodies;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      bodies.push_back(server.Receive());
    }
    std::sort(bodies.begin(), bodies.end());
    return bodies;
  };

  EXPECT_EQ(run(1), run(4));
}

TEST(RescheddServerTest, FullQueueRejectsWithOverloaded) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  PipeServer server(options);
  const Instance instance = ServiceInstance();

  // One budgeted (slow) request occupies the single worker for ~1s...
  JsonObject slow;
  slow["id"] = "slow";
  slow["algo"] = "par";
  slow["budget"] = 1.0;
  server.Send(MakeRequest("schedule", instance, std::move(slow)));
  // ...then a burst that must overflow the depth-1 queue.
  const int kBurst = 4;
  for (int i = 0; i < kBurst; ++i) {
    JsonObject extra;
    extra["id"] = "burst" + std::to_string(i);
    server.Send(MakeRequest("schedule", instance, std::move(extra)));
  }

  std::map<std::string, std::string> responses;
  for (int i = 0; i < kBurst + 1; ++i) {
    const std::string line = server.Receive();
    EXPECT_TRUE(responses.emplace(IdOf(line), line).second)
        << "duplicate response: " << line;
  }
  // Exactly one response per submission, nothing lost.
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kBurst) + 1);
  EXPECT_EQ(ErrorCode(responses.at("slow")), "");  // the slow one completed

  int overloaded = 0;
  int ok = 0;
  for (int i = 0; i < kBurst; ++i) {
    const std::string& line = responses.at("burst" + std::to_string(i));
    const std::string code = ErrorCode(line);
    if (code == service::kErrOverloaded) {
      ++overloaded;
    } else {
      EXPECT_EQ(code, "") << line;
      ++ok;
    }
  }
  EXPECT_GE(overloaded, 1);
  EXPECT_EQ(overloaded + ok, kBurst);
  EXPECT_EQ(server.Counters().rejected_overloaded,
            static_cast<std::uint64_t>(overloaded));
}

TEST(RescheddServerTest, DeadlineExpiryIsAWellFormedError) {
  ServerOptions options;
  options.workers = 1;
  PipeServer server(options);
  const Instance instance = ServiceInstance();

  JsonObject extra;
  extra["id"] = "late";
  extra["algo"] = "par";
  extra["budget"] = 30.0;  // would run far past the deadline
  extra["deadline_ms"] = 100;
  const std::string reply =
      server.SubmitAndWait(MakeRequest("schedule", instance, std::move(extra)));
  EXPECT_EQ(ErrorCode(reply), service::kErrDeadline) << reply;
  EXPECT_EQ(IdOf(reply), "late");
  EXPECT_EQ(server.Counters().deadline_expired, 1u);
}

TEST(RescheddServerTest, CancelUnwindsQueuedAndRunningRequests) {
  ServerOptions options;
  options.workers = 1;
  PipeServer server(options);
  const Instance instance = ServiceInstance();

  JsonObject running;
  running["id"] = "running";
  running["algo"] = "par";
  running["budget"] = 30.0;
  server.Send(MakeRequest("schedule", instance, std::move(running)));
  JsonObject queued;
  queued["id"] = "queued";
  server.Send(MakeRequest("schedule", instance, std::move(queued)));

  // Cancel the queued request first, then the running one; the control
  // plane answers inline while the worker is busy.
  const std::string ack1 = server.SubmitAndWait(
      R"({"verb":"cancel","id":"c1","target":"queued"})");
  EXPECT_TRUE(JsonValue::Parse(ack1).GetBool("cancelled", false)) << ack1;
  const std::string ack2 = server.SubmitAndWait(
      R"({"verb":"cancel","id":"c2","target":"running"})");
  EXPECT_TRUE(JsonValue::Parse(ack2).GetBool("cancelled", false)) << ack2;
  const std::string ack3 = server.SubmitAndWait(
      R"({"verb":"cancel","id":"c3","target":"nonexistent"})");
  EXPECT_FALSE(JsonValue::Parse(ack3).GetBool("cancelled", true)) << ack3;

  std::map<std::string, std::string> responses;
  for (int i = 0; i < 2; ++i) {
    const std::string line = server.Receive();
    responses.emplace(IdOf(line), line);
  }
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(ErrorCode(responses.at("running")), service::kErrCancelled);
  EXPECT_EQ(ErrorCode(responses.at("queued")), service::kErrCancelled);
  EXPECT_EQ(server.Counters().cancelled, 2u);
}

TEST(RescheddServerTest, GracefulShutdownDrainsAcceptedWork) {
  ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 16;
  PipeServer server(options);
  const Instance instance = ServiceInstance();

  const int kJobs = 5;
  for (int i = 0; i < kJobs; ++i) {
    JsonObject extra;
    extra["id"] = "j" + std::to_string(i);
    extra["seed"] = i + 1;
    server.Send(MakeRequest("schedule", instance, std::move(extra)));
  }
  server.Send(R"({"verb":"shutdown","id":"bye"})");

  std::vector<std::string> lines;
  for (;;) {
    std::string line;
    ASSERT_TRUE(server.Pipe().Receive(line));
    lines.push_back(line);
    if (IdOf(line) == "bye") break;
  }
  server.MarkStopped();

  // Every accepted request was answered ok, and the shutdown ack came last.
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kJobs) + 1);
  std::map<std::string, std::string> by_id;
  for (const std::string& line : lines) by_id.emplace(IdOf(line), line);
  for (int i = 0; i < kJobs; ++i) {
    const std::string id = "j" + std::to_string(i);
    ASSERT_TRUE(by_id.count(id)) << "lost response for " << id;
    EXPECT_EQ(ErrorCode(by_id.at(id)), "") << by_id.at(id);
  }
  EXPECT_EQ(IdOf(lines.back()), "bye");
  EXPECT_TRUE(JsonValue::Parse(lines.back()).GetBool("drained", false));
}

TEST(RescheddServerTest, StatsReportCountersAndBuild) {
  ServerOptions options;
  options.workers = 1;
  PipeServer server(options);
  const Instance instance = ServiceInstance();
  (void)server.SubmitAndWait(MakeRequest("schedule", instance));
  const std::string reply =
      server.SubmitAndWait(R"({"verb":"stats","id":"st"})");
  const JsonValue stats = JsonValue::Parse(reply);
  ASSERT_TRUE(stats.GetBool("ok", false)) << reply;
  EXPECT_EQ(stats.At("counters").GetInt("accepted", -1), 1);
  EXPECT_EQ(stats.At("counters").GetInt("completed_ok", -1), 1);
  EXPECT_FALSE(stats.At("build").GetString("version", "").empty());
  EXPECT_EQ(stats.GetInt("workers", -1), 1);
  EXPECT_TRUE(stats.Contains("result_cache"));
}

// ---------------------------------------------------------------- journal --

TEST(JournalTest, ReplayReproducesResponsesByteForByte) {
  const std::string path =
      ::testing::TempDir() + "resched_journal_test.jsonl";
  (void)::unlink(path.c_str());

  {
    ServerOptions options;
    options.workers = 2;
    options.journal_path = path;
    PipeServer server(options);
    const Instance instance = ServiceInstance();
    // Three deterministic requests (one a cache-hit duplicate), one
    // budgeted request and a stats probe; only the first three replay.
    JsonObject s1;
    s1["seed"] = 1;
    (void)server.SubmitAndWait(MakeRequest("schedule", instance, std::move(s1)));
    JsonObject s2;
    s2["seed"] = 1;
    (void)server.SubmitAndWait(MakeRequest("schedule", instance, std::move(s2)));
    JsonObject sim;
    sim["fault_rate"] = 0.05;
    sim["trials"] = 2;
    (void)server.SubmitAndWait(MakeRequest("simulate", instance, std::move(sim)));
    JsonObject budgeted;
    budgeted["algo"] = "par";
    budgeted["budget"] = 0.05;
    (void)server.SubmitAndWait(
        MakeRequest("schedule", instance, std::move(budgeted)));
    (void)server.SubmitAndWait(R"({"verb":"stats"})");
  }

  const service::ReplayOutcome outcome = service::ReplayJournal(path);
  EXPECT_EQ(outcome.requests, 6u);  // 5 + the fixture's shutdown
  EXPECT_EQ(outcome.replayed, 3u);
  EXPECT_EQ(outcome.matched, 3u);
  EXPECT_EQ(outcome.mismatched, 0u);
  EXPECT_TRUE(outcome.ok());
  (void)::unlink(path.c_str());
}

// ------------------------------------------------------------ robustness --

TEST(RescheddServerTest, DuplicateIdIsDedupedNotReExecuted) {
  ServerOptions options;
  options.workers = 2;
  PipeServer server(options);
  const Instance instance = ServiceInstance();

  JsonObject extra;
  extra["id"] = "dup-1";
  const std::string line =
      MakeRequest("schedule", instance, std::move(extra));
  const std::string first = server.SubmitAndWait(line);
  ASSERT_TRUE(JsonValue::Parse(first).GetBool("ok", false)) << first;

  // The byte-identical resend (what a reconnecting client does) is
  // answered from the completed ledger: same bytes, no second execution.
  const std::string again = server.SubmitAndWait(line);
  EXPECT_EQ(again, first);
  const service::ServiceCounters c = server.Counters();
  EXPECT_EQ(c.deduped, 1u);
  EXPECT_EQ(c.completed_ok, 1u);  // executed exactly once
}

TEST(RescheddServerTest, ZeroDeadlineIsShedWhileQueued) {
  ServerOptions options;
  options.workers = 1;
  PipeServer server(options);
  const Instance instance = ServiceInstance();

  // An explicit 0ms deadline is already expired on arrival; the worker
  // sheds it on Pop without running the scheduler or touching the cache.
  JsonObject extra;
  extra["id"] = "expired";
  extra["deadline_ms"] = 0;
  const std::string reply =
      server.SubmitAndWait(MakeRequest("schedule", instance, std::move(extra)));
  EXPECT_EQ(ErrorCode(reply), service::kErrDeadline) << reply;
  EXPECT_EQ(IdOf(reply), "expired");
  EXPECT_NE(reply.find("while queued"), std::string::npos) << reply;
  const service::ServiceCounters c = server.Counters();
  EXPECT_EQ(c.deadline_expired, 1u);
  EXPECT_EQ(c.completed_ok, 0u);
}

TEST(RescheddServerTest, WarmStartRestoresCacheAndDedupLedger) {
  const std::string path =
      ::testing::TempDir() + "resched_warm_start_test.jsonl";
  (void)::unlink(path.c_str());
  const Instance instance = ServiceInstance();

  JsonObject first_extra;
  first_extra["id"] = "w1";
  first_extra["seed"] = 3;
  const std::string line =
      MakeRequest("schedule", instance, std::move(first_extra));
  std::string original;
  {
    ServerOptions options;
    options.workers = 1;
    options.journal_path = path;
    PipeServer server(options);
    original = server.SubmitAndWait(line);
    ASSERT_TRUE(JsonValue::Parse(original).GetBool("ok", false)) << original;
  }

  // Restart over the same journal: the resent id is answered from the
  // restored dedup ledger and a *fresh* id with the same canonical key is
  // a result-cache hit — neither re-runs the scheduler.
  ServerOptions warm;
  warm.workers = 1;
  warm.journal_path = path;
  warm.warm_start_path = path;
  PipeServer server(warm);
  EXPECT_EQ(server.SubmitAndWait(line), original);

  JsonObject fresh_extra;
  fresh_extra["id"] = "w2";
  fresh_extra["seed"] = 3;
  const std::string fresh = server.SubmitAndWait(
      MakeRequest("schedule", instance, std::move(fresh_extra)));
  EXPECT_EQ(StripId(fresh), StripId(original));

  const service::ServiceCounters c = server.Counters();
  EXPECT_EQ(c.deduped, 1u);
  EXPECT_EQ(c.cache_hits, 1u);
  EXPECT_EQ(c.completed_ok, 1u);  // only w2's ledger entry; w1 never re-ran

  const std::string stats = server.SubmitAndWait(R"({"verb":"stats"})");
  const JsonValue doc = JsonValue::Parse(stats);
  ASSERT_TRUE(doc.Contains("recovery")) << stats;
  EXPECT_GE(doc.At("recovery").GetInt("cache_restored", 0), 1);
  EXPECT_GE(doc.At("recovery").GetInt("dedup_restored", 0), 1);
  EXPECT_EQ(doc.At("recovery").GetInt("torn_bytes", -1), 0);
  server.Shutdown();
  (void)::unlink(path.c_str());
}

// -------------------------------------------------------- socket transport --

TEST(SocketTransportTest, EndToEndOverAUnixSocket) {
  const std::string path =
      "/tmp/resched_svc_test_" + std::to_string(::getpid()) + ".sock";

  service::UnixSocketServerTransport transport(path);
  ServerOptions options;
  options.workers = 1;
  RescheddServer server(transport, options);
  std::thread serve([&server] { server.Serve(); });

  UnixSocket client = UnixSocket::Connect(path);
  SocketLineReader reader(client);
  std::string line;
  ASSERT_TRUE(reader.ReadLine(line));  // handshake greeting
  EXPECT_EQ(JsonValue::Parse(line).GetInt("protocol", -1),
            service::kProtocolVersion);

  const Instance instance = ServiceInstance();
  ASSERT_TRUE(client.SendAll(MakeRequest("schedule", instance) + "\n"));
  ASSERT_TRUE(reader.ReadLine(line));
  EXPECT_TRUE(JsonValue::Parse(line).GetBool("ok", false)) << line;

  ASSERT_TRUE(client.SendAll(R"({"verb":"shutdown"})" "\n"));
  ASSERT_TRUE(reader.ReadLine(line));
  EXPECT_EQ(JsonValue::Parse(line).GetString("verb", ""), "shutdown");
  serve.join();
  client.Close();
}

// ------------------------------------------------------ duplicate keys --

TEST(ProtocolTest, DuplicateKeysAreRejectedNotCoinFlipped) {
  // Hostile payload: which verb wins would depend on parser internals.
  const std::string hostile =
      R"({"verb":"schedule","verb":"stats","id":"h1"})";
  try {
    (void)service::ParseRequest(hostile);
    FAIL() << "duplicate verb key must not parse";
  } catch (const service::ProtocolError& e) {
    EXPECT_EQ(e.code(), service::kErrParse);
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
  // The strictness is opt-in: file-loading paths keep accepting documents
  // with repeated keys (first occurrence wins, as before).
  const JsonValue lax = JsonValue::Parse(R"({"a":1,"a":2})");
  EXPECT_EQ(lax.At("a").AsInt(), 1);
  JsonParseLimits strict;
  strict.reject_duplicate_keys = true;
  EXPECT_THROW((void)JsonValue::Parse(R"({"a":1,"a":2})", strict),
               JsonError);
}

// -------------------------------------------------------------- tenants --

TEST(ProtocolTest, TenantFieldParsesValidatesAndDefaults) {
  const service::Request absent =
      service::ParseRequest(R"({"verb":"stats"})");
  EXPECT_EQ(absent.tenant, service::kDefaultTenant);

  const service::Request named =
      service::ParseRequest(R"({"verb":"stats","tenant":"acme-7.b_x"})");
  EXPECT_EQ(named.tenant, "acme-7.b_x");

  EXPECT_TRUE(service::ValidTenantName("a"));
  EXPECT_TRUE(service::ValidTenantName(std::string(64, 'x')));
  EXPECT_FALSE(service::ValidTenantName(""));
  EXPECT_FALSE(service::ValidTenantName(std::string(65, 'x')));
  EXPECT_FALSE(service::ValidTenantName("has space"));
  EXPECT_FALSE(service::ValidTenantName("quote\""));

  for (const std::string bad :
       {R"({"verb":"stats","tenant":""})",
        R"({"verb":"stats","tenant":"bad tenant"})",
        R"({"verb":"stats","tenant":42})"}) {
    try {
      (void)service::ParseRequest(bad);
      FAIL() << bad;
    } catch (const service::ProtocolError& e) {
      EXPECT_EQ(e.code(), service::kErrBadRequest) << bad;
    }
  }
}

TEST(RescheddServerTest, TenantFieldDoesNotChangeResponseBodies) {
  ServerOptions options;
  options.workers = 1;
  PipeServer server(options);
  const Instance instance = ServiceInstance();

  const std::string plain = server.SubmitAndWait(
      MakeRequest("schedule", instance, {{"id", "t1"}, {"seed", 7}}));
  const std::string tenanted = server.SubmitAndWait(MakeRequest(
      "schedule", instance,
      {{"id", "t2"}, {"seed", 7}, {"tenant", "acme"}}));
  ASSERT_TRUE(JsonValue::Parse(plain).GetBool("ok", false)) << plain;
  // The tenant routes admission only; the response body (and the shared
  // result cache: "served":"cache" here proves cross-tenant reuse) is
  // byte-identical to the tenantless request.
  EXPECT_EQ(StripId(plain), StripId(tenanted));
}

// ----------------------------------------------------- weighted fairness --

using IntFairQueue = service::WeightedFairQueue<int>;

TEST(FairQueueTest, SingleTenantDegeneratesToFifo) {
  service::FairQueueOptions options;
  options.per_tenant_capacity = 3;
  IntFairQueue queue(options);
  EXPECT_EQ(queue.TryPush("default", 1), service::PushOutcome::kAccepted);
  EXPECT_EQ(queue.TryPush("default", 2), service::PushOutcome::kAccepted);
  EXPECT_EQ(queue.TryPush("default", 3), service::PushOutcome::kAccepted);
  EXPECT_EQ(queue.TryPush("default", 4), service::PushOutcome::kFull);
  int out = 0;
  for (const int expect : {1, 2, 3}) {
    ASSERT_TRUE(queue.Pop(out));
    EXPECT_EQ(out, expect);
    queue.OnDone("default");
  }
  queue.Close();
  EXPECT_EQ(queue.TryPush("default", 5), service::PushOutcome::kClosed);
  EXPECT_FALSE(queue.Pop(out));
}

TEST(FairQueueTest, WeightsGiveProportionalTurns) {
  service::FairQueueOptions options;
  options.weights["heavy"] = 2;
  IntFairQueue queue(options);
  // heavy enters the ring first; values encode tenant (100s = heavy).
  for (int i = 0; i < 6; ++i) queue.TryPush("heavy", 100 + i);
  for (int i = 0; i < 3; ++i) queue.TryPush("light", 200 + i);
  std::vector<int> order;
  int out = 0;
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(queue.Pop(out));
    order.push_back(out);
    queue.OnDone(out < 200 ? "heavy" : "light");
  }
  // DRR with w=2 vs w=1: two heavy per light while both are backlogged,
  // then the heavy tail drains.
  EXPECT_EQ(order, (std::vector<int>{100, 101, 200, 102, 103, 201, 104, 105,
                                     202}));
}

TEST(FairQueueTest, InflightCapDefersTheTurnWithoutConsumingIt) {
  service::FairQueueOptions options;
  options.per_tenant_inflight = 1;
  IntFairQueue queue(options);
  queue.TryPush("a", 1);
  queue.TryPush("a", 2);
  queue.TryPush("b", 10);
  int out = 0;
  ASSERT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 1);  // a's turn
  ASSERT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 10);  // a capped -> deferred, b serves
  queue.OnDone("a");
  ASSERT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 2);  // a's slot freed
}

TEST(FairQueueTest, DrainHandsOutExpiredItemsFirst) {
  service::FairQueueOptions options;
  IntFairQueue queue(options);
  queue.SetExpiryProbe([](const int& v) { return v < 0; });
  queue.TryPush("a", 1);
  queue.TryPush("a", -2);
  queue.TryPush("b", 3);
  queue.Close();
  int out = 0;
  bool expired = false;
  ASSERT_TRUE(queue.Pop(out, &expired));
  EXPECT_EQ(out, -2);  // jumped its FIFO position
  EXPECT_TRUE(expired);
  queue.OnDone("a");
  std::vector<int> rest;
  while (queue.Pop(out, &expired)) {
    EXPECT_FALSE(expired);
    rest.push_back(out);
  }
  std::sort(rest.begin(), rest.end());
  EXPECT_EQ(rest, (std::vector<int>{1, 3}));
}

TEST(BoundedQueueTest, DrainHandsOutExpiredItemsFirst) {
  BoundedQueue<int> queue(8);
  queue.SetExpiryProbe([](const int& v) { return v < 0; });
  queue.TryPush(1);
  queue.TryPush(2);
  queue.TryPush(-3);
  queue.TryPush(4);
  queue.Close();
  int out = 0;
  bool expired = false;
  ASSERT_TRUE(queue.Pop(out, &expired));
  EXPECT_EQ(out, -3);
  EXPECT_TRUE(expired);
  for (const int expect : {1, 2, 4}) {
    ASSERT_TRUE(queue.Pop(out, &expired));
    EXPECT_EQ(out, expect);
    EXPECT_FALSE(expired);
  }
  EXPECT_FALSE(queue.Pop(out, &expired));
}

// ------------------------------------------------------- client backoff --

/// A deliberately unreliable unix-socket daemon: greets, records the
/// request line, then drops the first `failures` connections without
/// answering. Connection `failures + 1` responds properly.
class FlakyServer {
 public:
  explicit FlakyServer(std::string path, std::size_t failures)
      : listener_(path), failures_(failures), thread_([this] { Run(); }) {}

  ~FlakyServer() {
    listener_.Close();
    thread_.join();
  }

  std::vector<std::string> Lines() {
    MutexLock lock(mu_);
    return lines_;
  }

 private:
  void Run() {
    for (;;) {
      std::optional<UnixSocket> sock = listener_.Accept();
      if (!sock.has_value()) return;
      (void)sock->SendAll("{\"greeting\":1}\n");
      SocketLineReader reader(*sock);
      std::string line;
      if (!reader.ReadLine(line)) continue;
      std::size_t served;
      {
        MutexLock lock(mu_);
        lines_.push_back(line);
        served = lines_.size();
      }
      if (served <= failures_) continue;  // hang up without answering
      const std::string id = JsonValue::Parse(line).GetString("id", "");
      (void)sock->SendAll("{\"id\":\"" + id + "\",\"ok\":true}\n");
    }
  }

  UnixListener listener_;
  const std::size_t failures_;
  Mutex mu_;
  std::vector<std::string> lines_ RESCHED_GUARDED_BY(mu_);
  std::thread thread_;
};

TEST(ClientBackoffTest, SleepsFollowTheCappedExponentialSequence) {
  const std::string path =
      "/tmp/resched_flaky_" + std::to_string(::getpid()) + "a.sock";
  FlakyServer server(path, 1000);  // never answers

  std::vector<double> sleeps;
  service::ClientOptions options;
  options.max_attempts = 5;
  options.backoff_initial_ms = 20.0;
  options.backoff_max_ms = 100.0;
  options.backoff_multiplier = 2.0;
  options.sleep_fn = [&sleeps](double ms) { sleeps.push_back(ms); };
  service::RescheddClient client(path, options);
  EXPECT_THROW((void)client.Submit(R"({"verb":"stats","id":"b1"})"),
               SocketError);
  // 4 retries after the first attempt: 20, 40, 80, then the 160 clamps.
  EXPECT_EQ(sleeps, (std::vector<double>{20.0, 40.0, 80.0, 100.0}));
}

TEST(ClientBackoffTest, ResubmittedLinesAreByteIdentical) {
  const std::string path =
      "/tmp/resched_flaky_" + std::to_string(::getpid()) + "b.sock";
  FlakyServer server(path, 2);  // two drops, then serve

  std::vector<double> sleeps;
  service::ClientOptions options;
  options.sleep_fn = [&sleeps](double ms) { sleeps.push_back(ms); };
  service::RescheddClient client(path, options);
  const std::string line = R"({"verb":"stats","id":"rq-9"})";
  const service::RescheddClient::Result result = client.Submit(line);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_EQ(result.reconnects, 2u);
  EXPECT_EQ(JsonValue::Parse(result.response).GetString("id", ""), "rq-9");

  // The retry path must resubmit the *same bytes* — that is what makes
  // the server-side dedup ledger able to recognize the resend.
  const std::vector<std::string> lines = server.Lines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], line);
  EXPECT_EQ(lines[1], line);
  EXPECT_EQ(lines[2], line);
  EXPECT_EQ(sleeps, (std::vector<double>{20.0, 40.0}));
}

// -------------------------------------------------------------- framing --

/// A connected StreamSocket pair over socketpair(2).
struct SocketPair {
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = StreamSocket(fds[0]);
    b = StreamSocket(fds[1]);
  }
  StreamSocket a, b;
};

TEST(FramingTest, HeaderLayoutIsMagicVersionLengthLe) {
  const std::string header = service::FrameHeader(0x01020304);
  ASSERT_EQ(header.size(), service::kFrameHeaderBytes);
  EXPECT_EQ(header[0], 'R');
  EXPECT_EQ(header[1], 'S');
  EXPECT_EQ(header[2], 'F');
  EXPECT_EQ(header[3], 1);
  EXPECT_EQ(static_cast<unsigned char>(header[4]), 0x04);  // little-endian
  EXPECT_EQ(static_cast<unsigned char>(header[5]), 0x03);
  EXPECT_EQ(static_cast<unsigned char>(header[6]), 0x02);
  EXPECT_EQ(static_cast<unsigned char>(header[7]), 0x01);
}

TEST(FramingTest, RoundTripsFramesAndReportsEofAtBoundary) {
  SocketPair pair;
  ASSERT_TRUE(service::WriteFrame(pair.a, "hello"));
  ASSERT_TRUE(service::WriteFrame(pair.a, ""));
  ASSERT_TRUE(service::WriteFrame(pair.a, std::string(100000, 'x')));
  pair.a.Close();

  service::FrameReader reader(pair.b);
  std::string payload;
  ASSERT_EQ(reader.Read(payload), service::FrameResult::kFrame);
  EXPECT_EQ(payload, "hello");
  ASSERT_EQ(reader.Read(payload), service::FrameResult::kFrame);
  EXPECT_EQ(payload, "");
  ASSERT_EQ(reader.Read(payload), service::FrameResult::kFrame);
  EXPECT_EQ(payload, std::string(100000, 'x'));
  EXPECT_EQ(reader.Read(payload), service::FrameResult::kEof);
}

TEST(FramingTest, RejectsBadMagicVersionTornAndOversizedFrames) {
  {
    SocketPair pair;
    ASSERT_TRUE(pair.a.SendAll(std::string("XSF\x01\x01\x00\x00\x00z", 9)));
    service::FrameReader reader(pair.b);
    std::string payload;
    EXPECT_EQ(reader.Read(payload), service::FrameResult::kBadMagic);
  }
  {
    SocketPair pair;
    ASSERT_TRUE(pair.a.SendAll(std::string("RSF\x02\x01\x00\x00\x00z", 9)));
    service::FrameReader reader(pair.b);
    std::string payload;
    EXPECT_EQ(reader.Read(payload), service::FrameResult::kBadVersion);
  }
  {
    SocketPair pair;
    // Header promises 10 bytes; only 3 arrive before EOF.
    ASSERT_TRUE(pair.a.SendAll(std::string("RSF\x01\x0a\x00\x00\x00", 8)));
    ASSERT_TRUE(pair.a.SendAll("abc"));
    pair.a.Close();
    service::FrameReader reader(pair.b);
    std::string payload;
    EXPECT_EQ(reader.Read(payload), service::FrameResult::kTorn);
  }
  {
    SocketPair pair;
    ASSERT_TRUE(service::WriteFrame(pair.a, std::string(64, 'y')));
    service::FrameReader reader(pair.b, /*max_frame_bytes=*/16);
    std::string payload;
    // The limit check happens on the *header*, before any allocation.
    EXPECT_EQ(reader.Read(payload), service::FrameResult::kTooLarge);
  }
}

// ------------------------------------------------------------- tcp e2e --

TEST(TcpTransportTest, EndToEndOverTcpWithFramedClient) {
  service::TcpServerTransport transport("127.0.0.1", 0);
  ASSERT_GT(transport.Port(), 0);
  ServerOptions options;
  options.workers = 1;
  RescheddServer server(transport, options);
  std::thread serve([&server] { server.Serve(); });

  // A garbage (unframed) connection must be dropped without poisoning the
  // daemon for the next, well-framed client.
  {
    StreamSocket raw = StreamSocket::ConnectTcp("127.0.0.1",
                                                transport.Port());
    ASSERT_TRUE(raw.SendAll("garbage!"));  // 8 bytes = one bad header
    raw.Close();
  }

  service::RescheddClient client(
      service::ClientEndpoint::Tcp("127.0.0.1", transport.Port()));
  const Instance instance = ServiceInstance();
  const service::RescheddClient::Result result = client.Submit(
      MakeRequest("schedule", instance, {{"id", "tcp1"}}));
  EXPECT_TRUE(JsonValue::Parse(result.response).GetBool("ok", false))
      << result.response;
  EXPECT_EQ(JsonValue::Parse(result.handshake).GetInt("protocol", -1),
            service::kProtocolVersion);

  const service::RescheddClient::Result bye =
      client.Submit(R"({"verb":"shutdown","id":"tcp2"})");
  EXPECT_EQ(JsonValue::Parse(bye.response).GetString("verb", ""), "shutdown");
  serve.join();
  EXPECT_GE(transport.FramingErrors(), 1u);
}

// -------------------------------------------------------------- metrics --

TEST(MetricsExportTest, RendersFamiliesWithEscapedLabels) {
  std::vector<service::MetricFamily> families;
  service::MetricFamily counter{
      "svc_requests_total", "Requests by tenant.", "counter", {}};
  service::MetricSample sample;
  sample.labels["tenant"] = "we\"ird\\name\n";
  sample.value = 3;
  counter.samples.push_back(sample);
  families.push_back(counter);

  const std::string text = service::RenderPrometheus(families);
  EXPECT_EQ(text,
            "# HELP svc_requests_total Requests by tenant.\n"
            "# TYPE svc_requests_total counter\n"
            "svc_requests_total{tenant=\"we\\\"ird\\\\name\\n\"} 3\n");
}

TEST(MetricsExportTest, HistogramRendersCumulativeBucketsSumAndCount) {
  service::LatencyHistogram histogram;
  histogram.Record(0.3);
  histogram.Record(3.0);
  histogram.Record(100000.0);  // lands in +Inf

  std::vector<service::MetricFamily> families;
  service::AppendHistogramFamily(families, "svc_wait_ms", "Queue wait.",
                                 {{"tenant", "a"}}, histogram.Take());
  const std::string text = service::RenderPrometheus(families);
  EXPECT_NE(text.find("svc_wait_ms_bucket{le=\"0.5\",tenant=\"a\"} 1\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("svc_wait_ms_bucket{le=\"4\",tenant=\"a\"} 2\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("svc_wait_ms_bucket{le=\"+Inf\",tenant=\"a\"} 3\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("svc_wait_ms_count{tenant=\"a\"} 3\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("svc_wait_ms_sum{tenant=\"a\"} "), std::string::npos)
      << text;

  // Interpolated quantiles stay inside the populated buckets.
  const double p50 = service::HistogramQuantileMs(histogram.Take(), 0.5);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 4.0);
}

TEST(MetricsExportTest, TextfileReplacementIsAtomicAndReportsErrors) {
  const std::string path =
      "/tmp/resched_metrics_" + std::to_string(::getpid()) + ".prom";
  std::string error;
  ASSERT_TRUE(service::WriteTextfileAtomic(path, "metric_a 1\n", &error))
      << error;
  ASSERT_TRUE(service::WriteTextfileAtomic(path, "metric_a 2\n", &error))
      << error;
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "metric_a 2\n");
  (void)::unlink(path.c_str());

  EXPECT_FALSE(service::WriteTextfileAtomic(
      "/nonexistent-dir/metrics.prom", "x 1\n", &error));
  EXPECT_FALSE(error.empty());
}

TEST(RescheddServerTest, StatsReportPerTenantCountersAndMetricsWriter) {
  const std::string metrics_path =
      "/tmp/resched_srv_metrics_" + std::to_string(::getpid()) + ".prom";
  ServerOptions options;
  options.workers = 1;
  options.tenant_weights["gold"] = 4;
  options.metrics_out_path = metrics_path;
  options.metrics_interval_ms = 50.0;
  {
    PipeServer server(options);
    const Instance instance = ServiceInstance();
    for (int i = 0; i < 3; ++i) {
      const std::string response = server.SubmitAndWait(MakeRequest(
          "schedule", instance,
          {{"id", "g" + std::to_string(i)}, {"tenant", "gold"}}));
      ASSERT_TRUE(JsonValue::Parse(response).GetBool("ok", false));
    }
    const std::string stats =
        server.SubmitAndWait(R"({"verb":"stats","id":"s"})");
    const JsonValue doc = JsonValue::Parse(stats);
    ASSERT_TRUE(doc.Contains("tenants")) << stats;
    const JsonValue& gold = doc.At("tenants").At("gold");
    EXPECT_EQ(gold.GetInt("admitted", -1), 3);
    // First run executes, repeats hit the result cache.
    EXPECT_EQ(gold.GetInt("exec", -1), 1);
    EXPECT_EQ(gold.GetInt("cache_hits", -1), 2);
    EXPECT_EQ(gold.GetInt("joined", -1), 0);
    ASSERT_TRUE(doc.Contains("metrics")) << stats;
    EXPECT_EQ(doc.At("metrics").GetString("path", ""), metrics_path);
  }
  // Serve() writes a final snapshot on the way out.
  std::ifstream in(metrics_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("# TYPE reschedd_tenant_requests_total counter"),
            std::string::npos);
  EXPECT_NE(
      content.find(
          "reschedd_tenant_requests_total{outcome=\"admitted\","
          "tenant=\"gold\"} 3"),
      std::string::npos)
      << content;
  (void)::unlink(metrics_path.c_str());
}


// ---------------------------------------------------------- singleflight --
// Copies of one cache key that reach a worker while the key's first copy
// is still solving park on that solve and get its body. The slow requests
// below are deterministic PA-R runs with a fixed iteration count and no
// time budget (so they are cacheable and join); each runs for well over a
// second in a release build, which is the lower bound these tests lean on.

constexpr std::int64_t kSlowIterations = 100000;

JsonObject Fields(const std::string& id, JsonObject extra = {}) {
  extra["id"] = id;
  return extra;
}

std::string SlowRequest(const std::string& id, JsonObject extra = {}) {
  extra["algo"] = "par";
  extra["iterations"] = kSlowIterations;
  return MakeRequest("schedule", ServiceInstance(12), Fields(id, std::move(extra)));
}

/// Collects responses by id, whatever order they arrive in.
class ResponseBook {
 public:
  explicit ResponseBook(PipeServer& server) : server_(server) {}

  std::string Await(const std::string& id) {
    for (;;) {
      const auto it = lines_.find(id);
      if (it != lines_.end()) {
        std::string line = it->second;
        lines_.erase(it);
        return line;
      }
      const std::string line = server_.Receive();
      EXPECT_EQ(lines_.count(IdOf(line)), 0u) << "answered twice: " << line;
      lines_.emplace(IdOf(line), line);
    }
  }

  JsonValue Stats() {
    const std::string id = "st" + std::to_string(++stats_calls_);
    server_.Send(R"({"verb":"stats","id":")" + id + R"("})");
    return JsonValue::Parse(Await(id));
  }

  /// Polls the stats verb until `joined` reaches `n`.
  void AwaitJoined(std::int64_t n) {
    for (int i = 0; i < 60000; ++i) {
      if (Stats().At("counters").GetInt("joined", -1) >= n) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "never saw " << n << " parked copies";
  }

 private:
  PipeServer& server_;
  std::map<std::string, std::string> lines_;
  int stats_calls_ = 0;
};

std::int64_t TenantCount(const JsonValue& stats, const char* field) {
  return stats.At("tenants").At(service::kDefaultTenant).GetInt(field, -1);
}

TEST(SingleflightTest, CopiesOfOneKeyShareOneSolve) {
  ServerOptions options;
  options.workers = 4;
  PipeServer server(options);
  ResponseBook book(server);
  JsonObject extra;
  extra["algo"] = "par";
  extra["iterations"] = 20000;  // long enough that most copies find it running
  const int kCopies = 8;
  for (int i = 0; i < kCopies; ++i) {
    server.Send(MakeRequest("schedule", ServiceInstance(12),
                            Fields("k" + std::to_string(i), extra)));
  }
  std::string first;
  for (int i = 0; i < kCopies; ++i) {
    const std::string line = book.Await("k" + std::to_string(i));
    ASSERT_TRUE(JsonValue::Parse(line).GetBool("ok", false)) << line;
    if (i == 0) first = StripId(line);
    EXPECT_EQ(StripId(line), first);
  }
  // Whatever the interleaving, one copy solves and every other one either
  // joined its flight or hit the cache it filled.
  const JsonValue stats = book.Stats();
  EXPECT_EQ(TenantCount(stats, "exec"), 1);
  EXPECT_EQ(TenantCount(stats, "joined") + TenantCount(stats, "cache_hits"),
            kCopies - 1);
  const service::ServiceCounters c = server.Counters();
  EXPECT_EQ(c.joined + c.cache_hits, static_cast<std::uint64_t>(kCopies - 1));
  EXPECT_EQ(c.completed_ok, static_cast<std::uint64_t>(kCopies));
}

TEST(SingleflightTest, CancelledLeaderHandsTheSolveToAFollower) {
  ServerOptions options;
  options.workers = 4;
  PipeServer server(options);
  ResponseBook book(server);
  JsonObject uncached;
  uncached["cache"] = false;
  server.Send(SlowRequest("fresh", std::move(uncached)));  // the reference
  server.Send(SlowRequest("lead"));
  server.Send(SlowRequest("f1"));
  server.Send(SlowRequest("f2"));
  book.AwaitJoined(2);
  server.Send(R"({"verb":"cancel","id":"c","target":"lead"})");
  EXPECT_TRUE(JsonValue::Parse(book.Await("c")).GetBool("cancelled", false));

  // The leader's error is its own; the followers get a real solve.
  EXPECT_EQ(ErrorCode(book.Await("lead")), service::kErrCancelled);
  const std::string f1 = book.Await("f1");
  const std::string f2 = book.Await("f2");
  ASSERT_TRUE(JsonValue::Parse(f1).GetBool("ok", false)) << f1;
  EXPECT_EQ(StripId(f2), StripId(f1));
  EXPECT_EQ(StripId(book.Await("fresh")), StripId(f1));
  const JsonValue stats = book.Stats();
  EXPECT_EQ(TenantCount(stats, "exec"), 2);  // the reference and the re-lead
  EXPECT_EQ(TenantCount(stats, "cancelled"), 1);
}

TEST(SingleflightTest, ParkedFollowerGetsItsOwnCancelOrDeadline) {
  ServerOptions options;
  options.workers = 4;
  PipeServer server(options);
  ResponseBook book(server);
  server.Send(SlowRequest("lead"));
  server.Send(SlowRequest("cancel-me"));
  JsonObject late;
  late["deadline_ms"] = 250;  // fires while parked behind the slow leader
  server.Send(SlowRequest("late", std::move(late)));
  server.Send(SlowRequest("ok"));
  book.AwaitJoined(3);
  server.Send(R"({"verb":"cancel","id":"c","target":"cancel-me"})");
  EXPECT_TRUE(JsonValue::Parse(book.Await("c")).GetBool("cancelled", false));

  const std::string lead = book.Await("lead");
  ASSERT_TRUE(JsonValue::Parse(lead).GetBool("ok", false)) << lead;
  EXPECT_EQ(StripId(book.Await("ok")), StripId(lead));
  EXPECT_EQ(ErrorCode(book.Await("cancel-me")), service::kErrCancelled);
  EXPECT_EQ(ErrorCode(book.Await("late")), service::kErrDeadline);
  const JsonValue stats = book.Stats();
  EXPECT_EQ(TenantCount(stats, "exec"), 1);
  EXPECT_EQ(TenantCount(stats, "joined"), 3);
}

TEST(SingleflightTest, UncacheableCopiesNeverJoin) {
  const auto run = [](ServerOptions options, JsonObject extra) {
    options.workers = 4;
    PipeServer server(options);
    ResponseBook book(server);
    extra["algo"] = "par";
    const int kCopies = 4;
    for (int i = 0; i < kCopies; ++i) {
      server.Send(MakeRequest("schedule", ServiceInstance(12),
                              Fields("u" + std::to_string(i), extra)));
    }
    for (int i = 0; i < kCopies; ++i) {
      const std::string line = book.Await("u" + std::to_string(i));
      EXPECT_TRUE(JsonValue::Parse(line).GetBool("ok", false)) << line;
    }
    const JsonValue stats = book.Stats();
    EXPECT_EQ(TenantCount(stats, "exec"), kCopies);
    EXPECT_EQ(stats.At("counters").GetInt("joined", -1), 0);
  };
  JsonObject opted_out;
  opted_out["iterations"] = 2000;
  opted_out["cache"] = false;
  run(ServerOptions{}, opted_out);
  JsonObject budgeted;
  budgeted["budget"] = 0.05;
  run(ServerOptions{}, budgeted);
  ServerOptions cache_off;
  cache_off.result_cache = false;
  JsonObject plain;
  plain["iterations"] = 2000;
  run(cache_off, plain);
}

TEST(SingleflightTest, ShutdownAnswersParkedFollowersBeforeTheAck) {
  ServerOptions options;
  options.workers = 4;
  PipeServer server(options);
  ResponseBook book(server);
  server.Send(SlowRequest("lead"));
  server.Send(SlowRequest("f1"));
  server.Send(SlowRequest("f2"));
  book.AwaitJoined(2);
  server.Send(R"({"verb":"shutdown","id":"bye"})");
  std::vector<std::string> ids;
  for (;;) {
    std::string line;
    ASSERT_TRUE(server.Pipe().Receive(line));
    ids.push_back(IdOf(line));
    if (ids.back() == "bye") break;
    EXPECT_EQ(ErrorCode(line), "") << line;
  }
  server.MarkStopped();
  std::sort(ids.begin(), ids.end() - 1);
  EXPECT_EQ(ids, (std::vector<std::string>{"f1", "f2", "lead", "bye"}));
}

TEST(SingleflightTest, ResentParkedFollowerIsDroppedAndAnsweredOnce) {
  ServerOptions options;
  options.workers = 4;
  PipeServer server(options);
  ResponseBook book(server);
  server.Send(SlowRequest("lead"));
  const std::string follower = SlowRequest("f1");
  server.Send(follower);
  book.AwaitJoined(1);
  server.Send(follower);  // a reconnecting client's resend
  EXPECT_EQ(book.Stats().At("counters").GetInt("deduped", -1), 1);

  const std::string lead = book.Await("lead");
  EXPECT_EQ(StripId(book.Await("f1")), StripId(lead));
  server.Send(R"({"verb":"shutdown","id":"bye"})");
  std::string line;
  while (server.Pipe().Receive(line)) {
    EXPECT_NE(IdOf(line), "f1") << "second answer for the resent id";
    if (IdOf(line) == "bye") break;
  }
  server.MarkStopped();
  EXPECT_EQ(server.Counters().completed_ok, 2u);
}

}  // namespace
}  // namespace resched
