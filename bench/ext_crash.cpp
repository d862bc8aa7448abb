// Extension: crash-safety of the reschedd journal + warm start.
//
// A fork-based chaos loop. Each cycle forks the daemon into a child
// process armed with a deterministic journal crash point (io_faults
// crash_at: after K cumulative journal bytes the process writes the
// partial prefix and _exit(137)s — the observable effect of kill -9
// landing mid-write), drives it with fresh deterministic schedule
// requests over the unix socket, then restarts it with --warm-start over
// the same journal and resubmits the same lines.
//
// Hard properties asserted every cycle, and once at the end:
//  * the recovery run answers every request ok — a torn journal tail
//    never wedges a restart;
//  * any response observed before the crash is reproduced byte-identically
//    after it (dedup ledger / result cache, not a re-run);
//  * across the whole multi-crash journal history, no id is ever executed
//    twice (at most one "served":"exec" record per id);
//  * the surviving journal replays with zero mismatches.
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "io/instance_io.hpp"
#include "service/client.hpp"
#include "service/journal.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "util/io_faults.hpp"

using namespace resched;
using namespace resched::bench;

namespace {

[[noreturn]] void Fatal(const std::string& message) {
  std::cerr << "FATAL: " << message << "\n";
  std::exit(1);
}

/// Runs the daemon in this (forked) process until shutdown or crash.
[[noreturn]] void ServerChild(const std::string& socket_path,
                              const std::string& journal_path,
                              std::int64_t crash_at, std::uint64_t seed) {
  if (crash_at >= 0) {
    IoFaultSpec spec;
    spec.seed = seed;
    spec.crash_at = crash_at;
    spec.enabled = true;
    io_faults::InstallForTest(spec);
  }
  try {
    service::UnixSocketServerTransport transport(socket_path);
    service::ServerOptions options;
    options.workers = 2;
    options.journal_path = journal_path;
    options.journal_sync = service::JournalSync::kAlways;
    options.warm_start_path = journal_path;
    service::RescheddServer server(transport, options);
    server.Serve();
  } catch (const std::exception& e) {
    std::cerr << "server child: " << e.what() << "\n";
    ::_exit(3);
  }
  ::_exit(0);
}

void WaitForSocket(const std::string& path) {
  struct stat st{};
  for (int i = 0; i < 500; ++i) {
    if (::stat(path.c_str(), &st) == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Fatal("server socket never appeared: " + path);
}

int WaitForChild(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) Fatal("waitpid failed");
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

struct CyclePhase {
  std::map<std::string, std::string> responses;  ///< id -> full line
  bool crashed = false;
};

/// Submits `lines` in order; stops at the first connection failure (the
/// planted crash). `strict` phases (recovery) treat any failure as fatal.
CyclePhase DriveServer(const std::string& socket_path,
                       const std::vector<std::string>& lines, bool strict) {
  service::ClientOptions copts;
  copts.max_attempts = strict ? 5 : 2;
  copts.backoff_initial_ms = 10.0;
  service::RescheddClient client(socket_path, copts);
  CyclePhase phase;
  for (const std::string& line : lines) {
    try {
      service::RescheddClient::Result result = client.Submit(line);
      const JsonValue doc = JsonValue::Parse(result.response);
      const std::string id = doc.GetString("id", "");
      if (strict && !doc.GetBool("ok", false)) {
        Fatal("recovery run answered not-ok: " + result.response);
      }
      phase.responses[id] = std::move(result.response);
    } catch (const SocketError& e) {
      if (strict) Fatal(std::string("recovery run lost the server: ") +
                        e.what());
      phase.crashed = true;  // the planted crash point fired
      break;
    }
  }
  return phase;
}

/// Asks the child to shut down gracefully; if the submit fails while the
/// child is still alive, kills it so the cycle cannot hang in waitpid.
void ShutdownServer(const std::string& socket_path, const std::string& id,
                    pid_t pid) {
  const CyclePhase bye = DriveServer(
      socket_path, {R"({"verb":"shutdown","id":")" + id + R"("})"},
      /*strict=*/false);
  if (bye.crashed) (void)::kill(pid, SIGKILL);
}

}  // namespace

int main() {
  const BenchConfig config = LoadConfig();
  const std::size_t cycles =
      std::max<std::size_t>(4, static_cast<std::size_t>(40.0 * config.scale));
  const std::size_t requests_per_cycle = 3;

  const std::string stamp = std::to_string(::getpid());
  const std::string socket_path = "/tmp/resched_ext_crash_" + stamp + ".sock";
  const std::string journal_path = "/tmp/resched_ext_crash_" + stamp + ".jsonl";
  (void)::unlink(journal_path.c_str());

  const Instance instance = Group(config, 10).front();

  std::cout << "=== Extension: journal crash safety (" << cycles
            << " kill-at-byte cycles, " << requests_per_cycle
            << " requests/cycle, suite scale " << config.scale << ") ===\n";
  PrintRow({"cycle", "crash_at", "crashed", "pre-crash", "recovered",
            "identical"});

  std::size_t total_crashes = 0;
  std::size_t total_precrash = 0;
  std::size_t total_identical = 0;
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    // Fresh deterministic work each cycle (new ids, new seeds), so the
    // crash lands on real executions, not cache hits.
    std::vector<std::string> lines;
    for (std::size_t k = 0; k < requests_per_cycle; ++k) {
      JsonObject request;
      request["verb"] = "schedule";
      request["id"] = StrFormat("c%zu-%zu", cycle, k);
      request["seed"] =
          static_cast<std::int64_t>(cycle * requests_per_cycle + k + 1);
      request["instance"] = InstanceToJson(instance);
      lines.push_back(JsonValue(std::move(request)).Dump(-1));
    }

    // Crash phase: the child dies after `crash_at` cumulative journal
    // bytes — sweeping the offset over cycles lands the kill inside meta,
    // request and response records alike.
    // One cycle journals ~30KB (3 ~8KB request records + responses +
    // meta); the sweep spreads crash points across that whole span so
    // meta, request and response appends all get hit over a full run.
    const std::int64_t crash_at =
        64 + static_cast<std::int64_t>((cycle * 7919) % 30000);
    pid_t pid = ::fork();
    if (pid < 0) Fatal("fork failed");
    if (pid == 0) ServerChild(socket_path, journal_path, crash_at, cycle);
    WaitForSocket(socket_path);
    CyclePhase before = DriveServer(socket_path, lines, /*strict=*/false);
    if (!before.crashed) {
      // Crash point past this cycle's journal bytes: finish gracefully
      // (or crash while journaling the shutdown ack — also legal).
      ShutdownServer(socket_path, "bye" + std::to_string(cycle), pid);
    }
    const int code = WaitForChild(pid);
    if (before.crashed && code != 137) {
      Fatal("crashed cycle exited with code " + std::to_string(code));
    }
    total_crashes += before.crashed ? 1 : 0;
    total_precrash += before.responses.size();

    // Recovery phase: warm start over the (possibly torn) journal; every
    // request must be answered ok, and every pre-crash response must be
    // reproduced byte for byte.
    pid = ::fork();
    if (pid < 0) Fatal("fork failed");
    if (pid == 0) ServerChild(socket_path, journal_path, -1, cycle);
    WaitForSocket(socket_path);
    const CyclePhase after = DriveServer(socket_path, lines, /*strict=*/true);
    if (after.responses.size() != requests_per_cycle) {
      Fatal("recovery run dropped responses");
    }
    std::size_t identical = 0;
    for (const auto& [id, body] : before.responses) {
      const auto it = after.responses.find(id);
      if (it == after.responses.end() || it->second != body) {
        Fatal("response for " + id + " not byte-identical after recovery");
      }
      ++identical;
    }
    total_identical += identical;
    ShutdownServer(socket_path, "done" + std::to_string(cycle), pid);
    if (WaitForChild(pid) != 0) Fatal("recovery server exited non-zero");

    PrintRow({std::to_string(cycle), std::to_string(crash_at),
              before.crashed ? "yes" : "no",
              std::to_string(before.responses.size()),
              std::to_string(after.responses.size()),
              std::to_string(identical)});
    csv_rows.push_back({std::to_string(cycle), std::to_string(crash_at),
                        before.crashed ? "1" : "0",
                        std::to_string(before.responses.size()),
                        std::to_string(after.responses.size()),
                        std::to_string(identical)});
  }

  // Whole-history invariants over the surviving journal.
  const service::JournalScan scan =
      service::ScanJournalFile(journal_path, /*truncate_torn=*/false);
  std::map<std::string, std::size_t> exec_count;
  for (const service::JournalRecord& record : scan.records) {
    if (record.kind == "response" && record.served == "exec") {
      if (++exec_count[record.id] > 1) {
        Fatal("id " + record.id + " executed more than once");
      }
    }
  }
  const service::ReplayOutcome outcome =
      service::ReplayJournal(journal_path);
  if (!outcome.ok()) {
    Fatal(std::to_string(outcome.mismatched) + " replay mismatch(es)");
  }

  WriteCsv(config, "crash",
           {"cycle", "crash_at", "crashed", "precrash_responses",
            "recovered_responses", "identical_responses"},
           csv_rows);
  std::cout << cycles << " cycles: " << total_crashes << " mid-write crashes, "
            << total_precrash << " pre-crash responses all reproduced ("
            << total_identical << " byte-identical), " << exec_count.size()
            << " ids executed exactly once, replay " << outcome.matched << "/"
            << outcome.replayed << " matched (" << outcome.torn_bytes
            << " torn bytes skipped)\n";
  (void)::unlink(journal_path.c_str());
  (void)::unlink(socket_path.c_str());
  return 0;
}
