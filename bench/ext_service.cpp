// Extension: reschedd service throughput. A closed-loop client drives the
// in-process pipe transport with a fixed window of outstanding schedule
// requests (a saturating load below the admission limit) and measures
// end-to-end request latency and throughput for workers x result-cache
// configurations, and how each configuration served the requests: solved
// (`exec`), parked on another copy's in-flight solve (`joined`), or taken
// from the result cache (`cache_hits`).
//
// Two hard properties are asserted, not just measured:
//  * zero drops — every submitted request gets exactly one ok response
//    (the queue is sized above the window, so admission never rejects);
//  * bit-identity — the multiset of response bodies (ids stripped) is
//    identical across every configuration, workers=1 or 4, cache on or
//    off. A mismatch is a determinism regression, and the bench fails.
#include <algorithm>
#include <iostream>
#include <map>
#include <thread>

#include "bench_common.hpp"
#include "io/instance_hash.hpp"
#include "io/instance_io.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "util/build_info.hpp"
#include "util/timer.hpp"

using namespace resched;
using namespace resched::bench;

namespace {

struct LoadResult {
  double total_seconds = 0.0;
  std::vector<double> latencies_ms;
  std::uint64_t cache_hits = 0;
  std::uint64_t joined = 0;
  std::int64_t exec = 0;
  std::vector<std::string> bodies;  ///< sorted, ids stripped
};

/// Digest of the sorted body multiset: the CSV's bit-identity witness.
std::string BodiesDigest(const std::vector<std::string>& bodies) {
  std::string all;
  for (const std::string& body : bodies) {
    all += body;
    all += '\n';
  }
  return HashCanonicalText(all).ToHex();
}

std::string StripId(const std::string& line) {
  const std::size_t comma = line.find(',');
  std::string body = "{";
  body += line.substr(comma + 1);
  return body;
}

/// Runs the full request list through a fresh server with `window`
/// requests outstanding at any time; returns latency and identity data.
LoadResult RunLoad(const std::vector<std::string>& lines, std::size_t workers,
                   bool cache, std::size_t window) {
  service::PipeTransport pipe;
  service::ServerOptions options;
  options.workers = workers;
  options.result_cache = cache;
  options.queue_capacity = lines.size() + window;  // never overloads
  service::RescheddServer server(pipe, options);
  std::thread serve([&server] { server.Serve(); });
  std::string line;
  if (!pipe.Receive(line)) {
    std::cerr << "FATAL: no handshake\n";
    std::exit(1);
  }

  LoadResult result;
  std::map<std::string, double> sent_at;
  WallTimer clock;
  std::size_t next = 0;
  std::size_t done = 0;
  while (done < lines.size()) {
    while (next < lines.size() && next - done < window) {
      std::string id = "b";
      id += std::to_string(next);
      sent_at[std::move(id)] = clock.ElapsedSeconds();
      pipe.Send(lines[next]);
      ++next;
    }
    if (!pipe.Receive(line)) {
      std::cerr << "FATAL: server closed mid-run\n";
      std::exit(1);
    }
    const JsonValue response = JsonValue::Parse(line);
    const std::string id = response.GetString("id", "");
    const auto started = sent_at.find(id);
    if (started == sent_at.end() || !response.GetBool("ok", false)) {
      std::cerr << "FATAL: dropped/duplicated/failed response: " << line
                << "\n";
      std::exit(1);
    }
    result.latencies_ms.push_back(
        (clock.ElapsedSeconds() - started->second) * 1e3);
    sent_at.erase(started);
    result.bodies.push_back(StripId(line));
    ++done;
  }
  result.total_seconds = clock.ElapsedSeconds();

  pipe.Send("{\"verb\":\"stats\",\"id\":\"stats\"}");
  if (!pipe.Receive(line)) {
    std::cerr << "FATAL: no stats response\n";
    std::exit(1);
  }
  result.exec = JsonValue::Parse(line)
                    .At("tenants")
                    .At(service::kDefaultTenant)
                    .GetInt("exec", -1);

  pipe.Send("{\"verb\":\"shutdown\"}");
  while (pipe.Receive(line)) {
    if (line.find("\"verb\":\"shutdown\"") != std::string::npos) break;
  }
  serve.join();
  if (!sent_at.empty()) {
    std::cerr << "FATAL: " << sent_at.size() << " request(s) unanswered\n";
    std::exit(1);
  }
  result.cache_hits = server.Counters().cache_hits;
  result.joined = server.Counters().joined;
  std::sort(result.bodies.begin(), result.bodies.end());
  return result;
}

}  // namespace

int main() {
  const BenchConfig config = LoadConfig();
  const std::size_t num_requests = std::max<std::size_t>(
      24, static_cast<std::size_t>(120.0 * config.scale));
  const std::size_t window = 8;

  // A request mix with deliberate duplicates: 8 instances x 3 seeds, so a
  // result cache sees real hit opportunities once the working set repeats.
  std::vector<Instance> instances = Group(config, 20);
  const std::vector<Instance> larger = Group(config, 40);
  instances.resize(std::min<std::size_t>(instances.size(), 4));
  instances.insert(instances.end(), larger.begin(),
                   larger.begin() +
                       static_cast<std::ptrdiff_t>(
                           std::min<std::size_t>(larger.size(), 4)));
  std::vector<std::string> lines;
  lines.reserve(num_requests);
  for (std::size_t i = 0; i < num_requests; ++i) {
    JsonObject request;
    request["verb"] = "schedule";
    std::string id = "b";
    id += std::to_string(i);
    request["id"] = std::move(id);
    request["instance"] = InstanceToJson(instances[i % instances.size()]);
    request["seed"] = static_cast<std::int64_t>(1 + i % 3);
    lines.push_back(JsonValue(std::move(request)).Dump(-1));
  }

  const BuildInfo& build_info = GetBuildInfo();
  std::string build = build_info.version;
  build += "+";
  build += build_info.git;
  std::cout << "=== Extension: reschedd throughput (" << num_requests
            << " requests, window " << window << ", suite scale "
            << config.scale << ") ===\n";
  PrintRow({"workers", "cache", "total[s]", "req/s", "p50[ms]", "p95[ms]",
            "exec", "joined", "hits"});

  std::vector<std::vector<std::string>> csv_rows;
  std::vector<std::string> reference_bodies;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    for (const bool cache : {false, true}) {
      const LoadResult r = RunLoad(lines, workers, cache, window);
      if (reference_bodies.empty()) {
        reference_bodies = r.bodies;
      } else if (r.bodies != reference_bodies) {
        std::cerr << "FATAL: response bodies differ (workers=" << workers
                  << ", cache=" << (cache ? "on" : "off")
                  << ") — determinism regression\n";
        return 1;
      }
      const double rps =
          static_cast<double>(num_requests) / r.total_seconds;
      const double p50 = Percentile(r.latencies_ms, 50.0);
      const double p95 = Percentile(r.latencies_ms, 95.0);
      PrintRow({std::to_string(workers), cache ? "on" : "off",
                StrFormat("%.3f", r.total_seconds), StrFormat("%.1f", rps),
                StrFormat("%.2f", p50), StrFormat("%.2f", p95),
                std::to_string(r.exec), std::to_string(r.joined),
                std::to_string(r.cache_hits)});
      csv_rows.push_back({std::to_string(workers), cache ? "on" : "off",
                          std::to_string(num_requests),
                          std::to_string(window),
                          StrFormat("%.4f", r.total_seconds),
                          StrFormat("%.2f", rps), StrFormat("%.3f", p50),
                          StrFormat("%.3f", p95), std::to_string(r.exec),
                          std::to_string(r.joined),
                          std::to_string(r.cache_hits),
                          BodiesDigest(r.bodies), build});
    }
  }

  WriteCsv(config, "service",
           {"workers", "cache", "requests", "window", "total_s",
            "throughput_rps", "p50_ms", "p95_ms", "exec", "joined",
            "cache_hits", "bodies_digest", "build"},
           csv_rows);
  std::cout << "zero drops, bodies bit-identical across all "
            << csv_rows.size() << " configurations\n";
  return 0;
}
