// resched_cli — command-line front end for the whole library.
//
//   resched_cli gen      --tasks N [--seed S] [--cores C] [--recfreq-mbps M]
//                        [--share-prob P] [--out instance.json]
//   resched_cli schedule --instance f.json
//                        --algo pa|par|pals|is1|is5|grid|allsw
//                        [--budget SECONDS] [--threads T] [--seed S]
//                        [--frames K] [--slots N (grid)] [--module-reuse]
//                        [--no-balancing]
//                        [--no-floorplan] [--metrics]
//                        [--format summary|table|gantt|json|svg]
//                        [--out schedule.json] [--svg-out chart.svg]
//                        [--floorplan-svg-out fp.svg]
//   resched_cli import-stg --stg f.stg [--cores C] [--recfreq-mbps M]
//                        [--speedup S] [--hw-impls K] [--out instance.json]
//   resched_cli validate --instance f.json --schedule s.json
//   resched_cli simulate --instance f.json --schedule s.json
//                        [--faults fs.json | --fault-rate R]
//                        [--trials N] [--policy retry|swfallback|suffix]
//                        [--seed S] [--jitter J] [--scenario-out fs.json]
//   resched_cli info     --instance f.json
//   resched_cli dot      --instance f.json
//   resched_cli serve    (--socket PATH | --port N | --stdio) [--workers N]
//                        [--queue N] [--no-result-cache]
//                        [--no-floorplan-cache] [--journal f.jsonl]
//                        [--tenant-weights a=4,b=1] [--tenant-inflight N]
//                        [--metrics-out f.prom] [--metrics-interval-ms MS]
//   resched_cli submit   (--print | --socket PATH | --tcp HOST:PORT)
//                        [--verb V] [--id ID] [--tenant NAME]
//                        [--instance f.json] [--algo A] [--seed S]
//                        [--iterations N] [--budget SEC] [--deadline-ms MS]
//                        [--no-cache] [--trials N] [--fault-rate R]
//                        [--policy P] [--jitter J] [--target ID]
//   resched_cli route    (--socket PATH | --port N | --stdio)
//                        --backends host:port[:weight],...
//                        [--attempts N] [--probe-interval-ms MS]
//                        [--route-queue N] [--vnodes N]
//                        [--metrics-out f.prom] [--metrics-interval-ms MS]
//   resched_cli replay   --journal f.jsonl
//   resched_cli --version
//
// Exit status: 0 on success (and, for validate, a valid schedule; for
// simulate, all trials surviving with valid executed schedules; for
// submit, an ok response; for replay, zero mismatches), 1 on a
// validation failure, 2 on usage errors.
#include <fstream>
#include <iostream>

#include "arch/zynq.hpp"
#include "baseline/fixed_grid.hpp"
#include "baseline/isk_scheduler.hpp"
#include "baseline/reference.hpp"
#include "core/local_search.hpp"
#include "core/pa_scheduler.hpp"
#include "core/randomized.hpp"
#include "io/fault_io.hpp"
#include "io/instance_io.hpp"
#include "io/schedule_io.hpp"
#include "io/stg_io.hpp"
#include "sched/gantt.hpp"
#include "sched/svg.hpp"
#include "sched/metrics.hpp"
#include "router/router.hpp"
#include "sched/validator.hpp"
#include "service/client.hpp"
#include "service/journal.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "sim/executor.hpp"
#include "taskgraph/analysis.hpp"
#include "taskgraph/dot.hpp"
#include "taskgraph/replicate.hpp"
#include "taskgraph/generator.hpp"
#include "util/build_info.hpp"
#include "util/flags.hpp"
#include "util/socket.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"

namespace resched::cli {
namespace {

int Usage() {
  std::cerr <<
      "usage:\n"
      "  resched_cli gen      --tasks N [--seed S] [--cores C]\n"
      "                       [--recfreq-mbps M] [--share-prob P]\n"
      "                       [--out instance.json]\n"
      "  resched_cli schedule --instance f.json --algo "
      "pa|par|pals|is1|is5|grid|allsw\n"
      "                       [--frames K] [--metrics]\n"
      "                       [--budget SEC] [--threads T] [--seed S]\n"
      "                       [--module-reuse] [--no-balancing]\n"
      "                       [--no-floorplan]\n"
      "                       [--format summary|table|gantt|json|svg]\n"
      "                       [--out schedule.json] [--svg-out f.svg]\n"
      "                       [--floorplan-svg-out f.svg]\n"
      "  resched_cli import-stg --stg f.stg [--cores C]\n"
      "                       [--recfreq-mbps M] [--speedup S]\n"
      "                       [--hw-impls K] [--out instance.json]\n"
      "  resched_cli validate --instance f.json --schedule s.json\n"
      "  resched_cli simulate --instance f.json --schedule s.json\n"
      "                       [--faults fs.json | --fault-rate R]\n"
      "                       [--trials N] [--policy retry|swfallback|suffix]\n"
      "                       [--seed S] [--jitter J]\n"
      "                       [--scenario-out fs.json]\n"
      "  resched_cli info     --instance f.json\n"
      "  resched_cli dot      --instance f.json\n"
      "  resched_cli serve    (--socket PATH | --port N | --stdio)\n"
      "                       [--host H] [--workers N]\n"
      "                       [--queue N] [--no-result-cache]\n"
      "                       [--no-floorplan-cache] [--journal f.jsonl]\n"
      "                       [--journal-sync none|batch|always]\n"
      "                       [--warm-start f.jsonl]\n"
      "                       [--tenant-weights a=4,b=1]\n"
      "                       [--tenant-inflight N]\n"
      "                       [--metrics-out f.prom]\n"
      "                       [--metrics-interval-ms MS]\n"
      "  resched_cli submit   (--print | --socket PATH | --tcp HOST:PORT)\n"
      "                       [--verb V] [--id ID] [--tenant NAME]\n"
      "                       [--instance f.json] [--algo A] [--seed S]\n"
      "                       [--iterations N] [--budget SEC]\n"
      "                       [--deadline-ms MS] [--no-cache] [--trials N]\n"
      "                       [--fault-rate R] [--policy P] [--jitter J]\n"
      "                       [--target ID] [--retries N] [--backoff-ms MS]\n"
      "  resched_cli route    (--socket PATH | --port N | --stdio)\n"
      "                       --backends host:port[:weight],...\n"
      "                       [--host H] [--attempts N]\n"
      "                       [--probe-interval-ms MS] [--route-queue N]\n"
      "                       [--vnodes N] [--metrics-out f.prom]\n"
      "                       [--metrics-interval-ms MS]\n"
      "  resched_cli replay   --journal f.jsonl\n"
      "  resched_cli --version\n";
  return 2;
}

Instance LoadInstanceFlag(const Flags& flags) {
  const std::string path = flags.GetString("instance", "");
  if (path.empty()) throw FlagError("--instance is required");
  return LoadInstance(path);
}

int CmdGen(const Flags& flags) {
  GeneratorOptions gen;
  gen.num_tasks = static_cast<std::size_t>(flags.GetInt("tasks", 20));
  gen.share_prob = flags.GetDouble("share-prob", gen.share_prob);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const auto cores = static_cast<std::size_t>(flags.GetInt("cores", 2));
  const double mbps = flags.GetDouble("recfreq-mbps", 32.0);

  const Platform platform =
      MakeZedBoard(mbps * 8e6).WithProcessors(cores);
  const Instance instance = GenerateInstance(
      platform, gen, seed, StrFormat("gen_n%zu_s%llu", gen.num_tasks,
                                     static_cast<unsigned long long>(seed)));

  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::cout << InstanceToString(instance) << "\n";
  } else {
    SaveInstance(instance, out);
    std::cout << "wrote " << out << " (" << instance.graph.NumTasks()
              << " tasks, " << instance.graph.NumEdges() << " edges)\n";
  }
  return 0;
}

int CmdSchedule(const Flags& flags) {
  Instance instance = LoadInstanceFlag(flags);
  const auto frames =
      static_cast<std::size_t>(flags.GetInt("frames", 1));
  if (frames > 1) {
    UnrollOptions unroll;
    unroll.frames = frames;
    instance = UnrollPeriodic(instance, unroll);
    std::cerr << "unrolled to " << frames << " frames ("
              << instance.graph.NumTasks() << " tasks)\n";
  }
  const std::string algo = flags.GetString("algo", "pa");
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));

  PaOptions pa_options;
  pa_options.module_reuse = flags.GetBool("module-reuse", false);
  pa_options.sw_balancing = !flags.GetBool("no-balancing", false);
  pa_options.run_floorplan = !flags.GetBool("no-floorplan", false);
  pa_options.seed = seed;

  Schedule schedule;
  if (algo == "pa") {
    schedule = SchedulePa(instance, pa_options);
  } else if (algo == "par") {
    PaROptions par_options;
    par_options.base = pa_options;
    par_options.time_budget_seconds = flags.GetDouble("budget", 1.0);
    par_options.threads =
        static_cast<std::size_t>(flags.GetInt("threads", 1));
    par_options.seed = seed;
    const PaRResult result = SchedulePaR(instance, par_options);
    schedule = result.best;
    std::cerr << "PA-R: " << result.iterations << " iterations in "
              << StrFormat("%.3f", result.seconds) << " s\n";
  } else if (algo == "pals") {
    PaLsOptions ls_options;
    ls_options.base = pa_options;
    ls_options.time_budget_seconds = flags.GetDouble("budget", 1.0);
    ls_options.seed = seed;
    const PaRResult result = SchedulePaLs(instance, ls_options);
    schedule = result.best;
    std::cerr << "PA-LS: " << result.iterations << " iterations in "
              << StrFormat("%.3f", result.seconds) << " s\n";
  } else if (algo == "grid") {
    FixedGridOptions grid;
    grid.num_slots = static_cast<std::size_t>(flags.GetInt("slots", 0));
    grid.run_floorplan = !flags.GetBool("no-floorplan", false);
    schedule = ScheduleFixedGrid(instance, grid);
  } else if (algo == "is1" || algo == "is5") {
    IskOptions isk;
    isk.k = algo == "is1" ? 1 : 5;
    isk.module_reuse = flags.GetBool("module-reuse", true);
    isk.run_floorplan = !flags.GetBool("no-floorplan", false);
    isk.time_budget_seconds = flags.GetDouble("budget", 0.0);
    schedule = ScheduleIsk(instance, isk);
  } else if (algo == "allsw") {
    schedule = ScheduleAllSoftware(instance);
  } else {
    throw FlagError("unknown --algo: " + algo);
  }

  const ValidationResult check = ValidateSchedule(instance, schedule);
  if (!check.ok()) {
    std::cerr << "INTERNAL ERROR — scheduler emitted an invalid schedule:\n"
              << check.Summary() << "\n";
    return 1;
  }

  if (flags.GetBool("metrics", false)) {
    std::cerr << ComputeMetrics(instance, schedule).ToString() << "\n";
  }
  if (frames > 1) {
    std::cerr << StrFormat(
        "throughput: %.1f us/frame over %zu frames\n",
        ThroughputInterval(schedule.makespan, frames), frames);
  }

  const std::string format = flags.GetString("format", "summary");
  if (format == "summary") {
    std::cout << ScheduleSummary(instance, schedule) << "\n";
  } else if (format == "table") {
    std::cout << ScheduleTable(instance, schedule);
  } else if (format == "gantt") {
    std::cout << ScheduleSummary(instance, schedule) << "\n"
              << GanttChart(instance, schedule);
  } else if (format == "json") {
    std::cout << ScheduleToString(instance, schedule) << "\n";
  } else if (format == "svg") {
    std::cout << GanttSvg(instance, schedule);
  } else {
    throw FlagError("unknown --format: " + format);
  }

  const std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    SaveSchedule(instance, schedule, out);
    std::cerr << "wrote " << out << "\n";
  }
  const std::string svg_out = flags.GetString("svg-out", "");
  if (!svg_out.empty()) {
    std::ofstream f(svg_out);
    f << GanttSvg(instance, schedule);
    std::cerr << "wrote " << svg_out << "\n";
  }
  const std::string fp_out = flags.GetString("floorplan-svg-out", "");
  if (!fp_out.empty()) {
    std::ofstream f(fp_out);
    f << FloorplanSvg(instance, schedule);
    std::cerr << "wrote " << fp_out << "\n";
  }
  return 0;
}

int CmdValidate(const Flags& flags) {
  const Instance instance = LoadInstanceFlag(flags);
  const std::string path = flags.GetString("schedule", "");
  if (path.empty()) throw FlagError("--schedule is required");
  const Schedule schedule = LoadSchedule(instance, path);
  const ValidationResult check = ValidateSchedule(instance, schedule);
  std::cout << check.Summary() << "\n";
  return check.ok() ? 0 : 1;
}

int CmdSimulate(const Flags& flags) {
  const Instance instance = LoadInstanceFlag(flags);
  const std::string schedule_path = flags.GetString("schedule", "");
  if (schedule_path.empty()) throw FlagError("--schedule is required");
  const Schedule schedule = LoadSchedule(instance, schedule_path);

  const std::string faults_path = flags.GetString("faults", "");
  const double fault_rate = flags.GetDouble("fault-rate", -1.0);
  if (!faults_path.empty() && fault_rate >= 0.0) {
    throw FlagError("--faults and --fault-rate are mutually exclusive");
  }
  const auto trials =
      static_cast<std::size_t>(flags.GetInt("trials", 1));
  if (trials == 0) throw FlagError("--trials must be positive");
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const double jitter = flags.GetDouble("jitter", 0.0);

  sim::SimOptions options;
  options.task_jitter = jitter;
  options.reconf_jitter = jitter;
  options.recovery.policy =
      ParseRecoveryPolicy(flags.GetString("policy", "retry"));

  sim::FaultScenario fixed_scenario;
  if (!faults_path.empty()) fixed_scenario = LoadFaultScenario(faults_path);

  std::size_t survived = 0;
  std::size_t invalid = 0;
  std::vector<double> stretches;
  sim::RecoveryStats totals;
  const std::string scenario_out = flags.GetString("scenario-out", "");
  for (std::size_t i = 0; i < trials; ++i) {
    sim::FaultScenario scenario = fixed_scenario;
    if (fault_rate >= 0.0) {
      scenario = sim::GenerateFaultScenario(
          schedule, sim::UniformFaultRates(fault_rate),
          DeriveSeed(kFaultSeedStream ^ seed, i));
    }
    if (i == 0 && !scenario_out.empty()) {
      SaveFaultScenario(scenario, scenario_out);
      std::cerr << "wrote " << scenario_out << "\n";
    }
    options.faults = scenario;
    options.seed = DeriveSeed(kJitterSeedStream ^ seed, i);
    try {
      const sim::SimResult r = sim::Simulate(instance, schedule, options);
      ValidationOptions vopt;
      vopt.executed = true;
      vopt.outages = sim::OutagesFromScenario(scenario);
      const ValidationResult check =
          ValidateSchedule(instance, r.executed, vopt);
      if (!check.ok()) {
        ++invalid;
        std::cerr << "trial " << i << ": executed schedule invalid:\n"
                  << check.Summary() << "\n";
        continue;
      }
      ++survived;
      stretches.push_back(r.stretch);
      totals.reconf_retries += r.recovery.reconf_retries;
      totals.task_restarts += r.recovery.task_restarts;
      totals.migrations += r.recovery.migrations;
      totals.rescheduled_tasks += r.recovery.rescheduled_tasks;
      totals.abandoned_regions += r.recovery.abandoned_regions;
    } catch (const InstanceError& e) {
      // Recovery deadlock (no software fallback left) — the trial is lost.
      std::cerr << "trial " << i << ": " << e.what() << "\n";
    }
  }

  std::cout << StrFormat(
      "simulate: %s schedule, %zu trial(s), policy %s, jitter %.2f\n",
      schedule.algorithm.c_str(), trials,
      ToString(options.recovery.policy), jitter);
  std::cout << StrFormat("survival: %.1f%% (%zu/%zu)\n",
                         100.0 * static_cast<double>(survived) /
                             static_cast<double>(trials),
                         survived, trials);
  if (!stretches.empty()) {
    double sum = 0.0;
    for (const double s : stretches) sum += s;
    std::cout << StrFormat(
        "stretch:  mean %.3f  p95 %.3f\n",
        sum / static_cast<double>(stretches.size()),
        Percentile(stretches, 95.0));
  }
  std::cout << StrFormat(
      "recovery: retries %zu  restarts %zu  migrations %zu  "
      "rescheduled %zu  regions-lost %zu\n",
      totals.reconf_retries, totals.task_restarts, totals.migrations,
      totals.rescheduled_tasks, totals.abandoned_regions);
  return survived == trials && invalid == 0 ? 0 : 1;
}

int CmdImportStg(const Flags& flags) {
  const std::string path = flags.GetString("stg", "");
  if (path.empty()) throw FlagError("--stg is required");
  const auto cores = static_cast<std::size_t>(flags.GetInt("cores", 2));
  const double mbps = flags.GetDouble("recfreq-mbps", 32.0);
  const Platform platform =
      MakeZedBoard(mbps * 8e6).WithProcessors(cores);
  StgOptions stg;
  stg.speedup = flags.GetDouble("speedup", stg.speedup);
  stg.num_hw_impls =
      static_cast<std::size_t>(flags.GetInt("hw-impls",
                                            static_cast<std::int64_t>(
                                                stg.num_hw_impls)));
  const Instance instance = LoadStgInstance(path, platform, stg);
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::cout << InstanceToString(instance) << "\n";
  } else {
    SaveInstance(instance, out);
    std::cout << "wrote " << out << " (" << instance.graph.NumTasks()
              << " tasks, " << instance.graph.NumEdges() << " edges)\n";
  }
  return 0;
}

int CmdInfo(const Flags& flags) {
  const Instance instance = LoadInstanceFlag(flags);
  const Platform& p = instance.platform;
  std::cout << "instance: " << instance.name << "\n";
  std::cout << "platform: " << p.Name() << " — " << p.NumProcessors()
            << " cores, " << p.NumReconfigurators()
            << " reconfigurator(s), recFreq "
            << StrFormat("%.0f", p.RecFreqBitsPerSec() / 8e6) << " MB/s";
  if (p.HwSwBandwidthBytesPerSec() > 0) {
    std::cout << ", HW<->SW "
              << StrFormat("%.0f", p.HwSwBandwidthBytesPerSec() / 1e6)
              << " MB/s";
  }
  std::cout << "\n";
  std::cout << "device:   " << p.Device().Name() << " capacity "
            << p.Device().Capacity().ToString() << " over "
            << p.Device().Geometry().rows << "x"
            << p.Device().Geometry().NumColumns() << " grid\n";
  std::cout << "graph:    " << AnalyzeGraph(instance.graph).ToString()
            << "\n";
  return 0;
}

int CmdDot(const Flags& flags) {
  const Instance instance = LoadInstanceFlag(flags);
  std::cout << ToDot(instance.graph, "tg");
  return 0;
}

/// One-line warm-start summary on stderr (only when --warm-start was given),
/// so operators see what a restarted daemon recovered before it serves.
void PrintRecovery(const service::RescheddServer& server) {
  const service::RecoveryInfo& r = server.Recovery();
  if (!r.enabled) return;
  std::cerr << "reschedd: warm start: " << r.records_scanned
            << " record(s) scanned, " << r.torn_bytes << " torn byte(s), "
            << r.cache_restored << " cache entr(ies) restored, "
            << r.dedup_restored << " dedup entr(ies) restored\n";
}

/// Parses `--tenant-weights a=4,b=1` into the per-tenant weight map.
std::map<std::string, std::uint32_t> ParseTenantWeights(
    const std::string& spec) {
  std::map<std::string, std::uint32_t> weights;
  if (spec.empty()) return weights;
  for (const std::string& entry : Split(spec, ',')) {
    const std::vector<std::string> kv = Split(entry, '=');
    if (kv.size() != 2 || kv[0].empty()) {
      throw FlagError("bad --tenant-weights entry: " + entry);
    }
    const long weight = std::stol(kv[1]);
    if (weight <= 0) {
      throw FlagError("tenant weight must be positive: " + entry);
    }
    weights[kv[0]] = static_cast<std::uint32_t>(weight);
  }
  return weights;
}

/// Parses `--backends host:port[:weight],...` into the router fleet.
std::vector<router::RouterBackend> ParseBackends(const std::string& spec) {
  std::vector<router::RouterBackend> backends;
  for (const std::string& entry : Split(spec, ',')) {
    if (entry.empty()) continue;
    const std::vector<std::string> parts = Split(entry, ':');
    if (parts.size() < 2 || parts.size() > 3 || parts[0].empty()) {
      throw FlagError("bad --backends entry (want host:port[:weight]): " +
                      entry);
    }
    router::RouterBackend backend;
    backend.host = parts[0];
    const long port = std::stol(parts[1]);
    if (port <= 0 || port > 65535) {
      throw FlagError("bad backend port in: " + entry);
    }
    backend.port = static_cast<std::uint16_t>(port);
    if (parts.size() == 3) {
      const long weight = std::stol(parts[2]);
      if (weight <= 0) throw FlagError("bad backend weight in: " + entry);
      backend.weight = static_cast<std::uint32_t>(weight);
    }
    backends.push_back(std::move(backend));
  }
  if (backends.empty()) {
    throw FlagError("--backends needs at least one host:port entry");
  }
  return backends;
}

void PrintServeCounters(const service::RescheddServer& server) {
  const service::ServiceCounters c = server.Counters();
  std::cerr << "reschedd: " << c.received << " request(s), " << c.accepted
            << " accepted, " << c.rejected_overloaded << " overloaded, "
            << c.cache_hits << " cache hit(s), " << c.joined << " joined\n";
}

int CmdServe(const Flags& flags) {
  service::ServerOptions options;
  options.workers = static_cast<std::size_t>(flags.GetInt("workers", 2));
  options.queue_capacity =
      static_cast<std::size_t>(flags.GetInt("queue", 64));
  options.result_cache = !flags.GetBool("no-result-cache", false);
  options.floorplan_cache = !flags.GetBool("no-floorplan-cache", false);
  options.journal_path = flags.GetString("journal", "");
  options.journal_sync =
      service::ParseJournalSync(flags.GetString("journal-sync", "batch"));
  options.warm_start_path = flags.GetString("warm-start", "");
  options.tenant_weights = ParseTenantWeights(
      flags.GetString("tenant-weights", ""));
  options.per_tenant_inflight =
      static_cast<std::size_t>(flags.GetInt("tenant-inflight", 0));
  options.metrics_out_path = flags.GetString("metrics-out", "");
  options.metrics_interval_ms =
      flags.GetDouble("metrics-interval-ms", 1000.0);

  const std::string socket_path = flags.GetString("socket", "");
  const bool stdio = flags.GetBool("stdio", false);
  const bool tcp = flags.Has("port");
  if ((socket_path.empty() ? 0 : 1) + (stdio ? 1 : 0) + (tcp ? 1 : 0) != 1) {
    throw FlagError(
        "serve needs exactly one of --socket PATH, --port N or --stdio");
  }

  if (stdio) {
    service::StdioTransport transport;
    service::RescheddServer server(transport, options);
    PrintRecovery(server);
    server.Serve();
    PrintServeCounters(server);
    return 0;
  }
  if (tcp) {
    service::TcpServerTransport transport(
        flags.GetString("host", "127.0.0.1"),
        static_cast<std::uint16_t>(flags.GetInt("port", 0)));
    // Harvested by the fleet test harnesses when --port 0 picked an
    // ephemeral port — keep the format stable.
    std::cerr << "reschedd: listening on " << transport.Host() << ":"
              << transport.Port() << "\n";
    service::RescheddServer server(transport, options);
    PrintRecovery(server);
    server.Serve();
    PrintServeCounters(server);
    return 0;
  }
  service::UnixSocketServerTransport transport(socket_path);
  std::cerr << "reschedd: listening on " << transport.Path() << "\n";
  service::RescheddServer server(transport, options);
  PrintRecovery(server);
  server.Serve();
  PrintServeCounters(server);
  return 0;
}

int CmdRoute(const Flags& flags) {
  router::RouterOptions options;
  options.backends = ParseBackends(flags.GetString("backends", ""));
  options.attempts_per_backend =
      static_cast<std::size_t>(flags.GetInt("attempts", 2));
  options.probe_interval_ms = flags.GetDouble("probe-interval-ms", 200.0);
  options.queue_capacity_per_backend =
      static_cast<std::size_t>(flags.GetInt("route-queue", 256));
  options.vnodes_per_weight =
      static_cast<std::size_t>(flags.GetInt("vnodes", 64));
  options.metrics_out_path = flags.GetString("metrics-out", "");
  options.metrics_interval_ms =
      flags.GetDouble("metrics-interval-ms", 1000.0);

  const std::string socket_path = flags.GetString("socket", "");
  const bool stdio = flags.GetBool("stdio", false);
  const bool tcp = flags.Has("port");
  if ((socket_path.empty() ? 0 : 1) + (stdio ? 1 : 0) + (tcp ? 1 : 0) != 1) {
    throw FlagError(
        "route needs exactly one of --socket PATH, --port N or --stdio");
  }

  if (stdio) {
    service::StdioTransport transport;
    router::RescheddRouter router(transport, options);
    router.Serve();
    return 0;
  }
  if (tcp) {
    service::TcpServerTransport transport(
        flags.GetString("host", "127.0.0.1"),
        static_cast<std::uint16_t>(flags.GetInt("port", 0)));
    std::cerr << "reschedd-router: listening on " << transport.Host() << ":"
              << transport.Port() << "\n";
    router::RescheddRouter router(transport, options);
    router.Serve();
    return 0;
  }
  service::UnixSocketServerTransport transport(socket_path);
  std::cerr << "reschedd-router: listening on " << transport.Path() << "\n";
  router::RescheddRouter router(transport, options);
  router.Serve();
  return 0;
}

/// Builds one protocol request line from flags (shared by --print and the
/// socket client path).
std::string BuildRequestLine(const Flags& flags) {
  const std::string verb = flags.GetString("verb", "schedule");
  JsonObject request;
  request["verb"] = verb;
  const std::string id = flags.GetString("id", "");
  if (!id.empty()) request["id"] = id;
  const double deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  if (deadline_ms > 0.0) request["deadline_ms"] = deadline_ms;
  const std::string tenant = flags.GetString("tenant", "");
  if (!tenant.empty()) request["tenant"] = tenant;

  if (verb == "schedule" || verb == "simulate") {
    const Instance instance = LoadInstanceFlag(flags);
    request["instance"] = InstanceToJson(instance);
    request["algo"] = flags.GetString("algo", "pa");
    request["seed"] = flags.GetInt("seed", 1);
    if (flags.Has("iterations")) {
      request["iterations"] = flags.GetInt("iterations", 32);
    }
    if (flags.Has("budget")) {
      request["budget"] = flags.GetDouble("budget", 0.0);
    }
    if (flags.GetBool("module-reuse", false)) request["module_reuse"] = true;
    if (flags.GetBool("no-balancing", false)) request["no_balancing"] = true;
    if (flags.GetBool("no-floorplan", false)) request["no_floorplan"] = true;
    if (flags.GetBool("no-cache", false)) request["cache"] = false;
    if (verb == "simulate") {
      request["trials"] = flags.GetInt("trials", 1);
      request["fault_rate"] = flags.GetDouble("fault-rate", 0.0);
      request["policy"] = flags.GetString("policy", "retry");
      if (flags.Has("jitter")) {
        request["jitter"] = flags.GetDouble("jitter", 0.0);
      }
    }
  } else if (verb == "cancel") {
    request["target"] = flags.GetString("target", "");
  } else if (verb != "stats" && verb != "shutdown") {
    throw FlagError("unknown --verb: " + verb);
  }
  return JsonValue(std::move(request)).Dump(-1);
}

int CmdSubmit(const Flags& flags) {
  const std::string line = BuildRequestLine(flags);
  if (flags.GetBool("print", false)) {
    std::cout << line << "\n";
    return 0;
  }
  const std::string socket_path = flags.GetString("socket", "");
  const std::string tcp = flags.GetString("tcp", "");
  if (socket_path.empty() == tcp.empty()) {
    throw FlagError("submit needs --print, --socket PATH or --tcp HOST:PORT");
  }
  service::ClientEndpoint endpoint;
  if (!tcp.empty()) {
    const std::vector<std::string> parts = Split(tcp, ':');
    if (parts.size() != 2 || parts[0].empty()) {
      throw FlagError("bad --tcp (want HOST:PORT): " + tcp);
    }
    const long port = std::stol(parts[1]);
    if (port <= 0 || port > 65535) throw FlagError("bad --tcp port: " + tcp);
    endpoint = service::ClientEndpoint::Tcp(
        parts[0], static_cast<std::uint16_t>(port));
  } else {
    endpoint = service::ClientEndpoint::Unix(socket_path);
  }

  service::ClientOptions copts;
  copts.max_attempts =
      static_cast<std::size_t>(flags.GetInt("retries", 5));
  copts.backoff_initial_ms = flags.GetDouble("backoff-ms", 20.0);
  service::RescheddClient client(endpoint, copts);
  service::RescheddClient::Result result;
  try {
    result = client.Submit(line);
  } catch (const SocketError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << result.handshake << "\n";
  if (result.reconnects > 0) {
    std::cerr << "reschedd client: " << result.attempts << " attempt(s), "
              << result.reconnects << " reconnect(s)\n";
  }
  std::cout << result.response << "\n";
  return JsonValue::Parse(result.response).GetBool("ok", false) ? 0 : 1;
}

int CmdReplay(const Flags& flags) {
  const std::string journal = flags.GetString("journal", "");
  if (journal.empty()) throw FlagError("--journal is required");
  const service::ReplayOutcome outcome = service::ReplayJournal(journal);
  std::cout << "replay: " << outcome.requests << " request(s), "
            << outcome.replayed << " replayed, " << outcome.matched
            << " matched, " << outcome.mismatched << " mismatched, "
            << outcome.skipped << " skipped\n";
  for (const std::string& id : outcome.mismatched_ids) {
    std::cerr << "mismatch: " << id << "\n";
  }
  return outcome.ok() ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "-V") {
    std::cout << BuildInfoLine() << "\n";
    return 0;
  }
  // Every subcommand names the flags it reads; anything else is a typo or
  // a removed option and fails the command instead of being ignored.
  struct Command {
    const char* name;
    int (*run)(const Flags&);
    std::vector<std::string> flags;
  };
  const Command commands[] = {
      {"gen", CmdGen,
       {"tasks", "share-prob", "seed", "cores", "recfreq-mbps", "out"}},
      {"schedule", CmdSchedule,
       {"instance", "frames", "algo", "seed", "module-reuse", "no-balancing",
        "no-floorplan", "budget", "threads", "slots", "metrics", "format",
        "out", "svg-out", "floorplan-svg-out"}},
      {"import-stg", CmdImportStg,
       {"stg", "cores", "recfreq-mbps", "speedup", "hw-impls", "out"}},
      {"validate", CmdValidate, {"instance", "schedule"}},
      {"simulate", CmdSimulate,
       {"instance", "schedule", "faults", "fault-rate", "trials", "seed",
        "jitter", "policy", "scenario-out"}},
      {"info", CmdInfo, {"instance"}},
      {"dot", CmdDot, {"instance"}},
      {"serve", CmdServe,
       {"workers", "queue", "no-result-cache", "no-floorplan-cache",
        "journal", "journal-sync", "warm-start", "tenant-weights",
        "tenant-inflight", "metrics-out", "metrics-interval-ms", "socket",
        "stdio", "port", "host"}},
      {"route", CmdRoute,
       {"backends", "attempts", "probe-interval-ms", "route-queue", "vnodes",
        "metrics-out", "metrics-interval-ms", "socket", "stdio", "port",
        "host"}},
      {"submit", CmdSubmit,
       {"verb", "id", "deadline-ms", "tenant", "instance", "algo", "seed",
        "iterations", "budget", "module-reuse", "no-balancing",
        "no-floorplan", "no-cache", "trials", "fault-rate", "policy",
        "jitter", "target", "print", "socket", "tcp", "retries",
        "backoff-ms"}},
      {"replay", CmdReplay, {"journal"}},
  };
  for (const Command& cmd : commands) {
    if (command != cmd.name) continue;
    const Flags flags = Flags::Parse(argc - 1, argv + 1);
    const std::vector<std::string> unknown = flags.UnknownFlags(cmd.flags);
    if (!unknown.empty()) throw FlagError("unknown flag --" + unknown.front());
    return cmd.run(flags);
  }
  return Usage();
}

}  // namespace
}  // namespace resched::cli

int main(int argc, char** argv) {
  try {
    return resched::cli::Main(argc, argv);
  } catch (const resched::FlagError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
