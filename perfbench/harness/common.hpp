// Shared pieces of the benchmark binary: run arguments, workload
// configuration, sample statistics, the report every run prints, and the
// seeded instance generator all workloads draw their inputs from.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sched/schedule.hpp"
#include "taskgraph/taskgraph.hpp"
#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Seed of the fixed instance and key suites every run draws from; the
/// run's own --seed orders the engine's calls and picks where the service
/// workloads' fixed traces start.
inline constexpr std::uint64_t kSuiteSeed = 0xC0FFEE;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Seconds-long self-test: small inputs, one set-up, no sample floor.
  bool smoke = false;
  /// Directory for run-local files (the service journal).
  std::string scratch_dir = ".";
  /// perfbench/workloads.json, parsed.
  resched::JsonValue config;
};

/// Values of one measured quantity. Quantiles interpolate linearly
/// between order statistics (resched::Percentile).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  std::size_t Count() const { return values_.size(); }
  double Sum() const;
  double Mean() const;
  double Quantile(double percent) const;

 private:
  std::vector<double> values_;
};

/// Set-ups per run; the run reports their median.
inline constexpr std::size_t kSetupRepeats = 3;

/// Unit of makespan_mean_ms: milliseconds on the schedule's own time axis,
/// a deterministic quality number rather than a measured wall-clock time.
inline constexpr const char* kMakespanUnit = "sched_ms";

/// Everything one run prints. Metrics are printed by name with unit and
/// sample count; the final JSON line carries every metric the run
/// measured (run.py picks BENCHMARK.json's names from it). A failed output
/// check clears `correct`.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  void Note(const std::string& line);
  void Fail(const std::string& why);
  bool Correct() const { return failures_.empty(); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Human-readable report, then the JSON result line.
  void Print();

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> order_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// A generated suite instance on the ZedBoard platform the paper uses.
resched::Instance MakeInstance(std::size_t num_tasks, std::uint64_t seed,
                               const std::string& name);

/// ScheduleToJson with the two wall-clock fields zeroed, compact: the
/// byte-identity form of a schedule.
std::string ScheduleBytes(const resched::Instance& instance,
                          resched::Schedule schedule);

/// 32-hex digest of a set of byte strings, independent of their order.
std::string SetDigest(const std::vector<std::string>& items);

/// Reads a workload parameter from workloads.json:
/// config.workloads.<workload>.<key>.
double ConfigNumber(const RunArgs& args, const std::string& key);

}  // namespace perfbench
