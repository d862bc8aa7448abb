#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "arch/zynq.hpp"
#include "io/instance_hash.hpp"
#include "io/schedule_io.hpp"
#include "taskgraph/generator.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace resched;

double Samples::Sum() const {
  double s = 0.0;
  for (const double v : values_) s += v;
  return s;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double percent) const {
  return values_.empty() ? 0.0 : Percentile(values_, percent);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  if (metrics_.count(name) == 0) order_.push_back(name);
  metrics_[name] = Entry{value, unit, samples};
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Fail(const std::string& why) { failures_.push_back(why); }

void Report::Print() {
  for (const std::string& line : notes_) std::cout << line << "\n";
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    std::printf("metric %-38s %16.6f %-8s samples=%zu\n", name.c_str(),
                e.value, e.unit.c_str(), e.samples);
  }
  for (const std::string& why : failures_) {
    std::cout << "CHECK FAILED: " << why << "\n";
  }
  std::cout << "checks: " << (failures_.empty() ? "all passed" : "FAILED")
            << "\n";

  std::string out = "{\"correct\": ";
  out += Correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", e.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + e.unit +
           "\", \"samples\": " + std::to_string(e.samples) + "}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Instance MakeInstance(std::size_t num_tasks, std::uint64_t seed,
                      const std::string& name) {
  static const Platform platform = MakeZedBoard();
  GeneratorOptions options;
  options.num_tasks = num_tasks;
  return GenerateInstance(platform, options, seed, name);
}

std::string ScheduleBytes(const Instance& instance, Schedule schedule) {
  schedule.scheduling_seconds = 0.0;
  schedule.floorplanning_seconds = 0.0;
  return ScheduleToJson(instance, schedule).Dump(-1);
}

std::string SetDigest(const std::vector<std::string>& items) {
  std::vector<std::string> digests;
  digests.reserve(items.size());
  for (const std::string& item : items) {
    digests.push_back(HashCanonicalText(item).ToHex());
  }
  std::sort(digests.begin(), digests.end());
  std::string joined;
  for (const std::string& d : digests) {
    joined += d;
    joined += '\n';
  }
  return HashCanonicalText(joined).ToHex();
}

double ConfigNumber(const RunArgs& args, const std::string& key) {
  return args.config.At("workloads").At(args.workload).At(key).AsDouble();
}

}  // namespace perfbench
