// perfbench — the resched repository benchmark binary.
//
//   perfbench --workload engine|service_repeat|fleet_unique --seed N
//             --seconds S --trace 0|1 --config perfbench/workloads.json
//             [--scratch DIR] [--smoke]
//
// Prints a human-readable report (every metric with unit and sample
// count, the output checks, the output digest), then one JSON line with
// every metric the run measured: the end-to-end ones (--trace 0) or the
// per-layer ones (--trace 1). Exit code 0 whenever a report was printed;
// `correct` says whether every output check passed.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "workloads.hpp"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "engine|service_repeat|fleet_unique --seed N --seconds S "
               "--trace 0|1 --config FILE [--scratch DIR] [--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  std::string config_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing flag value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--config") {
      config_path = value;
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0.0) return Usage("--seconds must be positive");
  std::ifstream in(config_path);
  if (!in) return Usage("cannot read --config");
  std::stringstream text;
  text << in.rdbuf();
  args.config = resched::JsonValue::Parse(text.str());

  Report report;
  if (args.workload == "engine") {
    RunEngine(args, report);
  } else if (args.workload == "service_repeat" ||
             args.workload == "fleet_unique") {
    RunService(args, report);
  } else {
    return Usage("unknown --workload");
  }
  report.Print();
  return 0;
}
