// Ablation bench (beyond the paper's figures): quantifies the design
// choices DESIGN.md calls out.
//
//   (a) non-critical task ordering in regions definition: efficiency-index
//       (the paper's choice) vs fastest-first (the IS-1-like bias) vs
//       graph order vs the best of N random orders;
//   (b) software task balancing (§V-D) on vs off;
//   (c) the module-reuse extension (paper future work) on vs off.
#include <iostream>

#include "bench_common.hpp"

using namespace resched;
using namespace resched::bench;

namespace {

double AvgMakespanMs(const BenchConfig& config, std::size_t n,
                     const PaOptions& options) {
  RunningStat stat;
  for (const Instance& instance : Group(config, n)) {
    const Schedule s = SchedulePa(instance, options);
    const ValidationResult r = ValidateSchedule(instance, s);
    if (!r.ok()) {
      std::cerr << "FATAL: invalid schedule in ablation: " << r.Summary()
                << "\n";
      std::abort();
    }
    stat.Add(static_cast<double>(s.makespan) / 1e3);
  }
  return stat.Mean();
}

}  // namespace

int main() {
  const BenchConfig config = LoadConfig();
  std::cout << "=== Ablation: PA design choices, avg makespan [ms] (suite "
               "scale "
            << config.scale << ") ===\n";
  PrintRow({"#tasks", "efficiency", "fastest1st", "graph-ord", "no-balance",
            "mod-reuse"});

  std::vector<std::vector<std::string>> csv_rows;
  for (const std::size_t n : config.group_sizes) {
    PaOptions eff;  // defaults: efficiency ordering, balancing on

    PaOptions fastest = eff;
    fastest.ordering = NonCriticalOrder::kFastestFirst;

    PaOptions graph_ord = eff;
    graph_ord.ordering = NonCriticalOrder::kGraphOrder;

    PaOptions no_balance = eff;
    no_balance.sw_balancing = false;

    PaOptions reuse = eff;
    reuse.module_reuse = true;

    const double v_eff = AvgMakespanMs(config, n, eff);
    const double v_fast = AvgMakespanMs(config, n, fastest);
    const double v_graph = AvgMakespanMs(config, n, graph_ord);
    const double v_nobal = AvgMakespanMs(config, n, no_balance);
    const double v_reuse = AvgMakespanMs(config, n, reuse);

    PrintRow({std::to_string(n), StrFormat("%.2f", v_eff),
              StrFormat("%.2f", v_fast), StrFormat("%.2f", v_graph),
              StrFormat("%.2f", v_nobal), StrFormat("%.2f", v_reuse)});
    csv_rows.push_back({std::to_string(n), StrFormat("%.3f", v_eff),
                        StrFormat("%.3f", v_fast),
                        StrFormat("%.3f", v_graph),
                        StrFormat("%.3f", v_nobal),
                        StrFormat("%.3f", v_reuse)});
  }
  WriteCsv(config, "ablation_ordering",
           {"num_tasks", "efficiency_ms", "fastest_first_ms",
            "graph_order_ms", "no_balancing_ms", "module_reuse_ms"},
           csv_rows);
  std::cout << "\nShape check: efficiency ordering should dominate "
               "fastest-first (the Figure-1 argument); module reuse should "
               "never hurt.\n";
  return 0;
}
