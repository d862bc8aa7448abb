// The three benchmark workloads. Each fills `report` with its end-to-end
// metrics (untraced run) or its per-layer metrics (traced run) and records
// every failed output check in it.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Offline SchedulePaR calls (threads 1, 32 restarts, no budget, private
/// floorplan cache), one per suite instance of 20..100 tasks.
void RunEngine(const RunArgs& args, Report& report);

/// service_repeat: in-process reschedd over a pipe, 2 workers, result
/// cache on; each distinct key arrives 4 times in a short burst.
/// fleet_unique: in-process router in front of 2 loopback TCP backends
/// (1 worker each, cache on); every request is a distinct instance.
void RunService(const RunArgs& args, Report& report);

}  // namespace perfbench
