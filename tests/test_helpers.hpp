// Shared fixtures and builders for the test suite.
#pragma once

#include <string>
#include <vector>

#include "arch/zynq.hpp"
#include "taskgraph/taskgraph.hpp"
#include "util/simd.hpp"
#include "util/string_util.hpp"

namespace resched::testing {

/// Small fast device (1/4-ish of an XC7Z020) so floorplan queries in tests
/// stay in the microsecond range.
inline FpgaDevice MakeSmallDevice() {
  const ResourceModel model = MakeClbBramDspModel();
  FabricGeometry geom = BuildInterleavedFabric(
      model, ResourceVec({3200, 40, 60}), {100, 10, 20}, /*rows=*/4);
  return FpgaDevice("test-device", model, std::move(geom));
}

inline Platform MakeSmallPlatform(std::size_t cores = 2,
                                  double recfreq = 2.56e8) {
  return Platform("test-platform", cores, MakeSmallDevice(), recfreq);
}

inline Implementation SwImpl(TimeT time, std::string name = "sw") {
  Implementation impl;
  impl.kind = ImplKind::kSoftware;
  impl.name = std::move(name);
  impl.exec_time = time;
  return impl;
}

inline Implementation HwImpl(TimeT time, std::int64_t clb,
                             std::int64_t bram = 0, std::int64_t dsp = 0,
                             std::int32_t module_id = -1,
                             std::string name = "hw") {
  Implementation impl;
  impl.kind = ImplKind::kHardware;
  impl.name = std::move(name);
  impl.exec_time = time;
  impl.res = ResourceVec({clb, bram, dsp});
  impl.module_id = module_id;
  return impl;
}

/// Linear chain t0 -> t1 -> ... -> t{n-1}; every task gets one SW and one
/// HW implementation.
inline TaskGraph MakeChain(std::size_t n, TimeT hw_time = 1000,
                           std::int64_t clb = 500, TimeT sw_time = 4000) {
  TaskGraph g;
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId t = g.AddTask(StrFormat("c%zu", i));
    g.AddImpl(t, SwImpl(sw_time));
    g.AddImpl(t, HwImpl(hw_time, clb));
    if (i > 0) g.AddEdge(static_cast<TaskId>(i - 1), t);
  }
  return g;
}

/// Diamond: a -> {b, c} -> d.
inline TaskGraph MakeDiamond(TimeT hw_time = 1000, std::int64_t clb = 500,
                             TimeT sw_time = 4000) {
  TaskGraph g;
  const TaskId a = g.AddTask("a");
  const TaskId b = g.AddTask("b");
  const TaskId c = g.AddTask("c");
  const TaskId d = g.AddTask("d");
  for (const TaskId t : {a, b, c, d}) {
    g.AddImpl(t, SwImpl(sw_time));
    g.AddImpl(t, HwImpl(hw_time, clb));
  }
  g.AddEdge(a, b);
  g.AddEdge(a, c);
  g.AddEdge(b, d);
  g.AddEdge(c, d);
  return g;
}

/// Independent (edge-free) tasks.
inline TaskGraph MakeIndependent(std::size_t n, TimeT hw_time = 1000,
                                 std::int64_t clb = 500,
                                 TimeT sw_time = 4000) {
  TaskGraph g;
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId t = g.AddTask(StrFormat("p%zu", i));
    g.AddImpl(t, SwImpl(sw_time));
    g.AddImpl(t, HwImpl(hw_time, clb));
  }
  return g;
}

/// Every simd dispatch backend this build + machine can execute.
inline std::vector<simd::Backend> ReachableBackends() {
  std::vector<simd::Backend> backends{simd::Backend::kScalar};
  for (const simd::Backend b : {simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (simd::Supported(b)) backends.push_back(b);
  }
  return backends;
}

/// Forces a backend for the test body and restores the previous one.
class ScopedBackend {
 public:
  explicit ScopedBackend(simd::Backend b) : prev_(simd::ActiveBackend()) {
    simd::SetBackend(b);
  }
  ~ScopedBackend() { simd::SetBackend(prev_); }

 private:
  simd::Backend prev_;
};

}  // namespace resched::testing
