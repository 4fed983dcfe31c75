#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Host-speed probe. On a shared host the same unit's wall time swings by
/// up to 2x as neighbours come and go. The probe times two fixed kernels
/// that stress what the simulator stresses: a dependent pointer chase over
/// a 4 MiB ring (cache latency, like run-queue and task-table walks) and a
/// binary-heap churn with scattered table updates (branchy pops and pushes,
/// like the event queue). It runs before the first unit and after every
/// unit; each unit's host seconds are scaled by kReferenceSeconds / (mean
/// of its two probes), i.e. reported at the speed of a host on which one
/// probe takes 40 ms. The probe is the benchmark's own frozen code, so a
/// change to the program cannot move it.
class HostProbe {
 public:
  static constexpr double kReferenceSeconds = 0.040;

  HostProbe();

  /// Host seconds for one probe.
  double time_once();

 private:
  struct Entry {
    std::uint64_t time;
    std::uint32_t payload;
  };

  std::vector<std::uint32_t> ring_;
  std::vector<Entry> heap_;
  std::vector<std::uint32_t> table_;
  std::uint32_t cursor_ = 0;
  std::uint64_t x_ = 88172645463325252ull;
};

}  // namespace perfbench
