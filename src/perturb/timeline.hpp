#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/enum_names.hpp"
#include "util/time.hpp"

namespace speedbal::perturb {

/// The perturbation taxonomy: everything the paper's dynamic-interference
/// experiments (Figs. 5/6, the asymmetric-clock runs) do to a machine
/// mid-run, plus the failure modes a real user-level balancer faces on a
/// machine that changes under it (hotplug, throttling, transient syscall /
/// procfs failures).
enum class PerturbKind {
  Dvfs,          ///< Clock change on one core (thermal throttling, turbo).
  CoreOffline,   ///< Hotplug: core leaves; its run queue is drained.
  CoreOnline,    ///< Hotplug: core returns to service.
  HogStart,      ///< An unrelated cpu-hog starts (pinned when core >= 0).
  HogStop,       ///< The hog started with the same `core` key exits.
  WorkSpike,     ///< A one-shot task with `work_us` of work appears.
  FailAffinity,  ///< Native shim: fail the next N sched_setaffinity calls.
  FailProcfs,    ///< Native shim: fail the next N procfs stat reads.
  DvfsRamp,      ///< Linear clock ramp to `scale` over `ramp_over`
                 ///< (thermal throttling / frequency-ladder curves).
};

inline constexpr auto kPerturbKindNames = enum_names<PerturbKind>(
    "perturbation", "dvfs", "offline", "online", "hog-start", "hog-stop",
    "spike", "fail-affinity", "fail-procfs", "dvfs-ramp");
static_assert(kPerturbKindNames.ends_at(PerturbKind::DvfsRamp));

inline const char* to_string(PerturbKind k) { return kPerturbKindNames[k]; }

/// One scheduled perturbation. Which fields matter depends on `kind`:
/// `core` targets Dvfs / DvfsRamp / CoreOffline / CoreOnline / HogStart
/// (-1 = let fork placement choose); `scale` is the Dvfs / DvfsRamp target
/// clock multiplier; `ramp_over` / `ramp_steps` the DvfsRamp duration and
/// number of discrete interpolation steps; `work_us` the WorkSpike extra
/// work per thread; `count` / `err` the number of injected failures and the
/// errno they simulate (FailAffinity / FailProcfs).
struct PerturbEvent {
  SimTime at = 0;
  PerturbKind kind = PerturbKind::Dvfs;
  int core = -1;
  double scale = 1.0;
  double work_us = 0.0;
  int count = 1;
  int err = 4;  // EINTR.
  SimTime ramp_over = 0;
  int ramp_steps = 10;

  /// Canonical compact-spec rendering ("at=2s dvfs core=3 scale=0.6");
  /// re-parses to an identical event (used by the determinism tests).
  std::string to_spec() const;
};

/// A deterministic, seed-free schedule of perturbations shared by the
/// simulator (applied via Simulator::schedule_at) and the native balancer
/// (applied by wall clock through the injection shim). Events are kept
/// sorted by time; ties preserve insertion order, so identical timelines
/// replay byte-identically.
class PerturbTimeline {
 public:
  void add(PerturbEvent ev);

  const std::vector<PerturbEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Parse one compact CLI spec: whitespace-separated tokens, one bare kind
  /// word (dvfs, dvfs-ramp, offline, online, hog-start, hog-stop, spike,
  /// fail-affinity, fail-procfs) plus key=value fields (at=TIME, core=N,
  /// scale=X, over=TIME, steps=N, work=TIME, count=N, err=N). TIME accepts
  /// us/ms/s suffixes ("250ms", "2s", bare = microseconds). Throws
  /// std::invalid_argument with a message naming the offending token on
  /// malformed input.
  static PerturbEvent parse_spec(std::string_view spec);

  /// Parse a semicolon-separated list of compact specs
  /// ("at=2s dvfs core=3 scale=0.6; at=4s offline core=1").
  static PerturbTimeline parse_specs(std::string_view specs);

  /// The events' compact specs joined with "; ", which parse_specs reads
  /// back: the run report's "perturb" meta.
  std::string to_specs() const;

  /// Parse the JSON file format:
  ///   {"events": [{"at_us": 2000000, "kind": "dvfs", "core": 3,
  ///                "scale": 0.6}, ...]}
  /// Times may be given as at_us, at_ms, or at_s (exactly one). Throws
  /// std::invalid_argument / std::runtime_error on malformed input.
  static PerturbTimeline parse_json(std::string_view text);

  /// Read and parse a JSON timeline file; throws on I/O or parse errors.
  static PerturbTimeline load_json_file(const std::string& path);

 private:
  std::vector<PerturbEvent> events_;
};

}  // namespace speedbal::perturb
