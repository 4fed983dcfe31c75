#include "sim/metrics.hpp"

#include <algorithm>
#include <numeric>

namespace speedbal {

void Metrics::record_migration(const MigrationRecord& rec) {
  migrations_.push_back(rec);
  ++cause_counts_[static_cast<std::size_t>(rec.cause)];
  if (recorder_ != nullptr)
    recorder_->migrations().add(rec);
}

void Metrics::record_exec(TaskId task, CoreId core, SimTime start,
                          SimTime dur) {
  const auto t = static_cast<std::size_t>(task);
  if (t >= exec_.size()) exec_.resize(t + 1);
  auto& per_core = exec_[t];
  if (per_core.empty()) per_core.assign(static_cast<std::size_t>(num_cores_), 0);
  per_core[static_cast<std::size_t>(core)] += dur;
  segments_.push_back({task, core, start, dur});
}

void Metrics::reset() {
  exec_.clear();
  segments_.clear();
  migrations_.clear();
  cause_counts_.fill(0);
}

const std::vector<SimTime>& Metrics::exec_by_core(TaskId task) const {
  const auto t = static_cast<std::size_t>(task);
  if (task < 0 || t >= exec_.size() || exec_[t].empty()) return empty_;
  return exec_[t];
}

SimTime Metrics::total_exec(TaskId task) const {
  const auto& per_core = exec_by_core(task);
  return std::accumulate(per_core.begin(), per_core.end(), SimTime{0});
}

SimTime Metrics::exec_in_window(TaskId task, SimTime from, SimTime to) const {
  SimTime total = 0;
  for (const RunSegment& seg : segments_) {
    if (seg.task != task) continue;
    total += std::max<SimTime>(
        0, std::min(seg.start + seg.dur, to) - std::max(seg.start, from));
  }
  return total;
}

double Metrics::residency_fraction(
    TaskId task, const std::function<bool(CoreId)>& pred) const {
  const auto& per_core = exec_by_core(task);
  SimTime total = 0;
  SimTime matched = 0;
  for (CoreId c = 0; c < num_cores_; ++c) {
    total += per_core[static_cast<std::size_t>(c)];
    if (pred(c)) matched += per_core[static_cast<std::size_t>(c)];
  }
  return total > 0 ? static_cast<double>(matched) / static_cast<double>(total)
                   : 0.0;
}

std::map<MigrationCause, std::int64_t> Metrics::migration_counts_by_cause() const {
  std::map<MigrationCause, std::int64_t> out;
  for (std::size_t i = 0; i < cause_counts_.size(); ++i)
    if (cause_counts_[i] > 0) out[static_cast<MigrationCause>(i)] = cause_counts_[i];
  return out;
}

void export_run_to_recorder(const Metrics& metrics, obs::RunRecorder& rec,
                            int node) {
  for (const auto& [cause, count] : metrics.migration_counts_by_cause())
    rec.incr(std::string("migrations.") + to_string(cause), count);
  // One metered bulk copy of compact PODs; the recorder derives the "run"
  // trace spans lazily at write time. Doing this per segment through the
  // trace collector (string name + mutex each) used to cost several
  // milliseconds per run and showed up as a fake 40% serve-throughput gap.
  // Only the segments the table's cap keeps are built; the rest are counted
  // as dropped.
  obs::OverheadMeter::Scoped meter(&rec.export_overhead());
  const std::vector<RunSegment>& segs = metrics.segments();
  rec.run_segments().add_generated(segs.size(), [&](std::size_t i) {
    const RunSegment& seg = segs[i];
    return obs::RunSegmentTable::Segment{seg.start, seg.dur,
                                         static_cast<std::int32_t>(seg.core),
                                         static_cast<std::int32_t>(seg.task),
                                         node, 0};
  });
}

}  // namespace speedbal
