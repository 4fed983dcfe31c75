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
  if (segments_.size() < segment_cap_) {
    if (segments_.empty() && reserve_cap_) segments_.reserve(segment_cap_);
    segments_.push_back({start, dur, core, task, segment_node_, 0});
  } else {
    ++segments_dropped_;
  }
}

void Metrics::set_recorder(obs::RunRecorder* rec) {
  recorder_ = rec;
  keep_segments_for(rec != nullptr ? &rec->run_segments() : nullptr);
  reserve_cap_ = rec != nullptr;
}

void Metrics::keep_segments_for(const obs::RunSegmentTable* table, int node) {
  segment_cap_ = table != nullptr ? table->room() : 0;
  segment_node_ = node;
  reserve_cap_ = false;
  limit_segments(segment_cap_);
}

void Metrics::limit_segments(std::size_t cap) {
  segment_cap_ = std::min(segment_cap_, cap);
  if (segments_.size() <= segment_cap_) return;
  segments_dropped_ +=
      static_cast<std::int64_t>(segments_.size() - segment_cap_);
  segments_.resize(segment_cap_);
  if (segment_cap_ <= segments_.capacity() / 2) segments_.shrink_to_fit();
}

void Metrics::hand_over_segments(obs::RunSegmentTable& table) {
  table.append(std::move(segments_), segments_dropped_);
  segments_ = {};
  segments_dropped_ = 0;
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

SimTime exec_in_window(const std::vector<obs::RunSegmentRecord>& segments,
                       TaskId task, SimTime from, SimTime to) {
  SimTime total = 0;
  for (const obs::RunSegmentRecord& seg : segments) {
    if (seg.task != task) continue;
    total += std::max<SimTime>(0, std::min(seg.start_us + seg.dur_us, to) -
                                      std::max(seg.start_us, from));
  }
  return total;
}

void export_run_to_recorder(Metrics& metrics, obs::RunRecorder& rec) {
  for (const auto& [cause, count] : metrics.migration_counts_by_cause())
    rec.incr(std::string("migrations.") + to_string(cause), count);
  obs::OverheadMeter::Scoped meter(&rec.export_overhead());
  metrics.hand_over_segments(rec.run_segments());
}

}  // namespace speedbal
