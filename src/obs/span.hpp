#pragma once

#include <cstdint>

#include "obs/capped_log.hpp"

namespace speedbal::obs {

/// One completed request's traced life, decomposed so that its sojourn time
/// partitions exactly into attributed components (all integer microseconds
/// on the run's timebase):
///
///   sojourn = queue + exec + preempt        (exact, by construction)
///   0 <= stall <= exec                      (stall is the warmup part of exec)
///
/// `queue` is dispatch-to-worker wait, `exec` is time the worker actually
/// executed between picking the request up and completing it, `preempt` is
/// the remainder — time the worker spent off-CPU (preempted, or descheduled
/// mid-request) while the request was in service. `stall` is the share of
/// exec burned refilling caches after migrations (warmup cost), in
/// fractional microseconds. The producer snapshots the worker task's
/// accounting at start and completion, when the simulator has flushed it,
/// so every component is exact — src/check enforces the partition as the
/// "span-conservation" invariant.
struct RequestSpan {
  std::int64_t id = -1;
  int cls = 0;     ///< Request class (attribution rows group by this).
  int worker = -1; ///< Worker (shard) index that served the request.
  std::int64_t arrival_us = 0;
  std::int64_t started_us = 0;    ///< Left the shard queue.
  std::int64_t completed_us = 0;
  std::int64_t exec_us = 0;       ///< Worker execution within [started, completed].
  double stall_us = 0.0;          ///< Warmup (cache-refill) share of exec.
  int migrations = 0;             ///< Worker migrations within the span.

  std::int64_t queue_us() const { return started_us - arrival_us; }
  std::int64_t preempt_us() const { return completed_us - started_us - exec_us; }
  std::int64_t sojourn_us() const { return completed_us - arrival_us; }

  /// The run report's "requests" fields (util/json field list); the
  /// partition's derived parts and the blame are written, not read back.
  template <class Span, class F>
  static void fields(Span& s, F&& f) {
    f("id", s.id);
    f("class", s.cls);
    f("worker", s.worker);
    f("arrival_us", s.arrival_us);
    f("started_us", s.started_us);
    f("completed_us", s.completed_us);
    f("queue_us", s.queue_us());
    f("exec_us", s.exec_us);
    f("preempt_us", s.preempt_us());
    f("stall_us", s.stall_us);
    f("sojourn_us", s.sojourn_us());
    f("migrations", s.migrations);
    f("blame", blame(s));
  }
};

/// Dominant sojourn component of one span: "queue", "exec", "stall" (when
/// warmup dominates the execution component), or "preempt".
const char* blame(const RequestSpan& span);

/// Deterministic 1/2^k request sampler. Sampling is a bitmask test on the
/// request id — it consumes no randomness and reads no mutable state, so a
/// sampled run and an unsampled run of the same scenario produce
/// byte-identical simulation results (enforced as the "sampling-identity"
/// oracle in src/check). log2_period = 0 samples every request; negative
/// disables sampling entirely.
class SpanSampler {
 public:
  SpanSampler() = default;
  explicit SpanSampler(int log2_period)
      : log2_(log2_period),
        mask_(log2_period >= 0 ? (std::int64_t{1} << log2_period) - 1 : -1) {}

  bool enabled() const { return log2_ >= 0; }
  int log2_period() const { return log2_; }
  /// True iff request `id` is traced (always false when disabled).
  bool sampled(std::int64_t id) const { return log2_ >= 0 && (id & mask_) == 0; }

 private:
  int log2_ = 0;
  std::int64_t mask_ = 0;
};

/// Append-only table of completed request spans, internally synchronized
/// like every other RunRecorder member. Storage is capped (default 200k
/// spans, ~14 MB worst case) so span tracing at 1/1 sampling cannot grow a
/// long run's memory unboundedly; the number dropped is reported.
using SpanTable = CappedLog<RequestSpan, 200000>;

/// One request turned away because the shard queue it was dispatched to
/// was full. The trace's "drop" instants are derived from these at export.
struct DropRecord {
  std::int64_t ts_us = 0;
  std::int64_t request = -1;
  int worker = -1;  ///< Shard the dispatcher picked.
  int core = -1;    ///< That worker's core: the instant's track.
};

/// Append-only drop log. An overloaded run drops a request per arrival, so
/// drops get their own log (2^20 records, 24 MB worst case) instead of
/// sharing the free-form trace cap with the serve load counters.
using DropLog = CappedLog<DropRecord, (1 << 20)>;

}  // namespace speedbal::obs
