#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace speedbal::obs {

/// Self-overhead meter: accumulates the wall time the observability layer
/// itself spends (span capture on the hot path, result export at run end),
/// so tracing cost is a first-class reported metric instead of a silent
/// tax. Atomic adds only; metering a section costs two steady_clock
/// reads.
class OverheadMeter {
 public:
  void add_ns(std::int64_t ns) {
    ns_.fetch_add(ns, std::memory_order_relaxed);
    sections_.fetch_add(1, std::memory_order_relaxed);
  }
  std::int64_t total_ns() const { return ns_.load(std::memory_order_relaxed); }
  std::int64_t sections() const {
    return sections_.load(std::memory_order_relaxed);
  }
  /// Overhead as a percentage of `wall_seconds` of run time.
  double pct_of(double wall_seconds) const {
    return wall_seconds > 0.0
               ? 100.0 * static_cast<double>(total_ns()) / 1e9 / wall_seconds
               : 0.0;
  }

  /// RAII section timer; a null meter makes it a no-op.
  class Scoped {
   public:
    explicit Scoped(OverheadMeter* meter)
        : meter_(meter),
          t0_(meter ? std::chrono::steady_clock::now()
                    : std::chrono::steady_clock::time_point{}) {}
    ~Scoped() {
      if (meter_ == nullptr) return;
      meter_->add_ns(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - t0_)
                         .count());
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    OverheadMeter* meter_;
    std::chrono::steady_clock::time_point t0_;
  };

 private:
  std::atomic<std::int64_t> ns_{0};
  std::atomic<std::int64_t> sections_{0};
};

}  // namespace speedbal::obs
