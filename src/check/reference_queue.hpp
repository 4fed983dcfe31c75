#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace speedbal::check {

struct Violation;  // invariants.hpp

/// Naive reference event queue: a std::multimap keyed by time, which fires
/// equal-time entries in insertion order (multimap inserts equal keys at the
/// upper bound). This is the ordering contract EventQueue promises via its
/// (time, seq) heap key; the lockstep fuzzer drives both with an identical
/// op sequence and compares the fired (time, id) traces.
class ReferenceEventQueue {
 public:
  /// Schedule logical event `id` at absolute time `t`.
  void schedule(int id, SimTime t);

  /// Cancel `id` if still pending; no-op when already fired or cancelled
  /// (mirrors EventQueue::cancel's seq-guarded semantics).
  void cancel(int id);

  /// Model of EventQueue::arm for a timer with logical id `id`: cancel any
  /// pending firing, then insert at `t` — at the multimap upper bound, i.e.
  /// after every event already pending at `t`. EventQueue::disarm is
  /// cancel(id).
  void arm(int id, SimTime t);

  /// Pop the earliest pending event and return its id, or -1 when empty.
  int pop();

  bool empty() const { return pending_.empty(); }
  std::size_t size() const { return pending_.size(); }
  SimTime now() const { return now_; }

 private:
  std::multimap<SimTime, int> pending_;
  /// id -> iterator into pending_, so cancel is exact even with equal keys.
  std::map<int, std::multimap<SimTime, int>::iterator> by_id_;
  SimTime now_ = 0;
};

/// Drive EventQueue and ReferenceEventQueue in lockstep over a seeded random
/// op script (schedules, cancels — including of already-fired handles — and
/// pops whose handlers re-schedule at the current timestamp and cancel other
/// events mid-pop). Far-future schedules (up to 2.5 s ahead) cover cancels
/// of events seconds out and a later near schedule landing on the exact
/// timestamp of an earlier far one. A few re-armable timers ride along: the
/// script arms and disarms them (at timestamps tied with near and far heap
/// entries included), and handlers — timer handlers too — arm timers at the
/// current timestamp and disarm-then-arm timers that already fired.
/// Appends a Violation per divergence: pop-order mismatch, fired-set
/// mismatch, size or emptiness disagreement. Returns the number of events
/// (timer firings included) both queues fired.
int fuzz_event_queue(std::uint64_t seed, int ops,
                     std::vector<Violation>& violations);

}  // namespace speedbal::check
