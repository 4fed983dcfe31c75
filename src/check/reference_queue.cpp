#include "check/reference_queue.hpp"

#include <map>
#include <vector>

#include "check/invariants.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace speedbal::check {

void ReferenceEventQueue::schedule(int id, SimTime t) {
  by_id_[id] = pending_.insert({t, id});  // Equal keys: inserted last, fires last.
}

void ReferenceEventQueue::cancel(int id) {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return;
  pending_.erase(it->second);
  by_id_.erase(it);
}

int ReferenceEventQueue::pop() {
  if (pending_.empty()) return -1;
  const auto it = pending_.begin();
  now_ = it->first;
  const int id = it->second;
  pending_.erase(it);
  by_id_.erase(id);
  return id;
}

void ReferenceEventQueue::arm(int id, SimTime t) {
  cancel(id);
  schedule(id, t);
}

namespace {

/// Re-armable timers registered on the real queue; timer k is logical id
/// kTimerBase + k in the reference queue and in the fired traces.
constexpr int kTimers = 4;
constexpr int kTimerBase = 1 << 30;

/// What a fired event or timer does inside its handler, in this order:
/// optionally cancel another event (which by fire time may already have
/// executed — exercising cancel-of-a-stale-handle against recycled slots),
/// disarm a timer (possibly the one firing, which is already disarmed), arm
/// a timer (arm_dt == 0 arms at the current timestamp), and schedule a
/// child (child_dt == 0 exercises schedule-at-the-current-timestamp during
/// pop).
struct FirePlan {
  bool spawn_child = false;
  SimTime child_dt = 0;
  int cancel_id = -1;
  int disarm_timer = -1;
  int arm_timer = -1;
  SimTime arm_dt = 0;
};

struct Controller {
  EventQueue real;
  ReferenceEventQueue ref;
  std::map<int, EventHandle> handles;
  std::vector<FirePlan> plans;
  /// Plan each timer runs when it next fires (set when it is armed).
  std::vector<FirePlan> timer_plans = std::vector<FirePlan>(kTimers);
  int next_id = 0;
  int last_fired = -1;
  FirePlan last_plan;

  Controller() {
    for (int k = 0; k < kTimers; ++k)
      real.add_timer([this, k] {
        on_fire(kTimerBase + k, timer_plans[static_cast<std::size_t>(k)]);
      });
  }

  int new_event(SimTime t, const FirePlan& plan) {
    const int id = next_id++;
    plans.push_back(plan);
    // The real handler mutates the REAL queue from inside run_next (that is
    // the scenario under test); the controller mirrors the same mutations
    // onto the reference queue after the pop returns.
    handles[id] = real.schedule(t, [this, id] {
      on_fire(id, plans[static_cast<std::size_t>(id)]);
    });
    ref.schedule(id, t);
    return id;
  }

  void arm(int k, SimTime t, const FirePlan& plan) {
    timer_plans[static_cast<std::size_t>(k)] = plan;
    real.arm(static_cast<std::uint32_t>(k), t);
    ref.arm(kTimerBase + k, t);
  }

  void disarm(int k) {
    real.disarm(static_cast<std::uint32_t>(k));
    ref.cancel(kTimerBase + k);
  }

  void on_fire(int id, FirePlan plan) {
    last_fired = id;
    last_plan = plan;
    if (plan.cancel_id >= 0) {
      const auto it = handles.find(plan.cancel_id);
      if (it != handles.end()) real.cancel(it->second);
    }
    if (plan.disarm_timer >= 0)
      real.disarm(static_cast<std::uint32_t>(plan.disarm_timer));
    if (plan.arm_timer >= 0) {
      // A handler-armed timer fires with an empty plan, so re-arm chains at
      // one timestamp stay finite.
      timer_plans[static_cast<std::size_t>(plan.arm_timer)] = FirePlan{};
      real.arm(static_cast<std::uint32_t>(plan.arm_timer),
               real.now() + plan.arm_dt);
    }
    if (plan.spawn_child) {
      const int child = next_id++;
      plans.push_back(FirePlan{});
      handles[child] = real.schedule(real.now() + plan.child_dt, [this, child] {
        on_fire(child, plans[static_cast<std::size_t>(child)]);
      });
    }
  }

  /// Apply the handler mutations of `plan`, fired at `now`, to the
  /// reference queue in the order on_fire applied them to the real one.
  void mirror(const FirePlan& plan, SimTime now) {
    if (plan.cancel_id >= 0) ref.cancel(plan.cancel_id);
    if (plan.disarm_timer >= 0) ref.cancel(kTimerBase + plan.disarm_timer);
    if (plan.arm_timer >= 0)
      ref.arm(kTimerBase + plan.arm_timer, now + plan.arm_dt);
    // The child id the real handler allocated is next_id - 1 (handlers
    // allocate exactly one id when they spawn).
    if (plan.spawn_child) ref.schedule(next_id - 1, now + plan.child_dt);
  }
};

/// A random handler plan over the ids and timers seen so far.
FirePlan random_plan(Rng& rng, int next_id, double spawn_chance) {
  FirePlan plan;
  if (rng.chance(spawn_chance)) {
    plan.spawn_child = true;
    // Mostly immediate children; occasionally a far-future child scheduled
    // from inside a pop.
    plan.child_dt = rng.chance(0.5)   ? 0
                    : rng.chance(0.1) ? rng.uniform_int(70'000, 400'000)
                                      : rng.uniform_int(0, 20);
  }
  if (next_id > 0 && rng.chance(0.25))
    plan.cancel_id = static_cast<int>(rng.uniform_int(0, next_id - 1));
  if (rng.chance(0.15))
    plan.disarm_timer = static_cast<int>(rng.uniform_int(0, kTimers - 1));
  if (rng.chance(0.2)) {
    plan.arm_timer = static_cast<int>(rng.uniform_int(0, kTimers - 1));
    plan.arm_dt = rng.chance(0.6) ? 0 : rng.uniform_int(0, 20);
  }
  return plan;
}

}  // namespace

int fuzz_event_queue(std::uint64_t seed, int ops,
                     std::vector<Violation>& violations) {
  Rng rng(seed);
  Controller ctl;
  int fired = 0;
  SimTime now = 0;

  const auto pop_both = [&]() -> bool {
    if (ctl.real.size() != ctl.ref.size()) {
      violations.push_back(Violation{
          "event-queue",
          "size disagrees after " + std::to_string(fired) + " pops: heap " +
              std::to_string(ctl.real.size()) + ", reference " +
              std::to_string(ctl.ref.size())});
      return false;
    }
    if (ctl.real.empty() != ctl.ref.empty()) {
      violations.push_back(Violation{
          "event-queue",
          "emptiness disagrees after " + std::to_string(fired) +
              " pops: heap " + std::string(ctl.real.empty() ? "empty" : "pending") +
              ", reference " + std::string(ctl.ref.empty() ? "empty" : "pending")});
      return false;
    }
    if (ctl.real.empty()) return false;
    ctl.last_fired = -1;
    ctl.real.run_next();
    const int want = ctl.ref.pop();
    ++fired;
    if (ctl.last_fired != want || ctl.real.now() != ctl.ref.now()) {
      violations.push_back(Violation{
          "event-queue",
          "pop " + std::to_string(fired) + ": heap fired id " +
              std::to_string(ctl.last_fired) + " at t=" +
              std::to_string(ctl.real.now()) + "us, reference expects id " +
              std::to_string(want) + " at t=" + std::to_string(ctl.ref.now()) +
              "us"});
      return false;
    }
    ctl.mirror(ctl.last_plan, ctl.real.now());
    now = ctl.real.now();
    return true;
  };

  // Absolute times of recent far-future schedules, reused to land a second
  // event (scheduled from close by once time has advanced) on the exact
  // timestamp of an earlier far one: the queue must keep the (time, seq)
  // order between them.
  std::vector<SimTime> far_times;

  for (int i = 0; i < ops; ++i) {
    const double op = rng.uniform();
    if (op < 0.40) {
      // Schedule at now + dt; small dt range forces heavy same-time ties.
      ctl.new_event(now + rng.uniform_int(0, 25),
                    random_plan(rng, ctl.next_id, 0.30));
    } else if (op < 0.50) {
      // Far-future schedule: 70 ms to 2.5 s ahead, the span of balancer
      // wakes, perturb timelines and long sleeps.
      FirePlan plan;
      if (ctl.next_id > 0 && rng.chance(0.25))
        plan.cancel_id = static_cast<int>(rng.uniform_int(0, ctl.next_id - 1));
      const SimTime t = now + rng.uniform_int(70'000, 2'500'000);
      far_times.push_back(t);
      ctl.new_event(t, plan);
    } else if (op < 0.54) {
      // Re-hit a previously used far timestamp exactly: the earlier event
      // must still fire first — the equal-time far/near tie.
      if (far_times.empty()) continue;
      const SimTime t = far_times[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(far_times.size()) - 1))];
      if (t < now) continue;
      ctl.new_event(t, FirePlan{});
    } else if (op < 0.66) {
      // Cancel a random id: pending, fired, or already cancelled.
      if (ctl.next_id == 0) continue;
      const int id = static_cast<int>(rng.uniform_int(0, ctl.next_id - 1));
      const auto it = ctl.handles.find(id);
      if (it != ctl.handles.end()) ctl.real.cancel(it->second);
      ctl.ref.cancel(id);
    } else if (op < 0.74) {
      // Arm (or re-arm) a timer: near the clock, tied with heap entries; on
      // a far timestamp, tied with an earlier far schedule; or far ahead of
      // everything.
      const int k = static_cast<int>(rng.uniform_int(0, kTimers - 1));
      const double where = rng.uniform();
      SimTime t = now + rng.uniform_int(0, 25);
      if (where < 0.25 && !far_times.empty()) {
        const SimTime far = far_times[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(far_times.size()) - 1))];
        if (far >= now) t = far;
      } else if (where < 0.35) {
        t = now + rng.uniform_int(70'000, 2'500'000);
      }
      ctl.arm(k, t, random_plan(rng, ctl.next_id, 0.2));
    } else if (op < 0.78) {
      // Disarm a timer: armed, already fired, or never armed.
      ctl.disarm(static_cast<int>(rng.uniform_int(0, kTimers - 1)));
    } else {
      if (!pop_both()) {
        if (!violations.empty()) return fired;
      }
    }
  }
  // Drain both queues completely.
  while (pop_both()) {
  }
  return fired;
}

}  // namespace speedbal::check
