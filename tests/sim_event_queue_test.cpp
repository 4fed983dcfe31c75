#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace speedbal {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.schedule(5, [&order, i] { order.push_back(i); });
  q.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const auto h = q.schedule(10, [&] { fired = true; });
  q.cancel(h);
  q.run_all();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterFire) {
  EventQueue q;
  int count = 0;
  const auto h = q.schedule(10, [&] { ++count; });
  q.run_all();
  q.cancel(h);  // Already fired: no-op.
  q.cancel(h);
  q.cancel(EventHandle{});  // Invalid handle: no-op.
  EXPECT_EQ(count, 1);
}

TEST(EventQueue, HandlerMaySchedule) {
  EventQueue q;
  std::vector<SimTime> times;
  q.schedule(1, [&] {
    times.push_back(q.now());
    q.schedule(q.now() + 1, [&] { times.push_back(q.now()); });
  });
  q.run_all();
  EXPECT_EQ(times, (std::vector<SimTime>{1, 2}));
}

TEST(EventQueue, HandlerMayScheduleAtSameTime) {
  EventQueue q;
  int count = 0;
  q.schedule(5, [&] {
    ++count;
    q.schedule(5, [&] { ++count; });
  });
  q.run_all();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), 5);
}

TEST(EventQueue, HandlerMayCancelLaterEvent) {
  EventQueue q;
  bool fired = false;
  const auto victim = q.schedule(20, [&] { fired = true; });
  q.schedule(10, [&, victim] { q.cancel(victim); });
  q.run_all();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue q;
  q.schedule(10, [] {});
  q.run_all();
  EXPECT_THROW(q.schedule(5, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  std::vector<SimTime> fired;
  q.schedule(10, [&] { fired.push_back(10); });
  q.schedule(20, [&] { fired.push_back(20); });
  q.schedule(30, [&] { fired.push_back(30); });
  q.run_until(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle) {
  EventQueue q;
  q.run_until(100);
  EXPECT_EQ(q.now(), 100);
}

TEST(EventQueue, NextTime) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kNever);
  q.schedule(42, [] {});
  EXPECT_EQ(q.next_time(), 42);
}

TEST(EventQueue, RunNextReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.run_next());
}

// --- Handle-reuse and equal-timestamp races ---------------------------------
// The indexed heap recycles slots, so a stale handle (fired or cancelled)
// must never reach a newer event that happens to occupy the same slot.

TEST(EventQueue, CancelWithFiredHandleSparesSlotReuser) {
  EventQueue q;
  const auto h1 = q.schedule(10, [] {});
  q.run_next();  // h1 fires; its slot returns to the freelist.
  bool fired = false;
  const auto h2 = q.schedule(20, [&] { fired = true; });
  EXPECT_EQ(h1.slot, h2.slot);  // Slot is recycled...
  q.cancel(h1);                 // ...but the stale handle must not cancel h2.
  q.run_all();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelWithCancelledHandleSparesSlotReuser) {
  EventQueue q;
  const auto h1 = q.schedule(10, [] {});
  q.cancel(h1);
  bool fired = false;
  const auto h2 = q.schedule(10, [&] { fired = true; });
  EXPECT_EQ(h1.slot, h2.slot);
  q.cancel(h1);  // Stale: h1's seq no longer matches the slot.
  q.run_all();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, HandlerCancelsEqualTimePeer) {
  // A fires at t=5 and cancels B, also scheduled at t=5. Insertion order
  // says A runs first, so B must never fire even though both were due at
  // the current instant.
  EventQueue q;
  std::vector<char> order;
  EventHandle b;
  q.schedule(5, [&] {
    order.push_back('A');
    q.cancel(b);
  });
  b = q.schedule(5, [&] { order.push_back('B'); });
  q.schedule(5, [&] { order.push_back('C'); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<char>{'A', 'C'}));
}

TEST(EventQueue, HandlerReschedulesEqualTimePeer) {
  // A handler cancels a pending event and re-schedules it at the same
  // timestamp (the ordering a timer re-arm reproduces). The replacement
  // must run in its new insertion position (after later-inserted
  // equal-time events).
  EventQueue q;
  std::vector<char> order;
  EventHandle b;
  q.schedule(5, [&] {
    order.push_back('A');
    q.cancel(b);
    q.schedule(5, [&] { order.push_back('b'); });
  });
  b = q.schedule(5, [&] { order.push_back('B'); });
  q.schedule(5, [&] { order.push_back('C'); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<char>{'A', 'C', 'b'}));
}

TEST(EventQueue, HandleFromInsideHandlerStaysValid) {
  // Cancel an event that was scheduled from inside an equal-time handler
  // before it gets to run.
  EventQueue q;
  bool fired = false;
  EventHandle inner;
  q.schedule(5, [&] { inner = q.schedule(5, [&] { fired = true; }); });
  q.schedule(5, [&] { q.cancel(inner); });
  q.run_all();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, ChurnKeepsStrictFifoWithinTimestamp) {
  // Heavy slot recycling must not disturb the (time, seq) order: cancel
  // every other event at a shared timestamp, reschedule replacements, and
  // verify survivors fire strictly in insertion order.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i)
    handles.push_back(q.schedule(7, [&order, i] { order.push_back(i); }));
  for (int i = 0; i < 100; i += 2) q.cancel(handles[static_cast<std::size_t>(i)]);
  for (int i = 100; i < 150; ++i)
    q.schedule(7, [&order, i] { order.push_back(i); });
  q.run_all();
  std::vector<int> expected;
  for (int i = 1; i < 100; i += 2) expected.push_back(i);
  for (int i = 100; i < 150; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, StaleCancelDuringPopSparesSameTimeChild) {
  // Regression for the sequence the lockstep fuzz oracle drives hardest:
  // during a pop, the handler schedules a child at the *current* time —
  // which recycles the slot of an already-executed event — and then cancels
  // the executed event through its stale handle. The stale cancel must not
  // kill the freshly scheduled child occupying the same slot.
  EventQueue q;
  std::vector<char> order;
  const auto first = q.schedule(10, [&] { order.push_back('a'); });
  q.run_next();  // `first` fires; its slot returns to the freelist.
  q.schedule(20, [&] {
    order.push_back('b');
    const auto child = q.schedule(q.now(), [&] { order.push_back('c'); });
    EXPECT_EQ(child.slot, first.slot);  // Recycled inside the pop.
    q.cancel(first);                    // Stale: must be a no-op.
  });
  q.run_all();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
  EXPECT_EQ(q.now(), 20);
}

TEST(EventQueue, ScheduleAtCurrentTimeDuringPopRunsAfterPendingPeers) {
  // A child scheduled at now() from inside run_next must fire after every
  // event already pending at that timestamp (insertion order), exactly like
  // a reference std::multimap queue inserting at the upper bound.
  EventQueue q;
  std::vector<char> order;
  q.schedule(5, [&] {
    order.push_back('A');
    q.schedule(q.now(), [&] { order.push_back('a'); });
  });
  q.schedule(5, [&] { order.push_back('B'); });
  q.schedule(6, [&] { order.push_back('C'); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'a', 'C'}));
}

// --- Far-future events -----------------------------------------------------
// Events seconds ahead of the clock (perturb timelines, balancer wakes, long
// sleeps) share the heap with the near-term churn. Ordering, cancellation,
// and handle semantics must not depend on how far ahead an event sits.

TEST(EventQueue, FarFutureEventsFireInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  // Times from microseconds to seconds ahead, scheduled latest first.
  q.schedule(2'000'000, [&] { order.push_back(4); });
  q.schedule(500'000, [&] { order.push_back(3); });
  q.schedule(100'000, [&] { order.push_back(2); });
  q.schedule(10, [&] { order.push_back(1); });
  EXPECT_EQ(q.size(), 4u);
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.now(), 2'000'000);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSeesFarFutureOnlyEvent) {
  EventQueue q;
  q.schedule(700'000, [] {});
  EXPECT_EQ(q.next_time(), 700'000);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, CancelFarFuturePreventsExecution) {
  EventQueue q;
  bool fired = false;
  const auto h = q.schedule(900'000, [&] { fired = true; });
  q.cancel(h);
  EXPECT_EQ(q.size(), 0u);
  q.cancel(h);  // Idempotent.
  q.run_all();
  EXPECT_FALSE(fired);
  EXPECT_EQ(q.now(), 0);  // Nothing ever fired.
}

TEST(EventQueue, CancelFarFutureHandleSparesSlotReuser) {
  // A cancelled far-future event's slot is recycled by the next schedule at
  // the same time. The new occupant must fire exactly once, and the old
  // handle must stay dead.
  EventQueue q;
  const auto h1 = q.schedule(800'000, [] {});
  q.cancel(h1);
  int fired = 0;
  const auto h2 = q.schedule(800'000, [&] { ++fired; });
  EXPECT_EQ(h1.slot, h2.slot);  // Slot recycled.
  q.cancel(h1);  // Stale handle: must not cancel the new occupant.
  q.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, EqualTimestampScheduledFarAndNearKeepsInsertionOrder) {
  // A is scheduled far ahead of t; time advances; B is scheduled at the same
  // instant from close by. A must still fire ahead of B — global
  // (time, seq) insertion order, however far ahead each was scheduled.
  EventQueue q;
  std::vector<char> order;
  const SimTime t = 500'000;
  q.schedule(t, [&] { order.push_back('A'); });
  q.schedule(t - 40'000, [&, t] {
    q.schedule(t, [&] { order.push_back('B'); });
  });
  q.run_all();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
}

TEST(EventQueue, HandlerSchedulesFarFutureChild) {
  EventQueue q;
  std::vector<SimTime> fired;
  q.schedule(10, [&] {
    fired.push_back(q.now());
    q.schedule(q.now() + 1'500'000, [&] { fired.push_back(q.now()); });
  });
  q.run_all();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 1'500'010}));
}

TEST(EventQueue, RunUntilLeavesFarFutureEventsPending) {
  EventQueue q;
  int fired = 0;
  q.schedule(100, [&] { ++fired; });
  q.schedule(600'000, [&] { ++fired; });
  q.run_until(1000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.size(), 1u);
  q.run_until(600'000);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ManyFarEventsStaySorted) {
  // Deterministic pseudo-random times spanning five seconds, including
  // duplicates: the fired sequence must be non-decreasing and
  // complete.
  EventQueue q;
  std::vector<SimTime> fired;
  std::uint64_t x = 12345;
  for (int i = 0; i < 500; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const SimTime t = static_cast<SimTime>(x % 5'000'000);
    q.schedule(t, [&fired, &q] { fired.push_back(q.now()); });
  }
  q.run_all();
  ASSERT_EQ(fired.size(), 500u);
  for (std::size_t i = 1; i < fired.size(); ++i)
    EXPECT_LE(fired[i - 1], fired[i]);
}

// --- re-armable timers -----------------------------------------------------

TEST(EventQueue, TimerRearmLaterFiresAfterHeapPeer) {
  EventQueue q;
  std::vector<char> order;
  const auto a = q.add_timer([&] { order.push_back('a'); });
  q.arm(a, 10);
  q.schedule(20, [&] { order.push_back('b'); });
  q.arm(a, 30);  // Later...
  EXPECT_EQ(q.size(), 2u);
  q.run_all();
  EXPECT_EQ(order, (std::vector<char>{'b', 'a'}));
  EXPECT_EQ(q.now(), 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TimerRearmEarlier) {
  EventQueue q;
  std::vector<char> order;
  q.schedule(20, [&] { order.push_back('b'); });
  const auto a = q.add_timer([&] { order.push_back('a'); });
  q.arm(a, 30);
  q.arm(a, 10);
  q.run_all();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b'}));
}

TEST(EventQueue, TimerDisarmOfFiredOrDisarmedTimerIsNoOp) {
  EventQueue q;
  int count = 0;
  const auto a = q.add_timer([&] { ++count; });
  q.disarm(a);  // Never armed.
  q.arm(a, 10);
  q.run_next();
  EXPECT_EQ(count, 1);
  q.disarm(a);  // Fired: no-op.
  EXPECT_TRUE(q.empty());
  q.arm(a, 20);  // A fired timer re-arms like a fresh one.
  q.disarm(a);
  q.disarm(a);  // Already disarmed.
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.run_next());
  q.arm(a, 30);
  q.run_all();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, TimerArmEqualsCancelPlusSchedule) {
  // Arming draws a fresh seq: at an equal timestamp the timer fires after
  // the events already pending there and before the ones scheduled later.
  EventQueue q;
  std::vector<char> order;
  const auto a = q.add_timer([&] { order.push_back('a'); });
  q.arm(a, 5);
  q.schedule(7, [&] { order.push_back('B'); });
  q.arm(a, 7);
  q.schedule(7, [&] { order.push_back('C'); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<char>{'B', 'a', 'C'}));
}

TEST(EventQueue, TimerTiesWithFarFutureEntries) {
  EventQueue q;
  std::vector<char> order;
  const auto t = q.add_timer([&] { order.push_back('t'); });
  const auto u = q.add_timer([&] { order.push_back('u'); });
  // A far-future entry at 800'000 armed-against after it was scheduled,
  // and a timer armed at 900'000 before the entry at the same time.
  q.schedule(800'000, [&] { order.push_back('a'); });
  q.arm(t, 800'000);
  q.arm(u, 900'000);
  q.schedule(900'000, [&] { order.push_back('b'); });
  // Far -> near: re-arming a far timer next to the clock.
  const auto v = q.add_timer([&] { order.push_back('v'); });
  q.arm(v, 2'000'000);
  q.arm(v, 20);
  q.run_all();
  EXPECT_EQ(order, (std::vector<char>{'v', 'a', 't', 'u', 'b'}));
  EXPECT_EQ(q.now(), 900'000);
}

TEST(EventQueue, TimerRearmReplacesPendingFiring) {
  EventQueue q;
  std::vector<SimTime> fired;
  const auto a = q.add_timer([&] { fired.push_back(q.now()); });
  q.arm(a, 10);
  q.arm(a, 20);
  q.run_all();
  EXPECT_EQ(fired, (std::vector<SimTime>{20}));
  EXPECT_EQ(q.executed(), 1u);
}

TEST(EventQueue, TimerHandlerRearmsAtCurrentTime) {
  // The Simulator's stop pattern: a stop handler re-arms the same timer at
  // the current timestamp. The new firing queues behind the equal-time
  // events already pending.
  EventQueue q;
  std::vector<char> order;
  int fires = 0;
  std::uint32_t a = 0;
  a = q.add_timer([&] {
    order.push_back('a');
    if (++fires == 1) q.arm(a, q.now());
  });
  q.arm(a, 5);
  q.schedule(5, [&] { order.push_back('B'); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<char>{'a', 'B', 'a'}));
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, TimersCountInSizeNextTimeAndRunUntil) {
  EventQueue q;
  int fired = 0;
  const auto a = q.add_timer([&] { ++fired; });
  const auto b = q.add_timer([&] { ++fired; });
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kNever);
  q.arm(a, 40);
  q.arm(b, 15);
  q.schedule(30, [&] { ++fired; });
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.next_time(), 15);
  q.run_until(30);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 30);
  EXPECT_EQ(q.next_time(), 40);
  q.disarm(a);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.arm(a, 10), std::invalid_argument);  // In the past.
}

}  // namespace
}  // namespace speedbal
