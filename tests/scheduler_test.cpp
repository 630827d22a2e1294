#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace splicer::sim {
namespace {

/// Records every typed event it receives, in dispatch order.
class RecordingSink final : public EventSink {
 public:
  void handle_event(const EngineEvent& event) override {
    events.push_back(event);
  }
  std::vector<EngineEvent> events;
};

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(3.0, [&] { order.push_back(3); });
  s.at(1.0, [&] { order.push_back(1); });
  s.at(2.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Scheduler, TiesBreakBySchedulingOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(1.0, [&] { order.push_back(1); });
  s.at(1.0, [&] { order.push_back(2); });
  s.at(1.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, AfterIsRelative) {
  Scheduler s;
  double fired_at = -1.0;
  s.at(5.0, [&] {
    s.after(2.5, [&] { fired_at = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  double fired_at = -1.0;
  s.at(5.0, [&] {
    s.at(1.0, [&] { fired_at = s.now(); });  // in the past
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  const auto id = s.at(1.0, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelTwiceReturnsFalse) {
  Scheduler s;
  const auto id = s.at(1.0, [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
  EXPECT_FALSE(s.cancel(9999));  // unknown id
}

TEST(Scheduler, RunUntilStopsEarly) {
  Scheduler s;
  int count = 0;
  s.at(1.0, [&] { ++count; });
  s.at(2.0, [&] { ++count; });
  s.at(10.0, [&] { ++count; });
  const std::size_t executed = s.run(5.0);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, MaxEventsLimit) {
  Scheduler s;
  int count = 0;
  for (int i = 0; i < 10; ++i) s.at(i, [&] { ++count; });
  s.run(Scheduler::kForever, 4);
  EXPECT_EQ(count, 4);
}

TEST(Scheduler, EveryRepeatsUntilFalse) {
  Scheduler s;
  int ticks = 0;
  s.every(1.0, [&] {
    ++ticks;
    return ticks < 5;
  });
  s.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
}

TEST(Scheduler, EveryRejectsNonPositivePeriod) {
  // A zero or negative period would re-arm at the same instant forever.
  Scheduler s;
  EXPECT_THROW(s.every(0.0, [] { return true; }), std::invalid_argument);
  EXPECT_THROW(s.every(-0.2, [] { return true; }), std::invalid_argument);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, PendingCountsLiveEvents) {
  Scheduler s;
  EXPECT_TRUE(s.empty());
  const auto a = s.at(1.0, [] {});
  s.at(2.0, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler s;
  int count = 0;
  s.at(1.0, [&] { ++count; });
  s.at(2.0, [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, AtNextBoundaryCoalescesOntoEpochGrid) {
  Scheduler s;
  std::vector<double> fired;
  s.at(0.013, [&] {
    // Both requests from inside one epoch land on the same boundary.
    s.at_next_boundary(0.010, [&] { fired.push_back(s.now()); });
    s.at_next_boundary(0.010, [&] { fired.push_back(s.now()); });
  });
  s.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_NEAR(fired[0], 0.020, 1e-12);
  // Coalescing requires the two boundary timestamps to be bit-identical.
  EXPECT_EQ(fired[0], fired[1]);
}

TEST(Scheduler, AtNextBoundaryIsStrictlyAfterNow) {
  Scheduler s;
  double fired = -1.0;
  s.at(0.020, [&] {
    // Exactly on a boundary: the next one must be chosen, not this one.
    s.at_next_boundary(0.010, [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_NEAR(fired, 0.030, 1e-12);
  EXPECT_GT(fired, 0.020);
}

TEST(Scheduler, AtNextBoundaryRejectsNonPositivePeriod) {
  Scheduler s;
  EXPECT_THROW(s.at_next_boundary(0.0, [] {}), std::invalid_argument);
}

TEST(Scheduler, RunCountsOnlyRealExecutions) {
  Scheduler s;
  s.at(1.0, [] {});
  const auto cancelled = s.at(2.0, [] {});
  s.at(3.0, [] {});
  EXPECT_TRUE(s.cancel(cancelled));
  // Cancelled events are skipped without being counted as executed.
  EXPECT_EQ(s.run(), 2u);
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler s;
  std::vector<int> order;
  s.at(1.0, [&] {
    order.push_back(1);
    s.at(1.5, [&] { order.push_back(2); });
  });
  s.at(2.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ---- Typed pooled events ---------------------------------------------------

TEST(Scheduler, TypedEventsDispatchThroughSinkInOrder) {
  Scheduler s;
  RecordingSink sink;
  s.set_sink(&sink);
  s.at(2.0, EngineEvent{.kind = EngineEvent::Kind::kArriveNext,
                        .channel = 7,
                        .aux = 1,
                        .a = 42});
  s.at(1.0, EngineEvent{.kind = EngineEvent::Kind::kAttemptHop, .a = 9});
  s.after(0.5, EngineEvent{.kind = EngineEvent::Kind::kDeadline, .a = 3});
  s.run();
  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[0].kind, EngineEvent::Kind::kDeadline);
  EXPECT_EQ(sink.events[0].a, 3u);
  EXPECT_EQ(sink.events[1].kind, EngineEvent::Kind::kAttemptHop);
  EXPECT_EQ(sink.events[2].kind, EngineEvent::Kind::kArriveNext);
  EXPECT_EQ(sink.events[2].channel, 7u);
  EXPECT_EQ(sink.events[2].aux, 1u);
  EXPECT_EQ(sink.events[2].a, 42u);
}

TEST(Scheduler, TypedEventWithoutSinkThrows) {
  Scheduler s;
  EXPECT_THROW(s.at(1.0, EngineEvent{.kind = EngineEvent::Kind::kFlush}),
               std::logic_error);
}

TEST(Scheduler, TypedEventWithKindNoneIsRejectedAtScheduleTime) {
  // kNone discriminates callback nodes in the pool; a typed kNone event
  // would mis-dispatch at fire time, so it must fail loudly up front.
  Scheduler s;
  RecordingSink sink;
  s.set_sink(&sink);
  EXPECT_THROW(s.at(1.0, EngineEvent{}), std::invalid_argument);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, TypedAndCallbackEventsInterleaveInTimeOrder) {
  Scheduler s;
  RecordingSink sink;
  s.set_sink(&sink);
  std::vector<int> order;
  s.at(1.0, [&] { order.push_back(1); });
  s.at(2.0, EngineEvent{.kind = EngineEvent::Kind::kFlush});
  s.at(3.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  ASSERT_EQ(sink.events.size(), 1u);
}

// ---- Eager cancellation / pool generations ---------------------------------

TEST(Scheduler, CancelAfterFireReturnsFalseAndKeepsAccounting) {
  // Regression: the tombstone scheduler accepted a cancel() of an already-
  // fired id, inserting a never-collected tombstone and corrupting
  // pending()/empty(). The generation counter now detects it.
  Scheduler s;
  const auto fired = s.at(1.0, [] {});
  s.at(2.0, [] {});
  EXPECT_TRUE(s.step());  // fires the first event
  EXPECT_FALSE(s.cancel(fired));
  EXPECT_EQ(s.pending(), 1u);  // untouched by the stale cancel
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.run(), 1u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, GenerationReuseInvalidatesOldIds) {
  Scheduler s;
  int fired = 0;
  const auto first = s.at(1.0, [&] { ++fired; });
  EXPECT_TRUE(s.cancel(first));
  // The pool slot is recycled; the old id must not cancel the new event.
  const auto second = s.at(1.0, [&] { ++fired; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(s.cancel(first));
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.cancel(second));  // fired: detected stale
}

TEST(Scheduler, CancelRemovesEagerly) {
  Scheduler s;
  std::vector<Scheduler::EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(s.at(1.0 + i, [] {}));
  // Cancel from the middle of the heap; pending must track exactly.
  EXPECT_TRUE(s.cancel(ids[4]));
  EXPECT_TRUE(s.cancel(ids[9]));
  EXPECT_TRUE(s.cancel(ids[0]));
  EXPECT_EQ(s.pending(), 7u);
  EXPECT_EQ(s.run(), 7u);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, DrainWithInterleavedCancelsIsDeterministic) {
  // The same schedule/cancel/step sequence must produce the identical
  // firing order on independent schedulers (the substrate of the N-thread
  // ParallelRunner bit-identity guarantee).
  const auto run_once = [] {
    Scheduler s;
    common::Rng rng(1234);
    std::vector<std::uint64_t> fired;
    std::vector<Scheduler::EventId> live;
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 20; ++i) {
        const double when = rng.uniform(0.0, 100.0);
        const std::uint64_t tag =
            static_cast<std::uint64_t>(round) * 100 + static_cast<std::uint64_t>(i);
        live.push_back(s.at(when, [&fired, tag] { fired.push_back(tag); }));
      }
      // Cancel a random half of the still-known ids (stale ones no-op).
      for (int i = 0; i < 10; ++i) {
        s.cancel(live[rng.index(live.size())]);
      }
      s.run(Scheduler::kForever, 5);  // interleave partial drains
    }
    s.run();
    return fired;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Scheduler, PoolStressReusesSlotsConsistently) {
  // ASan food for the free list: heavy schedule/cancel/fire churn over a
  // small time window forces constant slot recycling and heap growth.
  Scheduler s;
  common::Rng rng(99);
  std::vector<Scheduler::EventId> ids;
  std::size_t fired = 0;
  std::size_t cancelled = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 50; ++i) {
      ids.push_back(s.after(rng.uniform(0.0, 2.0), [&] { ++fired; }));
    }
    for (int i = 0; i < 25; ++i) {
      if (s.cancel(ids[rng.index(ids.size())])) ++cancelled;
    }
    s.run(s.now() + 0.5);
  }
  s.run();
  EXPECT_EQ(fired + cancelled, 200u * 50u);
  EXPECT_TRUE(s.empty());
}

}  // namespace
}  // namespace splicer::sim
