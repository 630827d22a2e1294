#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace splicer::sim {
namespace {

/// Runs one action per event: act() stores the action and returns a
/// kRouterTimer event whose `a` indexes it. Events of any other kind are
/// recorded in `events`, in dispatch order.
class ActionSink final : public EventSink {
 public:
  explicit ActionSink(Scheduler& scheduler) { scheduler.set_sink(this); }

  EngineEvent act(std::function<void()> action) {
    actions_.push_back(std::move(action));
    return EngineEvent{.kind = EngineEvent::Kind::kRouterTimer,
                       .a = actions_.size() - 1};
  }
  void handle_event(const EngineEvent& event) override {
    if (event.kind == EngineEvent::Kind::kRouterTimer) {
      actions_[event.a]();
    } else {
      events.push_back(event);
    }
  }
  std::vector<EngineEvent> events;

 private:
  // A deque: an action that schedules another must not move itself.
  std::deque<std::function<void()>> actions_;
};

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  ActionSink sink(s);
  std::vector<int> order;
  s.at(3.0, sink.act([&] { order.push_back(3); }));
  s.at(1.0, sink.act([&] { order.push_back(1); }));
  s.at(2.0, sink.act([&] { order.push_back(2); }));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Scheduler, TiesBreakBySchedulingOrder) {
  Scheduler s;
  ActionSink sink(s);
  std::vector<int> order;
  s.at(1.0, sink.act([&] { order.push_back(1); }));
  s.at(1.0, sink.act([&] { order.push_back(2); }));
  s.at(1.0, sink.act([&] { order.push_back(3); }));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, AfterIsRelative) {
  Scheduler s;
  ActionSink sink(s);
  double fired_at = -1.0;
  s.at(5.0, sink.act([&] {
    s.after(2.5, sink.act([&] { fired_at = s.now(); }));
  }));
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  ActionSink sink(s);
  double fired_at = -1.0;
  s.at(5.0, sink.act([&] {
    s.at(1.0, sink.act([&] { fired_at = s.now(); }));  // in the past
  }));
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  ActionSink sink(s);
  bool fired = false;
  const auto id = s.at(1.0, sink.act([&] { fired = true; }));
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelTwiceReturnsFalse) {
  Scheduler s;
  ActionSink sink(s);
  const auto id = s.at(1.0, sink.act([] {}));
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
  EXPECT_FALSE(s.cancel(9999));  // unknown id
}

TEST(Scheduler, RunUntilStopsEarly) {
  Scheduler s;
  ActionSink sink(s);
  int count = 0;
  s.at(1.0, sink.act([&] { ++count; }));
  s.at(2.0, sink.act([&] { ++count; }));
  s.at(10.0, sink.act([&] { ++count; }));
  const std::size_t executed = s.run(5.0);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, MaxEventsLimit) {
  Scheduler s;
  ActionSink sink(s);
  int count = 0;
  for (int i = 0; i < 10; ++i) s.at(i, sink.act([&] { ++count; }));
  s.run(Scheduler::kForever, 4);
  EXPECT_EQ(count, 4);
}

TEST(Scheduler, PendingCountsLiveEvents) {
  Scheduler s;
  ActionSink sink(s);
  EXPECT_TRUE(s.empty());
  const auto a = s.at(1.0, sink.act([] {}));
  s.at(2.0, sink.act([] {}));
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler s;
  ActionSink sink(s);
  int count = 0;
  s.at(1.0, sink.act([&] { ++count; }));
  s.at(2.0, sink.act([&] { ++count; }));
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, AtNextBoundaryCoalescesOntoEpochGrid) {
  Scheduler s;
  ActionSink sink(s);
  std::vector<double> fired;
  s.at(0.013, sink.act([&] {
    // Both requests from inside one epoch land on the same boundary.
    s.at_next_boundary(0.010, sink.act([&] { fired.push_back(s.now()); }));
    s.at_next_boundary(0.010, sink.act([&] { fired.push_back(s.now()); }));
  }));
  s.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_NEAR(fired[0], 0.020, 1e-12);
  // Coalescing requires the two boundary timestamps to be bit-identical.
  EXPECT_EQ(fired[0], fired[1]);
}

TEST(Scheduler, AtNextBoundaryIsStrictlyAfterNow) {
  Scheduler s;
  ActionSink sink(s);
  double fired = -1.0;
  s.at(0.020, sink.act([&] {
    // Exactly on a boundary: the next one must be chosen, not this one.
    s.at_next_boundary(0.010, sink.act([&] { fired = s.now(); }));
  }));
  s.run();
  EXPECT_NEAR(fired, 0.030, 1e-12);
  EXPECT_GT(fired, 0.020);
}

TEST(Scheduler, AtNextBoundaryRejectsNonPositivePeriod) {
  Scheduler s;
  ActionSink sink(s);
  EXPECT_THROW(s.at_next_boundary(0.0, sink.act([] {})), std::invalid_argument);
}

// ---- NaN times -------------------------------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(Scheduler, AtRejectsNanTime) {
  // A NaN time used to be accepted: it fired after every finite event and
  // left now() at NaN.
  Scheduler s;
  ActionSink sink(s);
  s.at(1.0, sink.act([] {}));
  EXPECT_THROW(s.at(kNaN, sink.act([] {})), std::invalid_argument);
  EXPECT_THROW(s.at(kNaN, EngineEvent{.kind = EngineEvent::Kind::kFlush}),
               std::invalid_argument);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(s.now(), 1.0);
  EXPECT_TRUE(sink.events.empty());
}

TEST(Scheduler, AfterRejectsNanDelay) {
  Scheduler s;
  ActionSink sink(s);
  s.at(1.0, sink.act([&] {
    EXPECT_THROW(s.after(kNaN, sink.act([] {})), std::invalid_argument);
    EXPECT_THROW(s.after(kNaN, EngineEvent{.kind = EngineEvent::Kind::kFlush}),
                 std::invalid_argument);
  }));
  s.at(3.0, sink.act([] {}));
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(s.now(), 3.0);
  EXPECT_TRUE(sink.events.empty());
}

TEST(Scheduler, AtNextBoundaryRejectsNanPeriod) {
  Scheduler s;
  ActionSink sink(s);
  EXPECT_THROW(s.at_next_boundary(kNaN, sink.act([] {})), std::invalid_argument);
  EXPECT_THROW(s.at_next_boundary(kNaN, EngineEvent{.kind = EngineEvent::Kind::kFlush}),
               std::invalid_argument);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, InfiniteTimeStaysLegal) {
  Scheduler s;
  ActionSink sink(s);
  std::vector<int> order;
  s.at(std::numeric_limits<double>::infinity(), sink.act([&] { order.push_back(2); }));
  s.at(1e300, sink.act([&] { order.push_back(1); }));
  // run() stops at kForever, short of both; step() fires them in order.
  EXPECT_EQ(s.run(), 0u);
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_TRUE(s.step());
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), std::numeric_limits<double>::infinity());
}

TEST(Scheduler, RunCountsOnlyRealExecutions) {
  Scheduler s;
  ActionSink sink(s);
  s.at(1.0, sink.act([] {}));
  const auto cancelled = s.at(2.0, sink.act([] {}));
  s.at(3.0, sink.act([] {}));
  EXPECT_TRUE(s.cancel(cancelled));
  // Cancelled events are skipped without being counted as executed.
  EXPECT_EQ(s.run(), 2u);
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler s;
  ActionSink sink(s);
  std::vector<int> order;
  s.at(1.0, sink.act([&] {
    order.push_back(1);
    s.at(1.5, sink.act([&] { order.push_back(2); }));
  }));
  s.at(2.0, sink.act([&] { order.push_back(3); }));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ---- Typed pooled events ---------------------------------------------------

TEST(Scheduler, TypedEventsDispatchThroughSinkInOrder) {
  Scheduler s;
  ActionSink sink(s);
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
  // kNone means "unset": no sink has a handler for it, so it must fail
  // loudly at the scheduling site, not at fire time.
  Scheduler s;
  ActionSink sink(s);
  EXPECT_THROW(s.at(1.0, EngineEvent{}), std::invalid_argument);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, ActionAndRecordedEventsInterleaveInTimeOrder) {
  Scheduler s;
  ActionSink sink(s);
  std::vector<int> order;
  s.at(1.0, sink.act([&] { order.push_back(1); }));
  s.at(2.0, EngineEvent{.kind = EngineEvent::Kind::kFlush});
  s.at(3.0, sink.act([&] { order.push_back(3); }));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  ASSERT_EQ(sink.events.size(), 1u);
}

// ---- Lazy cancellation / pool generations ----------------------------------

TEST(Scheduler, CancelAfterFireReturnsFalseAndKeepsAccounting) {
  // Regression: the tombstone scheduler accepted a cancel() of an already-
  // fired id, inserting a never-collected tombstone and corrupting
  // pending()/empty(). The generation counter now detects it.
  Scheduler s;
  ActionSink sink(s);
  const auto fired = s.at(1.0, sink.act([] {}));
  s.at(2.0, sink.act([] {}));
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
  ActionSink sink(s);
  int fired = 0;
  const auto first = s.at(1.0, sink.act([&] { ++fired; }));
  EXPECT_TRUE(s.cancel(first));
  // The pool slot is recycled; the old id must not cancel the new event.
  const auto second = s.at(1.0, sink.act([&] { ++fired; }));
  EXPECT_NE(first, second);
  EXPECT_FALSE(s.cancel(first));
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.cancel(second));  // fired: detected stale
}

TEST(Scheduler, PendingIsExactAfterCancelsFromTheMiddle) {
  Scheduler s;
  ActionSink sink(s);
  std::vector<Scheduler::EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(s.at(1.0 + i, sink.act([] {})));
  // Cancel from the middle of the heap; pending must track exactly.
  EXPECT_TRUE(s.cancel(ids[4]));
  EXPECT_TRUE(s.cancel(ids[9]));
  EXPECT_TRUE(s.cancel(ids[0]));
  EXPECT_EQ(s.pending(), 7u);
  EXPECT_EQ(s.run(), 7u);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, CancelledTopNeverMovesClockOrCounts) {
  Scheduler s;
  ActionSink sink(s);
  int fired = 0;
  const auto early = s.at(1.0, sink.act([&] { ++fired; }));
  s.at(5.0, sink.act([&] { ++fired; }));
  EXPECT_TRUE(s.cancel(early));  // the top entry, now cancelled
  EXPECT_EQ(s.pending(), 1u);
  // run(until) stops short of the live event at 5: the cancelled top at 1
  // is dropped, not executed, and the clock stays put.
  EXPECT_EQ(s.run(2.0), 0u);
  EXPECT_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.run(5.0), 1u);
  EXPECT_EQ(s.now(), 5.0);

  // A cancelled top beyond `until` is no different.
  const auto beyond = s.at(7.0, sink.act([&] { ++fired; }));
  s.at(9.0, sink.act([&] { ++fired; }));
  EXPECT_TRUE(s.cancel(beyond));
  EXPECT_EQ(s.run(8.0), 0u);
  EXPECT_EQ(s.now(), 5.0);
  EXPECT_EQ(s.pending(), 1u);

  // Only cancelled entries left: step() reports nothing to do.
  EXPECT_EQ(s.run(), 1u);
  const auto last = s.at(12.0, sink.act([&] { ++fired; }));
  EXPECT_TRUE(s.cancel(last));
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(s.now(), 9.0);
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, SlotReusedAfterCancelFiresOnlyTheNewEvent) {
  // EventIds keep the pool slot in their low 32 bits; each case below
  // checks that the new event really took over the cancelled one's slot,
  // so its stale heap entry and the new live one coexist.
  const auto slot = [](Scheduler::EventId id) { return static_cast<std::uint32_t>(id); };
  Scheduler s;
  ActionSink sink(s);
  std::vector<int> order;
  // Reused for an earlier time: the stale entry at 5 sits below it.
  const auto late = s.at(5.0, sink.act([&] { order.push_back(-1); }));
  EXPECT_TRUE(s.cancel(late));
  const auto early = s.at(1.0, sink.act([&] { order.push_back(1); }));
  EXPECT_EQ(slot(early), slot(late));
  s.at(3.0, sink.act([&] { order.push_back(3); }));
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(s.now(), 3.0);  // the stale entry at 5 never moved the clock
  EXPECT_TRUE(s.empty());

  // Reused for a later time: the stale entry at 4 reaches the top first.
  const auto first = s.at(4.0, sink.act([&] { order.push_back(-2); }));
  EXPECT_TRUE(s.cancel(first));
  const auto second = s.at(6.0, sink.act([&] { order.push_back(6); }));
  EXPECT_EQ(slot(second), slot(first));
  EXPECT_FALSE(s.cancel(first));  // stale id, live slot: still rejected
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.run(5.0), 0u);
  EXPECT_EQ(s.now(), 3.0);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(s.now(), 6.0);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 6}));
}

TEST(Scheduler, DrainWithInterleavedCancelsIsDeterministic) {
  // The same schedule/cancel/step sequence must produce the identical
  // firing order on independent schedulers (the substrate of the N-thread
  // ParallelRunner bit-identity guarantee).
  const auto run_once = [] {
    Scheduler s;
    ActionSink sink(s);
    common::Rng rng(1234);
    std::vector<std::uint64_t> fired;
    std::vector<Scheduler::EventId> live;
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 20; ++i) {
        const double when = rng.uniform(0.0, 100.0);
        const std::uint64_t tag =
            static_cast<std::uint64_t>(round) * 100 + static_cast<std::uint64_t>(i);
        live.push_back(s.at(when, sink.act([&fired, tag] { fired.push_back(tag); })));
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
  ActionSink sink(s);
  common::Rng rng(99);
  std::vector<Scheduler::EventId> ids;
  std::size_t fired = 0;
  std::size_t cancelled = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 50; ++i) {
      ids.push_back(s.after(rng.uniform(0.0, 2.0), sink.act([&] { ++fired; })));
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

// ---- Differential check against a reference model -------------------------

/// One seeded script of random operations, mirrored on a reference model:
/// a std::set of live (when, seq) keys plus a map of live ids. After every
/// operation the pop order, now(), pending() and empty() must match the
/// model, as must every cancel() result and every run() count.
void run_differential_script(std::uint64_t seed, int ops) {
  Scheduler s;
  ActionSink sink(s);
  // Every event ends up here in firing order, its seq in `a`: a kFlush
  // event is recorded by the sink, an action records itself.
  const std::vector<EngineEvent>& fired = sink.events;

  common::Rng rng(seed);
  std::set<std::pair<double, std::uint64_t>> model;
  std::map<Scheduler::EventId, std::pair<double, std::uint64_t>> live;
  std::map<std::uint64_t, Scheduler::EventId> id_of_seq;
  std::vector<Scheduler::EventId> dead;  // fired or cancelled
  std::vector<std::uint64_t> expected;   // model firing order
  std::vector<double> times;             // earlier targets, for exact ties
  double now = 0.0;
  std::uint64_t next_seq = 0;

  const auto model_pop = [&] {
    const auto top = *model.begin();
    model.erase(model.begin());
    now = top.first;
    expected.push_back(top.second);
    const Scheduler::EventId id = id_of_seq.at(top.second);
    live.erase(id);
    dead.push_back(id);
  };

  std::size_t checked = 0;
  for (int op = 0; op < ops; ++op) {
    const std::string where = "seed " + std::to_string(seed) + " op " + std::to_string(op);
    const std::size_t kind = rng.index(10);
    if (kind < 4) {
      // Schedule: zero delays, past times (clamped), exact ties with an
      // earlier target, and fresh times on a coarse grid (more ties).
      const std::uint64_t seq = next_seq++;
      double when;
      switch (rng.index(5)) {
        case 0: when = now; break;
        case 1: when = now - rng.uniform(0.0, 5.0); break;
        case 2: when = times.empty() ? now : times[rng.index(times.size())]; break;
        default: when = now + std::floor(rng.uniform(0.0, 10.0) * 4.0) / 4.0; break;
      }
      times.push_back(when);
      const bool relative = rng.bernoulli(0.3);
      const double delay = when - now;
      const double target = relative ? now + delay : when;
      Scheduler::EventId id;
      if (rng.bernoulli(0.5)) {
        const EngineEvent event{.kind = EngineEvent::Kind::kFlush, .a = seq};
        id = relative ? s.after(delay, event) : s.at(when, event);
      } else {
        const EngineEvent record = sink.act([&sink, seq] {
          sink.events.push_back(EngineEvent{.kind = EngineEvent::Kind::kFlush, .a = seq});
        });
        id = relative ? s.after(delay, record) : s.at(when, record);
      }
      const std::pair<double, std::uint64_t> key{target < now ? now : target, seq};
      model.insert(key);
      ASSERT_TRUE(live.emplace(id, key).second) << where << ": id reused while live";
      id_of_seq[seq] = id;
    } else if (kind < 6) {
      // Cancel a live, a fired/cancelled or an unknown id.
      Scheduler::EventId id;
      const std::size_t which = rng.index(4);
      if (which == 0 && !live.empty()) {
        auto it = live.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.index(live.size())));
        id = it->first;
      } else if (which == 1 && !dead.empty()) {
        id = dead[rng.index(dead.size())];
      } else if (which == 2) {
        id = rng.index(64);  // generation 0 is never handed out
      } else {
        id = (Scheduler::EventId{1} << 32) | 0xfffffff0u;  // slot past the pool
      }
      const auto it = live.find(id);
      const bool expect = it != live.end();
      if (expect) {
        model.erase(it->second);
        live.erase(it);
        dead.push_back(id);
      }
      ASSERT_EQ(s.cancel(id), expect) << where;
    } else if (kind < 8) {
      const bool expect = !model.empty();
      if (expect) model_pop();
      ASSERT_EQ(s.step(), expect) << where;
    } else {
      const double until =
          rng.bernoulli(0.2) ? Scheduler::kForever : now + rng.uniform(0.0, 5.0);
      const std::size_t max_events =
          rng.bernoulli(0.3) ? Scheduler::kUnlimited : rng.index(8);
      std::size_t count = 0;
      while (count < max_events && !model.empty() && model.begin()->first <= until) {
        model_pop();
        ++count;
      }
      ASSERT_EQ(s.run(until, max_events), count) << where;
    }
    ASSERT_EQ(fired.size(), expected.size()) << where;
    for (; checked < expected.size(); ++checked) {
      ASSERT_EQ(fired[checked].a, expected[checked]) << where;
    }
    ASSERT_EQ(s.now(), now) << where;
    ASSERT_EQ(s.pending(), model.size()) << where;
    ASSERT_EQ(s.empty(), model.empty()) << where;
  }
}

TEST(Scheduler, MatchesReferenceModelOnRandomScripts) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    run_differential_script(seed, 3000);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace splicer::sim
