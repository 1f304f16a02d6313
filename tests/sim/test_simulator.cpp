#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace avf::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(Simulator, FiresEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(Simulator, EqualTimestampsFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedSchedulingAdvancesClock) {
  Simulator sim;
  double inner_time = -1.0;
  sim.schedule(1.0, [&] {
    sim.schedule(0.5, [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(inner_time, 1.5);
}

TEST(Simulator, RejectsNegativeDelay) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule(2.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  EventHandle h = sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(Simulator, CancelFromEventAtSameTimestamp) {
  // Equal-timestamp events run in schedule order, so an earlier event can
  // cancel a later one the queue has already committed to the same time.
  Simulator sim;
  bool fired = false;
  EventHandle victim;
  sim.schedule(1.0, [&] { victim.cancel(); });
  victim = sim.schedule(1.0, [&] { fired = true; });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(victim.pending());
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Simulator, DoubleCancelIsNoop) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule(1.0, [&] { fired = true; });
  h.cancel();
  h.cancel();  // second cancel of a pending-then-cancelled event
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  std::vector<double> fired;
  sim.schedule(1.0, [&] { fired.push_back(1.0); });
  sim.schedule(2.0, [&] { fired.push_back(2.0); });
  sim.schedule(5.0, [&] { fired.push_back(5.0); });
  sim.run_until(3.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(sim.now(), 3.0);
  sim.run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule(3.0, [&] { fired = true; });
  sim.run_until(3.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule(1.0, [&] { ++count; });
  sim.schedule(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule(1.0, [] {});
  EventHandle h = sim.schedule(1.0, [] {});
  h.cancel();
  sim.run();
  EXPECT_EQ(sim.events_processed(), 10u);  // cancelled event not counted
}

TEST(Simulator, OwnerIdsAreUnique) {
  Simulator sim;
  OwnerId a = sim.new_owner_id();
  OwnerId b = sim.new_owner_id();
  EXPECT_NE(a, b);
  EXPECT_NE(a, kNoOwner);
}

// A spawned process still suspended when the simulator dies must have its
// frame (and the frames of children it is awaiting) destroyed — locals'
// destructors run, and LeakSanitizer sees no leak.  Regression: detached
// frames used to be reachable only through the event queue and leaked when
// a run ended with processes mid-await.
TEST(Simulator, AbandonedSpawnedProcessesAreReclaimed) {
  auto cleaned = std::make_shared<int>(0);
  struct Bump {
    std::shared_ptr<int> n;
    ~Bump() { ++*n; }
  };
  {
    Simulator sim;
    auto child = [](Simulator& s, std::shared_ptr<int> n) -> Task<> {
      Bump b{std::move(n)};
      co_await s.delay(100.0);  // never reached before teardown
    };
    auto parent = [&child](Simulator& s, std::shared_ptr<int> n) -> Task<> {
      Bump b{n};
      co_await child(s, std::move(n));
    };
    sim.spawn(parent(sim, cleaned));
    sim.spawn(child(sim, cleaned));
    sim.run_until(1.0);  // both processes now parked on delay(100)
    EXPECT_EQ(*cleaned, 0);
  }
  EXPECT_EQ(*cleaned, 3);  // parent + its child + the directly spawned child
}

// Teardown of abandoned frames must run in spawn order.  Regression: the
// tracker used to be iterated directly — a hash map keyed on frame
// *addresses*, so the destruction order (observable through locals'
// destructors, which may log) varied with ASLR from run to run.
TEST(Simulator, AbandonedProcessesDestroyedInSpawnOrder) {
  std::vector<int> order;
  struct Tracer {
    std::vector<int>* order;
    int id;
    ~Tracer() { order->push_back(id); }
  };
  {
    Simulator sim;
    auto forever = [](Simulator& s, std::vector<int>& log,
                      int id) -> Task<> {
      Tracer t{&log, id};
      co_await s.delay(1e9);  // never reached before teardown
    };
    for (int i = 0; i < 16; ++i) sim.spawn(forever(sim, order, i));
    sim.run_until(1.0);  // every process is parked on its long delay
    EXPECT_TRUE(order.empty());
  }
  std::vector<int> expected(16);
  for (int i = 0; i < 16; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
}

TEST(Simulator, MassCancellationKeepsQueueBoundedAndOrdered) {
  // Regression for the ladder queue's tombstone handling: 100k
  // schedule/cancel cycles must not accumulate dead entries (the seed
  // implementation kept every cancelled event until its timestamp
  // drained), and the survivors must still fire in exact (time, seq)
  // order.
  Simulator sim;
  std::vector<double> fired;
  std::vector<EventHandle> survivors;
  std::size_t worst_overhead = 0;
  constexpr int kRounds = 100;
  constexpr int kPerRound = 1000;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<EventHandle> handles;
    handles.reserve(kPerRound);
    for (int i = 0; i < kPerRound; ++i) {
      // Mixed horizons so both the near heap and the far tier see
      // cancellations.
      double delay = (i % 97 + 1) * (i % 2 ? 0.001 : 1.0);
      double at = sim.now() + delay;
      handles.push_back(sim.schedule(delay, [&fired, at] {
        fired.push_back(at);
      }));
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (i % 100 != 0) {
        handles[i].cancel();
      } else {
        survivors.push_back(handles[i]);
      }
    }
    // Tombstones may never dominate: compaction keeps physical entries
    // within 2x the live count (+1 for the in-flight rounding).
    ASSERT_LE(sim.queue_entries(), 2 * sim.queued_events() + 1);
    worst_overhead = std::max(worst_overhead, sim.queue_entries());
    sim.run_until(sim.now() + 0.005);
  }
  EXPECT_GT(sim.compactions(), 0u);   // near-heap tombstone reclamation ran
  EXPECT_GT(sim.far_removals(), 0u);  // far-tier O(1) removals ran
  // 100k scheduled, 99k cancelled: the queue never held anywhere near the
  // cancelled volume — only ~2x the 1000 surviving events.
  EXPECT_LE(worst_overhead, 2u * kRounds * (kPerRound / 100) + 16u);
  sim.run();
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  std::size_t still_pending = 0;
  for (EventHandle& h : survivors) still_pending += h.pending() ? 1 : 0;
  EXPECT_EQ(still_pending, 0u);
  EXPECT_EQ(fired.size(), survivors.size());
  EXPECT_EQ(sim.queue_entries(), 0u);
}

TEST(Simulator, CompletedSpawnedProcessesAreNotDoubleDestroyed) {
  Simulator sim;
  int runs = 0;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulator& s, int& r) -> Task<> {
      co_await s.yield();
      ++r;
    }(sim, runs));
  }
  sim.run();
  EXPECT_EQ(runs, 4);  // frames self-destroyed at final suspend; the
                       // destructor must find nothing left to reclaim
}

// -- reschedule() -----------------------------------------------------------

TEST(Simulator, RescheduleKeepsEqualTimeFifo) {
  Simulator sim;
  std::vector<int> order;
  auto push = [&order](int i) { return [&order, i] { order.push_back(i); }; };
  EventHandle a = sim.schedule(1.0, push(0));
  sim.schedule(1.0, push(1));
  EventHandle c = sim.schedule(2.0, push(2));
  sim.schedule(1.0, push(3));
  // A moved event takes a fresh seq, exactly like cancel() + schedule():
  // it fires after everything already queued at its new time, even when
  // the time did not change.
  EXPECT_TRUE(sim.reschedule(a, 1.0));
  EXPECT_TRUE(sim.reschedule(c, 1.0));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 0, 2}));
  EXPECT_EQ(sim.now(), 2.0);  // the drained clock still covers the old time
}

TEST(Simulator, RescheduleMovesAcrossTheHorizon) {
  Simulator sim;
  std::vector<double> fired;
  std::vector<EventHandle> h;
  for (int i = 0; i < 1000; ++i) {
    h.push_back(sim.schedule(1.0 + i, [&] { fired.push_back(sim.now()); }));
  }
  // Fires t=1 after splitting the nearest quarter (t <= 250) into the near
  // heap; t=251..1000 stay in the far tier.
  ASSERT_TRUE(sim.step());
  const std::uint64_t removals = sim.far_removals();
  const std::size_t entries = sim.queue_entries();

  // Far -> far: the record is re-keyed where it sits.
  EXPECT_TRUE(sim.reschedule(h[900], 899.5));  // 901 -> 900.5
  EXPECT_EQ(sim.far_removals(), removals);
  EXPECT_EQ(sim.queue_entries(), entries);
  // Far -> near: pulled below the horizon, swap-removed from the far tier.
  EXPECT_TRUE(sim.reschedule(h[800], 9.25));  // 801 -> 10.25
  EXPECT_EQ(sim.far_removals(), removals + 1);
  EXPECT_EQ(sim.queue_entries(), entries);
  // Near -> far and near -> near: a tombstone plus a new record.
  EXPECT_TRUE(sim.reschedule(h[5], 1999.0));  // 6 -> 2000
  EXPECT_TRUE(sim.reschedule(h[10], 2.5));    // 11 -> 3.5
  EXPECT_EQ(sim.queue_entries(), entries + 2);
  EXPECT_EQ(sim.queued_events(), 999u);
  EXPECT_TRUE(h[5].pending());
  EXPECT_TRUE(h[10].pending());

  sim.run();
  std::vector<double> expected;
  for (int i = 0; i < 1000; ++i) {
    if (i != 5 && i != 10 && i != 800 && i != 900) expected.push_back(1.0 + i);
  }
  for (double t : {3.5, 10.25, 900.5, 2000.0}) expected.push_back(t);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.now(), 2000.0);
  EXPECT_FALSE(h[5].pending());
}

TEST(Simulator, RescheduledHandleStillCancels) {
  Simulator sim;
  int fired = 0;
  std::vector<EventHandle> h;
  for (int i = 0; i < 200; ++i) {
    h.push_back(sim.schedule(1.0 + i, [&fired] { ++fired; }));
  }
  ASSERT_TRUE(sim.step());  // t=1 fires; t <= 64 sit in the near heap
  EXPECT_TRUE(sim.reschedule(h[3], 500.0));  // near record: handle repointed
  EXPECT_TRUE(sim.reschedule(h[150], 0.5));  // far record: moves near
  EXPECT_TRUE(sim.reschedule(h[199], 300.0));  // far record: stays far
  h[3].cancel();
  h[150].cancel();
  h[199].cancel();
  EXPECT_FALSE(h[3].pending());
  EXPECT_EQ(sim.queued_events(), 196u);
  sim.run();
  EXPECT_EQ(fired, 197);
}

TEST(Simulator, RescheduleRejectsFiredCancelledAndDefaultHandles) {
  Simulator sim;
  std::vector<int> order;
  EventHandle none;
  EXPECT_FALSE(sim.reschedule(none, 1.0));

  EventHandle gone = sim.schedule(1.0, [&order] { order.push_back(-1); });
  gone.cancel();
  EXPECT_FALSE(sim.reschedule(gone, 0.5));
  EXPECT_FALSE(gone.pending());

  EventHandle self;
  bool moved_self = true;
  self = sim.schedule(0.5, [&] {
    order.push_back(0);
    moved_self = sim.reschedule(self, 1.0);  // already firing
  });
  EventHandle done = sim.schedule(0.25, [&order] { order.push_back(1); });
  sim.run();
  EXPECT_FALSE(moved_self);
  EXPECT_FALSE(sim.reschedule(done, 1.0));
  EXPECT_EQ(sim.queued_events(), 0u);
  EXPECT_EQ(sim.queue_entries(), 0u);
  sim.run();  // nothing was revived
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.now(), 1.0);

  // A negative delay throws and leaves the event where it was.
  EventHandle later = sim.schedule(2.0, [&order] { order.push_back(2); });
  EXPECT_THROW(sim.reschedule(later, -1.0), std::invalid_argument);
  EXPECT_TRUE(later.pending());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(sim.now(), 3.0);
}

/// One simulator driven by a seeded script: every firing moves a few
/// events (pending, fired or cancelled ones alike) to quantized delays —
/// equal-time ties are common, so seq order is exercised — and sometimes
/// cancels one.  `in_place` moves with reschedule(); otherwise with
/// cancel() + schedule(), as the fluid resources did before reschedule().
class MoveScript {
 public:
  MoveScript(std::uint64_t seed, bool in_place)
      : rng_(seed), in_place_(in_place) {
    for (int id = 0; id < kEvents; ++id) {
      handles_.push_back(sim_.schedule(draw_delay(), callback(id)));
    }
  }

  Simulator& sim() { return sim_; }
  const std::vector<std::pair<int, double>>& log() const { return log_; }

 private:
  static constexpr int kEvents = 600;
  static constexpr std::size_t kMaxFires = 20000;

  double draw_delay() {
    // Mostly near-term, a quarter far out: both tiers see moves.
    double far = rng_.next_below(4) == 0 ? 40.0 : 0.0;
    return far + static_cast<double>(rng_.next_below(64)) * 0.125;
  }

  std::function<void()> callback(int id) {
    return [this, id] { on_fire(id); };
  }

  void move(int id, double delay) {
    EventHandle& h = handles_[static_cast<std::size_t>(id)];
    if (in_place_) {
      if (!sim_.reschedule(h, delay)) h = sim_.schedule(delay, callback(id));
    } else {
      h.cancel();
      h = sim_.schedule(delay, callback(id));
    }
  }

  void on_fire(int id) {
    log_.emplace_back(id, sim_.now());
    if (log_.size() >= kMaxFires) return;  // let the queue drain
    for (int k = 0; k < 2; ++k) {
      move(static_cast<int>(rng_.next_below(kEvents)), draw_delay());
    }
    if (rng_.next_below(4) == 0) {
      handles_[rng_.next_below(kEvents)].cancel();
    }
  }

  Simulator sim_;
  util::SplitMix64 rng_;
  bool in_place_;
  std::vector<EventHandle> handles_;
  std::vector<std::pair<int, double>> log_;
};

TEST(Simulator, RescheduleMatchesCancelPlusSchedule) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    MoveScript moved(seed, true);
    MoveScript rebuilt(seed, false);
    for (double t = 0.5; t < 200.0; t += 0.5) {
      moved.sim().run_until(t);
      rebuilt.sim().run_until(t);
      ASSERT_EQ(moved.sim().queued_events(), rebuilt.sim().queued_events())
          << "t=" << t;
      ASSERT_EQ(moved.sim().compactions(), rebuilt.sim().compactions())
          << "t=" << t;
    }
    moved.sim().run();
    rebuilt.sim().run();
    EXPECT_EQ(moved.log(), rebuilt.log());
    EXPECT_EQ(moved.sim().events_processed(),
              rebuilt.sim().events_processed());
    EXPECT_EQ(moved.sim().compactions(), rebuilt.sim().compactions());
    EXPECT_EQ(moved.sim().queued_events(), 0u);
    EXPECT_EQ(moved.sim().now(), rebuilt.sim().now());
    EXPECT_GT(moved.sim().compactions(), 0u);
    // In-place moves inside the far tier are not removals.
    EXPECT_LT(moved.sim().far_removals(), rebuilt.sim().far_removals());
  }
}

}  // namespace
}  // namespace avf::sim
