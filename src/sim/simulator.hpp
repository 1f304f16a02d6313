// Discrete-event simulator kernel.
//
// Single-threaded, deterministic: events at equal timestamps fire in
// scheduling order (FIFO via a sequence number).  Simulated processes are
// coroutines (see task.hpp); the simulator only ever resumes them from its
// event loop, never reentrantly, so process code observes plain sequential
// semantics at each timestamp.
//
// The event queue is a two-tier ladder: a binary min-heap over the events
// nearest in (time, seq) order and an unsorted "far" tier for everything
// beyond the current horizon.  Scheduling into the far tier is O(1); when
// the near heap drains, the next chunk of the far tier is split off with a
// selection pass and heapified.  Cancellation is *real* removal: a far
// event is swap-removed immediately, and a near event leaves a tombstone
// that a compaction pass reclaims once tombstones outnumber live entries —
// so the heavy cancel/reschedule traffic fluid resources generate can no
// longer grow the queue without bound (the previous single priority_queue
// kept every tombstone until its timestamp drained).  The (time, seq) fire
// order is exactly the total order the old queue produced.
//
// reschedule() moves a pending event without rebuilding it: it draws the
// same fresh seq a cancel() + schedule() pair would, and a far-tier record
// is simply re-keyed where it sits (no allocation, no new callback).  Fire
// order depends only on the unique (time, seq) keys and the far tier's size
// moves exactly as under cancel() + schedule(), so the two are
// indistinguishable to everything but the allocator.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/task.hpp"
#include "sim/types.hpp"

namespace avf::sim {

class Simulator;

/// Handle to a scheduled event; allows cancellation.  Default-constructed
/// handles are inert.  Cancelling an already-fired event is a no-op.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel();
  bool pending() const;

  struct Record {
    std::function<void()> fn;
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    bool cancelled = false;
    bool fired = false;
    /// Position in the owning simulator's far tier; -1 while in the near
    /// heap (or already popped).  Lets cancel() remove far events in O(1).
    std::int64_t far_index = -1;
    Simulator* sim = nullptr;
  };

 private:
  friend class Simulator;
  explicit EventHandle(std::weak_ptr<Record> rec) : rec_(std::move(rec)) {}
  std::weak_ptr<Record> rec_;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  /// Destroys the frames of spawned processes still suspended mid-await —
  /// a completed detached frame self-destroys at final suspend, but one the
  /// run never resumed again would otherwise be lost when the event queue
  /// (holding the only handle to it) dies.
  ~Simulator();

  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule(SimTime delay, std::function<void()> fn);
  /// Schedule at an absolute time >= now().
  EventHandle schedule_at(SimTime when, std::function<void()> fn);

  /// Move the pending event behind `handle` to now() + `delay` (>= 0),
  /// keeping its callback.  Equivalent to cancel() followed by schedule()
  /// with the same callback: the event takes a fresh seq, so it fires after
  /// every event already queued at its new time.  A far-tier record is
  /// re-keyed in place (and joins the near heap if the new time falls below
  /// the horizon); a near-heap record leaves a tombstone and `handle` is
  /// repointed at a new record.  Returns false, changing nothing, when
  /// `handle` is default-constructed, cancelled or already fired.
  bool reschedule(EventHandle& handle, SimTime delay);

  /// Launch a detached process coroutine; its body starts at the current
  /// time, after already-queued events at this timestamp.
  void spawn(Task<> task);

  /// Run until the event queue drains; throws the first exception escaping a
  /// detached process.
  void run();
  /// Run events with time <= `t`, then set now() = t.
  void run_until(SimTime t);
  /// Execute the next live event; returns false when none remain.
  bool step();

  /// Awaitable: suspend the calling process for `dt` seconds.
  ///   co_await sim.delay(0.5);
  auto delay(SimTime dt) {
    struct Awaiter {
      Simulator& sim;
      SimTime dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim.schedule(dt, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dt};
  }

  /// Awaitable: yield to other events queued at the current timestamp.
  auto yield() { return delay(0.0); }

  /// Resume `h` via a zero-delay event — the only sanctioned way for
  /// non-process code (resources, mailboxes) to wake a process.
  void resume_soon(std::coroutine_handle<> h) {
    schedule(0.0, [h] { h.resume(); });
  }

  /// Number of events processed so far (for micro-benchmarks/tests).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Live (not cancelled) events currently queued.
  std::size_t queued_events() const {
    return near_.size() - near_cancelled_ + far_.size();
  }
  /// Physical queue entries, tombstones included.  Bounded relative to
  /// queued_events() by the compaction rule: at most half of the near heap
  /// is ever tombstones.
  std::size_t queue_entries() const { return near_.size() + far_.size(); }
  /// Near-heap tombstone reclamation passes run so far.
  std::uint64_t compactions() const { return compactions_; }
  /// Far-tier records swap-removed in O(1) without leaving a tombstone:
  /// every cancel() of a far event, plus every reschedule() that pulls a
  /// far event below the horizon into the near heap.  A reschedule() that
  /// stays in the far tier re-keys the record in place and is not counted.
  std::uint64_t far_removals() const { return far_removals_; }

  /// Allocate a fresh consumer identity for resource accounting.
  OwnerId new_owner_id() { return ++last_owner_id_; }

  // Internal: detached-process exception reporting (see task.hpp).
  void record_exception(std::exception_ptr e);
  // Internal: a detached frame completed and is about to self-destroy.
  void detached_done(void* frame) noexcept { detached_.erase(frame); }
  // Internal: EventHandle::cancel() routes here for real removal.
  void on_cancelled(EventHandle::Record& rec);

 private:
  struct NearEntry {
    SimTime time;
    std::uint64_t seq;
    std::shared_ptr<EventHandle::Record> rec;
  };
  /// Min-heap comparator: true when `a` fires after `b`.
  struct FiresAfter {
    bool operator()(const NearEntry& a, const NearEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Pop cancelled entries off the near-heap top.
  void prune_near_top();
  /// Make the next live event the near-heap top; false when drained.
  bool ensure_next_live();
  /// Insert a keyed record into the tier its time belongs to.
  void enqueue(std::shared_ptr<EventHandle::Record> rec);
  /// Split the nearest chunk of the far tier into the (empty) near heap
  /// and advance the horizon to the largest migrated key.
  void migrate_from_far();
  /// Swap-remove a cancelled record from the far tier.
  void remove_far(EventHandle::Record& rec);
  /// Rebuild the near heap without tombstones once they outnumber live
  /// entries (the >1/2 compaction rule).
  void maybe_compact_near();

  /// Fire the next event; the caller has checked ensure_next_live().
  void fire_next();
  void rethrow_if_failed();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  OwnerId last_owner_id_ = kNoOwner;

  std::vector<NearEntry> near_;  // binary heap under FiresAfter
  std::size_t near_cancelled_ = 0;
  std::vector<std::shared_ptr<EventHandle::Record>> far_;
  /// Events with key <= (horizon_time_, horizon_seq_) go near; the far
  /// tier holds strictly greater keys only.
  SimTime horizon_time_ = -1.0;  // before any valid time; see schedule_at
  std::uint64_t horizon_seq_ = 0;
  bool far_is_everything_ = true;  // no horizon picked yet

  /// Largest time ever scheduled.  run() leaves now() here once drained —
  /// the same final clock the old queue produced by popping every
  /// tombstone in time order.
  SimTime max_event_time_ = 0.0;

  std::uint64_t compactions_ = 0;
  std::uint64_t far_removals_ = 0;

  std::exception_ptr pending_exception_;
  // Live spawned frames (see ~Simulator), each tagged with its spawn
  // sequence number so teardown destroys them in spawn order.  Iterating
  // the hash map directly would walk pointer-valued keys in address order —
  // nondeterministic across runs, and frame destruction runs coroutine
  // locals' destructors, which may log or touch shared state.
  std::unordered_map<void*, std::uint64_t> detached_;
  std::uint64_t next_spawn_seq_ = 0;
};

}  // namespace avf::sim
