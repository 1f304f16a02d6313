#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/fmt.hpp"

namespace avf::sim {

namespace {
/// Smallest far-tier chunk a migration splits off.  Keeps tiny workloads in
/// pure-heap behavior while letting big waves amortize the selection scan.
constexpr std::size_t kMinMigration = 64;
}  // namespace

namespace detail {
void report_detached_exception(Simulator& sim, std::exception_ptr e) {
  sim.record_exception(e);
}

void deregister_detached(Simulator& sim, void* frame) noexcept {
  sim.detached_done(frame);
}
}  // namespace detail

Simulator::~Simulator() {
  // Destroying a root frame runs the destructors of its locals, which in
  // turn destroy any awaited child Task frames — so only roots are tracked.
  // Destruction happens in spawn order: the tracking map is keyed on frame
  // *addresses*, so iterating it directly would destroy frames in
  // address-hash order — nondeterministic across runs (ASLR), and locals'
  // destructors can produce observable effects (log lines).
  std::vector<std::pair<std::uint64_t, void*>> frames;
  frames.reserve(detached_.size());
  // avf-srclint: allow(src.unordered-iteration the hash order is erased by the sort below; destruction runs in spawn order)
  for (const auto& [frame, seq] : detached_) frames.emplace_back(seq, frame);
  detached_.clear();
  std::sort(frames.begin(), frames.end());
  for (const auto& [seq, frame] : frames) {
    std::coroutine_handle<>::from_address(frame).destroy();
  }
}

void EventHandle::cancel() {
  auto rec = rec_.lock();
  if (!rec || rec->cancelled || rec->fired) return;
  rec->cancelled = true;
  rec->fn = nullptr;  // release captured state eagerly
  if (rec->sim != nullptr) rec->sim->on_cancelled(*rec);
}

bool EventHandle::pending() const {
  auto rec = rec_.lock();
  return rec != nullptr && !rec->cancelled && !rec->fired;
}

void Simulator::on_cancelled(EventHandle::Record& rec) {
  if (rec.far_index >= 0) {
    remove_far(rec);
    return;
  }
  // In the near heap: leave a tombstone, reclaim in bulk when they
  // outnumber live entries.
  ++near_cancelled_;
  maybe_compact_near();
}

void Simulator::remove_far(EventHandle::Record& rec) {
  std::size_t i = static_cast<std::size_t>(rec.far_index);
  rec.far_index = -1;
  if (i + 1 != far_.size()) {
    far_[i] = std::move(far_.back());
    far_[i]->far_index = static_cast<std::int64_t>(i);
  }
  far_.pop_back();
  ++far_removals_;
}

void Simulator::maybe_compact_near() {
  if (near_cancelled_ * 2 <= near_.size()) return;
  std::erase_if(near_, [](const NearEntry& e) { return e.rec->cancelled; });
  std::make_heap(near_.begin(), near_.end(), FiresAfter{});
  near_cancelled_ = 0;
  ++compactions_;
}

EventHandle Simulator::schedule(SimTime delay, std::function<void()> fn) {
  if (delay < 0.0) {
    throw std::invalid_argument(
        avf::util::format("negative event delay: {}", delay));
  }
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Simulator::schedule_at(SimTime when, std::function<void()> fn) {
  if (when < now_) {
    throw std::invalid_argument(avf::util::format(
        "event scheduled in the past: {} < now {}", when, now_));
  }
  auto rec = std::make_shared<EventHandle::Record>();
  rec->fn = std::move(fn);
  rec->time = when;
  rec->seq = next_seq_++;
  rec->sim = this;
  if (when > max_event_time_) max_event_time_ = when;
  EventHandle handle(rec);
  enqueue(std::move(rec));
  return handle;
}

void Simulator::enqueue(std::shared_ptr<EventHandle::Record> rec) {
  // New keys carry a larger seq than any horizon pivot, so the key
  // comparison against the horizon reduces to the time alone.
  if (!far_is_everything_ && rec->time < horizon_time_) {
    SimTime t = rec->time;
    std::uint64_t s = rec->seq;
    near_.push_back(NearEntry{t, s, std::move(rec)});
    std::push_heap(near_.begin(), near_.end(), FiresAfter{});
  } else {
    rec->far_index = static_cast<std::int64_t>(far_.size());
    far_.push_back(std::move(rec));
  }
}

bool Simulator::reschedule(EventHandle& handle, SimTime delay) {
  auto rec = handle.rec_.lock();
  if (!rec || rec->cancelled || rec->fired) return false;
  if (delay < 0.0) {
    throw std::invalid_argument(
        avf::util::format("negative event delay: {}", delay));
  }
  SimTime when = now_ + delay;
  if (rec->far_index >= 0) {
    // Re-key in place.  The far tier is unordered, so the record's slot is
    // as good as the back slot cancel() + schedule() would have used.
    rec->time = when;
    rec->seq = next_seq_++;
    if (when > max_event_time_) max_event_time_ = when;
    if (!far_is_everything_ && when < horizon_time_) {
      remove_far(*rec);
      enqueue(std::move(rec));
    }
    return true;
  }
  // In the near heap its slot is unknown: leave a tombstone (the cancel()
  // path) and schedule the same callback afresh.
  std::function<void()> fn = std::move(rec->fn);
  rec->fn = nullptr;
  rec->cancelled = true;
  on_cancelled(*rec);
  handle = schedule_at(when, std::move(fn));
  return true;
}

void Simulator::prune_near_top() {
  while (!near_.empty() && near_.front().rec->cancelled) {
    std::pop_heap(near_.begin(), near_.end(), FiresAfter{});
    near_.pop_back();
    --near_cancelled_;
  }
}

bool Simulator::ensure_next_live() {
  for (;;) {
    prune_near_top();
    if (!near_.empty()) return true;
    if (far_.empty()) return false;
    migrate_from_far();  // far entries are never tombstones
  }
}

void Simulator::migrate_from_far() {
  auto key_less = [](const std::shared_ptr<EventHandle::Record>& a,
                     const std::shared_ptr<EventHandle::Record>& b) {
    if (a->time != b->time) return a->time < b->time;
    return a->seq < b->seq;
  };
  std::size_t k =
      std::min(far_.size(), std::max(kMinMigration, far_.size() / 4));
  if (k < far_.size()) {
    std::nth_element(far_.begin(),
                     far_.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     far_.end(), key_less);
    horizon_time_ = far_[k - 1]->time;
    horizon_seq_ = far_[k - 1]->seq;
  } else {
    auto max_it = std::max_element(far_.begin(), far_.end(), key_less);
    horizon_time_ = (*max_it)->time;
    horizon_seq_ = (*max_it)->seq;
  }
  far_is_everything_ = false;
  near_.reserve(near_.size() + k);
  for (std::size_t i = 0; i < k; ++i) {
    far_[i]->far_index = -1;
    SimTime t = far_[i]->time;
    std::uint64_t s = far_[i]->seq;
    near_.push_back(NearEntry{t, s, std::move(far_[i])});
  }
  far_.erase(far_.begin(), far_.begin() + static_cast<std::ptrdiff_t>(k));
  for (std::size_t i = 0; i < far_.size(); ++i) {
    far_[i]->far_index = static_cast<std::int64_t>(i);
  }
  std::make_heap(near_.begin(), near_.end(), FiresAfter{});
}

void Simulator::spawn(Task<> task) {
  std::coroutine_handle<> h = task.release(*this);
  detached_.emplace(h.address(), next_spawn_seq_++);
  schedule(0.0, [h] { h.resume(); });
}

void Simulator::record_exception(std::exception_ptr e) {
  if (!pending_exception_) pending_exception_ = e;
}

void Simulator::fire_next() {
  std::pop_heap(near_.begin(), near_.end(), FiresAfter{});
  NearEntry entry = std::move(near_.back());
  near_.pop_back();
  now_ = entry.time;
  ++events_processed_;
  entry.rec->fired = true;  // cancel() during the callback is a no-op
  // Move the callback out so state captured by it dies with this scope even
  // if the record lingers in an EventHandle.
  std::function<void()> fn = std::move(entry.rec->fn);
  fn();
}

void Simulator::rethrow_if_failed() {
  if (pending_exception_) {
    std::exception_ptr e = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(e);
  }
}

bool Simulator::step() {
  if (!ensure_next_live()) return false;
  fire_next();
  rethrow_if_failed();
  return true;
}

void Simulator::run() {
  while (ensure_next_live()) {
    fire_next();
    rethrow_if_failed();
  }
  // The old single-queue implementation popped every cancelled entry in
  // time order, so a drained run left now() at the largest time ever
  // scheduled — tombstones included.  Real removal skips those pops;
  // restore the identical final clock explicitly.
  if (max_event_time_ > now_) now_ = max_event_time_;
}

void Simulator::run_until(SimTime t) {
  if (t < now_) {
    throw std::invalid_argument(
        avf::util::format("run_until into the past: {} < now {}", t, now_));
  }
  while (ensure_next_live() && near_.front().time <= t) {
    fire_next();
    rethrow_if_failed();
  }
  now_ = t;
}

}  // namespace avf::sim
