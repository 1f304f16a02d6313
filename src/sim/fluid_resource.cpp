#include "sim/fluid_resource.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/fmt.hpp"

namespace avf::sim {

namespace {
// Work amounts are ops (>= 1e3 scale) or bytes; anything below this is done.
constexpr double kRemainingEpsilon = 1e-7;

double cap_rate_of(const ShareSlot& slot, double capacity) {
  return std::clamp(slot.cap, 0.0, 1.0) * capacity;
}
}  // namespace

FluidResource::FluidResource(Simulator& sim, std::string name, double capacity)
    : sim_(sim), name_(std::move(name)), capacity_(capacity) {
  if (capacity <= 0.0) {
    throw std::invalid_argument(
        avf::util::format("resource {}: capacity must be > 0, got {}", name_,
                    capacity));
  }
}

void FluidResource::set_capacity(double capacity) {
  if (capacity <= 0.0) {
    throw std::invalid_argument(
        avf::util::format("resource {}: capacity must be > 0, got {}", name_,
                    capacity));
  }
  if (mode_ == Mode::kSparse) {
    sparse_set_capacity(capacity);
    return;
  }
  capacity_ = capacity;
  full_reallocate();
}

void FluidResource::reallocate() {
  if (mode_ == Mode::kSparse) {
    sparse_rebuild();
    return;
  }
  full_reallocate();
}

void FluidResource::slot_changed(const ShareSlotPtr& slot) {
  if (slot_uses_.find(slot.get()) == slot_uses_.end()) {
    // No in-flight request holds this slot: nothing the water-filling pass
    // could change.  (Future requests pick up the new cap on arrival.)
    ++noop_slot_reallocs_;
    return;
  }
  reallocate();
}

void FluidResource::add_request(double amount, ShareSlotPtr slot,
                                OwnerId owner, std::coroutine_handle<> h) {
  if (!slot) {
    throw std::invalid_argument(
        avf::util::format("resource {}: null share slot", name_));
  }
  if (slot->weight <= 0.0) {
    throw std::invalid_argument(
        avf::util::format("resource {}: non-positive weight {}", name_,
                    slot->weight));
  }
  if (mode_ == Mode::kDense && requests_.size() >= sparse_threshold_) {
    migrate_to_sparse();
  }
  if (mode_ == Mode::kSparse) {
    sparse_add(amount, std::move(slot), owner, h);
    return;
  }
  SimTime now = sim_.now();
  requests_.push_back(Request{amount, 0.0, now, 0.0, std::move(slot), owner,
                              h, EventHandle{}});
  RequestIt it = std::prev(requests_.end());
  register_request(it);
  double cr = cap_rate_of(*it->slot, capacity_);
  if (all_at_cap_ && cap_rate_sum_ + cr <= capacity_) {
    // Under-loaded arrival: the newcomer runs at exactly its cap and no
    // other flow's allocation moves (the §5.1 guarantee held before and
    // still holds) — O(1), nobody else is touched.
    it->cap_rate = cr;
    it->rate = cr;
    cap_rate_sum_ += cr;
    if (cr > 0.0) {
      ++rate_rescales_;
      schedule_completion(it);
    }
    ++fast_reallocs_;
    flows_skipped_ += requests_.size() - 1;
    return;
  }
  full_reallocate();
}

void FluidResource::register_request(RequestIt it) {
  it->id = next_request_id_++;
  by_id_.emplace(it->id, it);
  owner_index_[it->owner].push_back(&*it);
  ++slot_uses_[it->slot.get()];
}

FluidResource::RequestIt FluidResource::erase_request(RequestIt it) {
  const Request& r = *it;
  by_id_.erase(r.id);
  if (auto oi = owner_index_.find(r.owner); oi != owner_index_.end()) {
    std::erase(oi->second, &r);
    if (oi->second.empty()) owner_index_.erase(oi);
  }
  if (auto su = slot_uses_.find(r.slot.get()); su != slot_uses_.end()) {
    if (--su->second == 0) slot_uses_.erase(su);
  }
  return requests_.erase(it);
}

void FluidResource::credit(Request& r, SimTime now) {
  double dt = now - r.credited_at;
  r.credited_at = now;
  if (dt <= 0.0 || r.rate <= 0.0) return;
  double delta = std::min(r.rate * dt, r.remaining);
  r.remaining -= delta;
  add_served(r.owner, delta);
}

void FluidResource::add_served(OwnerId owner, double delta) {
  if (owner != kNoOwner) served_[owner].add(delta);
  total_served_.add(delta);
}

bool FluidResource::finished(const Request& r, SimTime now) const {
  if (r.remaining <= kRemainingEpsilon) return true;
  // Residual so small the completion delay would not advance the clock:
  // treat as done, otherwise the completion event would fire at the same
  // timestamp, credit zero progress, and respin forever.
  return r.rate > 0.0 && now + r.remaining / r.rate <= now;
}

void FluidResource::schedule_completion(RequestIt it) {
  SimTime delay = it->remaining / it->rate;
  // A pending event keeps its callback (it already names `it`) and is only
  // re-keyed; a fired or never-scheduled one needs a fresh event.
  if (sim_.reschedule(it->completion, delay)) return;
  it->completion = sim_.schedule(delay, [this, it] { on_completion(it); });
}

void FluidResource::on_completion(RequestIt it) {
  SimTime now = sim_.now();
  if (mode_ == Mode::kSparse) {
    advance_virtual(now);
    credit(*it, now);
    if (!finished(*it, now)) {
      schedule_completion(it);
      return;
    }
    sparse_remove_capped(it);
    return;
  }
  credit(*it, now);
  if (!finished(*it, now)) {
    // Floating-point leftover big enough to matter: keep serving it.
    schedule_completion(it);
    return;
  }
  remove_request(it);
}

void FluidResource::remove_request(RequestIt it) {
  it->completion.cancel();
  sim_.resume_soon(it->waiter);
  cap_rate_sum_ -= it->cap_rate;
  erase_request(it);
  if (requests_.empty()) cap_rate_sum_ = 0.0;  // kill accumulated drift
  if (all_at_cap_) {
    // Every surviving flow already runs at its cap; freeing capacity cannot
    // raise anyone above it, so allocations are unchanged — O(1).
    ++fast_reallocs_;
    flows_skipped_ += requests_.size();
    return;
  }
  full_reallocate();
}

void FluidResource::full_reallocate() {
  ++full_reallocs_;
  SimTime now = sim_.now();

  // 1. Credit progress and complete any finished requests.
  for (Request& r : requests_) credit(r, now);
  for (auto it = requests_.begin(); it != requests_.end();) {
    if (finished(*it, now)) {
      it->completion.cancel();
      sim_.resume_soon(it->waiter);
      it = erase_request(it);
    } else {
      ++it;
    }
  }

  // 2. Water-filling: weighted max-min allocation under per-request caps.
  // Rates land in pass_targets_ (parallel to pass_flows_, arrival order) so
  // the current rates survive for the changed-vs-kept comparison below.
  pass_flows_.clear();
  pass_caps_.clear();
  pass_weights_.clear();
  for (auto it = requests_.begin(); it != requests_.end(); ++it) {
    it->cap_rate = cap_rate_of(*it->slot, capacity_);
    pass_flows_.push_back(it);
    pass_caps_.push_back(it->cap_rate);
    pass_weights_.push_back(it->slot->weight);
  }
  pass_targets_.resize(pass_flows_.size());
  water_fill(pass_caps_, pass_weights_, capacity_, pass_targets_,
             pass_unfixed_);

  // 3. Apply: only flows whose rate actually changed get their completion
  // event rescheduled; bit-identical rates keep their pending event (its
  // absolute fire time is already right, and not touching it is what makes
  // capped multi-flow workloads cheap).
  cap_rate_sum_ = 0.0;
  all_at_cap_ = true;
  for (std::size_t i = 0; i < pass_flows_.size(); ++i) {
    RequestIt it = pass_flows_[i];
    Request& r = *it;
    double target = pass_targets_[i];
    // avf-srclint: allow(src.float-accum pass_flows_ is arrival-ordered, so the cap-rate sum order is pinned)
    cap_rate_sum_ += r.cap_rate;
    if (target != r.cap_rate) all_at_cap_ = false;
    if (target == r.rate && (r.rate <= 0.0 || r.completion.pending())) {
      if (r.rate > 0.0) ++rate_keeps_;
      continue;
    }
    r.rate = target;
    ++rate_rescales_;
    if (r.rate > 0.0) {
      schedule_completion(it);
    } else {
      r.completion.cancel();
    }
  }
}

void water_fill(std::span<const double> cap_rate,
                std::span<const double> weight, double capacity,
                std::span<double> rate, std::vector<std::size_t>& unfixed) {
  std::fill(rate.begin(), rate.end(), 0.0);
  unfixed.resize(cap_rate.size());
  for (std::size_t i = 0; i < unfixed.size(); ++i) unfixed[i] = i;
  double budget = capacity;
  while (!unfixed.empty() && budget > 0.0) {
    double weight_sum = 0.0;
    // avf-srclint: allow(src.float-accum unfixed is index-ordered, so the summation order is pinned and byte-identical across runs)
    for (std::size_t i : unfixed) weight_sum += weight[i];
    // Fix every flow whose fair share reaches its cap, compacting the
    // survivors in place: flows are visited (and the budget drawn down) in
    // index order, so every rate is the same double a per-flow erase gave.
    std::size_t kept = 0;
    for (std::size_t i : unfixed) {
      double fair = budget * weight[i] / weight_sum;
      if (fair >= cap_rate[i]) {
        rate[i] = cap_rate[i];
        // avf-srclint: allow(src.float-accum water-filling visits flows in arrival order; the subtraction order is pinned)
        budget -= cap_rate[i];
      } else {
        unfixed[kept++] = i;
      }
    }
    if (kept == unfixed.size()) {
      // Nobody hits a cap: split the remaining budget by weight.
      for (std::size_t i : unfixed) rate[i] = budget * weight[i] / weight_sum;
      break;
    }
    unfixed.resize(kept);
    budget = std::max(budget, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Sparse engine.
// ---------------------------------------------------------------------------

void FluidResource::advance_virtual(SimTime now) {
  double dt = now - v_updated_at_;
  if (dt > 0.0) vtime_ += mu_ * capacity_ * dt;
  v_updated_at_ = now;
}

double FluidResource::level() const {
  if (fair_count_ == 0) return 0.0;
  return std::max(0.0, (1.0 - s_ncap_.value()) / w_fair_.value());
}

void FluidResource::credit_fair(Request& r) {
  double delta = r.weight * (vtime_ - r.vcredit);
  r.vcredit = vtime_;
  r.credited_at = sim_.now();
  if (delta <= 0.0) return;
  delta = std::min(delta, r.remaining);
  r.remaining -= delta;
  add_served(r.owner, delta);
}

void FluidResource::demote_to_capped(RequestIt it) {
  Request& r = *it;
  credit_fair(r);  // no-op when the flow was (re)inserted at vtime_
  fair_by_ratio_.erase({r.ratio, r.id});
  fair_by_finish_.erase({r.vfinish, r.id});
  w_fair_.sub(r.weight);
  if (--fair_count_ == 0) w_fair_.reset();
  capped_by_ratio_.insert({r.ratio, r.id});
  s_ncap_.add(r.ncap);
  ++capped_count_;
  ++boundary_crossings_;
  double rate = r.ncap * capacity_;
  // A flow that was continuously capped at this same rate (rebuilds pass
  // through here with r.fair still naming the previous side) keeps its
  // pending completion event — its absolute fire time is already right.
  bool keep = !r.fair && rate == r.rate &&
              (rate <= 0.0 || r.completion.pending());
  r.fair = false;
  if (keep) {
    if (rate > 0.0) ++rate_keeps_;
    return;
  }
  r.rate = rate;
  ++rate_rescales_;
  if (rate > 0.0) {
    schedule_completion(it);
  } else {
    r.completion.cancel();
  }
}

void FluidResource::promote_to_fair(RequestIt it) {
  Request& r = *it;
  credit(r, sim_.now());
  r.completion.cancel();
  capped_by_ratio_.erase({r.ratio, r.id});
  s_ncap_.sub(r.ncap);
  if (--capped_count_ == 0) s_ncap_.reset();
  r.fair = true;
  r.rate = 0.0;
  r.vcredit = vtime_;
  r.vfinish = vtime_ + r.remaining / r.weight;
  fair_by_ratio_.insert({r.ratio, r.id});
  fair_by_finish_.insert({r.vfinish, r.id});
  w_fair_.add(r.weight);
  ++fair_count_;
  ++boundary_crossings_;
}

void FluidResource::sparse_rebalance() {
  // Every move strictly raises the level: demoting a fair flow with
  // ratio <= mu removes weight faster than spare capacity, promoting a
  // capped flow with ratio > mu' frees more cap than the weight it adds.
  // A monotonically rising level cannot revisit a configuration, so the
  // loop terminates; the guard below is pure paranoia against FP edge
  // cases at exact-equality boundaries.
  std::size_t guard = 4 * requests_.size() + 8;
  bool moved = true;
  while (moved) {
    moved = false;
    while (fair_count_ > 0) {
      double mu = level();
      FlowKey head = *fair_by_ratio_.begin();
      if (!(head.first <= mu)) break;
      demote_to_capped(by_id_.at(head.second));
      moved = true;
      if (guard-- == 0) return;
    }
    while (capped_count_ > 0) {
      FlowKey tail = *std::prev(capped_by_ratio_.end());
      Request& r = *by_id_.at(tail.second);
      // Level this flow would see as a fair flow; strictly-greater keeps
      // exact cap==share ties capped (either side gives the same rate).
      double mu_if = (1.0 - (s_ncap_.value() - r.ncap)) /
                     (w_fair_.value() + r.weight);
      if (!(r.ratio > std::max(0.0, mu_if))) break;
      promote_to_fair(by_id_.at(tail.second));
      moved = true;
      if (guard-- == 0) return;
    }
  }
}

void FluidResource::sparse_finalize() {
  double mu = level();
  if (mu != mu_) {
    mu_ = mu;
    ++level_updates_;
  }
  double speed = mu_ * capacity_;
  // No fair flow, or capped flows saturate the capacity (starved).
  if (fair_count_ == 0 || speed <= 0.0) {
    fair_head_.cancel();
    return;
  }
  double vf = fair_by_finish_.begin()->first;
  double delay = std::max(0.0, (vf - vtime_) / speed);
  if (sim_.reschedule(fair_head_, delay)) return;
  fair_head_ = sim_.schedule(delay, [this] { on_fair_head(); });
}

void FluidResource::on_fair_head() {
  SimTime now = sim_.now();
  advance_virtual(now);
  bool removed = false;
  while (fair_count_ > 0) {
    FlowKey head = *fair_by_finish_.begin();
    RequestIt it = by_id_.at(head.second);
    Request& r = *it;
    credit_fair(r);
    bool done = r.remaining <= kRemainingEpsilon;
    if (!done) {
      // Mirror finished(): a residual whose completion delay cannot
      // advance the clock would respin this event forever.
      double frate = mu_ * capacity_ * r.weight;
      done = frate > 0.0 && now + r.remaining / frate <= now;
    }
    if (!done) break;
    fair_by_ratio_.erase({r.ratio, r.id});
    fair_by_finish_.erase({r.vfinish, r.id});
    w_fair_.sub(r.weight);
    if (--fair_count_ == 0) w_fair_.reset();
    sim_.resume_soon(r.waiter);
    erase_request(it);
    removed = true;
  }
  if (requests_.empty()) {
    reset_sparse_to_dense();
    return;
  }
  if (removed) {
    ++sparse_events_;
    sparse_rebalance();
  }
  sparse_finalize();
}

void FluidResource::sparse_add(double amount, ShareSlotPtr slot,
                               OwnerId owner, std::coroutine_handle<> h) {
  SimTime now = sim_.now();
  advance_virtual(now);
  requests_.push_back(Request{amount, 0.0, now, 0.0, std::move(slot), owner,
                              h, EventHandle{}});
  RequestIt it = std::prev(requests_.end());
  register_request(it);
  Request& r = *it;
  r.ncap = std::clamp(r.slot->cap, 0.0, 1.0);
  r.weight = r.slot->weight;
  r.ratio = r.ncap / r.weight;
  r.cap_rate = r.ncap * capacity_;
  r.fair = true;
  r.vcredit = vtime_;
  r.vfinish = vtime_ + r.remaining / r.weight;
  fair_by_ratio_.insert({r.ratio, r.id});
  fair_by_finish_.insert({r.vfinish, r.id});
  w_fair_.add(r.weight);
  ++fair_count_;
  ++sparse_events_;
  sparse_rebalance();
  sparse_finalize();
}

void FluidResource::sparse_remove_capped(RequestIt it) {
  Request& r = *it;
  r.completion.cancel();
  capped_by_ratio_.erase({r.ratio, r.id});
  s_ncap_.sub(r.ncap);
  if (--capped_count_ == 0) s_ncap_.reset();
  sim_.resume_soon(r.waiter);
  erase_request(it);
  ++sparse_events_;
  if (requests_.empty()) {
    reset_sparse_to_dense();
    return;
  }
  sparse_rebalance();
  sparse_finalize();
}

void FluidResource::sparse_set_capacity(double capacity) {
  ++full_reallocs_;
  SimTime now = sim_.now();
  advance_virtual(now);
  capacity_ = capacity;
  // The level and the capped/fair boundary are normalized (capacity
  // cancels out of both), so only capped flows — whose absolute rates
  // scale with the capacity — need touching.  Fair flows keep their fixed
  // virtual finish; the virtual clock simply runs at the new speed.
  std::vector<std::uint64_t> done;
  for (const FlowKey& key : capped_by_ratio_) {
    Request& r = *by_id_.at(key.second);
    credit(r, now);
    double rate = r.ncap * capacity_;
    r.cap_rate = rate;
    if (finished(r, now)) {
      done.push_back(key.second);
      continue;
    }
    if (rate == r.rate && (rate <= 0.0 || r.completion.pending())) {
      if (rate > 0.0) ++rate_keeps_;
      continue;
    }
    r.rate = rate;
    ++rate_rescales_;
    if (rate > 0.0) {
      schedule_completion(by_id_.at(key.second));
    } else {
      r.completion.cancel();
    }
  }
  for (std::uint64_t id : done) {
    RequestIt it = by_id_.at(id);
    it->completion.cancel();
    capped_by_ratio_.erase({it->ratio, it->id});
    s_ncap_.sub(it->ncap);
    if (--capped_count_ == 0) s_ncap_.reset();
    sim_.resume_soon(it->waiter);
    erase_request(it);
  }
  if (requests_.empty()) {
    reset_sparse_to_dense();
    return;
  }
  sparse_rebalance();
  sparse_finalize();
}

void FluidResource::sparse_rebuild() {
  ++full_reallocs_;
  SimTime now = sim_.now();
  advance_virtual(now);
  // Set membership is re-derived below; clear first so the sweep can erase
  // requests without set bookkeeping.
  capped_by_ratio_.clear();
  fair_by_ratio_.clear();
  fair_by_finish_.clear();
  s_ncap_.reset();
  w_fair_.reset();
  capped_count_ = 0;
  fair_count_ = 0;
  for (auto it = requests_.begin(); it != requests_.end();) {
    Request& r = *it;
    if (r.fair) {
      credit_fair(r);
    } else {
      credit(r, now);
    }
    bool done = r.fair ? r.remaining <= kRemainingEpsilon : finished(r, now);
    if (done) {
      r.completion.cancel();
      sim_.resume_soon(r.waiter);
      it = erase_request(it);
    } else {
      ++it;
    }
  }
  if (requests_.empty()) {
    reset_sparse_to_dense();
    return;
  }
  rebuild_sparse_partition();
}

void FluidResource::rebuild_sparse_partition() {
  for (auto it = requests_.begin(); it != requests_.end(); ++it) {
    Request& r = *it;
    r.ncap = std::clamp(r.slot->cap, 0.0, 1.0);
    r.weight = r.slot->weight;
    r.ratio = r.ncap / r.weight;
    r.cap_rate = r.ncap * capacity_;
    r.vcredit = vtime_;
    r.vfinish = vtime_ + r.remaining / r.weight;
    // r.fair keeps naming the *previous* side until the partition settles;
    // demote_to_capped() uses it to keep still-valid completion events.
    fair_by_ratio_.insert({r.ratio, r.id});
    fair_by_finish_.insert({r.vfinish, r.id});
    w_fair_.add(r.weight);
    ++fair_count_;
  }
  sparse_rebalance();
  // Flows that settled on the fair side: drop any per-flow completion
  // event left over from their capped/dense past.
  for (const FlowKey& key : fair_by_finish_) {
    Request& r = *by_id_.at(key.second);
    if (!r.fair) {
      r.completion.cancel();
      r.rate = 0.0;
      r.fair = true;
    }
  }
  sparse_finalize();
}

void FluidResource::migrate_to_sparse() {
  ++full_reallocs_;
  ++sparse_activations_;
  SimTime now = sim_.now();
  // Dense-style credit + sweep, exactly like full_reallocate() step 1.
  for (Request& r : requests_) credit(r, now);
  for (auto it = requests_.begin(); it != requests_.end();) {
    if (finished(*it, now)) {
      it->completion.cancel();
      sim_.resume_soon(it->waiter);
      it = erase_request(it);
    } else {
      ++it;
    }
  }
  mode_ = Mode::kSparse;
  vtime_ = 0.0;
  v_updated_at_ = now;
  mu_ = 0.0;
  if (requests_.empty()) {
    reset_sparse_to_dense();
    return;
  }
  rebuild_sparse_partition();
}

void FluidResource::reset_sparse_to_dense() {
  mode_ = Mode::kDense;
  capped_by_ratio_.clear();
  fair_by_ratio_.clear();
  fair_by_finish_.clear();
  s_ncap_.reset();
  w_fair_.reset();
  capped_count_ = 0;
  fair_count_ = 0;
  fair_head_.cancel();
  vtime_ = 0.0;
  mu_ = 0.0;
  cap_rate_sum_ = 0.0;
  all_at_cap_ = true;
}

// ---------------------------------------------------------------------------
// Accounting queries.
// ---------------------------------------------------------------------------

double FluidResource::inflight_progress(const Request& r, SimTime now) const {
  if (mode_ == Mode::kSparse && r.fair) {
    double vnow = vtime_ + mu_ * capacity_ * std::max(0.0, now - v_updated_at_);
    double delta = r.weight * (vnow - r.vcredit);
    if (delta <= 0.0) return 0.0;
    return std::min(delta, r.remaining);
  }
  double dt = now - r.credited_at;
  if (dt <= 0.0) return 0.0;
  return std::min(r.rate * dt, r.remaining);
}

double FluidResource::served(OwnerId owner) const {
  // Account the in-flight progress since each request's credit point
  // without mutating.  The owner index iterates in arrival order — the
  // same order (and the same float operations) as a full-list scan.
  double base = 0.0;
  if (auto it = served_.find(owner); it != served_.end()) {
    base = it->second.value();
  }
  SimTime now = sim_.now();
  if (auto oi = owner_index_.find(owner); oi != owner_index_.end()) {
    // avf-srclint: allow(src.float-accum the owner index lists requests in arrival order, matching the full-list scan it replaced)
    for (const Request* r : oi->second) base += inflight_progress(*r, now);
  }
  return base;
}

double FluidResource::total_served() const {
  double base = total_served_.value();
  SimTime now = sim_.now();
  // avf-srclint: allow(src.float-accum requests_ is arrival-ordered, so the summation order is pinned)
  for (const Request& r : requests_) base += inflight_progress(r, now);
  return base;
}

bool FluidResource::has_request(OwnerId owner) const {
  return owner_index_.find(owner) != owner_index_.end();
}

double FluidResource::allocated_rate() const {
  double sum = 0.0;
  for (const Request& r : requests_) {
    if (mode_ == Mode::kSparse && r.fair) {
      // avf-srclint: allow(src.float-accum requests_ is arrival-ordered, so the summation order is pinned)
      sum += mu_ * capacity_ * r.weight;
    } else {
      // avf-srclint: allow(src.float-accum requests_ is arrival-ordered, so the summation order is pinned)
      sum += r.rate;
    }
  }
  return sum;
}

}  // namespace avf::sim
