#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace paraio::sim {

namespace {

/// SplitMix64 finalizer: a fixed bijection on 64-bit values, so distinct
/// sequence numbers always map to distinct tie-break keys.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

bool EventQueue::earlier(const Entry& a, const Entry& b) noexcept {
  if (a.when != b.when) return a.when < b.when;
  return a.key < b.key;
}

std::size_t EventQueue::Rung::storage_bytes() const noexcept {
  std::size_t bytes = sizeof(Rung) + buckets.capacity() * sizeof(buckets[0]);
  for (const std::vector<Entry>& b : buckets) {
    bytes += b.capacity() * sizeof(Entry);
  }
  return bytes;
}

bool EventQueue::all_same_when(const std::vector<Entry>& entries) noexcept {
  for (const Entry& e : entries) {
    if (e.when != entries.front().when) return false;
  }
  return true;
}

void EventQueue::set_tie_break_seed(std::uint64_t seed) {
  assert(empty() && "tie-break seed must be set while the queue is empty");
  tie_seed_ = seed;
}

std::uint32_t EventQueue::acquire_slot(Action action) {
  if (free_head_ != kNoSlot) {
    const std::uint32_t s = free_head_;
    free_head_ = slots_[s].next_free;
    slots_[s].action = std::move(action);
    return s;
  }
  const auto s = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(Slot{std::move(action), 1, kNoSlot});
  return s;
}

void EventQueue::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.action = Action();  // release captured resources eagerly
  ++s.gen;              // tombstones any entry still in the ladder
  s.next_free = free_head_;
  free_head_ = slot;
}

EventId EventQueue::schedule(SimTime when, Action action) {
  const std::uint64_t seq = next_seq_++;
  const std::uint64_t key = tie_seed_ == 0 ? seq : mix64(seq ^ tie_seed_);
  const std::uint32_t slot = acquire_slot(std::move(action));
  const Entry e{when, key, slots_[slot].gen, slot};
  ++live_;
  route(e);
  // A from-empty schedule may route to the rungs/top; pull it straight into
  // bottom so the "earliest live event is bottom's head" invariant (and with
  // it, const next_time()) holds on every exit.
  if (bottom_empty()) refill();
  return EventId{seq, e.gen, slot};
}

bool EventQueue::cancel(EventId id) {
  if (id.slot >= slots_.size()) return false;
  if (slots_[id.slot].gen != id.gen) return false;  // already fired/cancelled
  release_slot(id.slot);
  --live_;
  refill();  // the cancelled event may have been bottom's earliest
  return true;
}

SimTime EventQueue::next_time() const {
  assert(live_ > 0 && "next_time() on empty queue");
  assert(!bottom_empty() && is_live(bottom_[bottom_head_]));
  return bottom_[bottom_head_].when;
}

std::pair<SimTime, EventQueue::Action> EventQueue::pop() {
  assert(live_ > 0 && "pop() on empty queue");
  assert(!bottom_empty() && is_live(bottom_[bottom_head_]));
  const Entry e = bottom_[bottom_head_];
  ++bottom_head_;
  Action action = std::move(slots_[e.slot].action);
  release_slot(e.slot);
  --live_;
  refill();
  return {e.when, std::move(action)};
}

// --- routing ---------------------------------------------------------------

void EventQueue::route(const Entry& e) {
  if (e.when < bottom_threshold_) {
    insert_bottom(e);
    maybe_spill_bottom();
    return;
  }
  // Singleton fast path: scheduling into an empty queue (the timer-chain /
  // ping-pong shape, where one event is in flight at a time) would route to
  // top_ only for refill() to immediately convert it back.  Going straight
  // into bottom produces the exact state refill_from_top's direct-sort path
  // would: one-entry bottom, threshold raised to nextafter(when).  Guarded
  // on the containers (not live_) because tombstoned entries may still sit
  // in the structures.
  if (rungs_.empty() && top_.empty() && bottom_.empty()) {
    bottom_.push_back(e);
    bottom_head_ = 0;
    bottom_threshold_ = std::max(bottom_threshold_,
                                 std::nextafter(e.when, kTimeInfinity));
    return;
  }
  // Innermost (earliest window) first; route_ends ascend outwards.
  for (std::size_t i = rungs_.size(); i-- > 0;) {
    if (e.when < rungs_[i].route_end) {
      place_in_rung(rungs_[i], e);
      return;
    }
  }
  top_.push_back(e);
  if (e.when < top_min_) top_min_ = e.when;
  if (e.when > top_max_) top_max_ = e.when;
}

void EventQueue::insert_bottom(const Entry& e) {
  // The popped prefix [0, bottom_head_) is dead weight; drop it once it
  // dominates the vector so inserts and spills stay O(live bottom).
  if (bottom_head_ >= 64 && bottom_head_ * 2 >= bottom_.size()) {
    bottom_.erase(bottom_.begin(),
                  bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_));
    bottom_head_ = 0;
  }
  // Common case first: a new event at or past the latest bottom time (FIFO
  // keys make same-instant arrivals sort last) is a plain append.
  if (bottom_.empty() || !earlier(e, bottom_.back())) {
    bottom_.push_back(e);
    return;
  }
  const auto it = std::upper_bound(
      bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_),
      bottom_.end(), e, earlier);
  bottom_.insert(it, e);
}

void EventQueue::place_in_rung(Rung& r, const Entry& e) {
  const std::size_t n = r.n;
  const SimTime off = (e.when - r.start) / r.width;
  std::size_t idx = 0;
  if (off > 0.0) {
    idx = off >= static_cast<SimTime>(n) ? n - 1
                                         : static_cast<std::size_t>(off);
  }
  // Correct the division hint against the exact boundary expression, so
  // placement agrees bit-for-bit with the drain thresholds.
  while (idx + 1 < n && e.when >= r.boundary(idx + 1)) ++idx;
  while (idx > 0 && e.when < r.boundary(idx)) --idx;
  // Entries landing behind the drain point (possible when an inner rung's
  // route_end sits below our boundary(cur)) fold into the next live bucket;
  // the per-bucket sort at drain time restores exact order.
  if (idx < r.cur) idx = r.cur;
  assert(idx < n);
  r.buckets[idx].push_back(e);
}

void EventQueue::maybe_spill_bottom() {
  if (bottom_.size() - bottom_head_ <= kBottomSpillLimit) return;
  // Keep the earliest kBottomKeep entries; move the tail (larger times) into
  // a new innermost rung so sorted inserts stay O(small).  The cut must fall
  // between distinct timestamps: same-instant events split across bottom and
  // a rung could interleave wrongly under a seeded tie-break.
  // bottom_ is sorted by when, so the first distinct timestamp at or past
  // the keep point is an upper_bound away — O(log n), which matters because
  // this runs on every insert while the bottom is over the spill limit (a
  // linear scan here is O(n^2) for same-instant bursts).
  const SimTime keep_when = bottom_[bottom_head_ + kBottomKeep - 1].when;
  const auto cut_it = std::upper_bound(
      bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_ + kBottomKeep),
      bottom_.end(), keep_when,
      [](SimTime w, const Entry& e) { return w < e.when; });
  if (cut_it == bottom_.end()) return;
  const auto cut = static_cast<std::size_t>(cut_it - bottom_.begin());
  const SimTime new_threshold =
      std::nextafter(bottom_[cut - 1].when, kTimeInfinity);
  drain_.assign(bottom_.begin() + static_cast<std::ptrdiff_t>(cut),
                bottom_.end());
  if (!build_rung(new_threshold, bottom_threshold_)) {
    drain_.clear();
    return;
  }
  bottom_.resize(cut);
  bottom_threshold_ = new_threshold;
}

// --- refilling -------------------------------------------------------------

void EventQueue::purge_bottom() noexcept {
  while (bottom_head_ < bottom_.size() && !is_live(bottom_[bottom_head_])) {
    ++bottom_head_;
  }
  if (bottom_head_ == bottom_.size() && bottom_head_ != 0) {
    bottom_.clear();
    bottom_head_ = 0;
  }
}

void EventQueue::refill() {
  purge_bottom();
  while (bottom_empty() && live_ > 0) {
    assert(!rungs_.empty() || !top_.empty());
    if (!rungs_.empty()) {
      refill_from_rung();
    } else {
      refill_from_top();
    }
    purge_bottom();
  }
}

void EventQueue::refill_from_rung() {
  Rung& r = rungs_.back();
  const std::size_t n = r.n;
  while (r.cur < n && r.buckets[r.cur].empty()) ++r.cur;
  if (r.cur == n) {
    bottom_threshold_ = std::max(bottom_threshold_, r.route_end);
    retire_rung();
    return;
  }
  const std::size_t j = r.cur;
  // Copy out rather than swap: the bucket keeps its own buffer, so bucket
  // capacities track what each bucket held instead of whatever the bottom
  // last grew to.
  drain_.assign(r.buckets[j].begin(), r.buckets[j].end());
  r.buckets[j].clear();
  ++r.cur;
  // Everything remaining in this rung (and all outer structures) is at or
  // beyond drain_end; everything in drain_ is strictly below it.
  const SimTime drain_end =
      (j + 1 == n) ? r.route_end : std::min(r.boundary(j + 1), r.route_end);
  // The child must span the drained bucket, not [bottom_threshold_,
  // drain_end): with the latter, a cluster sitting in the LAST bucket keeps
  // drain_end == route_end, the child rung comes out identical to its
  // parent, and the spawn loop never terminates.  Starting at the bucket's
  // own boundary shrinks the window by a factor of n every generation
  // (entries folded forward from below boundary(j) simply land in the
  // child's bucket 0 — placement clamps, and the drain-time sort orders
  // them).  build_rung rejects the window once FP can no longer split it.
  const SimTime child_start = std::max(bottom_threshold_, r.boundary(j));
  if (r.cur == n) retire_rung();  // exhausted; r dangles past this point
  const bool try_spawn = drain_.size() > kSpawnThreshold &&
                         rungs_.size() < kMaxRungs && !all_same_when(drain_);
  if (!try_spawn || !build_rung(child_start, drain_end)) {
    sort_into_bottom(drain_end);
  }
}

void EventQueue::refill_from_top() {
  assert(!top_.empty());
  drain_.swap(top_);  // top_ takes drain_'s empty buffer
  const SimTime tmin = top_min_;
  const SimTime tmax = top_max_;
  top_min_ = kTimeInfinity;
  top_max_ = -kTimeInfinity;
  // nextafter makes the bound exclusive of nothing: future arrivals at
  // exactly tmax still sort into bottom next to the events already there.
  const SimTime threshold = std::nextafter(tmax, kTimeInfinity);
  if (drain_.size() <= kDirectSortLimit || !build_rung(tmin, threshold)) {
    sort_into_bottom(threshold);
  }
}

bool EventQueue::build_rung(SimTime start, SimTime route_end) {
  const std::size_t n = std::min(drain_.size(), kMaxBuckets);
  if (n < 2) return false;
  const SimTime span = route_end - start;
  if (!std::isfinite(span) || span <= 0.0) return false;
  const SimTime width = span / static_cast<SimTime>(n);
  // Reject degenerate windows where the width is absorbed by the magnitude
  // of `start` — the boundary expression could not separate buckets, and the
  // fallback (a plain sort) is both correct and cheaper.
  if (!(width > 0.0) || !(start + width > start)) return false;
  if (spare_rungs_.empty()) {
    rungs_.emplace_back();
  } else {
    spare_bytes_ -= spare_rungs_.back().spare_bytes;
    rungs_.push_back(std::move(spare_rungs_.back()));
    spare_rungs_.pop_back();
  }
  Rung& r = rungs_.back();
  if (r.buckets.size() < n) r.buckets.resize(n);
  r.start = start;
  r.width = width;
  r.route_end = route_end;
  r.n = n;
  r.cur = 0;
  for (const Entry& e : drain_) place_in_rung(r, e);
  drain_.clear();
  return true;
}

void EventQueue::sort_into_bottom(SimTime new_threshold) {
  assert(bottom_empty());
  std::sort(drain_.begin(), drain_.end(), earlier);
  bottom_.clear();
  bottom_.swap(drain_);
  bottom_head_ = 0;
  // max(): a stale higher threshold is still safe — every live event outside
  // bottom is at or beyond it — and routes more arrivals onto the sorted
  // fast path.
  bottom_threshold_ = std::max(bottom_threshold_, new_threshold);
}

void EventQueue::retire_rung() {
  Rung& r = rungs_.back();
  // Every bucket is empty by now: [0, n) were drained, the rest unused.
  const std::size_t bytes = r.storage_bytes();
  if (spare_bytes_ + bytes <= kMaxSpareBytes) {
    r.spare_bytes = bytes;
    spare_bytes_ += bytes;
    spare_rungs_.push_back(std::move(r));
  }
  rungs_.pop_back();
}

}  // namespace paraio::sim
