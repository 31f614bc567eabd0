// Deterministic pending-event set for the discrete-event kernel.
//
// Events are (time, key, action) entries ordered by time, with a per-event
// key breaking same-instant ties: under the default FIFO order the key IS
// the insertion sequence number, and under a tie-break seed it is a seeded
// bijection of it (keys are therefore always distinct, so (time, key) is a
// strict total order).  Two events scheduled for the same instant fire in
// key order.  That property is load-bearing: every table in the benchmark
// suite is expected to be bit-for-bit reproducible across runs.
//
// Structure: a ladder queue (Tang & Goh's design family) instead of a binary
// heap, for O(1) amortized schedule/pop instead of O(log n):
//
//   bottom   sorted vector (ascending, consumed through a head index)
//            holding the next events to fire; pop() is an index increment,
//            and the common arrival — a same-instant or near-future event
//            with the newest key — is an O(1) append at the back.
//   rungs    a stack of bucket arrays, each subdividing a time window of the
//            rung above it; draining a bucket either sorts it into bottom or,
//            if it is crowded, spawns a finer child rung.
//   top      unsorted catch-all for far-future events, bulk-converted into a
//            rung (or directly into bottom when small) when reached.
//
// Bucket placement uses exact boundary arithmetic (the same floating-point
// expression for routing, placement, and drain thresholds) so same-instant
// events can never be split across structures or mis-ordered relative to the
// reference heap — tests/sim/event_queue_diff_test.cpp runs this queue in
// lockstep against sim::HeapEventQueue (tests/sim/heap_queue.hpp) to prove
// it.
//
// Cancellation is O(1): an EventId names a slot in the action pool plus the
// slot's generation; cancel bumps the generation, which tombstones the entry
// still sitting in the ladder (skipped when it surfaces).  The action is
// destroyed eagerly so captured resources are released at cancel time.
//
// Storage is recycled, so a warmed-up queue schedules and pops without
// touching the heap.  bottom, top and a scratch drain vector trade buffers
// by swapping; a drained bucket's entries are copied out, so each bucket
// keeps its own buffer; exhausted rungs park on a spare list (at most
// kMaxSpareBytes of storage) and the next rung spawn reuses one, bucket
// vectors included.
//
// The queue maintains the invariant that whenever live events exist, the
// earliest one is at bottom's head — which is what lets next_time() be a
// genuinely const, branch-free read (the old heap needed a `mutable` member
// and lazy cleanup inside const methods).
//
// Not thread-safe by design: the kernel is single-threaded and determinism
// is the whole point.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/action.hpp"
#include "sim/time.hpp"

namespace paraio::sim {

/// Opaque handle identifying a scheduled event, usable for cancellation.
struct EventId {
  std::uint64_t seq = 0;   ///< global schedule order (diagnostics)
  std::uint64_t gen = 0;   ///< slot generation at schedule time
  std::uint32_t slot = 0;  ///< index into the queue's action pool
  friend bool operator==(EventId, EventId) = default;
};

class EventQueue {
 public:
  using Action = sim::Action;

  /// Seeds the schedule-perturbation mode: with a non-zero seed, events at
  /// the *same* instant are ordered by a seeded permutation of their
  /// insertion sequence instead of FIFO.  Causality is preserved (an event
  /// can never run before it is scheduled, and time order is untouched), so
  /// every seed yields a valid schedule — code whose results depend on the
  /// seed is relying on the FIFO tie-break, exactly what the testkit's
  /// perturbation checker hunts for.  Seed 0 restores plain FIFO.  Must be
  /// set while the queue is empty; keys are stamped at schedule time.
  void set_tie_break_seed(std::uint64_t seed);
  [[nodiscard]] std::uint64_t tie_break_seed() const noexcept {
    return tie_seed_;
  }

  /// Schedules `action` at absolute time `when`.  `when` may equal the
  /// current time (the event fires after all earlier-scheduled events at the
  /// same instant).
  EventId schedule(SimTime when, Action action);

  /// Cancels a previously scheduled event.  Returns true if the event was
  /// still pending.  O(1): the ladder entry is tombstoned via its generation
  /// and skipped when it surfaces, but the action (and anything it captures)
  /// is released eagerly.
  bool cancel(EventId id);

  /// True if no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Time of the earliest live event.  Precondition: !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Removes and returns the earliest live event.  Precondition: !empty().
  std::pair<SimTime, Action> pop();

 private:
  struct Entry {
    SimTime when;
    std::uint64_t key;   // == seq under FIFO; permuted under a tie-break seed
    std::uint64_t gen;   // matches the slot's generation while live
    std::uint32_t slot;
  };

  struct Slot {
    Action action;
    std::uint64_t gen = 1;  // bumped on pop/cancel; 64-bit so it never wraps
    std::uint32_t next_free = kNoSlot;
  };

  /// One ladder rung: `n` equal-width buckets starting at `start`.
  /// `route_end` is the exclusive upper routing bound — every entry stored
  /// in (or newly routed to) this rung has when < route_end, and every live
  /// entry in outer structures has when >= route_end.  A recycled rung may
  /// hold more bucket vectors than it uses (`buckets.size() >= n`); the
  /// extra ones are empty and keep their storage for a later, wider rung.
  struct Rung {
    SimTime start = 0.0;
    SimTime width = 0.0;
    SimTime route_end = 0.0;
    std::size_t n = 0;    // buckets in use
    std::size_t cur = 0;  // next bucket to drain
    std::size_t spare_bytes = 0;  // storage_bytes() while on the spare list
    std::vector<std::vector<Entry>> buckets;

    /// The exact boundary expression.  Placement, routing, and the bottom
    /// threshold all evaluate this same formula so floating-point rounding
    /// is bit-identical everywhere.
    [[nodiscard]] SimTime boundary(std::size_t i) const {
      return start + static_cast<SimTime>(i) * width;
    }
    /// Heap bytes the rung keeps: its bucket array and every bucket buffer.
    [[nodiscard]] std::size_t storage_bytes() const noexcept;
  };

  [[nodiscard]] bool is_live(const Entry& e) const noexcept {
    return slots_[e.slot].gen == e.gen;
  }

  /// Ascending (when, key) order: the sort order of bottom_, so the
  /// earliest event is at the head.  Keys are distinct, so this is strict.
  static bool earlier(const Entry& a, const Entry& b) noexcept;
  static bool all_same_when(const std::vector<Entry>& entries) noexcept;

  [[nodiscard]] bool bottom_empty() const noexcept {
    return bottom_head_ == bottom_.size();
  }

  std::uint32_t acquire_slot(Action action);
  void release_slot(std::uint32_t slot) noexcept;

  void route(const Entry& e);
  void insert_bottom(const Entry& e);
  void place_in_rung(Rung& r, const Entry& e);
  void maybe_spill_bottom();

  /// Restores the invariant "live_ > 0 implies bottom_'s head is live",
  /// pulling from rungs/top as needed.
  void refill();
  void purge_bottom() noexcept;
  void refill_from_rung();
  void refill_from_top();

  /// Builds a rung over [start, route_end) and distributes drain_ into it
  /// (emptying drain_).  Returns false — leaving drain_ untouched — when
  /// the window is degenerate (zero/absorbed width), in which case the
  /// caller must fall back to sorting the entries directly.
  bool build_rung(SimTime start, SimTime route_end);

  /// Sorts drain_ (ascending) and swaps it in as the new bottom; drain_
  /// keeps the old bottom's (consumed) buffer.
  void sort_into_bottom(SimTime new_threshold);

  /// Moves an exhausted rungs_.back() to the spare list, or frees it when
  /// the spare list is full.
  void retire_rung();

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr std::size_t kDirectSortLimit = 64;   // top -> bottom as-is
  static constexpr std::size_t kSpawnThreshold = 48;    // bucket -> child rung
  static constexpr std::size_t kMaxBuckets = 4096;
  static constexpr std::size_t kMaxRungs = 8;
  static constexpr std::size_t kBottomSpillLimit = 256; // sorted-insert bound
  static constexpr std::size_t kBottomKeep = 64;
  /// Ceiling on the bucket storage parked in spare_rungs_.  A retiring rung
  /// that would push the total past it is freed instead, so a burst of
  /// millions of far-future events does not pin its peak footprint forever.
  static constexpr std::size_t kMaxSpareBytes = std::size_t{4} << 20;

  std::vector<Entry> bottom_;  // sorted ascending by (when, key)
  std::size_t bottom_head_ = 0;  // entries before this index already popped
  /// Events with when < bottom_threshold_ are sorted into bottom_ on
  /// arrival; everything at or above it belongs to the rungs/top.
  SimTime bottom_threshold_ = -kTimeInfinity;
  std::vector<Rung> rungs_;    // [0] outermost; back() is drained first
  std::vector<Rung> spare_rungs_;  // exhausted rungs kept for reuse
  std::size_t spare_bytes_ = 0;    // sum of spare_rungs_[i].spare_bytes
  std::vector<Entry> top_;     // unsorted far-future events
  SimTime top_min_ = kTimeInfinity;
  SimTime top_max_ = -kTimeInfinity;
  /// Scratch for entries in transit between tiers (a drained bucket, the
  /// converted top, a spilled bottom tail).  Always empty between calls;
  /// it exists so those moves reuse one buffer instead of allocating.
  std::vector<Entry> drain_;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::uint64_t tie_seed_ = 0;
};

}  // namespace paraio::sim
