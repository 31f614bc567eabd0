// Discrete-event simulation engine.
//
// The engine owns simulated time and the pending-event set, and acts as the
// scheduler for coroutine processes (sim::Task).  It is strictly
// single-threaded; determinism comes from the EventQueue's FIFO tie-break.
// It also owns the list of kernel observers: they attach/detach on the
// engine and are notified newest-first.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace paraio::sim {

/// Observation points on the simulation kernel (detectors, the fault
/// injector, the metrics sampler, the testkit's invariant checker).  An
/// observer attaches/detaches on the engine and overrides only the callbacks
/// it uses.  Hooks cost one empty-list test per event when nothing is
/// attached.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  /// An event was scheduled for absolute time `when` while now() == `now`.
  virtual void on_schedule(SimTime now, SimTime when) {
    (void)now;
    (void)when;
  }
  /// An event is about to execute; now() has been advanced to `when`.
  virtual void on_event(SimTime when) { (void)when; }
  /// run() finished.  A drained simulation has pending_events == 0 and
  /// live_tasks == 0; anything else means a process is blocked forever.
  virtual void on_run_complete(SimTime now, std::size_t pending_events,
                               std::size_t live_tasks) {
    (void)now;
    (void)pending_events;
    (void)live_tasks;
  }
};

/// Thrown by Engine::call_in/call_at for an event time that breaks the
/// simulated-time contract: NaN, infinite, or earlier than now().
class SimTimeError : public std::invalid_argument {
 public:
  SimTimeError(SimTime now, SimTime when);
  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] SimTime when() const noexcept { return when_; }

 private:
  SimTime now_;
  SimTime when_;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time in seconds.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `action` after `delay` seconds of simulated time.  Throws
  /// SimTimeError unless now() + delay is finite and >= now().
  EventId call_in(SimDuration delay, EventQueue::Action action) {
    const SimTime when = now_ + delay;
    check_time(when);
    for (EngineObserver* o : observers_) o->on_schedule(now_, when);
    return queue_.schedule(when, std::move(action));
  }

  /// Schedules `action` at absolute simulated time `when`.  Throws
  /// SimTimeError unless `when` is finite and >= now().
  EventId call_at(SimTime when, EventQueue::Action action) {
    check_time(when);
    for (EngineObserver* o : observers_) o->on_schedule(now_, when);
    return queue_.schedule(when, std::move(action));
  }

  /// Cancels a pending callback.  Returns true if it had not yet fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Starts a detached top-level process.  The engine keeps the task alive
  /// until it finishes; if the task ends with an uncaught exception a later
  /// spawn()/step()/run() call rethrows it, once: the failed task is reaped
  /// before its exception propagates.
  void spawn(Task<> task);

  /// Starts a persistent service loop (e.g. a server draining a request
  /// channel forever).  Daemons get the same lifetime and error handling as
  /// spawn()ed tasks but are excluded from live_tasks(): being blocked when
  /// the event queue drains is their normal end state, not a deadlock.
  void spawn_daemon(Task<> task);

  /// Runs until no events remain.  Returns the final simulated time.
  SimTime run();

  /// Runs events with time <= `deadline`; then sets now() to `deadline` if
  /// the simulation ran that far, or leaves it at the last event time if the
  /// queue drained first.  Returns now().
  SimTime run_until(SimTime deadline);

  /// Executes exactly one event if any is pending.  Returns false when the
  /// queue is empty.
  bool step();

  /// Number of pending events.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Total events executed so far (for microbenchmarks and sanity checks).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of detached non-daemon tasks that have not yet completed.  A
  /// non-zero value after run() returns means some process is blocked on an
  /// event that will never fire — the queue-drain invariant the testkit
  /// checks.  Daemons (spawn_daemon) are expected to outlive the queue and
  /// are not counted.
  [[nodiscard]] std::size_t live_tasks() const {
    std::size_t n = 0;
    for (const auto& task : detached_) {
      if (!task.done()) ++n;
    }
    return n;
  }

  /// Attaches `observer`; it is notified before every observer attached
  /// earlier (newest-first).  Do not attach or detach from inside a callback.
  void attach(EngineObserver& observer) {
    observers_.insert(observers_.begin(), &observer);
  }
  /// Detaches `observer` wherever it sits in the list.
  void detach(EngineObserver& observer) { std::erase(observers_, &observer); }
  /// The newest attached observer of type T, or nullptr.  Annotation sites
  /// in production code use this and stay zero-cost when nothing is
  /// attached.
  template <class T>
  [[nodiscard]] T* find_observer() const {
    for (EngineObserver* o : observers_) {
      if (auto* t = dynamic_cast<T*>(o)) return t;
    }
    return nullptr;
  }

  /// Seeds the same-instant tie-break permutation (see
  /// EventQueue::set_tie_break_seed).  Call before any event is scheduled;
  /// seed 0 is the default FIFO order the golden traces are recorded under.
  void set_tie_break_seed(std::uint64_t seed) {
    queue_.set_tie_break_seed(seed);
  }
  [[nodiscard]] std::uint64_t tie_break_seed() const noexcept {
    return queue_.tie_break_seed();
  }

  /// Awaitable that suspends the current task for `delay` simulated seconds.
  /// Usage: `co_await engine.delay(sim::milliseconds(17));`
  [[nodiscard]] auto delay(SimDuration d) {
    struct Awaiter {
      Engine& engine;
      SimDuration dur;
      // Always suspends, even for a zero duration: delay(0) is a
      // deterministic yield point, not a no-op.
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        engine.call_in(dur, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Awaitable that reschedules the current task at the same instant, after
  /// all events already queued for that instant.  Useful to break ties or
  /// yield to peers deterministically.
  [[nodiscard]] auto yield() { return delay(0.0); }

 private:
  /// The simulated-time contract, checked where events enter the queue:
  /// one comparison pair rejects NaN (both false), +inf and the past.
  void check_time(SimTime when) const {
    if (!(when >= now_ && when < kTimeInfinity)) [[unlikely]] {
      throw_bad_time(when);
    }
  }
  /// Out of line so the error's construction stays off the inlined path.
  [[noreturn]] void throw_bad_time(SimTime when) const;
  /// Destroys finished tasks.  If one failed, it is removed and its
  /// exception rethrown; further failed tasks stay for the next call.
  void reap_finished();
  /// Completion hook installed on every spawned task (see Task's
  /// set_on_complete): counts finished-but-unreaped tasks so reaping can be
  /// batched instead of scanning the task lists every spawn/step.
  static void note_task_finished(void* engine) noexcept;

  static constexpr std::size_t kReapBatch = 32;

  SimTime now_ = 0.0;
  EventQueue queue_;
  std::vector<Task<>> detached_;
  std::vector<Task<>> daemons_;
  std::uint64_t executed_ = 0;
  std::size_t finished_unreaped_ = 0;
  std::vector<EngineObserver*> observers_;  // newest first
};

}  // namespace paraio::sim
