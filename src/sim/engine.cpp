#include "sim/engine.hpp"

#include <cassert>
#include <exception>
#include <limits>
#include <sstream>
#include <string>

namespace paraio::sim {

namespace {

std::string bad_time_message(SimTime now, SimTime when) {
  std::ostringstream out;
  out.precision(std::numeric_limits<SimTime>::max_digits10);
  out << "sim::Engine: cannot schedule an event at t=" << when
      << " (now t=" << now
      << "): event times must be finite and not in the past";
  return out.str();
}

}  // namespace

SimTimeError::SimTimeError(SimTime now, SimTime when)
    : std::invalid_argument(bad_time_message(now, when)),
      now_(now),
      when_(when) {}

void Engine::throw_bad_time(SimTime when) const {
  throw SimTimeError(now_, when);
}

void Engine::note_task_finished(void* engine) noexcept {
  ++static_cast<Engine*>(engine)->finished_unreaped_;
}

void Engine::spawn(Task<> task) {
  assert(task.valid());
  detached_.push_back(std::move(task));
  // `t` is dead once start() runs the task: it may spawn others and
  // reallocate detached_.
  Task<>& t = detached_.back();
  t.set_on_complete(&Engine::note_task_finished, this);
  t.start();
  if (finished_unreaped_ >= kReapBatch) reap_finished();
}

void Engine::spawn_daemon(Task<> task) {
  assert(task.valid());
  daemons_.push_back(std::move(task));
  Task<>& t = daemons_.back();
  t.set_on_complete(&Engine::note_task_finished, this);
  t.start();
  if (finished_unreaped_ >= kReapBatch) reap_finished();
}

void Engine::reap_finished() {
  finished_unreaped_ = 0;
  Task<> failed;
  for (std::vector<Task<>>* tasks : {&detached_, &daemons_}) {
    // Compact in place, destroying finished tasks in list order.
    auto keep = tasks->begin();
    for (auto it = tasks->begin(); it != tasks->end(); ++it) {
      if (it->done()) {
        if (!it->failed()) {
          *it = Task<>();
          continue;
        }
        if (!failed.valid()) {
          failed = std::move(*it);
          continue;
        }
        ++finished_unreaped_;  // a second failure waits for the next reap
      }
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
    tasks->erase(keep, tasks->end());
  }
  // Out of the lists before it rethrows, so each failure surfaces once.
  if (failed.valid()) failed.result();
}

bool Engine::step() {
  if (queue_.empty()) return false;
  auto [when, action] = queue_.pop();
  assert(when >= now_ && "event scheduled in the past");
  now_ = when;
  ++executed_;
  for (EngineObserver* o : observers_) o->on_event(when);
  action();
  // Reaping scans the task lists, so amortize it: only once enough tasks
  // have finished (their completion hooks count for us).  Failures surface
  // by the end of run() at the latest.
  if (finished_unreaped_ >= kReapBatch) reap_finished();
  return true;
}

SimTime Engine::run() {
  while (step()) {
  }
  reap_finished();
  if (!observers_.empty()) {
    const std::size_t live = live_tasks();
    for (EngineObserver* o : observers_) {
      o->on_run_complete(now_, queue_.size(), live);
    }
  }
  return now_;
}

SimTime Engine::run_until(SimTime deadline) {
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    step();
  }
  reap_finished();
  if (now_ < deadline && !queue_.empty()) {
    now_ = deadline;
  } else if (queue_.empty() && now_ < deadline) {
    // Queue drained before the deadline; time stops at the last event.
  }
  return now_;
}

}  // namespace paraio::sim
