#include "sim/engine.hpp"

#include <cassert>
#include <stdexcept>

namespace paraio::sim {

void Engine::note_task_finished(void* engine) noexcept {
  ++static_cast<Engine*>(engine)->finished_unreaped_;
}

void Engine::spawn(Task<> task) {
  assert(task.valid());
  detached_.push_back(std::move(task));
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
  for (auto* list : {&detached_, &daemons_}) {
    for (auto it = list->begin(); it != list->end();) {
      if (it->done()) {
        it->result();  // rethrows if the detached task failed
        it = list->erase(it);
      } else {
        ++it;
      }
    }
  }
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
