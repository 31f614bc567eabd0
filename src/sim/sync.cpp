#include "sim/sync.hpp"

namespace paraio::sim {

void Event::set() {
  set_ = true;
  // Resume through the event queue so set() never re-enters user code.
  waiters_.wake_all(engine_);
}

void Semaphore::release(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!waiters_.empty()) {
      waiters_.wake_one(engine_);
    } else {
      ++count_;
    }
  }
}

void Barrier::release_all() {
  ++generation_;
  arrived_ = 0;
  waiters_.wake_all(engine_);
}

}  // namespace paraio::sim
