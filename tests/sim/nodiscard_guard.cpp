// Compile-only guard for the kernel's lazy coroutine API.
//
// A sim::Task starts only when it is co_awaited or spawned, and every
// awaitable factory does nothing until it is co_awaited, so a dropped
// result silently skips the work.  sim::Task is a [[nodiscard]] class and
// each factory below is [[nodiscard]], which makes GCC reject the drop
// under -Werror=unused-result.  tests/CMakeLists.txt compiles this unit
// once per factory with NODISCARD_GUARD_DROP set to one dropped call, and
// each of those compiles must fail with the nodiscard diagnostic; compiled
// without the macro, the same calls under co_await must be clean.
#include "pfs/turn_gate.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/task_group.hpp"

namespace paraio::sim {

Task<> work() { co_return; }

Task<> exercise(Engine& engine, Event& event, Semaphore& sem, Mutex& mutex,
                Barrier& barrier, TaskGroup& group, Channel<int>& chan,
                pfs::TurnGate& gate) {
#ifdef NODISCARD_GUARD_DROP
  NODISCARD_GUARD_DROP;
#else
  co_await work();
  co_await engine.delay(1.0);
  co_await engine.yield();
  co_await event.wait();
  co_await sem.acquire();
  sem.release();
  co_await mutex.lock();
  mutex.unlock();
  co_await barrier.arrive_and_wait();
  co_await group.join();
  co_await chan.send(1);
  (void)co_await chan.recv();
  co_await gate.await_turn(0);
#endif
  co_return;
}

}  // namespace paraio::sim
