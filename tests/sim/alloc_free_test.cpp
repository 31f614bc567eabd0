// Steady-state allocation regression test for the simulation kernel.
//
// Once warmed up, the hot path — schedule → pop → action() plus parking and
// waking on the sync primitives — must not touch the heap.  This file
// replaces the global operator new with a counting one (hence a test
// executable of its own), warms each scenario up, then counts allocations
// over a further stretch of the same work.
//
// Coroutine frames come from sim::arena's pool, so creating one after
// warm-up allocates nothing either — except in sanitizer builds, where the
// arena passes every frame through to ::operator new.  The scenarios that
// create frames therefore expect exactly one allocation per frame there.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/arena.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/task_group.hpp"

namespace {

bool g_counting = false;
std::size_t g_allocations = 0;

void* counted_malloc(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace paraio::sim {
namespace {

/// Heap allocations made while `work` runs.
template <typename F>
std::size_t allocations_during(F&& work) {
  g_allocations = 0;
  g_counting = true;
  work();
  g_counting = false;
  return g_allocations;
}

/// Allocations expected for creating `frames` coroutine frames: none while
/// the arena pools them, one each when it passes them through.
std::size_t frame_allocations(std::size_t frames) {
  return arena::pooling_enabled() ? 0 : frames;
}

TEST(ZeroAlloc, CountingAllocatorSeesHeapUse) {
  // Guards the harness itself: a replaced operator new that never counted
  // would make every assertion below vacuous.  The operators are called
  // directly because a paired new/delete expression may be elided.
  EXPECT_EQ(allocations_during([] { ::operator delete(::operator new(16)); }),
            1u);
}

TEST(ZeroAlloc, TimerPingPong) {
  Engine e;
  auto ticker = [](Engine& engine, SimDuration period) -> Task<> {
    for (;;) co_await engine.delay(period);
  };
  e.spawn_daemon(ticker(e, 1.0));
  e.spawn_daemon(ticker(e, 1.5));
  e.run_until(1000.0);
  EXPECT_EQ(allocations_during([&] { e.run_until(5000.0); }), 0u);
  EXPECT_GT(e.events_executed(), 5000u);
}

// Far-future bursts of growing and shrinking size, each scheduled onto a
// queue that is mid-way through draining the previous one: top conversion,
// rung spawns (dense clusters), same-instant clumps, arrivals inside the
// window being drained, and rung reuse — including a recycled rung with
// more stored buckets than the next burst needs.  Each cycle repeats the
// same pattern; by the fourth the spare rungs hold every bucket buffer it
// needs.
TEST(ZeroAlloc, FarFutureBurstsReuseRungs) {
  EventQueue q;
  double now = 0.0;
  auto one_cycle = [&] {
    Rng rng(42);
    for (const int burst : {64, 600, 5000, 900, 128, 9000, 40, 2500}) {
      const double base = now + 1000.0;
      for (int i = 0; i < burst; ++i) {
        const std::uint64_t mode = rng.uniform_int(0, 9);
        double when = base + rng.uniform(0.0, 500.0);
        if (mode < 3) when = base + 250.0 + rng.uniform(0.0, 0.01);
        if (mode == 3) when = base + 100.0;
        q.schedule(when, [] {});
      }
      // Drain all but a tail, rescheduling a little into the future so new
      // arrivals land inside windows that are being drained.
      int popped = 0;
      while (q.size() > 16) {
        auto [when, action] = q.pop();
        action();
        now = when;
        if (++popped % 4 == 0) q.schedule(now + rng.uniform(0.0, 2.0), [] {});
      }
    }
  };
  for (int warm = 0; warm < 3; ++warm) one_cycle();
  EXPECT_EQ(allocations_during(one_cycle), 0u);
}

TEST(ZeroAlloc, SemaphoreWaitWake) {
  Engine e;
  Semaphore sem(e, 2);
  std::uint64_t grants = 0;
  auto worker = [](Engine& engine, Semaphore& s, std::uint64_t& n) -> Task<> {
    for (;;) {
      co_await s.acquire();
      ++n;
      co_await engine.delay(1.0);
      s.release();
    }
  };
  for (int i = 0; i < 6; ++i) e.spawn_daemon(worker(e, sem, grants));
  e.run_until(100.0);
  const std::uint64_t before = grants;
  EXPECT_EQ(allocations_during([&] { e.run_until(1000.0); }), 0u);
  EXPECT_GE(grants - before, 1790u);  // two permits, one-second holds
}

/// Takes `m` and returns at once; a timer hands the lock back later, so the
/// lockers queue behind a holder that is not itself suspended.
Task<> take(Mutex& m) { co_await m.lock(); }

TEST(ZeroAlloc, MutexWaitWake) {
  Engine e;
  Mutex m(e);
  std::uint64_t waited = 0;  // lock() calls that parked, then were handed off
  auto locker = [](Engine& engine, Mutex& mu, std::uint64_t& n) -> Task<> {
    for (;;) {
      const SimTime asked = engine.now();
      co_await mu.lock();
      if (engine.now() > asked) ++n;
      mu.unlock();
      co_await engine.delay(0.25);
    }
  };
  for (int i = 0; i < 4; ++i) e.spawn_daemon(locker(e, m, waited));
  std::uint64_t holds = 0;
  Action hold_round;
  hold_round = [&] {
    ++holds;
    e.spawn(take(m));
    e.call_in(0.5, [&] { m.unlock(); });
    e.call_in(1.0, [&] { hold_round(); });
  };
  e.call_in(0.1, [&] { hold_round(); });
  e.run_until(100.0);
  const std::uint64_t holds_before = holds;
  const std::uint64_t waited_before = waited;
  const std::size_t allocs =
      allocations_during([&] { e.run_until(1000.0); });
  EXPECT_EQ(allocs, frame_allocations(holds - holds_before));
  EXPECT_GT(waited - waited_before, 1000u);
}

TEST(ZeroAlloc, EventWaitWake) {
  Engine e;
  Event ev(e);
  auto waiter = [](Event& event) -> Task<> {
    for (;;) co_await event.wait();
  };
  for (int i = 0; i < 5; ++i) e.spawn_daemon(waiter(ev));
  auto setter = [](Engine& engine, Event& event) -> Task<> {
    for (;;) {
      co_await engine.delay(1.0);
      event.set();
      event.reset();
    }
  };
  e.spawn_daemon(setter(e, ev));
  e.run_until(100.0);
  EXPECT_EQ(allocations_during([&] { e.run_until(1000.0); }), 0u);
  EXPECT_EQ(ev.waiters(), 5u);
}

TEST(ZeroAlloc, BarrierWaitWake) {
  Engine e;
  Barrier b(e, 4);
  auto party = [](Engine& engine, Barrier& bar, double work) -> Task<> {
    for (;;) {
      co_await engine.delay(work);
      co_await bar.arrive_and_wait();
    }
  };
  for (int i = 0; i < 4; ++i) e.spawn_daemon(party(e, b, 0.5 + i));
  e.run_until(100.0);
  const std::uint64_t gen = b.generation();
  EXPECT_EQ(allocations_during([&] { e.run_until(1000.0); }), 0u);
  EXPECT_GT(b.generation(), gen + 100);
}

Task<> child(Engine& engine, double work) { co_await engine.delay(work); }

TEST(ZeroAlloc, TaskGroupJoin) {
  Engine e;
  std::uint64_t rounds = 0;
  auto coordinator = [](Engine& engine, std::uint64_t& n) -> Task<> {
    for (;;) {
      TaskGroup group(engine);
      group.spawn(child(engine, 1.0));
      group.spawn(child(engine, 2.0));
      group.spawn(child(engine, 0.5));
      co_await group.join();
      ++n;
    }
  };
  e.spawn_daemon(coordinator(e, rounds));
  e.run_until(100.0);
  const std::uint64_t before = rounds;
  const std::size_t allocs =
      allocations_during([&] { e.run_until(1000.0); });
  // Per round: three children, each wrapped in the group's own coroutine.
  EXPECT_EQ(allocs, frame_allocations(6 * (rounds - before)));
  EXPECT_GT(rounds - before, 400u);
}

TEST(ZeroAlloc, SpawnReapLoop) {
  Engine e;
  std::uint64_t spawned = 0;
  auto spawner = [](Engine& engine, std::uint64_t& n) -> Task<> {
    for (;;) {
      engine.spawn(child(engine, 3.0));
      ++n;
      co_await engine.delay(0.1);
    }
  };
  e.spawn_daemon(spawner(e, spawned));
  e.run_until(100.0);
  const std::uint64_t before = spawned;
  const std::size_t allocs =
      allocations_during([&] { e.run_until(1000.0); });
  EXPECT_EQ(allocs, frame_allocations(spawned - before));
  EXPECT_GT(spawned - before, 8000u);
}

}  // namespace
}  // namespace paraio::sim
