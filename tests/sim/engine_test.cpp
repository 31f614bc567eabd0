#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/deadlock.hpp"
#include "sim/race.hpp"

namespace paraio::sim {
namespace {

TEST(Engine, TimeStartsAtZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
}

TEST(Engine, RunAdvancesToLastEvent) {
  Engine e;
  e.call_in(5.0, [] {});
  e.call_in(2.0, [] {});
  EXPECT_DOUBLE_EQ(e.run(), 5.0);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Engine, CallbacksSeeCurrentTime) {
  Engine e;
  double seen = -1.0;
  e.call_in(3.5, [&] { seen = e.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 3.5);
}

TEST(Engine, CallAtSchedulesAbsolute) {
  Engine e;
  std::vector<double> times;
  e.call_at(2.0, [&] { times.push_back(e.now()); });
  e.call_at(1.0, [&] { times.push_back(e.now()); });
  e.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(Engine, NestedSchedulingFromCallback) {
  Engine e;
  std::vector<double> times;
  e.call_in(1.0, [&] {
    times.push_back(e.now());
    e.call_in(1.0, [&] { times.push_back(e.now()); });
  });
  e.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.call_in(1.0, [&] { ++fired; });
  e.call_in(10.0, [&] { ++fired; });
  e.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilWithDrainedQueueStopsAtLastEvent) {
  Engine e;
  e.call_in(2.0, [] {});
  e.run_until(100.0);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, StepExecutesOneEvent) {
  Engine e;
  int fired = 0;
  e.call_in(1.0, [&] { ++fired; });
  e.call_in(2.0, [&] { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(e.step());
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  EventId id = e.call_in(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, EventsExecutedCounter) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.call_in(static_cast<double>(i), [] {});
  e.run();
  EXPECT_EQ(e.events_executed(), 7u);
}

TEST(Engine, SpawnedTaskRuns) {
  Engine e;
  bool ran = false;
  auto proc = [](Engine& eng, bool& flag) -> Task<> {
    co_await eng.delay(1.0);
    flag = true;
  };
  e.spawn(proc(e, ran));
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(Engine, SpawnedTaskExceptionPropagatesFromRun) {
  Engine e;
  auto proc = [](Engine& eng) -> Task<> {
    co_await eng.delay(1.0);
    throw std::runtime_error("boom");
  };
  e.spawn(proc(e));
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, EachTaskFailureSurfacesOnce) {
  Engine e;
  auto fail_after = [](Engine& eng, double t, std::string what) -> Task<> {
    co_await eng.delay(t);
    throw std::runtime_error(what);
  };
  auto succeed_after = [](Engine& eng, double t, bool& flag) -> Task<> {
    co_await eng.delay(t);
    flag = true;
  };
  bool finished = false;
  e.spawn(fail_after(e, 1.0, "first"));
  e.spawn(fail_after(e, 2.0, "second"));
  e.spawn(succeed_after(e, 3.0, finished));
  std::vector<std::string> failures;
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      e.run();
      ADD_FAILURE() << "run() #" << attempt << " returned normally";
    } catch (const std::runtime_error& err) {
      failures.emplace_back(err.what());
    }
  }
  EXPECT_EQ(failures, (std::vector<std::string>{"first", "second"}));
  EXPECT_NO_THROW(e.run());
  EXPECT_TRUE(finished);
  EXPECT_EQ(e.live_tasks(), 0u);
}

// The time contract is checked where events enter the queue, in every
// build type (not by an assert), and the error names the offending time.
TEST(Engine, RejectsNanInfiniteAndPastTimes) {
  Engine e;
  e.call_in(2.0, [] {});
  e.run();
  struct Case {
    double delay;
    const char* named;
  };
  for (const Case c : {Case{std::nan(""), "t=nan"}, Case{-1.0, "t=1 "},
                       Case{kTimeInfinity, "t=inf"}}) {
    SCOPED_TRACE(c.named);
    try {
      e.call_in(c.delay, [] {});
      ADD_FAILURE() << "call_in accepted an invalid delay";
    } catch (const SimTimeError& err) {
      EXPECT_EQ(err.now(), 2.0);
      if (std::isnan(c.delay)) {
        EXPECT_TRUE(std::isnan(err.when()));
      } else {
        EXPECT_EQ(err.when(), 2.0 + c.delay);
      }
      EXPECT_NE(std::string(err.what()).find(c.named), std::string::npos)
          << err.what();
    }
    EXPECT_THROW(e.call_at(2.0 + c.delay, [] {}), SimTimeError);
  }
  EXPECT_EQ(e.pending_events(), 0u);
  e.call_at(2.0, [] {});  // now itself is a valid event time
  EXPECT_EQ(e.pending_events(), 1u);
}

TEST(Engine, NegativeDelayFailsTheAwaitingTask) {
  Engine e;
  auto proc = [](Engine& eng) -> Task<> { co_await eng.delay(-1.0); };
  e.spawn(proc(e));
  EXPECT_THROW(e.run(), SimTimeError);
  EXPECT_EQ(e.now(), 0.0);
}

TEST(Engine, DelayZeroYieldsAfterQueuedEvents) {
  Engine e;
  std::vector<int> order;
  auto proc = [](Engine& eng, std::vector<int>& ord) -> Task<> {
    ord.push_back(1);
    co_await eng.yield();
    ord.push_back(3);
  };
  // Queued first; the task starts synchronously at spawn, runs to its yield
  // point, and its resumption queues behind this already-pending event.
  e.call_in(0.0, [&] { order.push_back(2); });
  e.spawn(proc(e, order));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ManyConcurrentProcessesInterleaveDeterministically) {
  Engine e;
  std::vector<int> order;
  auto proc = [](Engine& eng, std::vector<int>& ord, int id) -> Task<> {
    for (int step = 0; step < 3; ++step) {
      co_await eng.delay(1.0);
      ord.push_back(id * 10 + step);
    }
  };
  for (int id = 0; id < 3; ++id) e.spawn(proc(e, order, id));
  e.run();
  // At each integer time, processes wake in spawn order.
  EXPECT_EQ(order, (std::vector<int>{0, 10, 20, 1, 11, 21, 2, 12, 22}));
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    std::vector<double> times;
    auto proc = [](Engine& eng, std::vector<double>& out, double step) -> Task<> {
      for (int i = 0; i < 5; ++i) {
        co_await eng.delay(step);
        out.push_back(eng.now());
      }
    };
    e.spawn(proc(e, times, 0.3));
    e.spawn(proc(e, times, 0.7));
    e.run();
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

/// Logs every kernel callback under its own name.
struct RecordingObserver final : EngineObserver {
  RecordingObserver(std::vector<std::string>& out, std::string label)
      : log(out), name(std::move(label)) {}
  void on_schedule(SimTime /*now*/, SimTime /*when*/) override {
    log.push_back(name + ":schedule");
  }
  void on_event(SimTime /*when*/) override { log.push_back(name + ":event"); }
  void on_run_complete(SimTime /*now*/, std::size_t /*pending_events*/,
                       std::size_t /*live_tasks*/) override {
    log.push_back(name + ":done");
  }
  std::vector<std::string>& log;
  std::string name;
};

TEST(EngineObservers, NotifiedNewestFirst) {
  Engine engine;
  std::vector<std::string> log;
  RecordingObserver older(log, "older");
  RecordingObserver newer(log, "newer");
  engine.attach(older);
  engine.attach(newer);
  engine.call_in(1.0, [] {});
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{
                     "newer:schedule", "older:schedule", "newer:event",
                     "older:event", "newer:done", "older:done"}));
  EXPECT_EQ(engine.find_observer<RecordingObserver>(), &newer);

  engine.detach(newer);
  log.clear();
  engine.call_in(1.0, [] {});
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"older:schedule", "older:event",
                                           "older:done"}));
  EXPECT_EQ(engine.find_observer<RecordingObserver>(), &older);
}

TEST(EngineObservers, OutOfOrderTeardownLeavesNoDanglingObserver) {
  Engine engine;
  auto races = std::make_unique<RaceDetector>(engine);
  DeadlockDetector deadlocks(engine);
  // The older observer goes first; the newer one must not forward into it.
  races.reset();
  auto proc = [](Engine& eng) -> Task<> { co_await eng.delay(1.0); };
  engine.spawn(proc(engine));
  EXPECT_DOUBLE_EQ(engine.run(), 1.0);
  EXPECT_EQ(engine.find_observer<RaceDetector>(), nullptr);
  EXPECT_EQ(engine.find_observer<DeadlockDetector>(), &deadlocks);
  EXPECT_TRUE(deadlocks.ok()) << deadlocks.report();
}

}  // namespace
}  // namespace paraio::sim
