// Self-timed microbenchmarks of the simulator's substrate.  Kernel
// scenarios (event queue churn, same-instant bursts, cancellation, coroutine
// timer chains, process fan-out, the synchronization primitives) bound how
// large a simulated machine the toolkit can handle per wall-clock second.
// Pablo scenarios time the host cost per traced operation of full trace
// capture against each real-time reduction and all sinks together, plus the
// SDDF round trip — the paper's §3.1 claim that "instrumentation overhead is
// modest ... and is largely independent of the choice of real-time data
// reduction or trace output".  Structure scenarios time striping arithmetic,
// the PPFS bookkeeping structures and the PRNG.  Scenarios with no
// simulation clock count items processed as their events.
//
//   $ bench_micro_sim --json build/bench_micro_sim.json
//   $ tools/check_bench.py BENCH_micro_sim.json build/bench_micro_sim.json
//
// The committed baseline lives in BENCH_micro_sim.json; docs/PERF.md
// describes the recording/refresh workflow and the CI regression gate.
// Scenarios run with NO observers attached — they measure the fast path.
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "pablo/sddf.hpp"
#include "pablo/summary.hpp"
#include "pablo/trace.hpp"
#include "pfs/stripe.hpp"
#include "ppfs/cache.hpp"
#include "ppfs/extent.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace {

using namespace paraio;

/// One scenario repetition: kernel events (or items) processed and
/// simulated seconds covered.
using ScenarioFn = bench::Work (*)();

struct Scenario {
  const char* name;
  ScenarioFn run;
};

// --- event-queue scenarios (no engine, raw schedule/pop) -------------------

template <int N>
bench::Work queue_churn() {
  sim::EventQueue q;
  for (int i = 0; i < N; ++i) {
    q.schedule(static_cast<double>((i * 7919) % 104729), [] {});
  }
  double last = 0.0;
  while (!q.empty()) {
    auto [when, action] = q.pop();
    last = when;
    action();
  }
  return {static_cast<double>(N), last};
}

// Interleaved schedule/pop around a rolling time horizon: the steady-state
// shape of a running simulation (queue stays small, events keep arriving).
bench::Work queue_rolling_horizon() {
  constexpr int kEvents = 100000;
  constexpr int kWindow = 64;
  sim::EventQueue q;
  int scheduled = 0;
  for (; scheduled < kWindow; ++scheduled) {
    q.schedule(static_cast<double>((scheduled * 13) % 97), [] {});
  }
  double last = 0.0;
  while (!q.empty()) {
    auto [when, action] = q.pop();
    last = when;
    action();
    if (scheduled < kEvents) {
      q.schedule(when + static_cast<double>((scheduled * 13) % 97), [] {});
      ++scheduled;
    }
  }
  return {static_cast<double>(kEvents), last};
}

// Every event at the same instant: the tie-break path (barriers, collective
// wake-ups) and the dense bucket the golden stress config guards.
bench::Work queue_same_instant() {
  constexpr int kEvents = 20000;
  sim::EventQueue q;
  for (int i = 0; i < kEvents; ++i) q.schedule(5.0, [] {});
  while (!q.empty()) q.pop().second();
  return {static_cast<double>(kEvents), 5.0};
}

bench::Work queue_cancel_half() {
  constexpr int kEvents = 20000;
  sim::EventQueue q;
  std::vector<sim::EventId> ids;
  ids.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(q.schedule(static_cast<double>((i * 31) % 1009), [] {}));
  }
  for (int i = 0; i < kEvents; i += 2) (void)q.cancel(ids[static_cast<std::size_t>(i)]);
  while (!q.empty()) q.pop().second();
  return {static_cast<double>(kEvents), 0.0};
}

// --- engine scenarios (coroutines, sync primitives) ------------------------

bench::Work timer_chain() {
  constexpr int kSteps = 100000;
  sim::Engine e;
  auto proc = [](sim::Engine& eng, int steps) -> sim::Task<> {
    for (int i = 0; i < steps; ++i) co_await eng.delay(1.0);
  };
  e.spawn(proc(e, kSteps));
  e.run();
  return {static_cast<double>(e.events_executed()), e.now()};
}

bench::Work many_processes() {
  constexpr int kProcs = 4096;
  sim::Engine e;
  auto proc = [](sim::Engine& eng) -> sim::Task<> {
    for (int i = 0; i < 10; ++i) co_await eng.delay(1.0);
  };
  for (int p = 0; p < kProcs; ++p) e.spawn(proc(e));
  e.run();
  return {static_cast<double>(e.events_executed()), e.now()};
}

bench::Work channel_pingpong() {
  constexpr int kMsgs = 10000;
  sim::Engine e;
  sim::Channel<int> ch(e, 8);
  auto producer = [](sim::Channel<int>& c, int n) -> sim::Task<> {
    for (int i = 0; i < n; ++i) co_await c.send(i);
  };
  auto consumer = [](sim::Channel<int>& c, int n) -> sim::Task<> {
    for (int i = 0; i < n; ++i) (void)co_await c.recv();
  };
  e.spawn(producer(ch, kMsgs));
  e.spawn(consumer(ch, kMsgs));
  e.run();
  return {static_cast<double>(e.events_executed()), e.now()};
}

bench::Work semaphore_contention() {
  constexpr int kTasks = 64;
  sim::Engine e;
  sim::Semaphore sem(e, 1);
  auto proc = [](sim::Engine& eng, sim::Semaphore& s) -> sim::Task<> {
    for (int i = 0; i < 16; ++i) {
      co_await s.acquire();
      co_await eng.delay(0.001);
      s.release();
    }
  };
  for (int t = 0; t < kTasks; ++t) e.spawn(proc(e, sem));
  e.run();
  return {static_cast<double>(e.events_executed()), e.now()};
}

// Spawn-heavy fork/join shape: short-lived coroutines created in waves, the
// allocation-rate stress for coroutine frames.
bench::Work spawn_waves() {
  // maybe_unused: only read inside the capture-less driver coroutine (a
  // constant expression, not an odr-use), which GCC's
  // -Wunused-but-set-variable fails to see as a use.
  [[maybe_unused]] constexpr int kWaves = 200;
  [[maybe_unused]] constexpr int kPerWave = 256;
  sim::Engine e;
  auto worker = [](sim::Engine& eng) -> sim::Task<> {
    co_await eng.delay(0.5);
  };
  auto driver = [](sim::Engine& eng, auto spawn_worker) -> sim::Task<> {
    for (int w = 0; w < kWaves; ++w) {
      spawn_worker(eng, kPerWave);
      co_await eng.delay(1.0);
    }
  };
  auto spawn_worker = [&worker](sim::Engine& eng, int n) {
    for (int i = 0; i < n; ++i) eng.spawn(worker(eng));
  };
  e.spawn(driver(e, spawn_worker));
  e.run();
  return {static_cast<double>(e.events_executed()), e.now()};
}

// --- Pablo scenarios (host cost per traced operation) ---------------------

/// Keeps the optimizer from discarding a result the scenario only computes.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

constexpr int kItems = 100000;

pablo::IoEvent sample_event(sim::Rng& rng) {
  pablo::IoEvent e;
  e.timestamp = rng.uniform(0, 10000);
  e.duration = rng.uniform(0, 0.5);
  e.node = static_cast<io::NodeId>(rng.uniform_int(0, 127));
  e.file = static_cast<io::FileId>(rng.uniform_int(1, 16));
  e.op = static_cast<pablo::Op>(rng.uniform_int(0, 4));
  e.offset = rng.uniform_int(0, 1u << 30);
  e.requested = rng.uniform_int(64, 1 << 20);
  e.transferred = e.requested;
  return e;
}

bench::Work trace_capture() {
  sim::Rng rng(1);
  const pablo::IoEvent e = sample_event(rng);
  pablo::Trace trace;
  for (int i = 0; i < kItems; ++i) trace.on_event(e);
  keep(trace.size());
  return {static_cast<double>(kItems), 0.0};
}

/// Feeds kItems sampled events to one sink (a real-time reduction).
template <typename Sink>
bench::Work reduce(Sink&& sink, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (int i = 0; i < kItems; ++i) sink.on_event(sample_event(rng));
  return {static_cast<double>(kItems), 0.0};
}

bench::Work lifetime_reduction() {
  return reduce(pablo::FileLifetimeSummary(), 2);
}

bench::Work time_window_reduction() {
  return reduce(pablo::TimeWindowSummary(10.0), 3);
}

bench::Work file_region_reduction() {
  return reduce(pablo::FileRegionSummary(1 << 20), 4);
}

bench::Work all_sinks_together() {
  sim::Rng rng(5);
  pablo::Trace trace;
  pablo::FileLifetimeSummary lifetime;
  pablo::TimeWindowSummary window(10.0);
  pablo::FileRegionSummary region(1 << 20);
  for (int i = 0; i < kItems; ++i) {
    const pablo::IoEvent e = sample_event(rng);
    trace.on_event(e);
    lifetime.on_event(e);
    window.on_event(e);
    region.on_event(e);
  }
  keep(trace.size());
  return {static_cast<double>(kItems), 0.0};
}

bench::Work sddf_write_read() {
  constexpr int kEvents = 10000;
  static const pablo::Trace trace = [] {
    sim::Rng rng(6);
    pablo::Trace t;
    t.on_file(1, "/bench/file");
    for (int i = 0; i < kEvents; ++i) t.on_event(sample_event(rng));
    return t;
  }();
  std::stringstream buffer;
  pablo::write_trace(buffer, trace);
  const pablo::Trace loaded = pablo::read_trace(buffer);
  keep(loaded.size());
  return {static_cast<double>(kEvents), 0.0};
}

// --- data-structure scenarios (no simulation clock) -------------------------

bench::Work stripe_decompose() {
  pfs::StripeParams params;
  params.unit = 64 * 1024;
  params.io_nodes = 16;
  const pfs::StripeMap map(params);
  sim::Rng rng(1);
  for (int i = 0; i < kItems; ++i) {
    const auto segs = map.decompose(rng.uniform_int(0, 1u << 30),
                                    3 * 1024 * 1024);
    keep(segs.data());
  }
  return {static_cast<double>(kItems), 0.0};
}

// 1 000 sequential 2 KB inserts into a fresh set, 100 sets per repetition.
bench::Work extent_inserts() {
  constexpr int kSets = 100;
  constexpr int kInserts = 1000;
  for (int s = 0; s < kSets; ++s) {
    ppfs::ExtentSet set;
    for (int i = 0; i < kInserts; ++i) {
      set.insert(static_cast<std::uint64_t>(i) * 2048, 2048);
    }
    keep(set.total_bytes());
  }
  return {static_cast<double>(kSets * kInserts), 0.0};
}

// Half-hit lookups in a full 1 024-block cache.
bench::Work block_cache_lookups() {
  static ppfs::BlockCache cache = [] {
    ppfs::BlockCache c(1024);
    for (std::uint64_t b = 0; b < 1024; ++b) c.insert({1, b});
    return c;
  }();
  sim::Rng rng(7);
  for (int i = 0; i < kItems; ++i) {
    keep(cache.lookup({1, rng.uniform_int(0, 2047)}));
  }
  return {static_cast<double>(kItems), 0.0};
}

bench::Work rng_next_u64() {
  constexpr int kDraws = 1000000;
  sim::Rng rng(42);
  std::uint64_t fold = 0;
  for (int i = 0; i < kDraws; ++i) fold ^= rng.next_u64();
  keep(fold);
  return {static_cast<double>(kDraws), 0.0};
}

constexpr Scenario kScenarios[] = {
    {"queue_churn_1k", &queue_churn<1000>},
    {"queue_churn_100k", &queue_churn<100000>},
    {"queue_rolling_horizon_100k", &queue_rolling_horizon},
    {"queue_same_instant_20k", &queue_same_instant},
    {"queue_cancel_half_20k", &queue_cancel_half},
    {"timer_chain_100k", &timer_chain},
    {"many_processes_4096x10", &many_processes},
    {"channel_pingpong_10k", &channel_pingpong},
    {"semaphore_contention_64x16", &semaphore_contention},
    {"spawn_waves_200x256", &spawn_waves},
    {"pablo_trace_capture_100k", &trace_capture},
    {"pablo_lifetime_reduction_100k", &lifetime_reduction},
    {"pablo_time_window_reduction_100k", &time_window_reduction},
    {"pablo_file_region_reduction_100k", &file_region_reduction},
    {"pablo_all_sinks_100k", &all_sinks_together},
    {"sddf_write_read_10k", &sddf_write_read},
    {"stripe_decompose_100k", &stripe_decompose},
    {"extent_insert_1k_x100", &extent_inserts},
    {"block_cache_lookup_100k", &block_cache_lookups},
    {"rng_next_u64_1m", &rng_next_u64},
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt =
      bench::parse_args(argc, argv, bench::Kind::kTimed);
  // Keep one full run cheap (~5 s) while giving each scenario enough wall
  // time that events/sec is stable to a few percent on an idle host.
  const double min_wall_ms = 250.0;

  std::printf("=== substrate microbenchmarks (no observers) ===\n");
  std::printf("%-34s %14s %10s %16s\n", "scenario", "events", "wall_ms",
              "events/sec");
  std::vector<bench::ScenarioRecord> records;
  std::string csv = "scenario,events,wall_ms,events_per_sec\n";
  for (const Scenario& s : kScenarios) {
    const bench::ScenarioRecord rec =
        bench::time_scenario(s.name, s.run, min_wall_ms);
    std::printf("%-34s %14.0f %10.3f %16.0f\n", rec.name.c_str(), rec.events,
                rec.wall_ms, rec.events_per_sec);
    csv += rec.name + "," + std::to_string(rec.events) + "," +
           std::to_string(rec.wall_ms) + "," +
           std::to_string(rec.events_per_sec) + "\n";
    records.push_back(rec);
  }

  bench::write_csv(opt, "micro_sim.csv", csv);
  bench::write_scenarios_json(opt, "micro_sim", records);
  return 0;
}
