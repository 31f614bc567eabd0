#include "apps/replay.hpp"

#include <gtest/gtest.h>

#include "analysis/tables.hpp"
#include "apps/synthetic.hpp"
#include "hw/machine.hpp"
#include "io/file.hpp"
#include "pfs/pfs.hpp"
#include "ppfs/ppfs.hpp"
#include "sim/engine.hpp"

namespace paraio::apps {
namespace {

/// Captures a small synthetic workload on PFS and returns its trace.
pablo::Trace capture_workload() {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 2));
  pfs::Pfs pfs(machine);
  io::CaptureFs fs(pfs, engine);
  pablo::Trace trace;
  fs.add_sink(trace);
  SyntheticConfig cfg;
  cfg.nodes = 4;
  SyntheticPhase w;
  w.name = "produce";
  w.pattern = SyntheticPattern::kOwnRegion;
  w.requests = 8;
  w.size = 4096;
  w.think_time = 0.2;
  SyntheticPhase r;
  r.name = "consume";
  r.direction = SyntheticDirection::kRead;
  r.pattern = SyntheticPattern::kSequential;
  r.requests = 8;
  r.size = 4096;
  cfg.phases = {w, r};
  Synthetic app(machine, fs, cfg);
  auto driver = [](Synthetic& a, io::FileSystem& bare) -> sim::Task<> {
    co_await a.stage(bare);
    co_await a.run();
  };
  engine.spawn(driver(app, pfs));
  engine.run();
  return trace;
}

template <typename Fs>
std::pair<ReplayStats, pablo::Trace> replay_on(const pablo::Trace& original,
                                               double scale_think = 1.0) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 2));
  Fs target(machine);
  io::CaptureFs fs(target, engine);
  pablo::Trace replay_trace;
  fs.add_sink(replay_trace);
  Replay replay(machine, fs, original, scale_think);
  auto driver = [](Replay& r, io::FileSystem& bare) -> sim::Task<> {
    co_await r.stage(bare);
    co_await r.run();
  };
  engine.spawn(driver(replay, target));
  engine.run();
  return {replay.stats(), replay_trace};
}

TEST(Replay, ReproducesDataVolume) {
  const pablo::Trace original = capture_workload();
  analysis::OperationTable orig_table(original);
  auto [stats, trace] = replay_on<pfs::Pfs>(original);
  EXPECT_EQ(stats.bytes_written, orig_table.row(pablo::Op::kWrite).bytes);
  EXPECT_EQ(stats.bytes_read, orig_table.row(pablo::Op::kRead).bytes);
  EXPECT_EQ(stats.operations, original.size());
}

TEST(Replay, ReplayedTraceHasSameDataOpCounts) {
  const pablo::Trace original = capture_workload();
  analysis::OperationTable orig_table(original);
  auto [stats, trace] = replay_on<pfs::Pfs>(original);
  analysis::OperationTable new_table(trace);
  EXPECT_EQ(new_table.row(pablo::Op::kWrite).count,
            orig_table.row(pablo::Op::kWrite).count);
  EXPECT_EQ(new_table.row(pablo::Op::kRead).count,
            orig_table.row(pablo::Op::kRead).count);
  // Sequential reads must not sprout replay-only seeks beyond the
  // positioning the original workload required.
  EXPECT_LE(new_table.row(pablo::Op::kSeek).count,
            orig_table.row(pablo::Op::kSeek).count +
                orig_table.row(pablo::Op::kWrite).count);
}

TEST(Replay, ThinkTimePreservedByDefault) {
  const pablo::Trace original = capture_workload();
  auto [faithful, t1] = replay_on<pfs::Pfs>(original, 1.0);
  auto [stress, t2] = replay_on<pfs::Pfs>(original, 0.0);
  EXPECT_LT(stress.duration, faithful.duration);
  EXPECT_GT(faithful.duration, 1.0);  // the workload had ~0.2 s think times
}

TEST(Replay, CrossMountComparison) {
  // The §5.2 workflow in miniature: capture on PFS, replay on PPFS, and
  // the I/O time drops.
  const pablo::Trace original = capture_workload();
  auto [on_pfs, t1] = replay_on<pfs::Pfs>(original);
  auto [on_ppfs, t2] = replay_on<ppfs::Ppfs>(original);
  EXPECT_LT(on_ppfs.io_node_time, on_pfs.io_node_time);
  EXPECT_EQ(on_ppfs.bytes_written, on_pfs.bytes_written);
}

TEST(Replay, EmptyTrace) {
  pablo::Trace empty;
  auto [stats, trace] = replay_on<pfs::Pfs>(empty);
  EXPECT_EQ(stats.operations, 0u);
  EXPECT_DOUBLE_EQ(stats.duration, 0.0);
}

TEST(Replay, LeakedHandlesClosed) {
  // A trace that opens but never closes: replay must still terminate and
  // close the handle itself.
  pablo::Trace t;
  t.on_file(1, "/r/leak");
  pablo::IoEvent open;
  open.op = pablo::Op::kOpen;
  open.file = 1;
  open.node = 0;
  t.on_event(open);
  pablo::IoEvent write;
  write.op = pablo::Op::kWrite;
  write.file = 1;
  write.node = 0;
  write.timestamp = 1.0;
  write.requested = write.transferred = 512;
  t.on_event(write);
  auto [stats, trace] = replay_on<pfs::Pfs>(t);
  EXPECT_EQ(stats.operations, 2u);
  analysis::OperationTable table(trace);
  EXPECT_EQ(table.row(pablo::Op::kClose).count, 1u);
}

}  // namespace
}  // namespace paraio::apps
