// Checkpointing — the second of the paper's I/O classes (§2): "production
// runs of scientific codes may span hours or even days ... In addition,
// users often use computation checkpoints as a basis for parametric
// studies, repeatedly modifying a subset of the checkpoint data values and
// restarting the computation."
//
// A long-running computation checkpoints its distributed state every
// interval.  The run is "killed" partway; a parametric restart then reads
// the latest checkpoint back, each node patches a small subset of its
// values, and the computation continues to completion.  Reported: the cost
// of taking checkpoints, the restart read burst, and how little the
// parametric patch writes.
//
//   $ ./examples/checkpoint_restart
#include <cstdio>
#include <iostream>

#include "analysis/tables.hpp"
#include "hw/machine.hpp"
#include "io/file.hpp"
#include "ppfs/ppfs.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/task_group.hpp"

using namespace paraio;

namespace {

constexpr std::uint32_t kNodes = 16;
constexpr std::uint64_t kStatePerNode = 2 * 1024 * 1024;
constexpr double kStepTime = 3.0;
constexpr int kStepsPerCheckpoint = 5;
constexpr int kTotalSteps = 30;
constexpr int kCrashAfterStep = 17;

std::string checkpoint_path(int epoch) {
  return "/ckpt/state." + std::to_string(epoch);
}

double jittered_step(sim::Rng& rng) {
  return kStepTime * rng.uniform(0.95, 1.05);
}

sim::Task<> worker(hw::Machine& m, io::FileSystem& fs, io::NodeId node,
                   sim::Barrier& barrier, int first_step, int last_step,
                   bool patch_before_start) {
  sim::Rng rng(node + 1);
  if (patch_before_start) {
    // Parametric restart: read the whole checkpoint, patch a small subset.
    const int epoch = first_step / kStepsPerCheckpoint;
    io::OpenOptions ro;
    ro.mode = io::AccessMode::kUnix;
    auto f = co_await fs.open(node, checkpoint_path(epoch), ro);
    co_await f->seek(node * kStatePerNode);
    (void)co_await f->read(kStatePerNode);
    // Patch ~1% of the state in place (the parametric modification).
    for (int i = 0; i < 4; ++i) {
      co_await f->seek(node * kStatePerNode +
                       rng.uniform_int(0, kStatePerNode / 4096 - 1) * 4096);
      co_await f->write(4096);
    }
    co_await f->close();
  }
  for (int step = first_step; step < last_step; ++step) {
    co_await m.engine().delay(jittered_step(rng));
    if ((step + 1) % kStepsPerCheckpoint == 0) {
      co_await barrier.arrive_and_wait();  // consistent checkpoint
      const int epoch = (step + 1) / kStepsPerCheckpoint;
      io::OpenOptions wo;
      wo.mode = io::AccessMode::kUnix;
      wo.create = true;
      auto f = co_await fs.open(node, checkpoint_path(epoch), wo);
      co_await f->seek(node * kStatePerNode);
      co_await f->write(kStatePerNode);
      co_await f->close();
    }
  }
}

}  // namespace

int main() {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(kNodes, 4));
  ppfs::Ppfs ppfs(machine, ppfs::PpfsParams::write_behind_aggregation());
  io::CaptureFs fs(ppfs, engine);
  pablo::Trace trace;
  fs.add_sink(trace);
  sim::Barrier barrier(engine, kNodes);

  double crash_time = 0, restart_time = 0;
  auto driver = [&]() -> sim::Task<> {
    // Original run up to the "crash".
    sim::TaskGroup group(engine);
    for (io::NodeId n = 0; n < kNodes; ++n) {
      group.spawn(worker(machine, fs, n, barrier, 0, kCrashAfterStep,
                         /*patch_before_start=*/false));
    }
    co_await group.join();
    crash_time = engine.now();

    // Restart from the last completed checkpoint with patched parameters.
    const int resume_step =
        (kCrashAfterStep / kStepsPerCheckpoint) * kStepsPerCheckpoint;
    restart_time = engine.now();
    sim::TaskGroup restart(engine);
    for (io::NodeId n = 0; n < kNodes; ++n) {
      restart.spawn(worker(machine, fs, n, barrier, resume_step, kTotalSteps,
                           /*patch_before_start=*/true));
    }
    co_await restart.join();
  };
  engine.spawn(driver());
  const double end = engine.run();

  const int lost_steps =
      kCrashAfterStep % kStepsPerCheckpoint;  // work redone after restart
  std::printf("run: %d steps of %.0f s on %u nodes, checkpoint every %d "
              "steps (%.1f MB per node)\n",
              kTotalSteps, kStepTime, kNodes, kStepsPerCheckpoint,
              kStatePerNode / 1e6);
  std::printf("crash after step %d at t=%.0f s; restarted from step %d "
              "(%d steps of work lost)\n",
              kCrashAfterStep, crash_time,
              (kCrashAfterStep / kStepsPerCheckpoint) * kStepsPerCheckpoint,
              lost_steps);
  std::printf("completed at t=%.0f s\n\n", end);

  analysis::OperationTable ops(trace);
  std::cout << analysis::to_text(
      ops, "I/O over the whole run (checkpoints + restart + patches)");
  std::cout << "\nthe checkpoint writes dominate volume; the restart is one "
               "read burst; the parametric\npatch is tiny — §2's checkpoint "
               "class in one picture.\n";
  return 0;
}
