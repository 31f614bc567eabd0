// Quickstart: build a small simulated parallel machine, mount PFS, run a
// few captured I/O operations from two "compute node" processes, and
// print the captured characterization.
//
//   $ ./examples/quickstart
#include <iostream>

#include "analysis/tables.hpp"
#include "hw/machine.hpp"
#include "io/file.hpp"
#include "pablo/summary.hpp"
#include "pfs/pfs.hpp"
#include "sim/engine.hpp"

using namespace paraio;

int main() {
  // 1. A machine: 4 compute nodes, 2 I/O nodes with RAID-3 arrays.
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 2));

  // 2. A parallel file system, and the Pablo capture point over it: every
  //    handle opened through `fs` reports each operation to the sinks.
  pfs::Pfs pfs(machine);
  io::CaptureFs fs(pfs, engine);
  pablo::Trace trace;                       // full event capture
  pablo::FileLifetimeSummary lifetime;      // real-time reduction
  fs.add_sink(trace);
  fs.add_sink(lifetime);

  // 3. Application processes are coroutines; file operations take simulated
  //    time determined by the machine and file-system models.
  auto writer = [&](io::NodeId node) -> sim::Task<> {
    io::OpenOptions opts;
    opts.mode = io::AccessMode::kUnix;
    opts.create = true;
    auto file = co_await fs.open(node, "/demo/data", opts);
    for (int i = 0; i < 8; ++i) {
      co_await file->seek(node * (1 << 20) + i * 4096);
      co_await file->write(4096);
    }
    co_await file->close();
  };
  auto reader = [&](io::NodeId node) -> sim::Task<> {
    co_await engine.delay(2.0);  // start after some data exists
    io::OpenOptions opts;
    opts.mode = io::AccessMode::kUnix;
    auto file = co_await fs.open(node, "/demo/data", opts);
    co_await file->seek(0);
    std::uint64_t n = 1;
    while (n > 0) n = co_await file->read(64 * 1024);
    co_await file->close();
  };
  engine.spawn(writer(0));
  engine.spawn(writer(1));
  engine.spawn(reader(2));

  // 4. Run the simulation and analyze the trace.
  const double end = engine.run();
  std::cout << "simulated " << end << " s, captured " << trace.size()
            << " I/O events\n\n";
  analysis::OperationTable table(trace);
  std::cout << analysis::to_text(table, "Operation summary");

  std::cout << "\nPer-file lifetime summary:\n";
  for (const auto& [id, entry] : lifetime.files()) {
    std::cout << "  " << trace.file_name(id) << ": "
              << entry.counters.bytes_written << " B written, "
              << entry.counters.bytes_read << " B read, open "
              << entry.open_time << " s\n";
  }
  return 0;
}
