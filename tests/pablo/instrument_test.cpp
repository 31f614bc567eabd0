// Conformance of the capture point: handles opened through io::CaptureFs
// report one IoEvent per operation from the io::File boundary itself.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "hw/machine.hpp"
#include "io/file.hpp"
#include "pablo/trace.hpp"
#include "pfs/pfs.hpp"
#include "sim/engine.hpp"
#include "../testkit/test_configs.hpp"

namespace paraio::pablo {
namespace {

struct Fixture {
  Fixture()
      : machine(engine, hw::MachineConfig::paragon_xps(4, 2)),
        pfs(machine),
        fs(pfs, engine) {
    fs.add_sink(trace);
  }
  sim::Engine engine;
  hw::Machine machine;
  pfs::Pfs pfs;
  io::CaptureFs fs;
  Trace trace;
};

io::OpenOptions create_unix() {
  io::OpenOptions o;
  o.mode = io::AccessMode::kUnix;
  o.create = true;
  return o;
}

std::uint64_t count_op(const Trace& t, Op op) {
  std::uint64_t n = 0;
  for (const auto& e : t.events()) {
    if (e.op == op) ++n;
  }
  return n;
}

const IoEvent* find_op(const Trace& t, Op op) {
  for (const auto& e : t.events()) {
    if (e.op == op) return &e;
  }
  return nullptr;
}

TEST(Instrument, EveryOperationProducesOneEvent) {
  Fixture fx;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(100);
    co_await f->seek(0);
    (void)co_await f->read(50);
    (void)co_await f->size();
    co_await f->flush();
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(fx.trace.size(), 7u);
  EXPECT_EQ(count_op(fx.trace, Op::kOpen), 1u);
  EXPECT_EQ(count_op(fx.trace, Op::kWrite), 1u);
  EXPECT_EQ(count_op(fx.trace, Op::kSeek), 1u);
  EXPECT_EQ(count_op(fx.trace, Op::kRead), 1u);
  EXPECT_EQ(count_op(fx.trace, Op::kLsize), 1u);
  EXPECT_EQ(count_op(fx.trace, Op::kFlush), 1u);
  EXPECT_EQ(count_op(fx.trace, Op::kClose), 1u);
  // lsize returns the size but moves no data.
  EXPECT_EQ(find_op(fx.trace, Op::kLsize)->transferred, 0u);
}

TEST(Instrument, EventsCarryParametersAndResults) {
  Fixture fx;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(3, "/data", create_unix());
    co_await f->write(256);
    co_await f->seek(100);
    (void)co_await f->read(1000);  // clipped to 156
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  const auto& events = fx.trace.events();
  ASSERT_EQ(events.size(), 5u);
  const IoEvent& wr = events[1];
  EXPECT_EQ(wr.op, Op::kWrite);
  EXPECT_EQ(wr.node, 3u);
  EXPECT_EQ(wr.offset, 0u);
  EXPECT_EQ(wr.requested, 256u);
  EXPECT_EQ(wr.transferred, 256u);
  EXPECT_EQ(wr.mode, io::AccessMode::kUnix);
  const IoEvent& rd = events[3];
  EXPECT_EQ(rd.op, Op::kRead);
  EXPECT_EQ(rd.offset, 100u);
  EXPECT_EQ(rd.requested, 1000u);
  EXPECT_EQ(rd.transferred, 156u);
}

TEST(Instrument, DurationsArePositiveAndOrdered) {
  Fixture fx;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(64 * 1024);
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  double prev_start = -1.0;
  for (const auto& e : fx.trace.events()) {
    EXPECT_GT(e.duration, 0.0);
    EXPECT_GE(e.timestamp, prev_start);
    prev_start = e.timestamp;
  }
}

TEST(Instrument, FileNamesRegistered) {
  Fixture fx;
  auto proc = [&]() -> sim::Task<> {
    auto a = co_await fx.fs.open(0, "/alpha", create_unix());
    auto b = co_await fx.fs.open(0, "/beta", create_unix());
    co_await a->close();
    co_await b->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(fx.trace.file_name(1), "/alpha");
  EXPECT_EQ(fx.trace.file_name(2), "/beta");
  EXPECT_EQ(fx.trace.file_name(99), "file99");
}

TEST(Instrument, AsyncSplitsIntoIssueAndIoWait) {
  Fixture fx;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(2 * 1024 * 1024);
    co_await f->seek(0);
    io::AsyncOp op = co_await f->read_async(2 * 1024 * 1024);
    (void)co_await f->iowait(std::move(op));
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(count_op(fx.trace, Op::kAsyncRead), 1u);
  EXPECT_EQ(count_op(fx.trace, Op::kIoWait), 1u);
  // Find both events; issue must be much cheaper than the wait.
  double issue = -1, wait = -1;
  std::uint64_t wait_bytes = 0;
  for (const auto& e : fx.trace.events()) {
    if (e.op == Op::kAsyncRead) issue = e.duration;
    if (e.op == Op::kIoWait) {
      wait = e.duration;
      wait_bytes = e.transferred;
    }
  }
  EXPECT_GT(issue, 0.0);
  EXPECT_GT(wait, issue);
  EXPECT_EQ(wait_bytes, 2u * 1024 * 1024);
}

TEST(Instrument, AsyncIssueTransferredIsTheTellDelta) {
  // A read issued past end-of-file is clipped at issue time: the issue
  // event carries what the file pointer moved, not what was requested.
  Fixture fx;
  std::uint64_t read_delta = 0;
  std::uint64_t write_delta = 0;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(3000);
    co_await f->seek(1000);
    std::uint64_t before = f->tell();
    io::AsyncOp rd = co_await f->read_async(5000);
    read_delta = f->tell() - before;
    (void)co_await f->iowait(std::move(rd));
    before = f->tell();
    io::AsyncOp wr = co_await f->write_async(700);
    write_delta = f->tell() - before;
    (void)co_await f->iowait(std::move(wr));
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(read_delta, 2000u);
  EXPECT_EQ(write_delta, 700u);
  const IoEvent* rd = find_op(fx.trace, Op::kAsyncRead);
  const IoEvent* wr = find_op(fx.trace, Op::kAsyncWrite);
  ASSERT_NE(rd, nullptr);
  ASSERT_NE(wr, nullptr);
  EXPECT_EQ(rd->requested, 5000u);
  EXPECT_EQ(rd->offset, 1000u);
  EXPECT_EQ(rd->transferred, read_delta);
  EXPECT_EQ(wr->requested, 700u);
  EXPECT_EQ(wr->offset, 3000u);
  EXPECT_EQ(wr->transferred, write_delta);
}

TEST(Instrument, IoWaitCarriesCompletedBytes) {
  Fixture fx;
  std::uint64_t completed = 0;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(4096);
    co_await f->seek(1024);
    io::AsyncOp op = co_await f->read_async(1 << 20);  // clipped to 3072
    completed = co_await f->iowait(std::move(op));
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(completed, 3072u);
  const IoEvent* wait = find_op(fx.trace, Op::kIoWait);
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->transferred, completed);
  EXPECT_EQ(wait->requested, 0u);
}

TEST(Instrument, SetModeEmitsNothing) {
  Fixture fx;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    io::OpenOptions record;
    record.mode = io::AccessMode::kRecord;
    record.record_size = 512;
    co_await f->set_mode(record);
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  ASSERT_EQ(fx.trace.size(), 2u);
  EXPECT_EQ(fx.trace.events()[0].op, Op::kOpen);
  EXPECT_EQ(fx.trace.events()[1].op, Op::kClose);
  // The close is stamped with the mode in force when it started.
  EXPECT_EQ(fx.trace.events()[1].mode, io::AccessMode::kRecord);
}

TEST(Instrument, ThrowingOperationEmitsNothingAndRethrows) {
  Fixture fx;
  bool caught = false;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->close();
    try {
      (void)co_await f->read(10);  // read after close
    } catch (const std::logic_error&) {
      caught = true;
    }
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_TRUE(caught);
  ASSERT_EQ(fx.trace.size(), 2u);
  EXPECT_EQ(count_op(fx.trace, Op::kRead), 0u);
}

TEST(Instrument, BareMountHandlesStayUntraced) {
  Fixture fx;
  auto proc = [&]() -> sim::Task<> {
    auto bare = co_await fx.pfs.open(0, "/staged", create_unix());
    co_await bare->write(100);
    co_await bare->close();
    auto f = co_await fx.fs.open(1, "/staged", io::OpenOptions{});
    (void)co_await f->read(100);
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  ASSERT_EQ(fx.trace.size(), 3u);
  EXPECT_EQ(count_op(fx.trace, Op::kWrite), 0u);
  EXPECT_EQ(fx.trace.events()[0].node, 1u);
}

TEST(Instrument, MultipleSinksAllReceiveEvents) {
  Fixture fx;
  Trace second;
  fx.fs.add_sink(second);
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(10);
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(fx.trace, second);
}

TEST(Instrument, InstrumentationAddsNoSimulatedTime) {
  // Same workload, captured vs bare: identical end times.
  auto run = [](bool captured) {
    sim::Engine engine;
    hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 2));
    pfs::Pfs bare(machine);
    io::CaptureFs capture(bare, engine);
    Trace trace;
    capture.add_sink(trace);
    io::FileSystem& fs = captured ? static_cast<io::FileSystem&>(capture)
                                  : static_cast<io::FileSystem&>(bare);
    auto proc = [&]() -> sim::Task<> {
      io::OpenOptions o;
      o.mode = io::AccessMode::kUnix;
      o.create = true;
      auto f = co_await fs.open(0, "/f", o);
      for (int i = 0; i < 10; ++i) co_await f->write(2048);
      co_await f->close();
    };
    engine.spawn(proc());
    return engine.run();
  };
  EXPECT_DOUBLE_EQ(run(true), run(false));
}

TEST(Instrument, TraceTimesBracketRun) {
  Fixture fx;
  auto proc = [&]() -> sim::Task<> {
    co_await fx.engine.delay(5.0);
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(100);
    co_await f->close();
  };
  fx.engine.spawn(proc());
  const double end = fx.engine.run();
  EXPECT_GE(fx.trace.start_time(), 5.0);
  EXPECT_LE(fx.trace.end_time(), end + 1e-12);
  EXPECT_GT(fx.trace.end_time(), fx.trace.start_time());
}

std::uint64_t bytes_written(const Trace& t) {
  std::uint64_t n = 0;
  for (const auto& e : t.events()) {
    if (e.moves_data_to_storage()) n += e.transferred;
  }
  return n;
}

TEST(Instrument, StagingAndWriteBehindDumpsStayOutOfTheTrace) {
  core::ExperimentConfig cfg;
  cfg.machine = hw::MachineConfig::paragon_xps(8, 4);
  cfg.app = testkit::golden_escat();
  const core::ExperimentResult plain = core::run_experiment(cfg);

  cfg.checkpoint.enabled = true;
  cfg.checkpoint.every = 2;
  cfg.checkpoint.state_bytes = 64 * 1024;
  cfg.checkpoint.chunk_bytes = 16 * 1024;
  cfg.checkpoint.backend = ckpt::CkptBackend::kWriteBehind;
  const core::ExperimentResult dumped = core::run_experiment(cfg);
  ASSERT_EQ(dumped.checkpoint.epochs_committed, 3u);
  ASSERT_GT(dumped.checkpoint.bytes_dumped, 0u);

  for (const core::ExperimentResult* r : {&plain, &dumped}) {
    ASSERT_FALSE(r->trace.empty());
    // stage() runs before run_start; nothing it did may appear.
    EXPECT_GE(r->trace.start_time(), r->run_start);
    for (const auto& [id, path] : r->trace.files()) {
      EXPECT_NE(path.rfind("/ckpt/", 0), 0u) << path;
    }
  }
  // The application writes the same bytes either way; the dumps add none.
  EXPECT_EQ(bytes_written(dumped.trace), bytes_written(plain.trace));
}

}  // namespace
}  // namespace paraio::pablo
