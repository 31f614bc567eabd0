#include "apps/synthetic.hpp"

#include <gtest/gtest.h>

#include "analysis/pattern.hpp"
#include "analysis/tables.hpp"
#include "hw/machine.hpp"
#include "io/file.hpp"
#include "pfs/pfs.hpp"
#include "sim/engine.hpp"

namespace paraio::apps {
namespace {

struct Fixture {
  Fixture()
      : machine(engine, hw::MachineConfig::paragon_xps(8, 2)),
        pfs(machine),
        fs(pfs, engine) {
    fs.add_sink(trace);
  }

  void run(SyntheticConfig cfg) {
    Synthetic app(machine, fs, std::move(cfg));
    auto driver = [](Synthetic& a, io::FileSystem& bare) -> sim::Task<> {
      co_await a.stage(bare);
      co_await a.run();
    };
    engine.spawn(driver(app, pfs));
    engine.run();
  }

  sim::Engine engine;
  hw::Machine machine;
  pfs::Pfs pfs;
  io::CaptureFs fs;
  pablo::Trace trace;
};

TEST(Synthetic, RequestCountsFollowConfig) {
  Fixture fx;
  SyntheticConfig cfg;
  cfg.nodes = 4;
  SyntheticPhase w;
  w.direction = SyntheticDirection::kWrite;
  w.requests = 10;
  w.size = 2048;
  w.pattern = SyntheticPattern::kOwnRegion;
  cfg.phases.push_back(w);
  fx.run(cfg);
  analysis::OperationTable t(fx.trace);
  EXPECT_EQ(t.row(pablo::Op::kWrite).count, 40u);
  EXPECT_EQ(t.row(pablo::Op::kWrite).bytes, 40u * 2048);
}

TEST(Synthetic, SizeJitterVariesSizes) {
  Fixture fx;
  SyntheticConfig cfg;
  cfg.nodes = 2;
  SyntheticPhase w;
  w.direction = SyntheticDirection::kWrite;
  w.requests = 50;
  w.size = 10'000;
  w.size_jitter = 0.5;
  cfg.phases.push_back(w);
  fx.run(cfg);
  std::set<std::uint64_t> sizes;
  for (const auto& e : fx.trace.events()) {
    if (e.op == pablo::Op::kWrite) sizes.insert(e.transferred);
  }
  EXPECT_GT(sizes.size(), 10u);
  for (auto s : sizes) {
    EXPECT_GE(s, 5'000u);
    EXPECT_LE(s, 15'000u);
  }
}

TEST(Synthetic, SequentialPhaseClassifiesSequential) {
  Fixture fx;
  fx.run(SyntheticPresets::scan(4, 20, 8192));
  auto streams = analysis::classify_trace(fx.trace);
  const auto mix = analysis::pattern_mix(streams);
  EXPECT_EQ(mix.sequential, 4u);  // one per node, all sequential
  EXPECT_EQ(mix.random, 0u);
}

TEST(Synthetic, RandomPhaseClassifiesRandom) {
  Fixture fx;
  fx.run(SyntheticPresets::probe(4, 30, 4096));
  auto streams = analysis::classify_trace(fx.trace);
  const auto mix = analysis::pattern_mix(streams);
  EXPECT_GE(mix.random, 3u);
}

TEST(Synthetic, StridedPhaseHasConfiguredStride) {
  Fixture fx;
  SyntheticConfig cfg;
  cfg.nodes = 1;
  cfg.region_bytes = 8 * 1024 * 1024;
  SyntheticPhase r;
  r.direction = SyntheticDirection::kRead;
  r.pattern = SyntheticPattern::kStrided;
  r.stride = 128 * 1024;
  r.requests = 20;
  r.size = 4096;
  r.layout = SyntheticFileLayout::kPerNode;
  cfg.phases.push_back(r);
  fx.run(cfg);
  auto streams = analysis::classify_trace(fx.trace);
  ASSERT_EQ(streams.size(), 1u);
  const auto& cls = streams.begin()->second;
  EXPECT_EQ(cls.pattern, analysis::AccessPattern::kStrided);
  EXPECT_EQ(cls.stride, 128 * 1024);
}

TEST(Synthetic, OwnRegionWritesAreDisjoint) {
  Fixture fx;
  SyntheticConfig cfg;
  cfg.nodes = 4;
  cfg.region_bytes = 1 << 20;
  SyntheticPhase w;
  w.pattern = SyntheticPattern::kOwnRegion;
  w.requests = 16;
  w.size = 1024;
  cfg.phases.push_back(w);
  fx.run(cfg);
  // Each node's writes must stay inside its [node*region, (node+1)*region).
  for (const auto& e : fx.trace.events()) {
    if (e.op != pablo::Op::kWrite) continue;
    const std::uint64_t region = 1 << 20;
    EXPECT_EQ(e.offset / region, e.node);
  }
}

TEST(Synthetic, MultiPhaseLogsBoundaries) {
  Fixture fx;
  SyntheticConfig cfg;
  cfg.nodes = 2;
  SyntheticPhase w;
  w.name = "produce";
  w.requests = 4;
  w.pattern = SyntheticPattern::kOwnRegion;
  SyntheticPhase r;
  r.name = "consume";
  r.direction = SyntheticDirection::kRead;
  r.pattern = SyntheticPattern::kSequential;
  r.requests = 4;
  cfg.phases = {w, r};
  Synthetic app(fx.machine, fx.fs, cfg);
  auto driver = [](Synthetic& a, io::FileSystem& bare) -> sim::Task<> {
    co_await a.stage(bare);
    co_await a.run();
  };
  fx.engine.spawn(driver(app, fx.pfs));
  fx.engine.run();
  EXPECT_GE(app.phases().end_of("produce"), 0.0);
  EXPECT_GE(app.phases().end_of("consume"),
            app.phases().end_of("produce"));
}

TEST(Synthetic, ParticipantsLimitsNodes) {
  Fixture fx;
  SyntheticConfig cfg;
  cfg.nodes = 8;
  SyntheticPhase w;
  w.requests = 4;
  w.participants = 3;
  w.pattern = SyntheticPattern::kOwnRegion;
  cfg.phases.push_back(w);
  fx.run(cfg);
  std::set<io::NodeId> writers;
  for (const auto& e : fx.trace.events()) {
    if (e.op == pablo::Op::kWrite) writers.insert(e.node);
  }
  EXPECT_EQ(writers.size(), 3u);
}

TEST(Synthetic, ReadsNeverShort) {
  Fixture fx;
  fx.run(SyntheticPresets::probe(4, 40, 4096));
  for (const auto& e : fx.trace.events()) {
    if (e.op == pablo::Op::kRead) {
      EXPECT_EQ(e.transferred, e.requested);
    }
  }
}

TEST(Synthetic, BarrierSynchronizesPhaseEntry) {
  Fixture fx;
  SyntheticConfig cfg = SyntheticPresets::checkpoint(4, 3, 2048);
  fx.run(cfg);
  analysis::OperationTable t(fx.trace);
  EXPECT_EQ(t.row(pablo::Op::kWrite).count, 12u);
}

}  // namespace
}  // namespace paraio::apps
