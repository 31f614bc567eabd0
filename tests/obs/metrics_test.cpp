// Unit tests for the obs metrics registry: log2 histogram bucketing, the
// deterministic text dump, and the sampler, which attaches to the engine as
// a kernel observer (notified newest-first).
#include "obs/metrics.hpp"

#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace paraio::obs {
namespace {

TEST(Histogram, BucketOfIsBitWidth) {
  // Bucket 0 holds only the value 0; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            64u);
}

TEST(Histogram, BucketBoundsRoundTrip) {
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b) << b;
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b)), b) << b;
  }
  // Bucket boundaries abut: hi(b) + 1 == lo(b + 1).
  for (std::size_t b = 0; b + 2 < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_hi(b) + 1, Histogram::bucket_lo(b + 1)) << b;
  }
}

TEST(Histogram, RecordTracksMoments) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  for (const std::uint64_t v : {5u, 0u, 9u, 2u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 16u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 9u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_EQ(h.buckets()[0], 1u);  // the 0
  EXPECT_EQ(h.buckets()[2], 1u);  // the 2
  EXPECT_EQ(h.buckets()[3], 1u);  // the 5
  EXPECT_EQ(h.buckets()[4], 1u);  // the 9
}

TEST(Registry, HandlesAreStableAndNamed) {
  Registry r;
  Counter& c = r.counter("a.requests");
  c.add(3);
  // Creating unrelated metrics must not move existing nodes.
  for (int i = 0; i < 100; ++i) {
    (void)r.counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(&r.counter("a.requests"), &c);
  EXPECT_EQ(r.counter("a.requests").value(), 3u);
}

TEST(Registry, DumpIsSortedAndReproducible) {
  auto build = [] {
    Registry r;
    r.counter("z.late").add(1);
    r.counter("a.early").add(2);
    r.gauge("m.mid").set(1.5);
    r.histogram("h.sizes").record(1024);
    return r.dump_text();
  };
  const std::string a = build();
  EXPECT_EQ(a, build());
  // Sorted by name regardless of creation order.
  EXPECT_LT(a.find("a.early"), a.find("z.late"));
  EXPECT_EQ(a.find("# paraio metrics v1"), 0u);
}

TEST(DeviceMetrics, BindCreatesTheFullBundle) {
  Registry r;
  const DeviceMetrics m = DeviceMetrics::bind(r, "hw.disk0");
  EXPECT_TRUE(m.attached());
  m.requests->add();
  m.bytes->add(512);
  m.busy_s->add(0.25);
  m.qdepth->record(3);
  EXPECT_EQ(r.counter("hw.disk0.requests").value(), 1u);
  EXPECT_EQ(r.counter("hw.disk0.bytes").value(), 512u);
  EXPECT_DOUBLE_EQ(r.gauge("hw.disk0.busy_s").value(), 0.25);
  EXPECT_EQ(r.histogram("hw.disk0.qdepth").count(), 1u);
  EXPECT_FALSE(DeviceMetrics{}.attached());
}

sim::Task<> tick(sim::Engine& engine, Registry& registry, int steps) {
  for (int i = 0; i < steps; ++i) {
    co_await engine.delay(1.0);
    registry.gauge("g").add(1.0);
  }
}

TEST(Sampler, SnapshotsAtPeriodBoundaries) {
  sim::Engine engine;
  Registry registry;
  (void)registry.gauge("g");
  Sampler sampler(engine, registry, 2.0);
  engine.spawn(tick(engine, registry, 5));
  engine.run();

  // Sample boundaries at t=2 and t=4 (values as of the event that crossed
  // them), plus the final snapshot when the run drains at t=5.
  ASSERT_GE(registry.samples().size(), 3u);
  for (const auto& s : registry.samples()) {
    EXPECT_EQ(*s.name, "g");
  }
  EXPECT_DOUBLE_EQ(registry.samples().front().time, 2.0);
  EXPECT_DOUBLE_EQ(registry.samples().back().time, 5.0);
  EXPECT_DOUBLE_EQ(registry.samples().back().value, 5.0);
}

TEST(Sampler, RestoresChainedObserverOnDetach) {
  sim::Engine engine;
  Registry registry;
  {
    Sampler sampler(engine, registry, 1.0);
    EXPECT_EQ(engine.find_observer<Sampler>(), &sampler);
  }
  EXPECT_EQ(engine.find_observer<Sampler>(), nullptr);
}

TEST(FormatDouble, StableRendering) {
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(0.1), "0.1");
}

}  // namespace
}  // namespace paraio::obs
