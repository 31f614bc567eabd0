#include "analysis/op_stats.hpp"

#include <gtest/gtest.h>

namespace paraio::analysis {
namespace {

using pablo::IoEvent;
using pablo::Op;
using pablo::Trace;

IoEvent make(Op op, double t, double dur, std::uint64_t bytes = 0) {
  IoEvent e;
  e.op = op;
  e.timestamp = t;
  e.duration = dur;
  e.transferred = bytes;
  e.requested = bytes;
  return e;
}

TEST(OperationStats, DurationMoments) {
  Trace t;
  t.on_event(make(Op::kRead, 0.0, 1.0, 100));
  t.on_event(make(Op::kRead, 10.0, 3.0, 300));
  OperationStats s(t);
  EXPECT_EQ(s.of(Op::kRead).duration.count(), 2u);
  EXPECT_DOUBLE_EQ(s.of(Op::kRead).duration.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.of(Op::kRead).duration.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.of(Op::kRead).duration.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.of(Op::kRead).size.mean(), 200.0);
}

TEST(OperationStats, SizesOnlyForDataOps) {
  Trace t;
  t.on_event(make(Op::kSeek, 0.0, 0.1));
  t.on_event(make(Op::kOpen, 1.0, 0.2));
  OperationStats s(t);
  EXPECT_EQ(s.of(Op::kSeek).size.count(), 0u);
  EXPECT_EQ(s.of(Op::kSeek).duration.count(), 1u);
  EXPECT_EQ(s.all().size.count(), 0u);
  EXPECT_EQ(s.all().duration.count(), 2u);
}

TEST(OperationStats, InterArrivalPerOpClass) {
  Trace t;
  // Reads at t = 0, 10, 20 (metronomic); one write in between.
  t.on_event(make(Op::kRead, 0.0, 0.1, 1));
  t.on_event(make(Op::kWrite, 5.0, 0.1, 1));
  t.on_event(make(Op::kRead, 10.0, 0.1, 1));
  t.on_event(make(Op::kRead, 20.0, 0.1, 1));
  OperationStats s(t);
  EXPECT_EQ(s.of(Op::kRead).inter_arrival.count(), 2u);
  EXPECT_DOUBLE_EQ(s.of(Op::kRead).inter_arrival.mean(), 10.0);
  EXPECT_NEAR(s.burstiness(Op::kRead), 0.0, 1e-12);  // perfectly regular
  EXPECT_EQ(s.of(Op::kWrite).inter_arrival.count(), 0u);
  EXPECT_DOUBLE_EQ(s.burstiness(Op::kWrite), 0.0);
}

TEST(OperationStats, BurstyStreamHasHighCv) {
  Trace t;
  // Clustered writes: three at ~0, three at ~100.
  for (double base : {0.0, 100.0}) {
    for (int i = 0; i < 3; ++i) {
      t.on_event(make(Op::kWrite, base + i * 0.01, 0.001, 2048));
    }
  }
  OperationStats s(t);
  EXPECT_GT(s.burstiness(Op::kWrite), 1.0);
}

TEST(OperationStats, TextRenderingListsPresentOpsOnly) {
  Trace t;
  t.on_event(make(Op::kRead, 0, 0.1, 64));
  OperationStats s(t);
  const std::string text = to_text(s, "Stats");
  EXPECT_NE(text.find("Read"), std::string::npos);
  EXPECT_EQ(text.find("Forflush"), std::string::npos);
  EXPECT_NE(text.find("arrival CV"), std::string::npos);
}

TEST(OperationStats, EmptyTrace) {
  Trace t;
  OperationStats s(t);
  EXPECT_EQ(s.all().duration.count(), 0u);
  EXPECT_DOUBLE_EQ(s.burstiness(Op::kRead), 0.0);
}

}  // namespace
}  // namespace paraio::analysis
