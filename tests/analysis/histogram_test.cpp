#include "analysis/histogram.hpp"

#include <gtest/gtest.h>

namespace paraio::analysis {
namespace {

TEST(SizeClass, BoundariesMatchPaper) {
  EXPECT_EQ(SizeClassHistogram::class_of(0), 0u);
  EXPECT_EQ(SizeClassHistogram::class_of(4095), 0u);
  EXPECT_EQ(SizeClassHistogram::class_of(4096), 1u);  // 4 KB is NOT < 4 KB
  EXPECT_EQ(SizeClassHistogram::class_of(65535), 1u);
  EXPECT_EQ(SizeClassHistogram::class_of(65536), 2u);
  EXPECT_EQ(SizeClassHistogram::class_of(262143), 2u);
  EXPECT_EQ(SizeClassHistogram::class_of(262144), 3u);
  EXPECT_EQ(SizeClassHistogram::class_of(3'000'000), 3u);
}

TEST(SizeClass, CountsAccumulate) {
  SizeClassHistogram h;
  h.add(100);
  h.add(2048);
  h.add(8192);
  h.add(100000);
  h.add(1'000'000);
  h.add(1'000'000);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(3), 2u);
  EXPECT_EQ(h.total(), 6u);
}

TEST(SizeClass, BimodalDetection) {
  SizeClassHistogram bimodal;
  for (int i = 0; i < 297; ++i) bimodal.add(1000);    // ESCAT-like small reads
  for (int i = 0; i < 260; ++i) bimodal.add(200000);  // and large reads
  for (int i = 0; i < 3; ++i) bimodal.add(30000);
  EXPECT_TRUE(bimodal.is_bimodal());

  SizeClassHistogram unimodal;
  for (int i = 0; i < 100; ++i) unimodal.add(2000);
  EXPECT_FALSE(unimodal.is_bimodal());

  SizeClassHistogram empty;
  EXPECT_FALSE(empty.is_bimodal());
}

// Property: every size lands in exactly one paper class.
class HistogramPartitionProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramPartitionProperty, SizeClassesPartition) {
  const std::uint64_t size = GetParam();
  const std::size_t cls = SizeClassHistogram::class_of(size);
  ASSERT_LT(cls, SizeClassHistogram::kClasses);
  // Check the class bounds actually contain the size.
  const auto& bounds = SizeClassHistogram::kBounds;
  if (cls < bounds.size()) {
    EXPECT_LT(size, bounds[cls]);
  }
  if (cls > 0) {
    EXPECT_GE(size, bounds[cls - 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, HistogramPartitionProperty,
                         ::testing::Values(0u, 1u, 4095u, 4096u, 65535u,
                                           65536u, 262143u, 262144u,
                                           1u << 30));

}  // namespace
}  // namespace paraio::analysis
