#include "analysis/survival.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <vector>

#include "testkit/gen.hpp"
#include "testkit/property.hpp"

namespace paraio::analysis {
namespace {

/// Oracle: the original in-order interval-set survival.  Each insert
/// returns how many of the inserted bytes were already present (i.e.
/// overwritten), so replaying the writes in trace order counts overwrites
/// directly instead of deriving them from the union.
class IntervalSet {
 public:
  std::uint64_t insert(std::uint64_t lo, std::uint64_t hi) {
    if (lo >= hi) return 0;
    std::uint64_t overlap = 0;
    auto it = intervals_.lower_bound(lo);
    if (it != intervals_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > lo) it = prev;
    }
    std::uint64_t new_lo = lo, new_hi = hi;
    while (it != intervals_.end() && it->first < hi) {
      const std::uint64_t olap_lo = std::max(it->first, lo);
      const std::uint64_t olap_hi = std::min(it->second, hi);
      if (olap_lo < olap_hi) overlap += olap_hi - olap_lo;
      new_lo = std::min(new_lo, it->first);
      new_hi = std::max(new_hi, it->second);
      it = intervals_.erase(it);
    }
    intervals_.emplace(new_lo, new_hi);
    return overlap;
  }

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const auto& [lo, hi] : intervals_) t += hi - lo;
    return t;
  }

 private:
  std::map<std::uint64_t, std::uint64_t> intervals_;  // lo -> hi
};

WriteSurvival oracle_survival(const pablo::Trace& trace) {
  WriteSurvival result;
  std::map<io::FileId, IntervalSet> files;
  for (const auto& e : trace.events()) {
    if (!e.moves_data_to_storage() || e.transferred == 0) continue;
    result.bytes_written += e.transferred;
    result.bytes_overwritten +=
        files[e.file].insert(e.offset, e.offset + e.transferred);
  }
  for (const auto& [id, set] : files) result.bytes_surviving += set.total();
  return result;
}

pablo::IoEvent write(io::FileId file, std::uint64_t offset,
                     std::uint64_t bytes, double t = 0.0) {
  pablo::IoEvent e;
  e.op = pablo::Op::kWrite;
  e.file = file;
  e.offset = offset;
  e.transferred = bytes;
  e.timestamp = t;
  return e;
}

TEST(WriteSurvival, EmptyTrace) {
  pablo::Trace t;
  const WriteSurvival s = write_survival(t);
  EXPECT_EQ(s.bytes_written, 0u);
  EXPECT_DOUBLE_EQ(s.survival_fraction(), 1.0);
}

TEST(WriteSurvival, DisjointWritesAllSurvive) {
  pablo::Trace t;
  t.on_event(write(1, 0, 100));
  t.on_event(write(1, 100, 100));
  t.on_event(write(2, 0, 50));
  const WriteSurvival s = write_survival(t);
  EXPECT_EQ(s.bytes_written, 250u);
  EXPECT_EQ(s.bytes_overwritten, 0u);
  EXPECT_EQ(s.bytes_surviving, 250u);
  EXPECT_DOUBLE_EQ(s.survival_fraction(), 1.0);
}

TEST(WriteSurvival, FullOverwriteCounted) {
  pablo::Trace t;
  t.on_event(write(1, 0, 100, 0.0));
  t.on_event(write(1, 0, 100, 1.0));
  const WriteSurvival s = write_survival(t);
  EXPECT_EQ(s.bytes_written, 200u);
  EXPECT_EQ(s.bytes_overwritten, 100u);
  EXPECT_EQ(s.bytes_surviving, 100u);
  EXPECT_DOUBLE_EQ(s.survival_fraction(), 0.5);
}

TEST(WriteSurvival, PartialOverlap) {
  pablo::Trace t;
  t.on_event(write(1, 0, 100));
  t.on_event(write(1, 50, 100));  // 50 bytes overlap
  const WriteSurvival s = write_survival(t);
  EXPECT_EQ(s.bytes_overwritten, 50u);
  EXPECT_EQ(s.bytes_surviving, 150u);
}

TEST(WriteSurvival, OverwriteSpanningManyExtents) {
  pablo::Trace t;
  for (int i = 0; i < 5; ++i) t.on_event(write(1, i * 100ULL, 50));
  t.on_event(write(1, 0, 450));  // covers all five 50-byte extents
  const WriteSurvival s = write_survival(t);
  EXPECT_EQ(s.bytes_overwritten, 250u);
  EXPECT_EQ(s.bytes_surviving, 450u);
}

TEST(WriteSurvival, DifferentFilesIndependent) {
  pablo::Trace t;
  t.on_event(write(1, 0, 100));
  t.on_event(write(2, 0, 100));  // same offsets, other file: no overwrite
  const WriteSurvival s = write_survival(t);
  EXPECT_EQ(s.bytes_overwritten, 0u);
}

TEST(WriteSurvival, ReadsIgnored) {
  pablo::Trace t;
  t.on_event(write(1, 0, 100));
  pablo::IoEvent rd;
  rd.op = pablo::Op::kRead;
  rd.file = 1;
  rd.transferred = 100;
  t.on_event(rd);
  const WriteSurvival s = write_survival(t);
  EXPECT_EQ(s.bytes_written, 100u);
}

TEST(WriteSurvival, RangePastTwoToTheSixtyFourCountsOnlyAsWritten) {
  pablo::Trace t;
  t.on_event(write(1, 0, 100));
  t.on_event(write(1, std::numeric_limits<std::uint64_t>::max() - 10, 100));
  const WriteSurvival s = write_survival(t);
  EXPECT_EQ(s.bytes_written, 200u);
  EXPECT_EQ(s.bytes_overwritten, 0u);
  EXPECT_EQ(s.bytes_surviving, 100u);
}

/// Random write traces over a few files on a coarse offset grid, so that
/// overlapping, abutting, nested, zero-length and duplicate writes are all
/// common; reads, async writes, and a rare range that wraps past 2^64 mix
/// in.
testkit::Gen<std::vector<pablo::IoEvent>> gen_writes() {
  return testkit::Gen<std::vector<pablo::IoEvent>>([](sim::Rng& rng) {
    std::vector<pablo::IoEvent> events(rng.uniform_int(0, 80));
    for (std::size_t i = 0; i < events.size(); ++i) {
      pablo::IoEvent& e = events[i];
      e.timestamp = static_cast<double>(i);
      const std::uint64_t shape = rng.uniform_int(0, 9);
      if (shape == 0 && i > 0) {  // duplicate of an earlier event
        e = events[rng.uniform_int(0, i - 1)];
        e.timestamp = static_cast<double>(i);
        continue;
      }
      e.file = static_cast<io::FileId>(rng.uniform_int(1, 3));
      e.op = rng.bernoulli(0.15)   ? pablo::Op::kRead
             : rng.bernoulli(0.25) ? pablo::Op::kAsyncWrite
                                   : pablo::Op::kWrite;
      e.offset = rng.uniform_int(0, 24) * 16;
      e.transferred = rng.uniform_int(0, 6) * 16;  // 0 = zero-length
      if (shape == 1 && i > 0) {  // nested inside an earlier range
        const pablo::IoEvent& outer = events[rng.uniform_int(0, i - 1)];
        e.file = outer.file;
        e.offset = outer.offset + rng.uniform_int(0, outer.transferred);
        e.transferred =
            rng.uniform_int(0, outer.offset + outer.transferred - e.offset);
      } else if (shape == 2) {  // unaligned
        e.offset += rng.uniform_int(1, 15);
        e.transferred += rng.uniform_int(1, 15);
      } else if (shape == 3 && rng.bernoulli(0.1)) {  // wraps past 2^64
        e.offset = std::numeric_limits<std::uint64_t>::max() -
                   rng.uniform_int(0, 64);
      }
      e.requested = e.transferred;
    }
    return events;
  });
}

TEST(WriteSurvival, SortAndSweepMatchesInOrderIntervalSet) {
  testkit::PropertyConfig cfg;
  cfg.cases = 400;
  const auto result = testkit::check_property<std::vector<pablo::IoEvent>>(
      cfg, gen_writes(), {},
      [](const std::vector<pablo::IoEvent>& events)
          -> std::optional<std::string> {
        pablo::Trace t;
        for (const pablo::IoEvent& e : events) t.on_event(e);
        const WriteSurvival got = write_survival(t);
        const WriteSurvival want = oracle_survival(t);
        if (got.bytes_written == want.bytes_written &&
            got.bytes_overwritten == want.bytes_overwritten &&
            got.bytes_surviving == want.bytes_surviving) {
          return std::nullopt;
        }
        return "written " + std::to_string(got.bytes_written) + "/" +
               std::to_string(want.bytes_written) + ", overwritten " +
               std::to_string(got.bytes_overwritten) + "/" +
               std::to_string(want.bytes_overwritten) + ", surviving " +
               std::to_string(got.bytes_surviving) + "/" +
               std::to_string(want.bytes_surviving) + " (got/oracle)";
      });
  EXPECT_TRUE(result.ok) << testkit::explain(
      result, [](const std::vector<pablo::IoEvent>& events) {
        return std::to_string(events.size()) + " events";
      });
}

}  // namespace
}  // namespace paraio::analysis
