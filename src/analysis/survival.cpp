#include "analysis/survival.hpp"

#include <algorithm>
#include <vector>

namespace paraio::analysis {

namespace {

/// One storage-bound write as a byte range [lo, hi) of a file.
struct Extent {
  io::FileId file;
  std::uint64_t lo;
  std::uint64_t hi;
};

}  // namespace

// Sort-and-sweep: the bytes that survive are the union of every file's
// written ranges, and every byte of a range beyond that union was written
// before (the per-write overlaps of an in-order replay sum to exactly
// written - union), so write order never matters.
WriteSurvival write_survival(const pablo::Trace& trace) {
  WriteSurvival result;
  std::vector<Extent> extents;
  for (const auto& e : trace.events()) {
    if (!e.moves_data_to_storage() || e.transferred == 0) continue;
    result.bytes_written += e.transferred;
    // A range whose end wraps past 2^64 covers no representable byte.
    if (e.offset + e.transferred > e.offset) {
      extents.push_back({e.file, e.offset, e.offset + e.transferred});
    }
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) {
              return a.file != b.file ? a.file < b.file : a.lo < b.lo;
            });
  std::uint64_t ranged = 0;  // bytes written inside representable ranges
  for (std::size_t i = 0; i < extents.size();) {
    // One run of overlapping or abutting ranges of a single file.
    const io::FileId file = extents[i].file;
    const std::uint64_t lo = extents[i].lo;
    std::uint64_t hi = extents[i].hi;
    for (; i < extents.size() && extents[i].file == file &&
           extents[i].lo <= hi;
         ++i) {
      ranged += extents[i].hi - extents[i].lo;
      hi = std::max(hi, extents[i].hi);
    }
    result.bytes_surviving += hi - lo;
  }
  result.bytes_overwritten = ranged - result.bytes_surviving;
  return result;
}

}  // namespace paraio::analysis
