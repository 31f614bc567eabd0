// Write-survival analysis.
//
// §8 of the paper: "Another common characteristic of the codes is that most
// of the data written eventually was propagated to secondary storage ...
// [this] differs markedly from Unix file systems where statistics generally
// record many small short-lived temporary files.  If all output data
// survives to disk, the objective of write caching in the file system must
// be to increase the achieved bandwidth ... not to reduce the input/output
// volume."
//
// This analysis measures exactly that: of all bytes an application wrote,
// how many were later overwritten (and so never needed to reach disk) vs.
// how many survive to the end of the run.
#pragma once

#include <cstdint>

#include "pablo/trace.hpp"

namespace paraio::analysis {

struct WriteSurvival {
  std::uint64_t bytes_written = 0;      ///< total bytes of write traffic
  std::uint64_t bytes_overwritten = 0;  ///< bytes later written again
  std::uint64_t bytes_surviving = 0;    ///< distinct bytes live at the end

  /// Fraction of write traffic whose data survives (1.0 when nothing is
  /// ever overwritten — the paper's finding for all three codes).
  [[nodiscard]] double survival_fraction() const {
    return bytes_written == 0
               ? 1.0
               : static_cast<double>(bytes_written - bytes_overwritten) /
                     static_cast<double>(bytes_written);
  }
};

/// Computes survival over all writes in `trace` (async writes included).
[[nodiscard]] WriteSurvival write_survival(const pablo::Trace& trace);

}  // namespace paraio::analysis
