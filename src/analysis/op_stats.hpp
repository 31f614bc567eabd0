// Off-line distribution statistics, completing the paper's §3.1 list:
// "general input/output statistics computed off-line from event traces
// provide means, variances, minima, maxima, and distributions of file
// operation durations and sizes."
//
// Per operation class: RunningStats over durations and over transfer sizes,
// and inter-arrival statistics (the paper's §10 remark that "the temporal
// spacing between requests across cycles is less regular" is checkable as
// the inter-arrival coefficient of variation).
#pragma once

#include <array>
#include <string>

#include "analysis/stats.hpp"
#include "pablo/trace.hpp"

namespace paraio::analysis {

struct OpClassStats {
  RunningStats duration;       ///< seconds per call
  RunningStats size;           ///< transferred bytes per data op
  RunningStats inter_arrival;  ///< seconds between consecutive starts
};

class OperationStats {
 public:
  explicit OperationStats(const pablo::Trace& trace);

  [[nodiscard]] const OpClassStats& of(pablo::Op op) const {
    return per_op_[static_cast<std::size_t>(op)];
  }
  /// Aggregate over every operation class.
  [[nodiscard]] const OpClassStats& all() const { return all_; }

  /// Coefficient of variation of inter-arrival times for one op class
  /// (stddev/mean); ~0 for metronomic request streams, large for bursty
  /// ones.  0 when there are fewer than two arrivals.
  [[nodiscard]] double burstiness(pablo::Op op) const;

 private:
  std::array<OpClassStats, pablo::kOpCount> per_op_;
  OpClassStats all_;
};

/// Paper-style text rendering: one row per op class with count, mean/min/
/// max duration, mean size, and inter-arrival CV.
[[nodiscard]] std::string to_text(const OperationStats& stats,
                                  const std::string& title);

}  // namespace paraio::analysis
