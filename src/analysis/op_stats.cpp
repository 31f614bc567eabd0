#include "analysis/op_stats.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace paraio::analysis {

OperationStats::OperationStats(const pablo::Trace& trace) {
  std::array<double, pablo::kOpCount> last_start;
  last_start.fill(-1.0);
  double last_any = -1.0;
  for (const auto& e : trace.events()) {
    const auto idx = static_cast<std::size_t>(e.op);
    OpClassStats& s = per_op_[idx];
    s.duration.add(e.duration);
    all_.duration.add(e.duration);
    if (e.is_data_op()) {
      s.size.add(static_cast<double>(e.transferred));
      all_.size.add(static_cast<double>(e.transferred));
    }
    if (last_start[idx] >= 0.0) {
      s.inter_arrival.add(e.timestamp - last_start[idx]);
    }
    last_start[idx] = e.timestamp;
    if (last_any >= 0.0) all_.inter_arrival.add(e.timestamp - last_any);
    last_any = e.timestamp;
  }
}

double OperationStats::burstiness(pablo::Op op) const {
  const RunningStats& ia = of(op).inter_arrival;
  if (ia.count() < 2 || ia.mean() <= 0.0) return 0.0;
  return ia.stddev() / ia.mean();
}

std::string to_text(const OperationStats& stats, const std::string& title) {
  std::ostringstream out;
  out << title << '\n';
  char line[192];
  std::snprintf(line, sizeof line,
                "  %-12s %9s %12s %12s %12s %12s %10s\n", "Operation",
                "Count", "mean dur(s)", "max dur(s)", "mean size", "max size",
                "arrival CV");
  out << line;
  for (std::size_t i = 0; i < pablo::kOpCount; ++i) {
    const auto op = static_cast<pablo::Op>(i);
    const OpClassStats& s = stats.of(op);
    if (s.duration.count() == 0) continue;
    std::snprintf(line, sizeof line,
                  "  %-12s %9llu %12.4g %12.4g %12.4g %12.4g %10.2f\n",
                  pablo::to_string(op),
                  static_cast<unsigned long long>(s.duration.count()),
                  s.duration.mean(), s.duration.max(), s.size.mean(),
                  s.size.max(), stats.burstiness(op));
    out << line;
  }
  return out.str();
}

}  // namespace paraio::analysis
