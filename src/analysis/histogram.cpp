#include "analysis/histogram.hpp"

namespace paraio::analysis {

bool SizeClassHistogram::is_bimodal(double significant_fraction) const {
  const std::uint64_t n = total();
  if (n == 0) return false;
  const double small = static_cast<double>(counts_[0]) / static_cast<double>(n);
  const double large =
      static_cast<double>(counts_[2] + counts_[3]) / static_cast<double>(n);
  const double mid = static_cast<double>(counts_[1]) / static_cast<double>(n);
  return small >= significant_fraction && large >= significant_fraction &&
         mid < small && mid < large;
}

}  // namespace paraio::analysis
