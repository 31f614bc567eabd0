// Request-size histogram with the paper's four bins (< 4 KB, < 64 KB,
// < 256 KB, >= 256 KB) — the columns of Tables 2, 4 and 6.  A finer log2
// distribution is obs::Histogram.
#pragma once

#include <array>
#include <cstdint>

namespace paraio::analysis {

class SizeClassHistogram {
 public:
  static constexpr std::array<std::uint64_t, 3> kBounds = {
      4 * 1024, 64 * 1024, 256 * 1024};
  static constexpr std::size_t kClasses = 4;
  static constexpr std::array<const char*, kClasses> kLabels = {
      "< 4 KB", "< 64 KB", "< 256 KB", ">= 256 KB"};

  void add(std::uint64_t size) { ++counts_[class_of(size)]; }

  [[nodiscard]] static std::size_t class_of(std::uint64_t size) {
    for (std::size_t i = 0; i < kBounds.size(); ++i) {
      if (size < kBounds[i]) return i;
    }
    return kBounds.size();
  }

  [[nodiscard]] std::uint64_t count(std::size_t cls) const {
    return counts_.at(cls);
  }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t t = 0;
    for (auto c : counts_) t += c;
    return t;
  }
  [[nodiscard]] const std::array<std::uint64_t, kClasses>& counts() const {
    return counts_;
  }

  /// Bimodality in the paper's sense: significant mass in the smallest class
  /// and in one of the two largest, with little in between.
  [[nodiscard]] bool is_bimodal(double significant_fraction = 0.1) const;

 private:
  std::array<std::uint64_t, kClasses> counts_{};
};

}  // namespace paraio::analysis
