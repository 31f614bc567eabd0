// Simulated-time metrics registry.
//
// The paper's methodology joins application-side Pablo traces with what the
// machine underneath was doing (§4-§5 timelines).  This layer is the
// "underneath" half for our reproduction: named counters, gauges, and
// log2-bucketed histograms that hardware and file-system models publish
// into, plus periodic simulated-time snapshots for utilization timelines.
//
// Design rules (all load-bearing for determinism):
//  * Zero cost when detached — instrumented classes hold null handle
//    pointers and guard every update with one pointer test, the same
//    pattern as sim::RaceDetector.
//  * Zero simulated time always — updates are pure bookkeeping; attaching
//    a registry must leave golden trace digests bit-identical.
//  * Ordered storage only — handles live in std::map nodes so iteration
//    and the text dump are deterministic (and pointers are stable).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace paraio::obs {

/// Monotonically increasing event count (requests, seeks, cache hits...).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous or accumulated real value (busy seconds, queue depth...).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double d) noexcept { value_ += d; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Log2-bucketed histogram of non-negative integer samples.  Bucket 0 holds
/// the value 0; bucket b >= 1 holds values in [2^(b-1), 2^b).  The paper's
/// request-size figures use exactly this bucketing, so the same shape works
/// for queue depths, batch sizes, and byte counts alike.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  /// Bucket index for a sample: 0 -> 0, otherwise floor(log2(v)) + 1.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  /// Smallest value that lands in bucket `b`.
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t b) noexcept {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  /// Largest value that lands in bucket `b` (inclusive).
  [[nodiscard]] static std::uint64_t bucket_hi(std::size_t b) noexcept {
    return b == 0 ? 0 : (std::uint64_t{1} << (b - 1)) * 2 - 1;
  }

  void record(std::uint64_t sample) noexcept {
    ++buckets_[bucket_of(sample)];
    ++count_;
    sum_ += sample;
    if (count_ == 1 || sample < min_) min_ = sample;
    if (sample > max_) max_ = sample;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets()
      const noexcept {
    return buckets_;
  }
  /// One-line rendering: `count=N sum=S min=m max=M buckets=0:3,1:7,...`
  /// (only non-empty buckets appear).  Used by the registry dump and the
  /// paraio_stat report; byte-stable for identical sample streams.
  void print(std::ostream& out) const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Named-metric registry.  Handle references are stable for the registry's
/// lifetime (map nodes never move), so instrumented classes cache raw
/// pointers at attach time and pay no lookup on the hot path.
class Registry {
 public:
  using CounterMap = std::map<std::string, Counter, std::less<>>;
  using GaugeMap = std::map<std::string, Gauge, std::less<>>;
  using HistogramMap = std::map<std::string, Histogram, std::less<>>;

  /// A periodic snapshot of one gauge or counter, in simulated time.
  struct Sample {
    sim::SimTime time = 0.0;
    const std::string* name = nullptr;  // points into this registry's maps
    double value = 0.0;
  };

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  [[nodiscard]] const CounterMap& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const GaugeMap& gauges() const noexcept { return gauges_; }
  [[nodiscard]] const HistogramMap& histograms() const noexcept {
    return histograms_;
  }
  [[nodiscard]] const std::vector<Sample>& samples() const noexcept {
    return samples_;
  }

  /// Deterministic plain-text dump: metrics sorted by name, then the
  /// snapshot series in recording order.  Identical runs produce
  /// byte-identical output.
  void dump(std::ostream& out) const;
  [[nodiscard]] std::string dump_text() const;

 private:
  friend class Sampler;

  CounterMap counters_;
  GaugeMap gauges_;
  HistogramMap histograms_;
  std::vector<Sample> samples_;
};

/// Handle bundle for one queued device (disk, RAID array, network link,
/// frame buffer).  Mirrors hw::DeviceStats plus a queue-depth histogram.
struct DeviceMetrics {
  Counter* requests = nullptr;
  Counter* bytes = nullptr;
  Counter* seeks = nullptr;
  Gauge* busy_s = nullptr;
  Gauge* queue_s = nullptr;
  Histogram* qdepth = nullptr;

  [[nodiscard]] bool attached() const noexcept { return requests != nullptr; }
  /// Creates/finds `<prefix>.requests`, `.bytes`, `.seeks`, `.busy_s`,
  /// `.queue_s`, `.qdepth` in `registry` and returns the handles.
  [[nodiscard]] static DeviceMetrics bind(Registry& registry,
                                          const std::string& prefix);
};

/// Periodic simulated-time snapshots of every gauge and counter.
///
/// Deliberately NOT a spawned daemon: a coroutine looping on
/// `co_await engine.delay(period)` would keep the event queue non-empty so
/// `Engine::run()` could never drain.  Instead the sampler attaches to the
/// engine as a kernel observer (exactly like sim::RaceDetector; observers
/// are notified newest-first) and records a snapshot whenever event
/// execution first crosses a sample boundary — it injects no events and
/// consumes no simulated time, so attaching it cannot perturb trace
/// digests.  Values are read at the first event at-or-after each
/// boundary; with no events pending, nothing changes, so nothing is missed.
class Sampler final : public sim::EngineObserver {
 public:
  Sampler(sim::Engine& engine, Registry& registry, sim::SimDuration period);
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  ~Sampler() override;

  void on_event(sim::SimTime when) override;
  void on_run_complete(sim::SimTime now, std::size_t pending_events,
                       std::size_t live_tasks) override;

 private:
  void snapshot(sim::SimTime at);

  sim::Engine& engine_;
  Registry& registry_;
  sim::SimDuration period_;
  sim::SimTime next_;
};

/// Deterministic rendering for doubles in dumps and exports: %.9g via
/// snprintf, which is byte-stable for identical values.
[[nodiscard]] std::string format_double(double v);

}  // namespace paraio::obs
