// Trace capture: an ordered event log plus the file-name registry.
//
// Sinks consume events as they happen ("real-time reduction" in the paper's
// terms); a Trace is itself a sink that simply retains everything for
// off-line analysis.  An experiment can attach any mix of a full Trace and
// lightweight summaries, mirroring Pablo's trade-off between trace volume
// and on-line reduction (§3.1).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "pablo/event.hpp"

namespace paraio::pablo {

/// Full event trace retained in memory.  Events sit in fixed-size blocks
/// (a deque), so appending never moves or copies the events already held
/// and a long capture has no reallocation transient; references to held
/// events stay valid as the trace grows.
class Trace final : public TraceSink {
 public:
  void on_event(const IoEvent& event) override { events_.push_back(event); }
  void on_file(io::FileId id, const std::string& path) override {
    names_.emplace(id, path);
  }

  [[nodiscard]] const std::deque<IoEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  /// Path registered for `id`, or "file<id>" if unknown.
  [[nodiscard]] std::string file_name(io::FileId id) const;

  /// All (id, path) registrations in id order.
  [[nodiscard]] const std::map<io::FileId, std::string>& files() const noexcept {
    return names_;
  }

  /// Simulated time of the first / last event (0 when empty).
  [[nodiscard]] sim::SimTime start_time() const;
  [[nodiscard]] sim::SimTime end_time() const;

  void clear() {
    events_.clear();
    names_.clear();
  }

  friend bool operator==(const Trace& a, const Trace& b) {
    return a.events_ == b.events_ && a.names_ == b.names_;
  }

 private:
  std::deque<IoEvent> events_;
  std::map<io::FileId, std::string> names_;
};

}  // namespace paraio::pablo
