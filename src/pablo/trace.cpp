#include "pablo/trace.hpp"

namespace paraio::pablo {

std::string Trace::file_name(io::FileId id) const {
  auto it = names_.find(id);
  if (it != names_.end()) return it->second;
  return "file" + std::to_string(id);
}

sim::SimTime Trace::start_time() const {
  return events_.empty() ? 0.0 : events_.front().timestamp;
}

sim::SimTime Trace::end_time() const {
  sim::SimTime end = 0.0;
  for (const auto& e : events_) {
    end = std::max(end, e.timestamp + e.duration);
  }
  return end;
}

}  // namespace paraio::pablo
