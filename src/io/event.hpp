// The capture record: one IoEvent per bracketed file operation, and the
// sink interface that consumes them.
//
// Every application file operation issued through a capturing mount
// (io::CaptureFs) is bracketed at the io::File boundary, producing one
// IoEvent with the call's parameters, start timestamp, and duration — the
// Pablo I/O extension's capture model (§3.1).  The record lives at the io
// layer because that boundary is where it is made; pablo re-exports it
// under its own names for the analysis pipeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "hw/network.hpp"  // NodeId
#include "sim/time.hpp"

namespace paraio::io {

using NodeId = hw::NodeId;

/// Stable identifier of a file within one file system instance.
using FileId = std::uint32_t;

/// Intel PFS parallel access modes (§3.2 of the paper).
enum class AccessMode {
  kUnix,    ///< M_UNIX: independent file pointer per node.
  kLog,     ///< M_LOG: shared pointer, first-come-first-serve, variable size.
  kSync,    ///< M_SYNC: shared pointer, accesses in node-number order.
  kRecord,  ///< M_RECORD: independent pointers, fixed-size records laid out
            ///< in groups of N records in node order.
  kGlobal,  ///< M_GLOBAL: shared pointer, all nodes perform the same op on
            ///< the same data; one physical access serves everyone.
  kAsync,   ///< M_ASYNC: independent pointers, unrestricted, no atomicity.
};

[[nodiscard]] const char* to_string(AccessMode mode);

/// Operation kinds, matching the rows of the paper's Tables 1/3/5.
enum class Op : std::uint8_t {
  kRead,
  kWrite,
  kSeek,
  kOpen,
  kClose,
  kLsize,      // file size query (Table 5, "Lsize")
  kFlush,      // Fortran buffer flush (Table 5, "Forflush")
  kAsyncRead,  // iread issue (Table 3, "AsynchRead")
  kAsyncWrite, // iwrite issue
  kIoWait,     // iowait (Table 3, "I/O Wait")
};

[[nodiscard]] const char* to_string(Op op);

/// Number of distinct Op values (for fixed-size per-op accumulators).
inline constexpr std::size_t kOpCount = 10;

/// One bracketed file operation.
struct IoEvent {
  sim::SimTime timestamp = 0.0;      ///< operation start time
  sim::SimDuration duration = 0.0;   ///< wall (simulated) time in the call
  NodeId node = 0;                   ///< issuing compute node
  FileId file = 0;                   ///< target file
  Op op = Op::kRead;
  std::uint64_t offset = 0;          ///< file position at the start
  std::uint64_t requested = 0;       ///< bytes requested (0 for control ops)
  std::uint64_t transferred = 0;     ///< bytes actually moved
  AccessMode mode = AccessMode::kUnix;

  [[nodiscard]] bool is_data_op() const {
    return op == Op::kRead || op == Op::kWrite || op == Op::kAsyncRead ||
           op == Op::kAsyncWrite;
  }
  [[nodiscard]] bool moves_data_to_app() const {
    return op == Op::kRead || op == Op::kAsyncRead;
  }
  [[nodiscard]] bool moves_data_to_storage() const {
    return op == Op::kWrite || op == Op::kAsyncWrite;
  }

  friend bool operator==(const IoEvent&, const IoEvent&) = default;
};

/// Consumer of live capture events ("real-time reduction" in the paper's
/// terms).  Called synchronously, in emission order, at zero simulated cost.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const IoEvent& event) = 0;
  /// Called when a file id is first associated with a path.
  virtual void on_file(FileId id, const std::string& path) { (void)id; (void)path; }
};

}  // namespace paraio::io
