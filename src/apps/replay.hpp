// Trace-driven replay.
//
// The whole point of capturing application I/O signatures (§1: "enabling
// ... system software developers to design better parallel file system
// policies") is to re-run them against candidate designs.  Replay takes a
// captured pablo::Trace and re-issues it against any io::FileSystem mount:
// per node, operations are issued in their original order, preserving the
// *think time* between them (closed loop: the gap between one operation's
// end and the next operation's start is computation and is reproduced;
// the I/O time itself is whatever the new mount delivers).
//
// Caveats, by construction:
//  * every file is opened M_UNIX with an explicit seek per data operation
//    (the trace records absolute offsets, which subsumes the original
//    access-mode bookkeeping);
//  * async issue/iowait pairs are replayed as synchronous reads/writes at
//    the issue point (their volume and offsets are preserved; the overlap
//    the original application achieved is a property of its code, not of
//    the trace).
#pragma once

#include <cstdint>
#include <map>

#include "hw/machine.hpp"
#include "io/file.hpp"
#include "pablo/trace.hpp"

namespace paraio::apps {

struct ReplayStats {
  std::uint64_t operations = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  /// Simulated seconds the replay spent inside I/O calls, summed per node.
  double io_node_time = 0.0;
  /// Wall (simulated) duration of the whole replay.
  double duration = 0.0;
};

class Replay {
 public:
  /// `scale_think` scales the reproduced computation gaps (1.0 = faithful;
  /// 0.0 = back-to-back I/O, the stress-test mode).
  Replay(hw::Machine& machine, io::FileSystem& fs, const pablo::Trace& trace,
         double scale_think = 1.0);

  /// Pre-creates every file the trace reads at its final observed size.
  sim::Task<> stage(io::FileSystem& bare_fs);

  /// Replays all nodes concurrently.
  sim::Task<> run();

  [[nodiscard]] const ReplayStats& stats() const noexcept { return stats_; }

 private:
  sim::Task<> node_main(io::NodeId node);

  hw::Machine& machine_;
  io::FileSystem& fs_;
  const pablo::Trace& trace_;
  double scale_think_;
  // Per-node event sequences, pointing into trace_.events().
  std::map<io::NodeId, std::vector<const pablo::IoEvent*>> per_node_;
  ReplayStats stats_;
};

}  // namespace paraio::apps
