#include "apps/replay.hpp"

#include <algorithm>
#include <map>

#include "sim/task_group.hpp"

namespace paraio::apps {

Replay::Replay(hw::Machine& machine, io::FileSystem& fs,
               const pablo::Trace& trace, double scale_think)
    : machine_(machine), fs_(fs), trace_(trace), scale_think_(scale_think) {
  for (const pablo::IoEvent& e : trace_.events()) {
    per_node_[e.node].push_back(&e);
  }
}

sim::Task<> Replay::stage(io::FileSystem& bare_fs) {
  // Final observed extent per file: max(offset + transferred) over reads
  // and writes, so every replayed read is satisfiable even if the original
  // writer ran on a node whose stream replays later.
  std::map<io::FileId, std::uint64_t> extent;
  for (const auto& e : trace_.events()) {
    if (!e.is_data_op()) continue;
    extent[e.file] =
        std::max(extent[e.file], e.offset + std::max(e.transferred,
                                                     e.requested));
  }
  io::OpenOptions create;
  create.mode = io::AccessMode::kUnix;
  create.create = true;
  for (const auto& [id, size] : extent) {
    if (size == 0) continue;
    auto f = co_await bare_fs.open(0, trace_.file_name(id), create);
    co_await f->write(size);
    co_await f->close();
  }
}

sim::Task<> Replay::node_main(io::NodeId node) {
  const auto& sequence = per_node_.at(node);
  // Ordered map: the leaked-handle sweep below closes in FileId order, so
  // the replayed close sequence cannot depend on hash iteration order.
  std::map<io::FileId, io::FilePtr> handles;
  io::OpenOptions open;
  open.mode = io::AccessMode::kUnix;
  open.create = true;

  double last_end = -1.0;  // original-trace end time of the previous op
  for (const pablo::IoEvent* event : sequence) {
    const pablo::IoEvent& e = *event;
    // Reproduce the computation gap from the original schedule.
    if (last_end >= 0.0 && e.timestamp > last_end && scale_think_ > 0.0) {
      co_await machine_.engine().delay((e.timestamp - last_end) *
                                       scale_think_);
    }
    last_end = e.timestamp + e.duration;

    // Opens/closes manage the handle map; everything else replays through
    // an M_UNIX handle with explicit positioning.
    const double t0 = machine_.engine().now();
    switch (e.op) {
      case pablo::Op::kOpen: {
        if (!handles.contains(e.file)) {
          handles[e.file] =
              co_await fs_.open(node, trace_.file_name(e.file), open);
        }
        break;
      }
      case pablo::Op::kClose: {
        auto it = handles.find(e.file);
        if (it != handles.end()) {
          co_await it->second->close();
          handles.erase(it);
        }
        break;
      }
      default: {
        auto it = handles.find(e.file);
        if (it == handles.end()) {
          it = handles
                   .emplace(e.file, co_await fs_.open(
                                        node, trace_.file_name(e.file), open))
                   .first;
        }
        io::File& f = *it->second;
        switch (e.op) {
          case pablo::Op::kRead:
          case pablo::Op::kAsyncRead:
            // Only reposition when needed, so sequential streams do not
            // acquire seeks the original program never issued.
            if (f.tell() != e.offset) co_await f.seek(e.offset);
            (void)co_await f.read(std::max(e.transferred, e.requested));
            stats_.bytes_read += e.transferred;
            break;
          case pablo::Op::kWrite:
          case pablo::Op::kAsyncWrite:
            if (f.tell() != e.offset) co_await f.seek(e.offset);
            co_await f.write(std::max(e.transferred, e.requested));
            stats_.bytes_written += e.transferred;
            break;
          case pablo::Op::kSeek:
            co_await f.seek(e.offset);
            break;
          case pablo::Op::kLsize:
            (void)co_await f.size();
            break;
          case pablo::Op::kFlush:
            co_await f.flush();
            break;
          case pablo::Op::kIoWait:
            break;  // folded into the async issue, above
          default:
            break;
        }
      }
    }
    stats_.io_node_time += machine_.engine().now() - t0;
    ++stats_.operations;
  }
  // Close anything the original program leaked.
  for (auto& [id, handle] : handles) co_await handle->close();
}

sim::Task<> Replay::run() {
  const double t0 = machine_.engine().now();
  sim::TaskGroup group(machine_.engine());
  for (const auto& [node, sequence] : per_node_) {
    group.spawn(node_main(node));
  }
  co_await group.join();
  stats_.duration = machine_.engine().now() - t0;
}

}  // namespace paraio::apps
