#include "io/file.hpp"

namespace paraio::io {

const char* to_string(AccessMode mode) {
  switch (mode) {
    case AccessMode::kUnix:
      return "M_UNIX";
    case AccessMode::kLog:
      return "M_LOG";
    case AccessMode::kSync:
      return "M_SYNC";
    case AccessMode::kRecord:
      return "M_RECORD";
    case AccessMode::kGlobal:
      return "M_GLOBAL";
    case AccessMode::kAsync:
      return "M_ASYNC";
  }
  return "M_UNKNOWN";
}

const char* to_string(Op op) {
  switch (op) {
    case Op::kRead:
      return "Read";
    case Op::kWrite:
      return "Write";
    case Op::kSeek:
      return "Seek";
    case Op::kOpen:
      return "Open";
    case Op::kClose:
      return "Close";
    case Op::kLsize:
      return "Lsize";
    case Op::kFlush:
      return "Forflush";
    case Op::kAsyncRead:
      return "AsynchRead";
    case Op::kAsyncWrite:
      return "AsynchWrite";
    case Op::kIoWait:
      return "I/O Wait";
  }
  return "Unknown";
}

sim::Task<FilePtr> CaptureFs::open(NodeId node, const std::string& path,
                                   const OpenOptions& options) {
  IoEvent event;
  event.timestamp = engine_.now();
  event.node = node;
  event.op = Op::kOpen;
  event.mode = options.mode;
  FilePtr file = co_await inner_.open(node, path, options);
  event.duration = engine_.now() - event.timestamp;
  event.file = file->id();
  for (TraceSink* sink : sinks_) sink->on_file(file->id(), path);
  emit(event);
  file->capture_ = this;
  co_return file;
}

}  // namespace paraio::io
