// Abstract parallel-file API the application skeletons program against,
// and the one point where Pablo captures it.
//
// Both file-system implementations (pfs — the Intel PFS model; ppfs — the
// policy-rich portable layer) implement this interface, so an application
// characterization is "same code, different mount".  Every operation on a
// File is a non-virtual call that wraps the backend's protected virtual
// (do_read, do_write, ...) in a FileOp awaitable; a handle opened through a
// CaptureFs reports each finished operation to the capture's sinks from
// inside that awaitable, with no coroutine frame of its own.
//
// Data contents are not simulated — only byte counts, offsets, and timing.
// That is exactly the abstraction level of the paper's traces.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "io/event.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace paraio::io {

struct OpenOptions {
  AccessMode mode = AccessMode::kUnix;
  bool create = false;
  bool truncate = false;
  /// Number of nodes participating in this (collective) open.  Required
  /// (> 0) for kSync / kRecord / kGlobal; ignored for independent modes.
  std::uint32_t parties = 1;
  /// This node's rank within the participating group (0-based).
  std::uint32_t rank = 0;
  /// Fixed record size for kRecord mode, in bytes.
  std::uint64_t record_size = 0;
};

/// Completion handle for an asynchronous read/write (Paragon iread/iwrite).
/// The issuing call returns after the (cheap) issue cost; the remaining time
/// surfaces as iowait when the caller awaits the handle — matching how the
/// paper accounts async read time vs. iowait time in Table 3.
class AsyncOp {
 public:
  struct State {
    explicit State(sim::Engine& engine) : done(engine) {}
    sim::Event done;
    std::uint64_t transferred = 0;
  };

  AsyncOp() = default;
  explicit AsyncOp(std::shared_ptr<State> state) : state_(std::move(state)) {}

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] bool completed() const { return state_ && state_->done.is_set(); }

  /// Awaits completion and returns the transferred byte count.
  [[nodiscard]] sim::Task<std::uint64_t> wait() {
    co_await state_->done.wait();
    co_return state_->transferred;
  }

 private:
  std::shared_ptr<State> state_;
};

class CaptureFs;
template <typename T>
class FileOp;

/// One per-node open file handle.
class File {
 public:
  virtual ~File() = default;

  /// Reads `bytes` at the mode-determined position; returns bytes actually
  /// read (short at end-of-file).
  [[nodiscard]] FileOp<std::uint64_t> read(std::uint64_t bytes);

  /// Writes `bytes`; returns bytes written.  Extends the file.
  [[nodiscard]] FileOp<std::uint64_t> write(std::uint64_t bytes);

  /// Moves this handle's file pointer (independent-pointer modes only).
  [[nodiscard]] FileOp<void> seek(std::uint64_t offset);

  /// Queries current file size (Paragon lsize; a metadata RPC).
  [[nodiscard]] FileOp<std::uint64_t> size();

  /// Forces buffered data to storage (Fortran FORFLUSH in the HTF code).
  [[nodiscard]] FileOp<void> flush();

  /// Closes the handle.  Must be the last operation.
  [[nodiscard]] FileOp<void> close();

  /// Asynchronous variants (Paragon iread/iwrite): awaiting the call charges
  /// only the issue cost and returns a completion handle; the remaining
  /// transfer time surfaces as iowait when the handle is awaited.
  [[nodiscard]] FileOp<AsyncOp> read_async(std::uint64_t bytes);
  [[nodiscard]] FileOp<AsyncOp> write_async(std::uint64_t bytes);

  /// Blocks until an asynchronous operation completes (Paragon iowait).
  /// A distinct File call — not AsyncOp::wait() directly — because iowait is
  /// an operation in its own right in the paper's accounting (Table 3) and
  /// the capture brackets it like any other call.
  [[nodiscard]] FileOp<std::uint64_t> iowait(AsyncOp op);

  /// Switches the file's access mode in place (Paragon PFS setiomode, a
  /// collective across options.parties open handles).  ESCAT uses this to
  /// flip its staging files from M_UNIX writing to M_RECORD reading without
  /// reopening them.  Never captured: setiomode is not an operation class
  /// in the paper's tables.
  [[nodiscard]] sim::Task<> set_mode(const OpenOptions& options) {
    return do_set_mode(options);
  }

  /// Current handle position (no simulated cost; bookkeeping accessor).
  [[nodiscard]] virtual std::uint64_t tell() const = 0;
  [[nodiscard]] virtual FileId id() const = 0;
  [[nodiscard]] virtual NodeId node() const = 0;
  [[nodiscard]] virtual AccessMode mode() const = 0;

 protected:
  // The backend's operations, one per public call above.
  [[nodiscard]] virtual sim::Task<std::uint64_t> do_read(std::uint64_t bytes) = 0;
  [[nodiscard]] virtual sim::Task<std::uint64_t> do_write(std::uint64_t bytes) = 0;
  [[nodiscard]] virtual sim::Task<> do_seek(std::uint64_t offset) = 0;
  [[nodiscard]] virtual sim::Task<std::uint64_t> do_size() = 0;
  [[nodiscard]] virtual sim::Task<> do_flush() = 0;
  [[nodiscard]] virtual sim::Task<> do_close() = 0;
  [[nodiscard]] virtual sim::Task<AsyncOp> do_read_async(std::uint64_t bytes) = 0;
  [[nodiscard]] virtual sim::Task<AsyncOp> do_write_async(std::uint64_t bytes) = 0;
  [[nodiscard]] virtual sim::Task<std::uint64_t> do_iowait(AsyncOp op) {
    co_return co_await op.wait();
  }
  /// Default: unsupported.
  [[nodiscard]] virtual sim::Task<> do_set_mode(const OpenOptions& options) {
    (void)options;
    throw std::logic_error("set_mode not supported by this file system");
  }

 private:
  friend class CaptureFs;
  template <typename T>
  friend class FileOp;

  /// Fills in everything `event` knows when its operation starts.
  void stamp(IoEvent& event) const;
  /// Completes `event` and hands it to the capture.
  void emit(IoEvent& event, std::uint64_t transferred) const;

  /// The capture this handle reports to; null for a handle opened on a
  /// bare mount (staging, checkpoint dumps), which then reports nothing.
  const CaptureFs* capture_ = nullptr;
};

using FilePtr = std::shared_ptr<File>;

/// Awaitable for one File operation: awaits the backend's task in place
/// (symmetric transfer, no frame of its own) and, on a captured handle,
/// brackets it.  The event prefix is stamped when the operation starts
/// (await_suspend); duration and transferred bytes are filled in and the
/// event emitted when it finishes (await_resume).  An operation that throws
/// rethrows from await_resume before anything is emitted.
template <typename T>
class [[nodiscard]] FileOp {
 public:
  FileOp(File& file, Op op, std::uint64_t requested, sim::Task<T> task)
      : file_(file), task_(std::move(task)) {
    event_.op = op;
    event_.requested = requested;
  }

  // The backend task is always fresh (lazily started), so it never
  // completes before being awaited.
  bool await_ready() const noexcept { return false; }

  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
    if (file_.capture_ != nullptr) file_.stamp(event_);
    return std::move(task_).operator co_await().await_suspend(parent);
  }

  T await_resume() {
    if constexpr (std::is_void_v<T>) {
      std::move(task_).operator co_await().await_resume();
      if (file_.capture_ != nullptr) file_.emit(event_, 0);
    } else {
      T result = std::move(task_).operator co_await().await_resume();
      if (file_.capture_ != nullptr) file_.emit(event_, transferred(result));
      return result;
    }
  }

 private:
  template <typename U>
  std::uint64_t transferred(const U& result) const {
    if constexpr (std::is_same_v<U, AsyncOp>) {
      // Volume is attributed to the issuing call (as in the paper's
      // Table 3); the file pointer advances at issue time by the amount
      // that will move.  Only the issue *time* is accounted here; the
      // transfer time shows up under iowait, whose volume the tables skip
      // to avoid double counting.
      (void)result;
      return file_.tell() - event_.offset;
    } else {
      // lsize returns a size, not a byte count moved.
      return event_.op == Op::kLsize ? 0 : result;
    }
  }

  File& file_;
  sim::Task<T> task_;
  IoEvent event_;
};

inline FileOp<std::uint64_t> File::read(std::uint64_t bytes) {
  return {*this, Op::kRead, bytes, do_read(bytes)};
}
inline FileOp<std::uint64_t> File::write(std::uint64_t bytes) {
  return {*this, Op::kWrite, bytes, do_write(bytes)};
}
inline FileOp<void> File::seek(std::uint64_t offset) {
  return {*this, Op::kSeek, 0, do_seek(offset)};
}
inline FileOp<std::uint64_t> File::size() {
  return {*this, Op::kLsize, 0, do_size()};
}
inline FileOp<void> File::flush() { return {*this, Op::kFlush, 0, do_flush()}; }
inline FileOp<void> File::close() { return {*this, Op::kClose, 0, do_close()}; }
inline FileOp<AsyncOp> File::read_async(std::uint64_t bytes) {
  return {*this, Op::kAsyncRead, bytes, do_read_async(bytes)};
}
inline FileOp<AsyncOp> File::write_async(std::uint64_t bytes) {
  return {*this, Op::kAsyncWrite, bytes, do_write_async(bytes)};
}
inline FileOp<std::uint64_t> File::iowait(AsyncOp op) {
  return {*this, Op::kIoWait, 0, do_iowait(std::move(op))};
}

/// A mounted file system.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Opens `path` from `node`.  Creates the file when options.create is set.
  [[nodiscard]] virtual sim::Task<FilePtr> open(
      NodeId node, const std::string& path, const OpenOptions& options) = 0;

  /// True if `path` exists.
  [[nodiscard]] virtual bool exists(const std::string& path) const = 0;

  /// Size of `path` in bytes, 0 if absent (bookkeeping, no simulated cost).
  [[nodiscard]] virtual std::uint64_t file_size(const std::string& path) const = 0;
};

/// The capture point (Pablo's I/O extension, §3.1): a view of a mount whose
/// handles report every operation to the attached sinks.  open() emits the
/// open event and stamps the handle; from then on the handle's own FileOp
/// awaitables emit.  Handles opened on the mount underneath stay untraced,
/// which is how staging and checkpoint-dump traffic stays out of a trace.
/// Capture adds no simulated time.
class CaptureFs final : public FileSystem {
 public:
  CaptureFs(FileSystem& inner, sim::Engine& engine)
      : inner_(inner), engine_(engine) {}

  /// Attaches a sink; sinks must outlive every handle opened here.  Events
  /// are delivered in emission order to every sink.
  void add_sink(TraceSink& sink) { sinks_.push_back(&sink); }

  [[nodiscard]] sim::Task<FilePtr> open(NodeId node, const std::string& path,
                                        const OpenOptions& options) override;
  [[nodiscard]] bool exists(const std::string& path) const override {
    return inner_.exists(path);
  }
  [[nodiscard]] std::uint64_t file_size(const std::string& path) const override {
    return inner_.file_size(path);
  }

  [[nodiscard]] sim::Engine& engine() const noexcept { return engine_; }

  void emit(const IoEvent& event) const {
    for (TraceSink* sink : sinks_) sink->on_event(event);
  }

 private:
  FileSystem& inner_;
  sim::Engine& engine_;
  std::vector<TraceSink*> sinks_;
};

inline void File::stamp(IoEvent& event) const {
  event.timestamp = capture_->engine().now();
  event.node = node();
  event.file = id();
  event.offset = tell();
  event.mode = mode();
}

inline void File::emit(IoEvent& event, std::uint64_t transferred) const {
  event.duration = capture_->engine().now() - event.timestamp;
  event.transferred = transferred;
  capture_->emit(event);
}

}  // namespace paraio::io
