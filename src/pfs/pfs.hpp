// Model of the Intel Paragon Parallel File System (PFS).
//
// Files are striped in 64 KB units across the machine's I/O nodes, each of
// which serves data requests from its RAID-3 array and metadata requests
// from a serialized control server.  The six parallel access modes of
// OSF/1 PFS (§3.2 of the paper) are implemented with explicit shared-pointer
// token, node-order turnstile, fixed-record layout, and global-rendezvous
// machinery, because those semantics are precisely what shaped the access
// patterns the paper observes (§5.2, §6.2).
//
// Cost model:
//  * data op    = request/data message to each touched ION (striped, served
//                 in parallel across IONs, FIFO within one) + RAID access +
//                 reply/data message back.
//  * control op = message to the file's metadata ION + serialized service
//                 (open/close/seek/lsize/flush) + reply.  Seeks being
//                 control RPCs is the documented PFS behaviour behind the
//                 enormous seek times in the paper's Table 1.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/machine.hpp"
#include "io/file.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pfs/observer.hpp"
#include "pfs/stripe.hpp"
#include "pfs/turn_gate.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace paraio::pfs {

struct PfsParams {
  /// Stripe unit in bytes (io_nodes is taken from the machine at mount).
  std::uint64_t stripe_unit = 64 * 1024;
  /// Serialized per-request service time at an I/O node's control server
  /// (seeks, lsize, token traffic).
  sim::SimDuration meta_service = sim::milliseconds(8.0);
  /// Service time of the per-write metadata update when write_control_rpc
  /// is enabled.  Negative means "same as meta_service".
  sim::SimDuration write_meta_service = -1.0;

  [[nodiscard]] sim::SimDuration effective_write_meta_service() const {
    return write_meta_service < 0 ? meta_service : write_meta_service;
  }
  /// Control service time for an open of an existing file.
  sim::SimDuration open_service = sim::milliseconds(12.0);
  /// Control service time when the open creates the file (allocation and
  /// directory updates made creates far more expensive than plain opens on
  /// PFS — compare the paper's pargos and pscf open costs in Table 5).
  /// Negative means "same as open_service".
  sim::SimDuration create_service = -1.0;

  [[nodiscard]] sim::SimDuration effective_create_service() const {
    return create_service < 0 ? open_service : create_service;
  }
  /// Control service time for a close.
  sim::SimDuration close_service = sim::milliseconds(4.0);
  /// Control service time for a flush (forces ION buffers to the array).
  sim::SimDuration flush_service = sim::milliseconds(6.0);
  /// Serialized per-segment CPU work at the I/O node's data server before
  /// each array access (request parsing, buffer management).  Dominant for
  /// workloads whose per-op OS overhead exceeds the media time (HTF).
  sim::SimDuration data_service = 0.0;
  /// Size of a control/request/ack message on the wire.
  std::uint32_t control_bytes = 64;
  /// Local cost of posting an asynchronous operation (iread/iwrite issue).
  sim::SimDuration async_issue = sim::milliseconds(8.0);
  /// PFS's synchronous write path: every independent-pointer write first
  /// performs a metadata RPC (offset registration / size update) against the
  /// file's metadata I/O node before the data moves.  This serialized
  /// control traffic — not the disks — is what makes ESCAT's synchronized
  /// 2 KB write bursts so expensive in the paper's Table 1.
  bool write_control_rpc = true;
};

/// Aggregate operation counters a mounted PFS exposes for tests/benches.
struct PfsCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t seeks = 0;
  std::uint64_t opens = 0;
  std::uint64_t closes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

class Pfs;

namespace detail {

/// Rendezvous state for one M_GLOBAL operation round.
struct GlobalRound {
  explicit GlobalRound(sim::Engine& engine) : done(engine) {}
  sim::Event done;
  std::uint64_t result = 0;
};

/// Shared (cross-handle) state of one file.
struct FileObject {
  FileObject(sim::Engine& engine, io::FileId id_, std::string name_,
             const StripeParams& stripe_params, const io::OpenOptions& opts);

  io::FileId id;
  std::string name;
  io::AccessMode mode;
  std::uint32_t parties;
  std::uint64_t record_size;
  StripeMap stripes;
  std::uint64_t size = 0;
  std::uint32_t open_handles = 0;

  // Shared-pointer machinery (M_LOG / M_SYNC / M_GLOBAL).
  std::uint64_t shared_offset = 0;
  std::unique_ptr<sim::Mutex> token;      // M_LOG pointer token
  std::unique_ptr<TurnGate> turns;        // M_SYNC node-order gate
  std::uint32_t arrived = 0;              // M_GLOBAL rendezvous count
  std::shared_ptr<GlobalRound> round;     // M_GLOBAL current round

  // setiomode collective state.
  std::uint32_t mode_arrivals = 0;
  std::shared_ptr<sim::Event> mode_round;

  /// Disk placement: ION-local base address for this file's extents.  Files
  /// get disjoint 1 GiB virtual regions; only relative placement matters to
  /// the head-position model.
  [[nodiscard]] std::uint64_t disk_base() const {
    return static_cast<std::uint64_t>(id) << 30;
  }
};

}  // namespace detail

/// One per-node open handle (io::File implementation).
class PfsFile final : public io::File {
 public:
  PfsFile(Pfs& fs, std::shared_ptr<detail::FileObject> object,
          io::NodeId node, std::uint32_t rank);

  [[nodiscard]] std::uint64_t tell() const override { return position(); }
  [[nodiscard]] io::FileId id() const override { return object_->id; }
  [[nodiscard]] io::NodeId node() const override { return node_; }
  [[nodiscard]] io::AccessMode mode() const override { return object_->mode; }

 protected:
  [[nodiscard]] sim::Task<std::uint64_t> do_read(std::uint64_t bytes) override;
  [[nodiscard]] sim::Task<std::uint64_t> do_write(std::uint64_t bytes) override;
  [[nodiscard]] sim::Task<> do_seek(std::uint64_t offset) override;
  [[nodiscard]] sim::Task<std::uint64_t> do_size() override;
  [[nodiscard]] sim::Task<> do_flush() override;
  [[nodiscard]] sim::Task<> do_close() override;
  [[nodiscard]] sim::Task<io::AsyncOp> do_read_async(std::uint64_t bytes) override;
  [[nodiscard]] sim::Task<io::AsyncOp> do_write_async(std::uint64_t bytes) override;
  [[nodiscard]] sim::Task<> do_set_mode(const io::OpenOptions& options) override;

 private:
  sim::Task<std::uint64_t> transfer_mode_dispatch(std::uint64_t bytes,
                                                  bool is_write);
  sim::Task<io::AsyncOp> submit_async(std::uint64_t bytes, bool is_write);
  [[nodiscard]] std::uint64_t position() const;
  void require_open(const char* op) const;

  Pfs& fs_;
  std::shared_ptr<detail::FileObject> object_;
  io::NodeId node_;
  std::uint32_t rank_;
  std::uint64_t offset_ = 0;        // independent-pointer modes
  std::uint64_t records_done_ = 0;  // M_RECORD per-handle op count
  bool closed_ = false;
};

class Pfs final : public io::FileSystem {
 public:
  Pfs(hw::Machine& machine, PfsParams params = {});

  [[nodiscard]] sim::Task<io::FilePtr> open(io::NodeId node, const std::string& path,
                              const io::OpenOptions& options) override;
  [[nodiscard]] bool exists(const std::string& path) const override;
  [[nodiscard]] std::uint64_t file_size(const std::string& path) const override;

  [[nodiscard]] const PfsParams& params() const noexcept { return params_; }
  [[nodiscard]] const PfsCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] hw::Machine& machine() noexcept { return machine_; }

  /// Attaches (or, with nullptr, detaches) the data-path debug observer.
  void set_observer(IoObserver* observer) { observer_ = observer; }
  [[nodiscard]] IoObserver* observer() const noexcept { return observer_; }

  /// Publishes per-stripe-server request counts and byte balance
  /// (`pfs.ion<k>.{requests,bytes}`) and mode-gate waits
  /// (`pfs.mode_wait_us` / `pfs.mode_wait_s`) into `registry`, and opens
  /// transfer spans on `tracer`.  Either may be null; detached hot-path
  /// cost is one pointer test.
  void attach_observability(obs::Registry* registry, obs::Tracer* tracer);

 private:
  friend class PfsFile;

  /// Serialized metadata RPC against `ion`'s file-metadata control server.
  sim::Task<> control_rpc(io::NodeId node, std::uint32_t ion,
                          sim::SimDuration service);

  /// Serialized RPC against `ion`'s directory server (opens/creates/closes
  /// run here, so slow creates do not stall seeks and lsize calls).
  sim::Task<> dir_rpc(io::NodeId node, std::uint32_t ion,
                      sim::SimDuration service);

  /// Physical data movement for [offset, offset+bytes): decomposes over
  /// IONs, runs segments in parallel, updates file size for writes.
  /// Returns bytes actually moved (reads clip at end-of-file).
  sim::Task<std::uint64_t> transfer(io::NodeId node, detail::FileObject& file,
                                    std::uint64_t offset, std::uint64_t bytes,
                                    bool is_write);

  /// Records one mode-gate wait (M_LOG token, M_SYNC turn, M_GLOBAL
  /// rendezvous) when metrics are attached.
  void note_mode_wait(sim::SimDuration waited);

  [[nodiscard]] std::uint32_t meta_ion_of(const detail::FileObject& file) const {
    return file.id % static_cast<std::uint32_t>(machine_.io_nodes());
  }
  [[nodiscard]] std::uint32_t meta_ion_of(const std::string& path) const {
    return static_cast<std::uint32_t>(std::hash<std::string>{}(path) %
                                      machine_.io_nodes());
  }

  hw::Machine& machine_;
  PfsParams params_;
  std::unordered_map<std::string, std::shared_ptr<detail::FileObject>> files_;
  std::vector<std::unique_ptr<sim::Semaphore>> ion_control_;
  std::vector<std::unique_ptr<sim::Semaphore>> ion_dir_;
  io::FileId next_file_id_ = 1;
  PfsCounters counters_;
  IoObserver* observer_ = nullptr;

  // Observability handles; empty/null until attach_observability.
  std::vector<obs::Counter*> ion_requests_;
  std::vector<obs::Counter*> ion_bytes_;
  obs::Histogram* mode_wait_us_ = nullptr;
  obs::Gauge* mode_wait_s_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace paraio::pfs
