// PPFS — the portable parallel file system with tunable policies.
//
// Reproduces the system the paper's group built (Huber et al. [8]) and used
// for the §5.2 ablation: a client/server parallel file system where the
// application can choose, per mount,
//
//   * client block caching with LRU replacement,
//   * write-behind (writes land in a client buffer; coalesced extents are
//     flushed at a watermark and on flush/close),
//   * global request aggregation at the I/O node servers,
//   * prefetching: none, fixed sequential read-ahead, or adaptive
//     (classifier-driven, the paper's §10 future work).
//
// Architectural differences from the Intel PFS model that matter to the
// experiments: seeks are client-local (no metadata RPC), and only the
// independent-pointer access modes (M_UNIX / M_ASYNC semantics, plus the
// M_RECORD offset discipline) are supported — shared-pointer modes throw.
// Single-writer sharing per file region is assumed (true of all three
// application codes); client caches are not kept coherent across nodes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "hw/machine.hpp"
#include "io/file.hpp"
#include "io/outcome.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pfs/observer.hpp"
#include "pfs/stripe.hpp"
#include "ppfs/cache.hpp"
#include "ppfs/classifier.hpp"
#include "ppfs/extent.hpp"
#include "ppfs/ion_server.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace paraio::ppfs {

enum class PrefetchPolicy { kNone, kSequential, kAdaptive };

struct PpfsParams {
  std::uint64_t block_size = 64 * 1024;
  /// Client cache capacity per node, in blocks (0 disables caching).
  std::size_t cache_blocks = 64;
  bool write_behind = true;
  /// Flush a file's write buffer when it exceeds this many bytes.
  std::uint64_t write_buffer_limit = 1 << 20;
  bool aggregation = true;
  /// Merge window for ION-side aggregation (bytes of disk-address gap).
  std::uint64_t merge_gap = 64 * 1024;
  /// Server-side (I/O node) block cache capacity per ION, in 64 KB blocks
  /// (0 disables).  Two-level buffering per the paper's §8; serves
  /// cross-node rereads that per-client caches cannot.
  std::size_t ion_cache_blocks = 0;
  PrefetchPolicy prefetch = PrefetchPolicy::kNone;
  /// Read-ahead depth in blocks for sequential/adaptive prefetch.
  std::size_t prefetch_depth = 2;
  /// Client memory copy bandwidth for cache hits and buffered writes.
  double copy_rate = 200e6;
  /// Metadata service times (cheaper than PFS: lean user-level servers).
  sim::SimDuration open_service = sim::milliseconds(3.0);
  sim::SimDuration close_service = sim::milliseconds(1.0);
  sim::SimDuration meta_service = sim::milliseconds(1.0);
  std::uint32_t control_bytes = 64;
  /// Client-side recovery: request timeout, exponential backoff with
  /// seeded jitter, and ION failover.  Inert on a fault-free run (the
  /// retry loop never engages and the jitter stream is never drawn from).
  /// Control RPCs (open/close/metadata) are not retried: the metadata
  /// service is modeled as always available.
  fault::RecoveryPolicy recovery;

  /// Policy preset matching the paper's §5.2 ESCAT port: write-behind with
  /// global request aggregation.
  static PpfsParams write_behind_aggregation() { return {}; }
  /// Everything off: a plain client/server file system (ablation baseline).
  static PpfsParams no_policies() {
    PpfsParams p;
    p.cache_blocks = 0;
    p.write_behind = false;
    p.aggregation = false;
    p.prefetch = PrefetchPolicy::kNone;
    return p;
  }
};

struct PpfsCounters {
  std::uint64_t reads = 0;           // application-level
  std::uint64_t writes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t flushes = 0;         // write-buffer flushes
  std::uint64_t flush_extents = 0;   // extents shipped by those flushes
  std::uint64_t prefetch_issued = 0;
};

class Ppfs;

namespace detail {

struct PpfsFileObject {
  io::FileId id = 0;
  std::string name;
  std::uint64_t size = 0;  // server-side size (flushed data)
  pfs::StripeMap stripes;
  std::uint32_t open_handles = 0;

  PpfsFileObject(io::FileId id_, std::string name_,
                 const pfs::StripeParams& sp)
      : id(id_), name(std::move(name_)), stripes(sp) {}

  [[nodiscard]] std::uint64_t disk_base() const {
    return static_cast<std::uint64_t>(id) << 30;
  }
};

/// Per-(node, file) write-behind buffer.
struct WriteBuffer {
  ExtentSet extents;
  std::uint64_t buffered_bytes() const { return extents.total_bytes(); }
};

}  // namespace detail

class PpfsFile final : public io::File {
 public:
  PpfsFile(Ppfs& fs, std::shared_ptr<detail::PpfsFileObject> object,
           io::NodeId node, const io::OpenOptions& options);

  [[nodiscard]] std::uint64_t tell() const override;
  [[nodiscard]] io::FileId id() const override { return object_->id; }
  [[nodiscard]] io::NodeId node() const override { return node_; }
  [[nodiscard]] io::AccessMode mode() const override { return mode_; }

  /// Exposed for tests: the classifier state driving adaptive prefetch.
  [[nodiscard]] const OnlineClassifier& classifier() const {
    return classifier_;
  }

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
  sim::Task<std::uint64_t> read_at(std::uint64_t offset, std::uint64_t bytes);
  sim::Task<std::uint64_t> write_at(std::uint64_t offset, std::uint64_t bytes);
  void maybe_prefetch(std::uint64_t offset, std::uint64_t bytes);
  void require_open(const char* op) const;
  [[nodiscard]] std::uint64_t effective_size() const;

  Ppfs& fs_;
  std::shared_ptr<detail::PpfsFileObject> object_;
  io::NodeId node_;
  io::AccessMode mode_;
  std::uint32_t parties_ = 1;
  std::uint32_t rank_ = 0;
  std::uint64_t record_size_ = 0;
  std::uint64_t offset_ = 0;
  std::uint64_t records_done_ = 0;
  OnlineClassifier classifier_;
  bool closed_ = false;
};

class Ppfs final : public io::FileSystem {
 public:
  Ppfs(hw::Machine& machine, PpfsParams params = {});

  [[nodiscard]] sim::Task<io::FilePtr> open(io::NodeId node, const std::string& path,
                              const io::OpenOptions& options) override;
  [[nodiscard]] bool exists(const std::string& path) const override;
  [[nodiscard]] std::uint64_t file_size(const std::string& path) const override;

  [[nodiscard]] const PpfsParams& params() const noexcept { return params_; }
  [[nodiscard]] const PpfsCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] hw::Machine& machine() noexcept { return machine_; }
  [[nodiscard]] const IonServerStats& ion_stats(std::size_t ion) const {
    return servers_[ion]->stats();
  }
  /// What the retry/backoff/failover machinery did this run.
  [[nodiscard]] const fault::RecoveryStats& recovery_stats() const noexcept {
    return recovery_stats_;
  }

  /// Submits one request to ION `ion` under the mount's RecoveryPolicy:
  /// retries typed errors with exponentially backed-off, jittered delays,
  /// then re-routes to surviving IONs in deterministic scan order.  All
  /// recovery accounting happens here.
  sim::Task<io::IoOutcome> submit_with_recovery(io::NodeId node,
                                                std::uint32_t ion,
                                                std::uint64_t disk_address,
                                                std::uint64_t length,
                                                bool is_write);
  /// Per-node client cache (created on first use).
  [[nodiscard]] BlockCache& node_cache(io::NodeId node);

  /// Attaches (or, with nullptr, detaches) the data-path debug observer
  /// (shared interface with pfs::Pfs).
  void set_observer(pfs::IoObserver* observer) { observer_ = observer; }
  [[nodiscard]] pfs::IoObserver* observer() const noexcept {
    return observer_;
  }

  /// Publishes client-cache hit/miss/eviction counters
  /// (`ppfs.cache.{hits,misses,evictions}`), write-behind flush sizes
  /// (`ppfs.flush.{bytes,extents}` histograms), and per-ION aggregation
  /// batch sizes (`ppfs.ion<k>.batch_requests`), and opens transfer/flush
  /// spans on `tracer`.  Either may be null; detached hot-path cost is one
  /// pointer test.
  void attach_observability(obs::Registry* registry, obs::Tracer* tracer);

 private:
  friend class PpfsFile;

  /// Raw data movement: decomposes [offset, offset+bytes) over the ION
  /// servers and runs the segments in parallel.
  sim::Task<> transfer(io::NodeId node, detail::PpfsFileObject& file,
                       std::uint64_t offset, std::uint64_t bytes,
                       bool is_write);

  /// Reads [offset, offset+bytes) through the client cache.
  sim::Task<> cached_read(io::NodeId node, detail::PpfsFileObject& file,
                          std::uint64_t offset, std::uint64_t bytes);

  /// Fetches one block span into the cache (used by demand fetch and
  /// prefetch); deduplicates concurrent fetches of the same block.
  sim::Task<> fetch_blocks(io::NodeId node, detail::PpfsFileObject& file,
                           std::uint64_t first_block, std::uint64_t last_block,
                           bool prefetched);

  /// Flushes a (node, file) write buffer: ships coalesced extents.
  sim::Task<> flush_buffer(io::NodeId node, detail::PpfsFileObject& file);

  sim::Task<> control_rpc(io::NodeId node, std::uint32_t ion,
                          sim::SimDuration service);

  using BufferKey = std::pair<io::NodeId, io::FileId>;
  struct BufferKeyHash {
    std::size_t operator()(const BufferKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(k.first) << 32) ^ k.second);
    }
  };

  detail::WriteBuffer& buffer(io::NodeId node, io::FileId file) {
    return buffers_[{node, file}];
  }

  hw::Machine& machine_;
  PpfsParams params_;
  std::unordered_map<std::string, std::shared_ptr<detail::PpfsFileObject>>
      files_;
  std::vector<std::unique_ptr<IonServer>> servers_;
  std::vector<std::unique_ptr<sim::Semaphore>> ion_control_;
  std::unordered_map<io::NodeId, std::unique_ptr<BlockCache>> caches_;
  std::unordered_map<BufferKey, detail::WriteBuffer, BufferKeyHash> buffers_;
  // In-flight block fetches for dedup, per node (caches are per node):
  // (node, file, block) -> completion event.
  struct FetchKey {
    io::NodeId node = 0;
    io::FileId file = 0;
    std::uint64_t block = 0;
    friend bool operator==(const FetchKey&, const FetchKey&) = default;
  };
  struct FetchKeyHash {
    std::size_t operator()(const FetchKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(k.node) << 52) ^
          (static_cast<std::uint64_t>(k.file) << 36) ^ k.block);
    }
  };
  std::unordered_map<FetchKey, std::shared_ptr<sim::Event>, FetchKeyHash>
      inflight_;
  io::FileId next_file_id_ = 1;
  PpfsCounters counters_;
  fault::RecoveryStats recovery_stats_;
  sim::Rng retry_rng_;  // jitter stream; drawn from only on actual retries
  pfs::IoObserver* observer_ = nullptr;

  // Observability handles; null until attach_observability.
  obs::Counter* m_cache_hits_ = nullptr;
  obs::Counter* m_cache_misses_ = nullptr;
  obs::Counter* m_cache_evictions_ = nullptr;
  obs::Histogram* m_flush_bytes_ = nullptr;
  obs::Histogram* m_flush_extents_ = nullptr;
  obs::Counter* m_recovery_retries_ = nullptr;
  obs::Counter* m_recovery_failovers_ = nullptr;
  obs::Counter* m_recovery_failover_bytes_ = nullptr;
  obs::Counter* m_recovery_failed_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace paraio::ppfs
