#include "ppfs/ppfs.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "sim/task_group.hpp"

namespace paraio::ppfs {

// ---------------------------------------------------------------------------
// Ppfs

Ppfs::Ppfs(hw::Machine& machine, PpfsParams params)
    : machine_(machine),
      params_(params),
      retry_rng_(params.recovery.jitter_seed) {
  servers_.reserve(machine_.io_nodes());
  ion_control_.reserve(machine_.io_nodes());
  for (std::size_t i = 0; i < machine_.io_nodes(); ++i) {
    servers_.push_back(std::make_unique<IonServer>(
        machine_, i, params_.aggregation, params_.merge_gap,
        params_.ion_cache_blocks, params_.recovery.request_timeout));
    ion_control_.push_back(
        std::make_unique<sim::Semaphore>(machine_.engine(), 1));
  }
}

void Ppfs::attach_observability(obs::Registry* registry, obs::Tracer* tracer) {
  tracer_ = tracer;
  if (registry == nullptr) {
    m_cache_hits_ = nullptr;
    m_cache_misses_ = nullptr;
    m_cache_evictions_ = nullptr;
    m_flush_bytes_ = nullptr;
    m_flush_extents_ = nullptr;
    m_recovery_retries_ = nullptr;
    m_recovery_failovers_ = nullptr;
    m_recovery_failover_bytes_ = nullptr;
    m_recovery_failed_ = nullptr;
    return;
  }
  m_cache_hits_ = &registry->counter("ppfs.cache.hits");
  m_cache_misses_ = &registry->counter("ppfs.cache.misses");
  m_cache_evictions_ = &registry->counter("ppfs.cache.evictions");
  m_flush_bytes_ = &registry->histogram("ppfs.flush.bytes");
  m_flush_extents_ = &registry->histogram("ppfs.flush.extents");
  // Recovery-path traffic was previously invisible here: retries and
  // failovers bypassed every counter even though they re-submit real load.
  m_recovery_retries_ = &registry->counter("ppfs.recovery.retries");
  m_recovery_failovers_ = &registry->counter("ppfs.recovery.failovers");
  m_recovery_failover_bytes_ =
      &registry->counter("ppfs.recovery.failover_bytes");
  m_recovery_failed_ = &registry->counter("ppfs.recovery.failed");
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    servers_[i]->attach_observability(*registry,
                                      "ppfs.ion" + std::to_string(i), tracer);
  }
}

BlockCache& Ppfs::node_cache(io::NodeId node) {
  auto it = caches_.find(node);
  if (it == caches_.end()) {
    it = caches_
             .emplace(node, std::make_unique<BlockCache>(params_.cache_blocks))
             .first;
  }
  return *it->second;
}

sim::Task<> Ppfs::control_rpc(io::NodeId node, std::uint32_t ion,
                              sim::SimDuration service) {
  const io::NodeId ion_node = machine_.ion_node_id(ion);
  co_await machine_.net().send(node, ion_node, params_.control_bytes);
  co_await ion_control_[ion]->acquire();
  co_await machine_.engine().delay(service);
  ion_control_[ion]->release();
  co_await machine_.net().send(ion_node, node, params_.control_bytes);
}

sim::Task<> Ppfs::transfer(io::NodeId node, detail::PpfsFileObject& file,
                           std::uint64_t offset, std::uint64_t bytes,
                           bool is_write) {
  if (bytes == 0) co_return;
  const auto segments = file.stripes.decompose(offset, bytes);
  if (observer_) {
    observer_->on_transfer(file.id, offset, bytes, is_write,
                           file.stripes.params(), segments);
  }
  obs::Tracer::SpanId span = 0;
  if (tracer_ != nullptr) {
    span = tracer_->begin({node, 0}, is_write ? "ppfs.write" : "ppfs.read",
                          "ppfs");
  }
  sim::TaskGroup group(machine_.engine());
  for (const pfs::Segment& seg : segments) {
    auto piece = [](Ppfs& fs, io::NodeId src, detail::PpfsFileObject& f,
                    pfs::Segment s, bool write) -> sim::Task<> {
      const io::IoOutcome r = co_await fs.submit_with_recovery(
          src, s.ion, f.disk_base() + s.local_offset, s.length, write);
      // Exhausted recovery: the stripe is gone.  The loss is accounted in
      // recovery_stats() (dirty_bytes_lost for writes); mark the client's
      // timeline so degraded runs are visible in the Chrome trace.
      if (!r.ok() && fs.tracer_ != nullptr) {
        fs.tracer_->instant({src, 0}, "ppfs.io-error", "fault");
      }
    };
    group.spawn(piece(*this, node, file, seg, is_write));
  }
  co_await group.join();
  if (tracer_ != nullptr) tracer_->end(span);
  if (is_write) file.size = std::max(file.size, offset + bytes);
}

sim::Task<io::IoOutcome> Ppfs::submit_with_recovery(io::NodeId node,
                                                    std::uint32_t ion,
                                                    std::uint64_t disk_address,
                                                    std::uint64_t length,
                                                    bool is_write) {
  const fault::RecoveryPolicy& rp = params_.recovery;
  ++recovery_stats_.requests;
  io::IoOutcome out;
  std::uint32_t attempts = 0;
  for (;;) {
    out = co_await servers_[ion]->submit(node, disk_address, length, is_write);
    ++attempts;
    if (out.ok() || attempts > rp.max_retries) break;
    ++recovery_stats_.retries;
    if (m_recovery_retries_ != nullptr) m_recovery_retries_->add();
    if (tracer_ != nullptr) tracer_->instant({node, 0}, "ppfs.retry", "fault");
    if (out.error == io::IoErrc::kTimeout) ++recovery_stats_.timeouts;
    if (out.error == io::IoErrc::kIonDown) ++recovery_stats_.refused;
    // Exponential backoff with seeded jitter: base * 2^(attempt-1), clamped,
    // scaled by a factor in [1 - jitter, 1 + jitter].  The jitter stream is
    // only drawn from on an actual retry, so fault-free runs never touch it.
    sim::SimDuration backoff =
        std::min(rp.backoff_max,
                 std::ldexp(rp.backoff_base, static_cast<int>(attempts) - 1));
    if (rp.jitter > 0.0) {
      backoff *= 1.0 + rp.jitter * (2.0 * retry_rng_.uniform01() - 1.0);
    }
    co_await machine_.engine().delay(backoff);
  }
  out.attempts = attempts;
  if (!out.ok() && rp.failover) {
    // Re-route the stripe to surviving IONs in deterministic scan order;
    // each substitute array holds a spill region at the same local address.
    for (std::size_t k = 1; k < servers_.size() && !out.ok(); ++k) {
      const std::size_t alt = (ion + k) % servers_.size();
      if (!machine_.ion_up(alt)) continue;
      io::IoOutcome alt_out =
          co_await servers_[alt]->submit(node, disk_address, length, is_write);
      ++attempts;
      if (alt_out.ok()) {
        alt_out.attempts = attempts;
        alt_out.failed_over = true;
        out = alt_out;
        ++recovery_stats_.failovers;
        recovery_stats_.failover_bytes += length;
        if (m_recovery_failovers_ != nullptr) m_recovery_failovers_->add();
        if (m_recovery_failover_bytes_ != nullptr) {
          m_recovery_failover_bytes_->add(length);
        }
        if (tracer_ != nullptr) {
          tracer_->instant({node, 0}, "ppfs.failover", "fault");
        }
      }
    }
  }
  if (out.degraded) ++recovery_stats_.degraded;
  if (out.ok()) {
    ++recovery_stats_.ok;
  } else {
    ++recovery_stats_.failed;
    if (m_recovery_failed_ != nullptr) m_recovery_failed_->add();
    // A lost write is dirty data that had been acknowledged to the
    // application (write-behind) but never reached stable storage.
    if (is_write) recovery_stats_.dirty_bytes_lost += length;
  }
  co_return out;
}

sim::Task<> Ppfs::fetch_blocks(io::NodeId node, detail::PpfsFileObject& file,
                               std::uint64_t first_block,
                               std::uint64_t last_block, bool prefetched) {
  // Partition the span into runs of blocks nobody is already fetching.
  std::uint64_t run_start = first_block;
  sim::TaskGroup group(machine_.engine());
  std::vector<std::shared_ptr<sim::Event>> waits;
  BlockCache& cache = node_cache(node);

  auto flush_run = [&](std::uint64_t lo, std::uint64_t hi_exclusive) {
    if (lo >= hi_exclusive) return;
    auto done = std::make_shared<sim::Event>(machine_.engine());
    for (std::uint64_t b = lo; b < hi_exclusive; ++b) {
      inflight_.emplace(FetchKey{node, file.id, b}, done);
    }
    auto fetch = [](Ppfs& fs, io::NodeId src, detail::PpfsFileObject& f,
                    std::uint64_t lo_b, std::uint64_t hi_b, bool pf,
                    std::shared_ptr<sim::Event> ev) -> sim::Task<> {
      const std::uint64_t bs_ = fs.params_.block_size;
      const std::uint64_t start = lo_b * bs_;
      const std::uint64_t end = std::min(hi_b * bs_, std::max(f.size, start));
      co_await fs.transfer(src, f, start, end - start, /*is_write=*/false);
      BlockCache& c = fs.node_cache(src);
      for (std::uint64_t b = lo_b; b < hi_b; ++b) {
        const auto evicted = c.insert(BlockKey{f.id, b}, pf);
        if (evicted && fs.m_cache_evictions_ != nullptr) {
          fs.m_cache_evictions_->add();
        }
        fs.inflight_.erase(FetchKey{src, f.id, b});
      }
      ev->set();
    };
    group.spawn(fetch(*this, node, file, lo, hi_exclusive, prefetched, done));
  };

  for (std::uint64_t b = first_block; b <= last_block; ++b) {
    auto it = inflight_.find(FetchKey{node, file.id, b});
    const bool already_cached = cache.contains(BlockKey{file.id, b});
    if (it != inflight_.end() || already_cached) {
      flush_run(run_start, b);
      run_start = b + 1;
      if (it != inflight_.end()) waits.push_back(it->second);
    }
  }
  flush_run(run_start, last_block + 1);

  co_await group.join();
  for (auto& ev : waits) co_await ev->wait();
}

sim::Task<> Ppfs::cached_read(io::NodeId node, detail::PpfsFileObject& file,
                              std::uint64_t offset, std::uint64_t bytes) {
  if (bytes == 0) co_return;
  if (params_.cache_blocks == 0) {
    co_await transfer(node, file, offset, bytes, /*is_write=*/false);
    co_return;
  }
  const std::uint64_t bs = params_.block_size;
  const std::uint64_t first = offset / bs;
  const std::uint64_t last = (offset + bytes - 1) / bs;
  BlockCache& cache = node_cache(node);

  // Identify missing runs (lookup also records hit/miss statistics).
  std::uint64_t run_start = first;
  bool in_run = false;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;
  for (std::uint64_t b = first; b <= last; ++b) {
    const bool hit = cache.lookup(BlockKey{file.id, b}) &&
                     !inflight_.contains(FetchKey{node, file.id, b});
    if (m_cache_hits_ != nullptr) {
      (hit ? m_cache_hits_ : m_cache_misses_)->add();
    }
    if (hit) {
      if (in_run) {
        runs.emplace_back(run_start, b - 1);
        in_run = false;
      }
    } else if (!in_run) {
      run_start = b;
      in_run = true;
    }
  }
  if (in_run) runs.emplace_back(run_start, last);

  for (const auto& [lo, hi] : runs) {
    co_await fetch_blocks(node, file, lo, hi, /*prefetched=*/false);
  }
  // Client memory copy from cache into the application buffer.
  co_await machine_.engine().delay(static_cast<double>(bytes) /
                                   params_.copy_rate);
}

sim::Task<> Ppfs::flush_buffer(io::NodeId node,
                               detail::PpfsFileObject& file) {
  detail::WriteBuffer& buf = buffer(node, file.id);
  if (buf.extents.empty()) co_return;
  if (observer_) observer_->on_buffer_flush(file.id, buf.buffered_bytes());
  if (m_flush_bytes_ != nullptr) {
    m_flush_bytes_->record(buf.buffered_bytes());
  }
  auto extents = buf.extents.extents();
  buf.extents.clear();
  ++counters_.flushes;
  counters_.flush_extents += extents.size();
  if (m_flush_extents_ != nullptr) m_flush_extents_->record(extents.size());
  obs::Tracer::SpanId span = 0;
  if (tracer_ != nullptr) span = tracer_->begin({node, 0}, "ppfs.flush", "ppfs");
  sim::TaskGroup group(machine_.engine());
  for (const Extent& ext : extents) {
    auto ship = [](Ppfs& fs, io::NodeId src, detail::PpfsFileObject& f,
                   Extent e) -> sim::Task<> {
      co_await fs.transfer(src, f, e.offset, e.length, /*is_write=*/true);
    };
    group.spawn(ship(*this, node, file, ext));
  }
  co_await group.join();
  if (tracer_ != nullptr) tracer_->end(span);
}

sim::Task<io::FilePtr> Ppfs::open(io::NodeId node, const std::string& path,
                                  const io::OpenOptions& options) {
  switch (options.mode) {
    case io::AccessMode::kUnix:
    case io::AccessMode::kAsync:
    case io::AccessMode::kRecord:
      break;
    default:
      throw std::logic_error(
          "PPFS supports independent-pointer modes only (M_UNIX, M_ASYNC, "
          "M_RECORD)");
  }
  if (options.mode == io::AccessMode::kRecord && options.record_size == 0) {
    throw std::invalid_argument("M_RECORD open requires a record size");
  }

  const std::uint32_t meta_ion = static_cast<std::uint32_t>(
      std::hash<std::string>{}(path) % machine_.io_nodes());
  co_await control_rpc(node, meta_ion, params_.open_service);

  auto it = files_.find(path);
  if (it == files_.end()) {
    if (!options.create) {
      throw std::invalid_argument("open of missing file without create: " +
                                  path);
    }
    pfs::StripeParams sp;
    sp.unit = params_.block_size;
    sp.io_nodes = static_cast<std::uint32_t>(machine_.io_nodes());
    it = files_
             .emplace(path, std::make_shared<detail::PpfsFileObject>(
                                next_file_id_++, path, sp))
             .first;
  } else if (options.truncate) {
    it->second->size = 0;
  }
  ++it->second->open_handles;
  co_return std::make_shared<PpfsFile>(*this, it->second, node, options);
}

bool Ppfs::exists(const std::string& path) const {
  return files_.contains(path);
}

std::uint64_t Ppfs::file_size(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? 0 : it->second->size;
}

// ---------------------------------------------------------------------------
// PpfsFile

PpfsFile::PpfsFile(Ppfs& fs, std::shared_ptr<detail::PpfsFileObject> object,
                   io::NodeId node, const io::OpenOptions& options)
    : fs_(fs),
      object_(std::move(object)),
      node_(node),
      mode_(options.mode),
      parties_(std::max<std::uint32_t>(options.parties, 1)),
      rank_(options.rank),
      record_size_(options.record_size) {}

std::uint64_t PpfsFile::tell() const {
  if (mode_ == io::AccessMode::kRecord) {
    return (records_done_ * parties_ + rank_) * record_size_;
  }
  return offset_;
}

void PpfsFile::require_open(const char* op) const {
  if (closed_) {
    throw std::logic_error(std::string(op) + " on closed file " +
                           object_->name);
  }
}

std::uint64_t PpfsFile::effective_size() const {
  // Server-side size plus anything still sitting in this node's buffer.
  const auto& buf = fs_.buffer(node_, object_->id);
  return std::max(object_->size, buf.extents.max_end());
}

sim::Task<std::uint64_t> PpfsFile::read_at(std::uint64_t offset,
                                           std::uint64_t bytes) {
  const std::uint64_t avail =
      effective_size() > offset ? effective_size() - offset : 0;
  const std::uint64_t n = std::min(bytes, avail);
  if (n == 0) co_return 0;

  detail::WriteBuffer& buf = fs_.buffer(node_, object_->id);
  if (buf.extents.covers(offset, n)) {
    // Entirely in this node's write buffer: a local copy.
    co_await fs_.machine().engine().delay(static_cast<double>(n) /
                                          fs_.params().copy_rate);
  } else {
    if (buf.extents.overlaps(offset, n)) {
      // Partial overlap with unflushed data: flush first, then read through
      // the normal path.  Conservative but correct.
      co_await fs_.flush_buffer(node_, *object_);
    }
    co_await fs_.cached_read(node_, *object_, offset, n);
  }
  ++fs_.counters_.reads;
  fs_.counters_.bytes_read += n;
  maybe_prefetch(offset, n);
  co_return n;
}

sim::Task<std::uint64_t> PpfsFile::write_at(std::uint64_t offset,
                                            std::uint64_t bytes) {
  if (bytes == 0) co_return 0;
  ++fs_.counters_.writes;
  fs_.counters_.bytes_written += bytes;
  if (fs_.params().write_behind) {
    detail::WriteBuffer& buf = fs_.buffer(node_, object_->id);
    const std::uint64_t before = buf.buffered_bytes();
    buf.extents.insert(offset, bytes);
    if (fs_.observer_) {
      fs_.observer_->on_write_buffered(object_->id,
                                       buf.buffered_bytes() - before);
    }
    // Local buffer copy is the only synchronous cost.
    co_await fs_.machine().engine().delay(static_cast<double>(bytes) /
                                          fs_.params().copy_rate);
    if (buf.buffered_bytes() >= fs_.params().write_buffer_limit) {
      co_await fs_.flush_buffer(node_, *object_);
    }
  } else {
    co_await fs_.transfer(node_, *object_, offset, bytes, /*is_write=*/true);
  }
  // Invalidate any cached blocks this write touched.
  if (fs_.params().cache_blocks > 0) {
    const std::uint64_t bs = fs_.params().block_size;
    BlockCache& cache = fs_.node_cache(node_);
    for (std::uint64_t b = offset / bs; b <= (offset + bytes - 1) / bs; ++b) {
      cache.erase(BlockKey{object_->id, b});
    }
  }
  co_return bytes;
}

void PpfsFile::maybe_prefetch(std::uint64_t offset, std::uint64_t bytes) {
  const PrefetchPolicy policy = fs_.params().prefetch;
  if (policy == PrefetchPolicy::kNone || fs_.params().cache_blocks == 0) {
    return;
  }
  classifier_.observe(offset, bytes);
  const std::uint64_t bs = fs_.params().block_size;

  std::optional<std::uint64_t> next;
  if (policy == PrefetchPolicy::kSequential) {
    next = offset + bytes;
  } else {
    next = classifier_.predict_next();  // adaptive: only when confident
  }
  if (!next) return;

  const std::uint64_t size_now = effective_size();
  if (*next >= size_now) return;
  const std::uint64_t first = *next / bs;
  const std::uint64_t last_wanted = first + fs_.params().prefetch_depth - 1;
  const std::uint64_t last_in_file = size_now == 0 ? 0 : (size_now - 1) / bs;
  const std::uint64_t last = std::min(last_wanted, last_in_file);
  if (last < first) return;

  BlockCache& cache = fs_.node_cache(node_);
  // Only issue for blocks neither cached nor already being fetched.
  std::uint64_t lo = first;
  bool any = false;
  for (std::uint64_t b = first; b <= last && !any; ++b) {
    any = !cache.contains(BlockKey{object_->id, b}) &&
          !fs_.inflight_.contains(Ppfs::FetchKey{node_, object_->id, b});
    if (any) lo = b;
  }
  if (!any) return;
  ++fs_.counters_.prefetch_issued;
  auto background = [](Ppfs& fs, io::NodeId nd,
                       std::shared_ptr<detail::PpfsFileObject> obj,
                       std::uint64_t lo_b, std::uint64_t hi_b) -> sim::Task<> {
    co_await fs.fetch_blocks(nd, *obj, lo_b, hi_b, /*prefetched=*/true);
  };
  fs_.machine().engine().spawn(background(fs_, node_, object_, lo, last));
}

sim::Task<std::uint64_t> PpfsFile::do_read(std::uint64_t bytes) {
  require_open("read");
  std::uint64_t off;
  if (mode_ == io::AccessMode::kRecord) {
    if (bytes != record_size_) {
      throw std::invalid_argument(
          "M_RECORD operations must move exactly one record");
    }
    off = (records_done_ * parties_ + rank_) * record_size_;
    ++records_done_;
  } else {
    off = offset_;
  }
  const std::uint64_t n = co_await read_at(off, bytes);
  if (mode_ != io::AccessMode::kRecord) offset_ = off + n;
  co_return n;
}

sim::Task<std::uint64_t> PpfsFile::do_write(std::uint64_t bytes) {
  require_open("write");
  std::uint64_t off;
  if (mode_ == io::AccessMode::kRecord) {
    if (bytes != record_size_) {
      throw std::invalid_argument(
          "M_RECORD operations must move exactly one record");
    }
    off = (records_done_ * parties_ + rank_) * record_size_;
    ++records_done_;
  } else {
    off = offset_;
  }
  const std::uint64_t n = co_await write_at(off, bytes);
  if (mode_ != io::AccessMode::kRecord) offset_ = off + n;
  co_return n;
}

sim::Task<> PpfsFile::do_seek(std::uint64_t offset) {
  require_open("seek");
  if (mode_ == io::AccessMode::kRecord) {
    throw std::logic_error("seek is not defined for M_RECORD handles");
  }
  // Client-local: PPFS keeps the pointer at the client, so seeks cost
  // nothing — the structural fix for ESCAT's Table 1 seek overhead.
  offset_ = offset;
  co_return;
}

sim::Task<std::uint64_t> PpfsFile::do_size() {
  require_open("size");
  const std::uint32_t meta_ion = object_->id %
                                 static_cast<std::uint32_t>(
                                     fs_.machine().io_nodes());
  co_await fs_.control_rpc(node_, meta_ion, fs_.params().meta_service);
  co_return effective_size();
}

sim::Task<> PpfsFile::do_flush() {
  require_open("flush");
  co_await fs_.flush_buffer(node_, *object_);
}

sim::Task<> PpfsFile::do_close() {
  require_open("close");
  closed_ = true;
  co_await fs_.flush_buffer(node_, *object_);
  assert(object_->open_handles > 0);
  --object_->open_handles;
  const std::uint32_t meta_ion = object_->id %
                                 static_cast<std::uint32_t>(
                                     fs_.machine().io_nodes());
  co_await fs_.control_rpc(node_, meta_ion, fs_.params().close_service);
}

sim::Task<> PpfsFile::do_set_mode(const io::OpenOptions& options) {
  require_open("set_mode");
  switch (options.mode) {
    case io::AccessMode::kUnix:
    case io::AccessMode::kAsync:
    case io::AccessMode::kRecord:
      break;
    default:
      throw std::logic_error("PPFS set_mode: independent-pointer modes only");
  }
  if (options.mode == io::AccessMode::kRecord && options.record_size == 0) {
    throw std::invalid_argument("M_RECORD set_mode requires a record size");
  }
  // Pointers live at the client, so the switch is purely local.
  mode_ = options.mode;
  parties_ = std::max<std::uint32_t>(options.parties, 1);
  rank_ = options.rank;
  record_size_ = options.record_size;
  records_done_ = 0;
  offset_ = 0;
  co_return;
}

sim::Task<io::AsyncOp> PpfsFile::do_read_async(std::uint64_t bytes) {
  require_open("read_async");
  if (mode_ == io::AccessMode::kRecord) {
    throw std::logic_error("async I/O is not defined for M_RECORD handles");
  }
  auto state = std::make_shared<io::AsyncOp::State>(fs_.machine().engine());
  const std::uint64_t off = offset_;
  const std::uint64_t avail =
      effective_size() > off ? effective_size() - off : 0;
  offset_ = off + std::min(bytes, avail);
  auto background = [](PpfsFile& file, std::uint64_t offset,
                       std::uint64_t len,
                       std::shared_ptr<io::AsyncOp::State> st) -> sim::Task<> {
    st->transferred = co_await file.read_at(offset, len);
    st->done.set();
  };
  fs_.machine().engine().spawn(background(*this, off, bytes, state));
  co_return io::AsyncOp(state);
}

sim::Task<io::AsyncOp> PpfsFile::do_write_async(std::uint64_t bytes) {
  require_open("write_async");
  if (mode_ == io::AccessMode::kRecord) {
    throw std::logic_error("async I/O is not defined for M_RECORD handles");
  }
  auto state = std::make_shared<io::AsyncOp::State>(fs_.machine().engine());
  const std::uint64_t off = offset_;
  offset_ = off + bytes;
  auto background = [](PpfsFile& file, std::uint64_t offset,
                       std::uint64_t len,
                       std::shared_ptr<io::AsyncOp::State> st) -> sim::Task<> {
    st->transferred = co_await file.write_at(offset, len);
    st->done.set();
  };
  fs_.machine().engine().spawn(background(*this, off, bytes, state));
  co_return io::AsyncOp(state);
}

}  // namespace paraio::ppfs
