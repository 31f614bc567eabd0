// Simulation invariant checker.
//
// One object implements all three observer interfaces — the simulation
// kernel's (sim::EngineObserver), the disk layer's (pfs::IoObserver), and the
// instrumentation layer's (pablo::TraceSink) — so a single checker watches a
// whole experiment end to end.  It verifies, as the simulation runs:
//
//   1. time monotonicity   — events execute in non-decreasing simulated time,
//                            and nothing is ever scheduled in the past;
//   2. queue drain         — when run() returns, no pending events and no
//                            live (blocked-forever) coroutines remain;
//   3. byte conservation   — application-layer traffic (the trace) matches
//                            disk-layer traffic (the striped transfers):
//                            exactly on PFS, cache-aware bounds on PPFS;
//   4. event validity      — every trace event has a non-negative duration
//                            and timestamp, and never transfers more than
//                            was requested;
//   5. stripe validity     — every disk transfer's segments are a correct
//                            decomposition: lengths sum to the request, ION
//                            indices are in range, and (for a bounded number
//                            of transfers) an independent StripeMap walk
//                            reproduces the exact segment list;
//   6. write-behind ledger — bytes entering PPFS client write buffers all
//                            come back out (cumulative buffered == flushed
//                            once every file is closed), and disk reads stay
//                            within the extent ever written.
//
// Attach by setting both hooks.engine and hooks.io of core::ExperimentHooks
// to &checker and running the experiment; then replay result.trace into the
// checker (on_event per trace event), call finish(), and inspect
// ok()/report().
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/absorber.hpp"
#include "fault/fault.hpp"
#include "pablo/trace.hpp"
#include "pfs/observer.hpp"
#include "sim/engine.hpp"

namespace paraio::testkit {

class InvariantChecker : public sim::EngineObserver,
                         public pfs::IoObserver,
                         public pablo::TraceSink {
 public:
  struct Options {
    /// PFS moves exactly the bytes the application asked for, so app-layer
    /// and disk-layer totals must match (M_GLOBAL excepted: one physical
    /// access serves every party, so disk <= app there).  PPFS caches and
    /// write-behind break exact equality; with this false the checker uses
    /// the cache-aware bounds instead.
    bool exact_conservation = true;
    /// Independently re-derive the segment decomposition for at most this
    /// many transfers (the per-segment checks always run).
    std::size_t segment_walk_limit = 256;
    /// Keep at most this many violation messages (the count keeps growing).
    std::size_t max_messages = 32;
  };

  InvariantChecker() = default;
  explicit InvariantChecker(Options options) : options_(options) {}

  // --- sim::EngineObserver ---
  void on_schedule(sim::SimTime now, sim::SimTime when) override;
  void on_event(sim::SimTime when) override;
  void on_run_complete(sim::SimTime now, std::size_t pending_events,
                       std::size_t live_tasks) override;

  // --- pfs::IoObserver ---
  void on_transfer(io::FileId file, std::uint64_t offset, std::uint64_t bytes,
                   bool is_write, const pfs::StripeParams& stripes,
                   const std::vector<pfs::Segment>& segments) override;
  void on_write_buffered(io::FileId file, std::uint64_t new_bytes) override;
  void on_buffer_flush(io::FileId file, std::uint64_t bytes) override;
  void on_measured_run_start() override;

  // --- pablo::TraceSink ---
  void on_event(const pablo::IoEvent& event) override;

  /// Feeds the mount's graceful-degradation accounting into finish():
  /// every recovered request must be resolved exactly once
  /// (requests == ok + failed — the RecoveryStats contract).
  void observe_recovery(const fault::RecoveryStats& stats);

  /// Feeds the checkpoint absorber's ledger into finish(): at quiescence
  /// every acknowledged byte is on an ION, still resident in the log, or
  /// explicitly lost (acked == drained + resident + lost).
  void observe_absorber(const ckpt::AbsorberStats& stats);

  /// Runs the end-of-experiment checks (conservation, write-behind ledger,
  /// any observed recovery/absorber accounting).  Call once after
  /// run_experiment() returns.
  void finish();

  [[nodiscard]] bool ok() const { return violation_count_ == 0; }
  [[nodiscard]] std::size_t violation_count() const {
    return violation_count_;
  }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return messages_;
  }
  /// All violation messages joined for assertion output ("ok" when clean).
  [[nodiscard]] std::string report() const;

  // Accumulators, exposed for the testkit's own unit tests.
  [[nodiscard]] std::uint64_t app_read() const { return app_read_; }
  [[nodiscard]] std::uint64_t app_written() const { return app_written_; }
  [[nodiscard]] std::uint64_t disk_read() const { return disk_read_; }
  [[nodiscard]] std::uint64_t disk_written() const { return disk_written_; }

 private:
  void violate(std::string message);

  Options options_;
  std::vector<std::string> messages_;
  std::size_t violation_count_ = 0;

  // Engine state.
  sim::SimTime last_event_time_ = 0.0;
  bool run_completed_ = false;

  // Byte ledgers.  App-layer totals come from the trace (measured run only);
  // disk-layer totals are zeroed at on_measured_run_start() to match.  File
  // sizes are tracked from mount time — staging creates the files the
  // measured run reads.
  std::uint64_t app_read_ = 0;
  std::uint64_t app_written_ = 0;
  std::uint64_t disk_read_ = 0;
  std::uint64_t disk_written_ = 0;
  std::uint64_t buffered_ = 0;
  std::uint64_t flushed_ = 0;
  std::size_t segment_walks_ = 0;
  bool saw_global_ = false;
  std::unordered_map<io::FileId, std::uint64_t> file_sizes_;

  // Snapshots handed in via observe_*; checked in finish() when present.
  bool have_recovery_ = false;
  fault::RecoveryStats recovery_;
  bool have_absorber_ = false;
  ckpt::AbsorberStats absorber_;
};

}  // namespace paraio::testkit
