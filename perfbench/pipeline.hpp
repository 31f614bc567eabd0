// The characterization-study pipeline the benchmark times: capture an
// application run (core::run_experiment), characterize the trace
// (analysis::* passes and core::report), export it to SDDF and re-import it
// (pablo::write_trace / read_trace), then either replay the re-imported
// trace against PPFS (apps::Replay) or recover the checkpoint log the run
// left behind (ckpt::recover).
//
// Every layer is measured from outside: the benchmark times its own calls
// into the public functions and reads each layer's counts from
// ExperimentResult, the public *Counters / *Stats structs and, in a traced
// repetition, an obs::Registry attached through ExperimentHooks.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

enum class Workload { kEscatStudy, kRenderFb, kHtfCkpt };

inline constexpr Workload kWorkloads[] = {
    Workload::kEscatStudy, Workload::kRenderFb, Workload::kHtfCkpt};

[[nodiscard]] const char* name_of(Workload workload);
[[nodiscard]] std::optional<Workload> workload_from_name(std::string_view name);

/// kFull is the paper's production scale.  kReduced runs the same pipeline
/// on a small machine: the set-up warm-up and the self-tests use it.
enum class Scale { kFull, kReduced };

/// Everything one repetition needs, built during set-up.
struct Plan {
  Workload workload = Workload::kEscatStudy;
  Scale scale = Scale::kFull;
  std::uint64_t seed = 0;
  paraio::core::ExperimentConfig experiment;
};

/// Builds the workload's configuration.  The seed drives the tie-break
/// permutation of every simulation; on kHtfCkpt it also seeds the fault
/// plan and the recovery jitter, and a fault-free probe run places the ION
/// crash in the middle of the SCF phase.
[[nodiscard]] Plan make_plan(Workload workload, Scale scale,
                             std::uint64_t seed);

/// One host-time span around a call into a layer.  Times are seconds since
/// the benchmark process's clock origin; `parent` indexes the repetition's
/// span list (-1 for the repetition's root span).
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
};

/// Timing-free results of one repetition, read from the layers' public
/// result structs.  Identical across repetitions of one seed.
struct Counts {
  std::uint64_t kernel_events = 0;  ///< the capture run (ExperimentResult)
  std::uint64_t io_events = 0;      ///< captured trace size
  std::uint64_t sddf_bytes = 0;
  std::uint64_t trace_hash = 0;
  std::uint64_t logical_signature = 0;
  std::uint64_t streams = 0;        ///< analysis::classify_trace streams
  std::uint64_t phases = 0;         ///< analysis::detect_phases phases
  std::uint64_t report_bytes = 0;
  std::uint64_t replay_ops = 0;
  std::uint64_t replay_events = 0;  ///< kernel events of the replay alone
  double sim_time_s = 0.0;          ///< simulated seconds, all simulations
  double run_s = 0.0;  ///< simulated seconds of the capture's measured run
  paraio::pfs::PfsCounters pfs;
  paraio::ppfs::PpfsCounters ppfs;  ///< experiment + replay mounts
  paraio::fault::RecoveryStats recovery;
  paraio::hw::RaidFaultStats raid;
  std::uint64_t faults_injected = 0;
  paraio::ckpt::CheckpointStats checkpoint;
  paraio::ckpt::AbsorberStats absorber;
  std::uint64_t recovered_epoch = 0;
  std::uint64_t recovered_digest = 0;
};

[[nodiscard]] bool operator==(const Counts& a, const Counts& b);

/// One output check and whether it held.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Deliberate damage the self-tests apply to show that a check fires.
enum class Sabotage { kNone, kFlipSddfByte, kTruncateCkptLog };

struct RunOptions {
  /// Records spans and attaches an obs::Registry to every simulation.
  bool traced = false;
  /// Pinned timing-free signature of the captured trace, when known.
  std::optional<std::uint64_t> expect_signature;
  /// Pinned kernel-event count of the capture run for this seed, when known.
  std::optional<std::uint64_t> expect_kernel_events;
  Sabotage sabotage = Sabotage::kNone;
};

struct RepResult {
  Counts counts;
  /// Registry-sourced counts (traced repetitions only), by metric name.
  std::map<std::string, double> registry;
  double wall_s = 0.0;  ///< the whole pipeline
  double sim_s = 0.0;   ///< host seconds inside simulation calls
  std::vector<Span> spans;  ///< traced repetitions only
  std::vector<Check> checks;
  /// Simulated I/O requests issued (captured and replayed) and those that
  /// exhausted recovery.
  std::uint64_t io_attempted = 0;
  std::uint64_t io_failed = 0;

  [[nodiscard]] std::size_t failed_checks() const;
};

/// Runs one repetition of the workload's pipeline.  Never throws: an
/// exception from a layer becomes a failed check.
[[nodiscard]] RepResult run_pipeline(const Plan& plan,
                                     const RunOptions& options = {});

/// Seconds on the benchmark's steady clock since the process's first call.
[[nodiscard]] double now_s();

}  // namespace perfbench
