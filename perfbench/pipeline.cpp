#include "pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>
#include <tuple>
#include <utility>

#include "analysis/op_stats.hpp"
#include "analysis/pattern.hpp"
#include "analysis/phases.hpp"
#include "analysis/survival.hpp"
#include "analysis/tables.hpp"
#include "apps/replay.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "pablo/sddf.hpp"
#include "ppfs/ppfs.hpp"
#include "sim/engine.hpp"
#include "testkit/trace_hash.hpp"

namespace perfbench {

using namespace paraio;

namespace {

using Clock = std::chrono::steady_clock;

// --- workload configurations -------------------------------------------------

core::ExperimentConfig escat_config(Scale scale) {
  core::ExperimentConfig cfg = core::escat_experiment();
  auto& app = std::get<apps::EscatConfig>(cfg.app);
  if (scale == Scale::kFull) {
    // Production data set: 512 nodes, ~5x the traced quadrature data.
    cfg.machine = hw::MachineConfig::paragon_xps(512, 16);
    app.nodes = 512;
    app.iterations = 260;
  } else {
    app.iterations = 24;
    app.seek_free_iterations = 3;
    app.first_cycle_compute = 20.0;
    app.last_cycle_compute = 10.0;
  }
  return cfg;
}

core::ExperimentConfig render_config(Scale scale) {
  core::ExperimentConfig cfg = core::render_experiment();
  auto& app = std::get<apps::RenderConfig>(cfg.app);
  // Production run: frames streamed to the HiPPi frame buffer by the
  // production-tuned renderer.
  app.to_framebuffer = true;
  app.frame_compute = 0.2;
  app.frames = scale == Scale::kFull ? 5000 : 250;
  return cfg;
}

core::ExperimentConfig htf_config(Scale scale, std::uint64_t seed) {
  core::ExperimentConfig cfg = core::htf_experiment();
  auto& app = std::get<apps::HtfConfig>(cfg.app);
  if (scale == Scale::kFull) {
    app.scf_iterations = 24;
  } else {
    cfg.machine = hw::MachineConfig::paragon_xps(16, 4);
    app.nodes = 16;
    app.integral_writes_total = 160;
    app.scf_iterations = 4;
    app.scf_extra_large_reads = 3;
    app.integral_compute_per_record = 1.0;
    app.scf_compute_per_iteration = 5.0;
    app.setup_compute = 2.0;
  }
  // PPFS with write-behind, aggregation and the client cache; the absorber
  // checkpoints at every SCF iteration boundary.
  ppfs::PpfsParams params = ppfs::PpfsParams::write_behind_aggregation();
  params.recovery.jitter_seed = seed;
  cfg.filesystem = core::FsChoice::ppfs(params);
  cfg.checkpoint.enabled = true;
  cfg.checkpoint.every = 1;
  cfg.checkpoint.backend = ckpt::CkptBackend::kAbsorber;
  cfg.fault_plan.seed = seed;
  cfg.attach_fault_layer = true;
  return cfg;
}

// --- spans -------------------------------------------------------------------

/// Times the benchmark's calls into the layers; records spans when traced.
class Timer {
 public:
  explicit Timer(bool traced) : traced_(traced) {}

  /// Runs `fn`, returning its host seconds; a traced timer also records a
  /// span named `name` under the innermost open one.
  template <typename Fn>
  double time(const char* name, Fn&& fn) {
    const int id = open(name);
    const double start = now_s();
    std::forward<Fn>(fn)();
    const double seconds = now_s() - start;
    close(id);
    return seconds;
  }

  int open(const char* name) {
    if (!traced_) return -1;
    spans_.push_back({name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = now_s();
    stack_.pop_back();
  }

  std::vector<Span> take() { return std::move(spans_); }

 private:
  bool traced_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- checks ------------------------------------------------------------------

std::string hex(std::uint64_t v) { return testkit::hash_hex(v); }

void check(RepResult& rep, std::string name, bool ok, std::string detail) {
  rep.checks.push_back(
      {std::move(name), ok, ok ? std::string() : std::move(detail)});
}

// --- registry-sourced counts ------------------------------------------------

/// Value of the counter or gauge `name`, or nullopt when neither exists.
std::optional<double> metric_value(const obs::Registry& reg,
                                   const std::string& name) {
  if (const auto c = reg.counters().find(name); c != reg.counters().end()) {
    return static_cast<double>(c->second.value());
  }
  if (const auto g = reg.gauges().find(name); g != reg.gauges().end()) {
    return g->second.value();
  }
  return std::nullopt;
}

/// Sums `<family><k>.<field>` over the devices k = 0, 1, ... of one family
/// (hw.array0.busy_s, hw.array1.busy_s, ...).
double sum_devices(const obs::Registry& reg, const std::string& family,
                   const std::string& field) {
  double total = 0.0;
  for (int k = 0;; ++k) {
    const auto v = metric_value(reg, family + std::to_string(k) + "." + field);
    if (!v) return total;
    total += *v;
  }
}

std::map<std::string, double> registry_counts(const obs::Registry& reg) {
  const auto get = [&](const std::string& name) {
    return metric_value(reg, name).value_or(0.0);
  };
  return {
      {"pfs.mode_wait_sim_s", get("pfs.mode_wait_s")},
      {"ppfs.cache_hits", get("ppfs.cache.hits")},
      {"ppfs.cache_misses", get("ppfs.cache.misses")},
      {"hw.array.requests", sum_devices(reg, "hw.array", "requests")},
      {"hw.array.busy_sim_s", sum_devices(reg, "hw.array", "busy_s")},
      {"hw.array.queue_sim_s", sum_devices(reg, "hw.array", "queue_s")},
      {"hw.link.busy_sim_s", sum_devices(reg, "hw.link", "busy_s")},
      {"hw.framebuffer.busy_sim_s", get("hw.framebuffer.busy_s")},
  };
}

// --- pipeline stages ---------------------------------------------------------

/// The characterization passes of one study, each timed on its own.
void characterize(const core::ExperimentResult& result, Timer& timer,
                  Counts& counts) {
  const pablo::Trace& trace = result.trace;
  timer.time("analysis.tables", [&] {
    const analysis::OperationTable ops(trace);
    const analysis::SizeTable sizes(trace);
  });
  timer.time("analysis.op_stats",
             [&] { const analysis::OperationStats stats(trace); });
  timer.time("analysis.phases", [&] {
    counts.phases = analysis::detect_phases(trace).size();
  });
  timer.time("analysis.survival",
             [&] { (void)analysis::write_survival(trace); });
  timer.time("analysis.pattern", [&] {
    counts.streams =
        analysis::pattern_mix(analysis::classify_trace(trace)).total();
  });
  timer.time("core.report", [&] {
    counts.report_bytes = core::report(result).size();
  });
}

/// Replays `trace` on a fresh 16-ION machine under PPFS write-behind with
/// global aggregation and zero think time (the paper's §5.2 port).
apps::ReplayStats replay(const pablo::Trace& trace, std::uint64_t seed,
                         obs::Registry* registry, Counts& counts) {
  io::NodeId max_node = 0;
  for (const auto& e : trace.events()) max_node = std::max(max_node, e.node);
  sim::Engine engine;
  engine.set_tie_break_seed(seed);
  hw::Machine machine(engine,
                      hw::MachineConfig::paragon_xps(max_node + 1, 16));
  if (registry != nullptr) machine.attach_metrics(*registry);
  ppfs::Ppfs fs(machine, ppfs::PpfsParams::write_behind_aggregation());
  fs.attach_observability(registry, nullptr);
  apps::Replay player(machine, fs, trace, /*scale_think=*/0.0);
  auto replay_all = [](apps::Replay& r, io::FileSystem& bare) -> sim::Task<> {
    co_await r.stage(bare);
    co_await r.run();
  };
  engine.spawn(replay_all(player, fs));
  counts.sim_time_s += engine.run();
  counts.replay_events = engine.events_executed();
  const ppfs::PpfsCounters& c = fs.counters();
  counts.ppfs.reads += c.reads;
  counts.ppfs.writes += c.writes;
  counts.ppfs.bytes_read += c.bytes_read;
  counts.ppfs.bytes_written += c.bytes_written;
  counts.ppfs.flushes += c.flushes;
  counts.ppfs.flush_extents += c.flush_extents;
  counts.ppfs.prefetch_issued += c.prefetch_issued;
  return player.stats();
}

void run_stages(const Plan& plan, const RunOptions& options, Timer& timer,
                RepResult& rep) {
  Counts& counts = rep.counts;
  std::optional<obs::Registry> registry;
  core::ExperimentConfig config = plan.experiment;
  if (options.traced) {
    registry.emplace();
    config.hooks.metrics = &*registry;
  }

  core::ExperimentResult result;
  rep.sim_s += timer.time("core.run_experiment",
                          [&] { result = core::run_experiment(config); });
  counts.kernel_events = result.kernel_events;
  counts.io_events = result.trace.size();
  counts.sim_time_s = result.run_end;
  counts.run_s = result.run_end - result.run_start;
  counts.pfs = result.pfs_counters;
  counts.ppfs = result.ppfs_counters;
  counts.recovery = result.recovery;
  counts.raid = result.raid_faults;
  counts.faults_injected = result.faults_injected;
  counts.checkpoint = result.checkpoint;
  counts.absorber = result.absorber;
  rep.io_attempted += result.trace.size();
  rep.io_failed += result.recovery.failed + result.raid_faults.failed_accesses;

  characterize(result, timer, counts);

  std::string sddf;
  timer.time("pablo.sddf_write", [&] {
    std::ostringstream out;
    pablo::write_trace(out, result.trace);
    sddf = std::move(out).str();
  });
  counts.sddf_bytes = sddf.size();
  if (options.sabotage == Sabotage::kFlipSddfByte && !sddf.empty()) {
    sddf[sddf.size() / 2] ^= 0x01;
  }
  pablo::Trace reimported;
  std::string read_error;
  timer.time("pablo.sddf_read", [&] {
    std::istringstream in(std::move(sddf));
    try {
      reimported = pablo::read_trace(in);
    } catch (const std::exception& e) {
      read_error = e.what();
    }
  });

  timer.time("bench.checks", [&] {
    counts.trace_hash = testkit::hash_trace(result.trace);
    counts.logical_signature = testkit::logical_signature(result.trace);
    const std::uint64_t reimport_hash =
        read_error.empty() ? testkit::hash_trace(reimported) : 0;
    check(rep, "sddf_round_trip",
          read_error.empty() && reimport_hash == counts.trace_hash,
          read_error.empty() ? "re-imported trace hash " + hex(reimport_hash) +
                                   " != captured " + hex(counts.trace_hash)
                             : "read_trace failed: " + read_error);
    if (options.expect_signature) {
      check(rep, "logical_signature",
            counts.logical_signature == *options.expect_signature,
            "signature " + hex(counts.logical_signature) + " != pinned " +
                hex(*options.expect_signature));
    }
    if (options.expect_kernel_events) {
      check(rep, "kernel_events", result.kernel_events ==
                                      *options.expect_kernel_events,
            std::to_string(result.kernel_events) + " kernel events != pinned " +
                std::to_string(*options.expect_kernel_events));
    }
    const fault::RecoveryStats& r = result.recovery;
    check(rep, "recovery_ledger", r.requests == r.ok + r.failed,
          "requests " + std::to_string(r.requests) + " != ok " +
              std::to_string(r.ok) + " + failed " + std::to_string(r.failed));
    const ckpt::AbsorberStats& a = result.absorber;
    check(rep, "absorber_ledger",
          a.acked_bytes ==
              a.drained_bytes + a.log_resident_bytes + a.dirty_bytes_lost,
          "acked " + std::to_string(a.acked_bytes) + " != drained " +
              std::to_string(a.drained_bytes) + " + resident " +
              std::to_string(a.log_resident_bytes) + " + lost " +
              std::to_string(a.dirty_bytes_lost));
  });

  if (plan.workload == Workload::kEscatStudy) {
    apps::ReplayStats stats;
    rep.sim_s += timer.time("apps.replay", [&] {
      stats = replay(reimported, plan.seed,
                     registry ? &*registry : nullptr, counts);
    });
    counts.replay_ops = stats.operations;
    rep.io_attempted += stats.operations;
    check(rep, "replay_operations", stats.operations == reimported.size(),
          "replayed " + std::to_string(stats.operations) + " of " +
              std::to_string(reimported.size()) + " operations");
  }

  if (registry) rep.registry = registry_counts(*registry);

  if (plan.workload == Workload::kHtfCkpt) {
    if (result.ckpt_log == nullptr) {
      check(rep, "ckpt_recover", false, "the run left no checkpoint log");
      return;
    }
    ckpt::LogImage log = *result.ckpt_log;
    if (options.sabotage == Sabotage::kTruncateCkptLog) {
      log.truncate_records(log.record_count() / 2);
    }
    ckpt::RecoveredState state;
    timer.time("ckpt.recover", [&] { state = ckpt::recover(log); });
    counts.recovered_epoch = state.epoch;
    counts.recovered_digest = state.digest;
    const ckpt::CheckpointStats& cs = result.checkpoint;
    check(rep, "ckpt_recover",
          cs.epochs_committed > 0 && state.epoch == cs.committed_epoch &&
              state.digest == cs.committed_digest,
          "recovered epoch " + std::to_string(state.epoch) + " digest " +
              hex(state.digest) + " != committed epoch " +
              std::to_string(cs.committed_epoch) + " digest " +
              hex(cs.committed_digest));
  }
}

}  // namespace

double now_s() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

const char* name_of(Workload workload) {
  switch (workload) {
    case Workload::kEscatStudy:
      return "escat512-study";
    case Workload::kRenderFb:
      return "render5000-fb";
    case Workload::kHtfCkpt:
      return "htf-ppfs-ckpt";
  }
  return "?";
}

std::optional<Workload> workload_from_name(std::string_view name) {
  for (const Workload w : kWorkloads) {
    if (name == name_of(w)) return w;
  }
  return std::nullopt;
}

Plan make_plan(Workload workload, Scale scale, std::uint64_t seed) {
  Plan plan;
  plan.workload = workload;
  plan.scale = scale;
  plan.seed = seed;
  switch (workload) {
    case Workload::kEscatStudy:
      plan.experiment = escat_config(scale);
      break;
    case Workload::kRenderFb:
      plan.experiment = render_config(scale);
      break;
    case Workload::kHtfCkpt:
      plan.experiment = htf_config(scale, seed);
      break;
  }
  plan.experiment.tie_break_seed = seed;
  if (workload == Workload::kHtfCkpt) {
    // Fault-free probe: the SCF phase runs from the end of pargos to the
    // end of the run.  ION 1 crashes halfway through it and restarts at
    // three quarters.
    const core::ExperimentResult probe = core::run_experiment(plan.experiment);
    const double scf_start = probe.phases.end_of("pargos");
    const double scf_span = probe.run_end - scf_start;
    plan.experiment.fault_plan.add(
        {scf_start + 0.5 * scf_span, fault::FaultKind::kIonCrash, 1, 0, 0.0});
    plan.experiment.fault_plan.add({scf_start + 0.75 * scf_span,
                                    fault::FaultKind::kIonRestart, 1, 0, 0.0});
  }
  return plan;
}

std::size_t RepResult::failed_checks() const {
  return static_cast<std::size_t>(std::count_if(
      checks.begin(), checks.end(), [](const Check& c) { return !c.ok; }));
}

RepResult run_pipeline(const Plan& plan, const RunOptions& options) {
  RepResult rep;
  Timer timer(options.traced);
  const double start = now_s();
  const int root = timer.open("pipeline");
  try {
    run_stages(plan, options, timer, rep);
  } catch (const std::exception& e) {
    check(rep, "pipeline", false, std::string("exception: ") + e.what());
  }
  timer.close(root);
  rep.wall_s = now_s() - start;
  rep.spans = timer.take();
  return rep;
}

bool operator==(const Counts& a, const Counts& b) {
  const auto tie = [](const Counts& c) {
    return std::make_tuple(
        c.kernel_events, c.io_events, c.sddf_bytes, c.trace_hash,
        c.logical_signature, c.streams, c.phases, c.report_bytes,
        c.replay_ops, c.replay_events, c.sim_time_s, c.run_s, c.pfs.reads,
        c.pfs.writes,
        c.pfs.seeks, c.pfs.opens, c.pfs.closes, c.pfs.bytes_read,
        c.pfs.bytes_written, c.ppfs.reads, c.ppfs.writes, c.ppfs.bytes_read,
        c.ppfs.bytes_written, c.ppfs.flushes, c.ppfs.flush_extents,
        c.ppfs.prefetch_issued, c.recovery.requests, c.recovery.ok,
        c.recovery.failed, c.recovery.retries, c.recovery.failovers,
        c.recovery.dirty_bytes_lost, c.raid.degraded_accesses,
        c.raid.failed_accesses, c.faults_injected,
        c.checkpoint.epochs_committed, c.checkpoint.committed_epoch,
        c.checkpoint.committed_digest, c.checkpoint.checkpoint_time,
        c.absorber.acked_bytes, c.absorber.drained_bytes,
        c.absorber.dirty_bytes_lost, c.recovered_epoch, c.recovered_digest);
  };
  return tie(a) == tie(b);
}

}  // namespace perfbench
