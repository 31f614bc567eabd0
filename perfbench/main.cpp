// Benchmark harness: sets the workload up, repeats its pipeline for the
// requested host seconds, checks every output, and prints the metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--expect-signature <hex>] [--expect-kernel-events <n>]
//             [--chrome-out <path>]
//
// --trace 0 reports the end-to-end metrics from untraced repetitions.
// --trace 1 alternates untraced and traced repetitions (spans plus an
// obs::Registry) and reports the per-layer metrics; with --chrome-out it
// writes the spans as Chrome trace JSON.  The last line of stdout is one
// JSON object {"correct","attempted","failed","metrics"}.  Exit status: 0
// when every check held, 1 when one failed, 2 on a usage error.
//
// Host times are medians over the repetitions of a run, scaled to the
// reference host speed: a fixed calibration kernel runs after every set-up
// and repetition, and each host time is multiplied by
// kReferenceCalibrationS / (median calibration time).  On a shared machine
// whose speed drifts by minutes-long phases, the scaled median drifts least
// from run to run (see README.md).  The human-readable lines print the
// measured seconds; the traced run reports the calibration time, from which
// they can be recovered.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/chrome.hpp"
#include "pipeline.hpp"
#include "testkit/trace_hash.hpp"

namespace {

using namespace perfbench;

struct Args {
  Workload workload = Workload::kEscatStudy;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool traced = false;
  std::optional<std::uint64_t> expect_signature;
  std::optional<std::uint64_t> expect_kernel_events;
  std::string chrome_out;
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

/// Fewest repetitions of each kind a run makes, however short --seconds is.
constexpr std::size_t kMinRepetitions = 3;

/// The calibration kernel's time at the reference host speed: a round
/// value inside the range it took, by phase, on the shared 4-vCPU x86-64 VM
/// the benchmark was tuned on (0.11-0.21 s).
constexpr double kReferenceCalibrationS = 0.150;

bool parse_u64(const char* text, int base, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, base);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      const auto w = workload_from_name(value);
      if (!w) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", value);
        return false;
      }
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, 10, n)) {
      args.seed = n;
    } else if (flag == "--seconds" && parse_u64(value, 10, n) && n > 0 &&
               n <= 3600) {
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && parse_u64(value, 10, n) && n <= 1) {
      args.traced = n == 1;
    } else if (flag == "--expect-signature" && parse_u64(value, 16, n)) {
      args.expect_signature = n;
    } else if (flag == "--expect-kernel-events" && parse_u64(value, 10, n)) {
      args.expect_kernel_events = n;
    } else if (flag == "--chrome-out") {
      args.chrome_out = value;
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s %s\n", flag.c_str(),
                   value);
      return false;
    }
  }
  if (!have_workload) {
    std::fprintf(stderr, "perfbench: --workload is required\n");
  }
  return have_workload;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Fixed work owned by the benchmark, timed between repetitions to track the
/// host's speed.  Its mix resembles the pipeline's: a sort, number
/// formatting and parsing as in SDDF text, and node-based map updates.  A
/// host phase that slows the pipeline slows it alike (ESCAT's pipeline over
/// this kernel's time stayed within 7% while the pipeline's own time moved
/// by 30%), and no change to the simulator can change its cost.
double calibration_kernel() {
  const double start = now_s();
  std::uint64_t x = 88172645463325252ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint64_t> keys(400000);
  for (std::uint64_t& k : keys) k = next();
  std::sort(keys.begin(), keys.end());
  std::string text;
  char line[64];
  for (std::size_t i = 0; i < 150000; ++i) {
    std::snprintf(line, sizeof(line), "%.9g,%llu\n",
                  static_cast<double>(keys[i] % 100000) / 7.0,
                  static_cast<unsigned long long>(keys[i] >> 40));
    text += line;
  }
  double sum = 0.0;
  for (const char* p = text.c_str(); *p != '\0';) {
    char* end = nullptr;
    sum += std::strtod(p, &end);
    p = std::strchr(end, '\n');
    if (p == nullptr) break;
    ++p;
  }
  std::map<std::uint64_t, double> counts;
  for (int i = 0; i < 100000; ++i) counts[next() % 50000] += 1.0;
  volatile double sink = sum + static_cast<double>(counts.size());
  (void)sink;
  return now_s() - start;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> walls_of(const std::vector<RepResult>& reps) {
  std::vector<double> v;
  for (const RepResult& rep : reps) v.push_back(rep.wall_s);
  return v;
}

/// Accumulates checks and operation counts over the whole run.
struct Tally {
  std::uint64_t checks = 0;
  std::uint64_t failed_checks = 0;
  std::uint64_t io_attempted = 0;
  std::uint64_t io_failed = 0;

  void add(const std::string& name, bool ok, const std::string& detail) {
    ++checks;
    if (!ok) {
      ++failed_checks;
      std::fprintf(stderr, "perfbench: check %s failed: %s\n", name.c_str(),
                   detail.c_str());
    }
  }
  void add(const RepResult& rep) {
    for (const Check& c : rep.checks) add(c.name, c.ok, c.detail);
    io_attempted += rep.io_attempted;
    io_failed += rep.io_failed;
  }
  [[nodiscard]] std::uint64_t attempted() const {
    return io_attempted + checks;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return io_failed + failed_checks;
  }
};

/// Median host seconds per span name over traced repetitions, plus the
/// root span's time its children do not cover.
std::map<std::string, double> span_medians(const std::vector<RepResult>& reps) {
  std::map<std::string, std::vector<double>> samples;
  for (const RepResult& rep : reps) {
    std::map<std::string, double> per_rep;
    double children = 0.0;
    for (const Span& s : rep.spans) {
      const double d = s.end_s - s.start_s;
      per_rep[s.name] += d;
      if (s.parent == 0) children += d;
    }
    per_rep["bench.unattributed"] = per_rep["pipeline"] - children;
    for (const auto& [name, d] : per_rep) samples[name].push_back(d);
  }
  std::map<std::string, double> out;
  for (const auto& [name, v] : samples) out[name] = median(v);
  return out;
}

void write_chrome(const std::string& path, const std::vector<RepResult>& reps,
                  Tally& tally) {
  paraio::obs::Tracer tracer;
  for (std::size_t r = 0; r < reps.size(); ++r) {
    // The process id is the repetition id every span of one repetition
    // shares; the parent span's name travels as the category.
    const auto pid = static_cast<std::uint32_t>(r);
    tracer.name_process(pid, "repetition " + std::to_string(r));
    for (const Span& s : reps[r].spans) {
      const std::string parent =
          s.parent < 0 ? std::string()
                       : reps[r].spans[static_cast<std::size_t>(s.parent)].name;
      tracer.complete({pid, 0}, s.name, s.start_s, s.end_s, parent);
    }
  }
  const std::string text = paraio::obs::chrome_trace_text(tracer);
  std::string error;
  tally.add("chrome_trace_json", paraio::obs::validate_json(text, &error),
            error);
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  tally.add("chrome_trace_write", static_cast<bool>(out),
            "cannot write " + path);
}

void print_metric(std::string& json, const char* name, double value,
                  const char* unit) {
  std::printf("  %-28s %18.6f %s\n", name, value, unit);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json.empty() ? "" : ", ", name, value, unit);
  json += buf;
}

/// The per-layer metrics of a traced run; `scale` converts measured host
/// seconds to reference-speed seconds.
void print_layers(std::string& json, const std::vector<RepResult>& untraced,
                  const std::vector<RepResult>& traced, double failed_frac,
                  double calibration_s, double scale) {
  const std::map<std::string, double> medians = span_medians(traced);
  const auto span = [&](const char* name) {
    const auto it = medians.find(name);
    return it == medians.end() ? 0.0 : it->second * scale;
  };
  const RepResult& last = traced.back();
  const Counts& c = last.counts;
  const auto reg = [&](const char* name) {
    const auto it = last.registry.find(name);
    return it == last.registry.end() ? 0.0 : it->second;
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::vector<double> walls = walls_of(untraced);

  print_metric(json, "core.run_experiment_s", span("core.run_experiment"), "s");
  print_metric(json, "core.report_s", span("core.report"), "s");
  print_metric(json, "bench.unattributed_s", span("bench.unattributed"), "s");
  print_metric(json, "bench.checks_s", span("bench.checks"), "s");
  print_metric(json, "bench.repetitions", d(walls.size()), "count");
  print_metric(json, "bench.wall_s_median", median(walls) * scale, "s");
  print_metric(json, "bench.wall_s_max", max_of(walls) * scale, "s");
  print_metric(json, "bench.calibration_s", calibration_s, "s");
  print_metric(json, "sim.kernel_events", d(c.kernel_events), "count");
  print_metric(json, "sim.events_per_io_op",
               ratio(d(c.kernel_events), d(c.io_events)), "1");
  print_metric(json, "pablo.io_events", d(c.io_events), "count");
  print_metric(json, "pablo.sddf_write_s", span("pablo.sddf_write"), "s");
  print_metric(json, "pablo.sddf_read_s", span("pablo.sddf_read"), "s");
  print_metric(json, "pablo.sddf_bytes", d(c.sddf_bytes), "B");
  print_metric(json, "analysis.tables_s", span("analysis.tables"), "s");
  print_metric(json, "analysis.op_stats_s", span("analysis.op_stats"), "s");
  print_metric(json, "analysis.phases_s", span("analysis.phases"), "s");
  print_metric(json, "analysis.survival_s", span("analysis.survival"), "s");
  print_metric(json, "analysis.pattern_s", span("analysis.pattern"), "s");
  print_metric(json, "analysis.streams", d(c.streams), "count");
  print_metric(json, "apps.replay_s", span("apps.replay"), "s");
  print_metric(json, "apps.replay_events", d(c.replay_events), "count");
  print_metric(json, "apps.sim_time_s", c.sim_time_s, "s");
  print_metric(json, "pfs.seeks", d(c.pfs.seeks), "count");
  print_metric(json, "pfs.writes", d(c.pfs.writes), "count");
  print_metric(json, "pfs.reads", d(c.pfs.reads), "count");
  print_metric(json, "pfs.opens", d(c.pfs.opens), "count");
  print_metric(json, "pfs.mode_wait_sim_s", reg("pfs.mode_wait_sim_s"), "s");
  print_metric(json, "ppfs.flushes", d(c.ppfs.flushes), "count");
  print_metric(json, "ppfs.extents_per_flush",
               ratio(d(c.ppfs.flush_extents), d(c.ppfs.flushes)), "1");
  print_metric(json, "ppfs.cache_hit_ratio",
               ratio(reg("ppfs.cache_hits"),
                     reg("ppfs.cache_hits") + reg("ppfs.cache_misses")),
               "1");
  print_metric(json, "ppfs.prefetch_issued", d(c.ppfs.prefetch_issued),
               "count");
  print_metric(json, "hw.array.requests", reg("hw.array.requests"), "count");
  print_metric(json, "hw.array.busy_sim_s", reg("hw.array.busy_sim_s"), "s");
  print_metric(json, "hw.array.queue_sim_s", reg("hw.array.queue_sim_s"), "s");
  print_metric(json, "hw.link.busy_sim_s", reg("hw.link.busy_sim_s"), "s");
  print_metric(json, "hw.framebuffer.busy_sim_s",
               reg("hw.framebuffer.busy_sim_s"), "s");
  print_metric(json, "hw.raid.degraded_accesses", d(c.raid.degraded_accesses),
               "count");
  print_metric(json, "fault.faults_injected", d(c.faults_injected), "count");
  print_metric(json, "fault.retries", d(c.recovery.retries), "count");
  print_metric(json, "fault.failovers", d(c.recovery.failovers), "count");
  print_metric(json, "fault.failed", d(c.recovery.failed), "count");
  print_metric(json, "ckpt.epochs_committed", d(c.checkpoint.epochs_committed),
               "count");
  print_metric(json, "ckpt.overhead_frac",
               ratio(c.checkpoint.checkpoint_time, c.run_s), "1");
  print_metric(json, "ckpt.acked_bytes", d(c.absorber.acked_bytes), "B");
  print_metric(json, "ckpt.drained_bytes", d(c.absorber.drained_bytes), "B");
  print_metric(json, "ckpt.recover_s", span("ckpt.recover"), "s");
  print_metric(json, "obs.traced_overhead_frac",
               ratio(median(walls_of(traced)), median(walls)) - 1.0, "1");
  print_metric(json, "failed_frac", failed_frac, "1");
}

}  // namespace

int main(int argc, char** argv) {
  (void)now_s();  // starts the benchmark clock
  Args args;
  if (!parse_args(argc, argv, args)) return 2;

  Tally tally;
  RunOptions options;
  options.expect_signature = args.expect_signature;
  options.expect_kernel_events = args.expect_kernel_events;

  // --- set-up: configs, fault plan (probe run), reduced warm-up pipeline.
  std::vector<double> setup_samples;
  std::vector<double> calibrations;
  Plan plan;
  for (int k = 0; k < kSetups; ++k) {
    const double t0 = now_s();
    plan = make_plan(args.workload, Scale::kFull, args.seed);
    tally.add(
        run_pipeline(make_plan(args.workload, Scale::kReduced, args.seed)));
    setup_samples.push_back(now_s() - t0);
    calibrations.push_back(calibration_kernel());
  }

  // --- measured repetitions; a traced run alternates untraced and traced.
  // Each repetition is followed by a calibration.  The run stops before a
  // repetition that would end past the deadline, so it lasts about
  // --seconds however long one repetition takes.
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  const double deadline = now_s() + args.seconds;
  for (std::size_t i = 0;; ++i) {
    RunOptions rep_options = options;
    rep_options.traced = args.traced && i % 2 == 1;
    const double t0 = now_s();
    RepResult rep = run_pipeline(plan, rep_options);
    tally.add(rep);
    (rep_options.traced ? traced : untraced).push_back(std::move(rep));
    calibrations.push_back(calibration_kernel());
    const double iteration_s = now_s() - t0;
    const bool enough = untraced.size() >= kMinRepetitions &&
                        (!args.traced || traced.size() >= kMinRepetitions);
    if (enough && now_s() + iteration_s >= deadline) break;
  }

  // Counts repeat exactly for one seed, traced or not; registry counts
  // repeat across traced repetitions.
  const Counts& reference = untraced.front().counts;
  for (const auto* set : {&untraced, &traced}) {
    for (const RepResult& rep : *set) {
      tally.add("counts_repeat", rep.counts == reference,
                "a repetition's counts differ from the first repetition's");
      tally.add("registry_repeat", rep.registry == set->front().registry,
                "a traced repetition's registry counts differ");
    }
  }

  const std::vector<double> walls = walls_of(untraced);
  std::vector<double> rates;
  for (const RepResult& rep : untraced) {
    const auto events = rep.counts.kernel_events + rep.counts.replay_events;
    rates.push_back(ratio(static_cast<double>(events), rep.sim_s));
  }
  const double failed_frac = ratio(static_cast<double>(tally.failed()),
                                   static_cast<double>(tally.attempted()));
  const double calibration_s = median(calibrations);
  const double scale = kReferenceCalibrationS / calibration_s;

  std::printf("%s seed=%" PRIu64 ": %zu untraced + %zu traced repetitions, "
              "%zu set-ups\n",
              name_of(args.workload), args.seed, untraced.size(),
              traced.size(), setup_samples.size());
  std::printf("  logical_signature %s, trace_hash %s, kernel_events %" PRIu64
              "\n",
              paraio::testkit::hash_hex(reference.logical_signature).c_str(),
              paraio::testkit::hash_hex(reference.trace_hash).c_str(),
              reference.kernel_events);
  std::printf("  measured pipeline wall over %zu repetitions: median %.6f s, "
              "min %.6f s, max %.6f s; set-up median %.6f s\n",
              walls.size(), median(walls), min_of(walls), max_of(walls),
              median(setup_samples));
  std::printf("  calibration median %.6f s of %zu: host times below "
              "are scaled by %.6f to the reference speed\n",
              calibration_s, calibrations.size(), scale);
  std::printf("  failed_frac %.6g (%" PRIu64 " failed of %" PRIu64
              " I/O requests and output checks)\n",
              failed_frac, tally.failed(), tally.attempted());

  std::string json;
  if (!args.traced) {
    print_metric(json, "wall_s", median(walls) * scale, "s");
    print_metric(json, "sim_events_per_s", median(rates) / scale, "1/s");
    print_metric(json, "peak_rss_mb", peak_rss_mb(), "MB");
    print_metric(json, "setup_s", median(setup_samples) * scale, "s");
  } else {
    if (!args.chrome_out.empty()) write_chrome(args.chrome_out, traced, tally);
    print_layers(json, untraced, traced, failed_frac, calibration_s, scale);
  }

  const bool correct = tally.failed_checks == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", tally.attempted(), tally.failed(),
              json.c_str());
  return correct ? 0 : 1;
}
