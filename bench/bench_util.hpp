// Shared helpers for bench/.  A binary is one of two kinds:
//
//  * a paper reproduction prints tables (optionally ASCII figures and CSV)
//    and never reads the host clock;
//  * a self-timed bench (bench_micro_sim, bench_faults) times its scenarios
//    through time_scenario() — the only timing loop in bench/ — and writes
//    them with write_scenarios_json(), the schema-1 format that
//    tools/check_bench.py gates in ci.sh.
#pragma once

#include <chrono>  // paraio-lint: allow(wall-clock)
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace paraio::bench {

/// Which kind of binary is parsing its arguments (see the file comment).
enum class Kind { kPaper, kTimed };

struct Options {
  bool figures = false;       // render ASCII figures (paper reproductions)
  std::string csv_dir;        // write CSV series when non-empty
  std::string json_path;      // write the schema-1 record (timed benches)
};

inline Options parse_args(int argc, char** argv, Kind kind = Kind::kPaper) {
  const bool timed = kind == Kind::kTimed;
  const auto usage = [&](std::ostream& out) {
    if (timed) {
      out << "usage: " << argv[0] << " [--csv DIR] [--json PATH]\n"
          << "  --csv DIR   also write the table data as CSV\n"
          << "  --json PATH write the schema-1 scenario record that "
             "tools/check_bench.py gates\n";
    } else {
      out << "usage: " << argv[0] << " [--figures] [--csv DIR]\n"
          << "  --figures   render the paper's figures as ASCII plots\n"
          << "  --csv DIR   also write table/figure data as CSV\n";
    }
  };
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--figures" && !timed) {
      opt.figures = true;
    } else if (arg == "--csv" && i + 1 < argc) {
      opt.csv_dir = argv[++i];
    } else if (arg == "--json" && timed && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << argv[0] << ": unknown or incomplete argument '" << arg
                << "'\n";
      usage(std::cerr);
      std::exit(2);
    }
  }
  return opt;
}

inline void write_csv(const Options& opt, const std::string& name,
                      const std::string& contents) {
  if (opt.csv_dir.empty()) return;
  std::filesystem::create_directories(opt.csv_dir);
  std::ofstream out(opt.csv_dir + "/" + name);
  out << contents;
  std::cout << "  [csv] " << opt.csv_dir << "/" << name << "\n";
}

/// One throughput scenario of a self-timed bench: how many kernel events
/// (or data-structure items) one repetition processed, the host time of the
/// fastest repetition, and the simulated time it covered (0 when the
/// scenario has no simulation clock).  The JSON these serialize into is the
/// format tools/check_bench.py regression-gates; bump "schema" if a field
/// changes meaning.
struct ScenarioRecord {
  std::string name;
  double events = 0.0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  double sim_time = 0.0;
  /// Optional scenario-specific measurements (recovery counts, checkpoint
  /// overhead fractions, ...).  Serialized as a "params" object; the gate
  /// in tools/check_bench.py ignores fields it does not know, so adding
  /// entries here does not require a schema bump.
  std::vector<std::pair<std::string, double>> params;
};

/// What one repetition of a scenario did.
struct Work {
  double events = 0.0;
  double sim_time = 0.0;
};

/// Times `run` (a callable returning Work): one untimed warm-up call, then
/// repetitions until at least `min_wall_ms` of host time has been measured,
/// reporting the FASTEST repetition.  Best-of, not average-of: the
/// simulator is deterministic, so every repetition does identical work and
/// the fastest one is the measurement least disturbed by scheduler
/// preemption or a noisy co-tenant — minimum-time benchmarking.  Throughput
/// on a shared host only ever loses time to interference; it never gains
/// any.  The warm-up pages in code and grows pools to their steady state.
template <typename Run>
ScenarioRecord time_scenario(std::string name, Run&& run,
                             double min_wall_ms) {
  using Clock = std::chrono::steady_clock;  // paraio-lint: allow(wall-clock)
  Work work = run();
  double best_ms = 0.0;
  double measured_ms = 0.0;
  do {
    const Clock::time_point start = Clock::now();
    work = run();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    measured_ms += ms;
    if (best_ms == 0.0 || ms < best_ms) best_ms = ms;
  } while (measured_ms < min_wall_ms);
  ScenarioRecord rec;
  rec.name = std::move(name);
  rec.events = work.events;
  rec.wall_ms = best_ms;
  rec.events_per_sec = best_ms > 0.0 ? work.events / (best_ms / 1000.0) : 0.0;
  rec.sim_time = work.sim_time;
  return rec;
}

inline void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

inline void write_scenarios_json(const Options& opt,
                                 const std::string& bench_name,
                                 const std::vector<ScenarioRecord>& scenarios) {
  if (opt.json_path.empty()) return;
  std::string out = "{\n  \"name\": ";
  append_json_string(out, bench_name);
  out += ",\n  \"schema\": 1,\n  \"scenarios\": [";
  bool first = true;
  for (const ScenarioRecord& s : scenarios) {
    if (!first) out += ",";
    first = false;
    out += "\n    {\"name\": ";
    append_json_string(out, s.name);
    out += ", \"events\": " + obs::format_double(s.events);
    out += ", \"wall_ms\": " + obs::format_double(s.wall_ms);
    out += ", \"events_per_sec\": " + obs::format_double(s.events_per_sec);
    out += ", \"sim_time\": " + obs::format_double(s.sim_time);
    if (!s.params.empty()) {
      out += ", \"params\": {";
      bool first_param = true;
      for (const auto& [key, value] : s.params) {
        if (!first_param) out += ", ";
        first_param = false;
        append_json_string(out, key);
        out += ": " + obs::format_double(value);
      }
      out += "}";
    }
    out += "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  std::ofstream file(opt.json_path);
  file << out;
  std::cout << "  [json] " << opt.json_path << "\n";
}

}  // namespace paraio::bench
