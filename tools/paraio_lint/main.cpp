// paraio_lint command-line driver.
//
//   paraio_lint [--werror] [--disable=id[,id...]] [--exclude=sub[,sub...]]
//               [--sarif=path] [--baseline=path] [--stats]
//               [--check-docs=path] [--list-checks] [--explain <id>]
//               paths...
//
// Paths may be files or directories (searched recursively for
// .hpp/.h/.cpp/.cc); `--exclude=` drops any collected path containing one
// of the given substrings (e.g. `--exclude=fixtures` when linting tests/).
// Findings print to stdout in compiler format (`file:line:col:`); with
// --sarif= the run is also written as a SARIF 2.1.0 log (self-validated
// before writing).  `--baseline=` accepts a previous SARIF log: findings
// matching it on (rule, file) are demoted to externally-suppressed, and
// baseline entries matching nothing fail the run as stale.  `--stats`
// prints per-pass wall time and the call-graph/summary shape to stderr.
//
// Exit codes are stable (ExitCode in lint.hpp): 0 clean, 1 findings /
// stale baseline / doc drift, 2 usage, IO, or internal errors.
// `--explain` and `--check-docs` follow the same contract.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "paraio_lint/baseline.hpp"
#include "paraio_lint/lint.hpp"
#include "paraio_lint/sarif.hpp"

namespace fs = std::filesystem;
using paraio::lint::Finding;
using paraio::lint::kExitClean;
using paraio::lint::kExitFindings;
using paraio::lint::kExitInternalError;
using paraio::lint::Severity;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
}

int usage() {
  std::cerr << "usage: paraio_lint [--werror] [--disable=id[,id...]] "
               "[--exclude=sub[,sub...]] [--sarif=path] [--baseline=path] "
               "[--stats] [--check-docs=path] "
               "[--list-checks] [--explain <id>] <file-or-dir>...\n";
  return kExitInternalError;
}

void split_commas(const std::string& list, std::vector<std::string>* out) {
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out->push_back(item);
  }
}

int explain(const std::string& id) {
  const paraio::lint::CheckInfo* c = paraio::lint::find_check(id);
  if (c == nullptr) {
    std::cerr << "paraio_lint: unknown check '" << id
              << "' (see --list-checks)\n";
    return kExitInternalError;
  }
  std::cout << c->id << " ("
            << (c->severity == Severity::kError ? "error" : "warning")
            << ")\n  " << c->summary << "\n\n  " << c->detail << "\n";
  return kExitClean;
}

/// Thin IO wrapper over check_docs_text (lint.cpp), which holds the
/// two-way catalog <-> doc drift logic so tests can drive it directly.
int check_docs(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "paraio_lint: cannot read " << path << "\n";
    return kExitInternalError;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return paraio::lint::check_docs_text(buf.str(), path, std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
  bool werror = false;
  bool print_stats = false;
  paraio::lint::Options options;
  std::vector<std::string> roots;
  std::vector<std::string> excludes;
  std::string sarif_path;
  std::string baseline_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--werror") {
      werror = true;
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(8);
      if (sarif_path.empty()) return usage();
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
      if (baseline_path.empty()) return usage();
    } else if (arg.rfind("--check-docs=", 0) == 0) {
      return check_docs(arg.substr(13));
    } else if (arg == "--list-checks") {
      for (const auto& c : paraio::lint::checks()) {
        std::cout << c.id << " ("
                  << (c.severity == Severity::kError ? "error" : "warning")
                  << "): " << c.summary << "\n";
      }
      return 0;
    } else if (arg.rfind("--explain=", 0) == 0) {
      return explain(arg.substr(10));
    } else if (arg == "--explain") {
      if (i + 1 >= argc) return usage();
      return explain(argv[i + 1]);
    } else if (arg.rfind("--disable=", 0) == 0) {
      std::vector<std::string> ids;
      split_commas(arg.substr(10), &ids);
      options.disabled.insert(ids.begin(), ids.end());
    } else if (arg.rfind("--exclude=", 0) == 0) {
      split_commas(arg.substr(10), &excludes);
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) return usage();

  std::vector<std::string> paths;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(root)) {
        if (entry.is_regular_file() && lintable(entry.path())) {
          paths.push_back(entry.path().generic_string());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      paths.push_back(root);
    } else {
      std::cerr << "paraio_lint: no such file or directory: " << root << "\n";
      return 2;
    }
  }
  std::erase_if(paths, [&](const std::string& p) {
    return std::any_of(excludes.begin(), excludes.end(),
                       [&](const std::string& sub) {
                         return p.find(sub) != std::string::npos;
                       });
  });
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<paraio::lint::SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& p : paths) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      std::cerr << "paraio_lint: cannot read " << p << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back({p, buf.str()});
  }

  std::vector<paraio::lint::BaselineEntry> baseline;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path, std::ios::binary);
    if (!in) {
      std::cerr << "paraio_lint: cannot read baseline " << baseline_path
                << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    baseline = paraio::lint::parse_baseline(buf.str());
  }

  paraio::lint::AnalysisStats analysis_stats;
  const auto index = paraio::lint::index_project(files, &analysis_stats);
  paraio::lint::LintRunStats stats;
  std::vector<Finding> all;
  for (const auto& file : files) {
    for (Finding& f :
         paraio::lint::lint_file(file, index, options, &stats)) {
      all.push_back(std::move(f));
    }
  }
  // A header linted through several translation units reports each site
  // once: dedupe before the baseline is matched or anything is emitted.
  paraio::lint::dedupe_findings(&all);

  std::vector<paraio::lint::BaselineEntry> stale;
  if (!baseline_path.empty()) {
    stale = paraio::lint::apply_baseline(baseline, &all);
  }

  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t suppressed = 0;
  std::size_t baselined = 0;
  for (const Finding& f : all) {
    if (f.suppressed) {
      ++suppressed;
      continue;
    }
    if (f.baselined) {
      ++baselined;
      continue;
    }
    const bool is_error = f.severity == Severity::kError;
    (is_error ? errors : warnings) += 1;
    std::cout << f.file << ":" << f.line << ":" << (f.col == 0 ? 1 : f.col)
              << ": " << (is_error ? "error" : "warning") << ": [" << f.check
              << "] " << f.message << "\n";
  }
  for (const auto& entry : stale) {
    std::cerr << "paraio_lint: stale baseline entry: " << entry.rule << " @ "
              << entry.uri << " matches no current finding; delete it from "
              << baseline_path << "\n";
  }
  std::cerr << "paraio_lint: " << files.size() << " file(s), "
            << stats.functions << " function(s), " << stats.dataflow_solves
            << " dataflow solve(s), " << errors << " error(s), " << warnings
            << " warning(s), " << suppressed << " suppressed, " << baselined
            << " baselined\n";
  if (print_stats) {
    std::cerr << "paraio_lint: pass timings: index "
              << analysis_stats.index_ms << " ms, cfg "
              << analysis_stats.cfg_ms << " ms, summaries "
              << analysis_stats.summary_ms << " ms\n"
              << "paraio_lint: call graph: " << analysis_stats.call_graph_fns
              << " function(s), " << analysis_stats.call_graph_edges
              << " edge(s), " << analysis_stats.unresolved_calls
              << " unresolved call(s), " << analysis_stats.scc_count
              << " SCC(s), max fixpoint iterations "
              << analysis_stats.max_fixpoint_iterations << "\n";
  }
  if (stats.dataflow_bailouts > 0) {
    std::cerr << "paraio_lint: internal error: " << stats.dataflow_bailouts
              << " dataflow solve(s) hit the iteration cap before fixpoint "
                 "(non-monotone transfer?)\n";
    return kExitInternalError;
  }
  if (!sarif_path.empty()) {
    const std::string sarif = paraio::lint::to_sarif(all);
    std::string why;
    if (!paraio::obs::validate_json(sarif, &why)) {
      std::cerr << "paraio_lint: internal error: SARIF output is not valid "
                   "JSON: "
                << why << "\n";
      return kExitInternalError;
    }
    std::ofstream out(sarif_path, std::ios::binary);
    out << sarif << "\n";
    if (!out) {
      std::cerr << "paraio_lint: cannot write " << sarif_path << "\n";
      return kExitInternalError;
    }
  }
  if (errors > 0 || (werror && warnings > 0) || !stale.empty()) {
    return kExitFindings;
  }
  return kExitClean;
}
