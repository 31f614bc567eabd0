// paraio-lint: project-specific static analysis for the paraio tree.
//
// A deliberately small, token/heuristic-based linter (no libclang): it knows
// nothing about C++ semantics beyond comment/string stripping, balanced
// template arguments, and line structure, but that is enough to catch the
// bug classes that break the golden-trace guarantee and that neither the
// compiler nor the runtime detectors see:
//
//   * determinism hazards  — iteration over unordered containers in
//     trace-affecting code, wall-clock reads, raw libc randomness,
//     pointer-keyed ordered containers, and nondeterministic values
//     flowing into trace sinks;
//   * coroutine-lifetime hazards — captures in coroutine lambdas,
//     stack-local references escaping into detached coroutines, references
//     read after a suspension, discarded co_awaited I/O outcomes;
//   * scheduling hazards — a mutex held across a suspension, a coroutine
//     loop that never parks;
//   * layering violations — a lower simulator layer including a higher one,
//     or apps reaching past the hw::Machine facade into device internals.
//
// Discarded Tasks and awaitables are left to the compiler ([[nodiscard]]),
// lock-order and channel deadlocks to sim::DeadlockDetector.
//
// The linter runs in four passes.  Pass 1 (index_project) builds a
// whole-program symbol table: container variables declared unordered
// anywhere (including through `using`/`typedef` aliases), functions
// returning a typed I/O outcome, and the names of coroutines handed to
// detached spawns.  Pass 2 builds a per-function statement-level
// control-flow graph (cfg.hpp) and runs forward dataflow over it
// (dataflow.hpp).  Pass 3 builds a whole-program call graph over those
// CFGs (callgraph.hpp) and computes bottom-up function summaries over its
// SCC condensation (summaries.hpp) — may-suspend, net lock effect, taint
// transfer, parameter escape.  Pass 4 (lint_file) applies the per-file
// checks — token-level and flow-sensitive, summary-aware at call sites —
// against that global knowledge, so a reference read after a co_await is
// only flagged when a suspension actually dominates it, and a lock handed
// to a suspending callee is still seen.
//
// Findings print in compiler format (`file:line:col: error: [id] message`)
// and can be suppressed per line with `// paraio-lint: allow(<id>[,<id>...])`.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "paraio_lint/callgraph.hpp"
#include "paraio_lint/summaries.hpp"

namespace paraio::lint {

enum class Severity { kWarning, kError };

/// Process exit codes, stable across releases (documented in LINTING.md):
/// clean (0), findings/doc-drift (1), usage or internal error (2).
enum ExitCode : int {
  kExitClean = 0,
  kExitFindings = 1,
  kExitInternalError = 2,
};

/// One registered check.  Ids are stable and documented in docs/LINTING.md
/// (the `--check-docs` gate keeps the two in sync).
struct CheckInfo {
  const char* id;
  Severity severity;
  const char* summary;
  const char* detail;  // multi-sentence rationale, shown by `--explain <id>`
};

/// Catalog of every check the linter knows, in reporting order.
const std::vector<CheckInfo>& checks();

/// Catalog of every CLI flag the driver (main.cpp) parses, without the
/// `=value` suffix.  `--check-docs` holds docs/LINTING.md to this list the
/// same way it holds it to the check catalog, so a renamed or removed flag
/// cannot leave stale documentation behind.
const std::vector<const char*>& cli_flags();

/// Catalog entry for `id`, or nullptr for an unknown id.
const CheckInfo* find_check(std::string_view id);

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::size_t col = 0;   // 1-based; 0 when only the line is known
  const char* check = "";
  Severity severity = Severity::kError;
  std::string message;
  bool suppressed = false;  // inline `// paraio-lint: allow(...)`
  bool baselined = false;   // matched a `--baseline=` SARIF entry
};

/// One source file loaded into memory.
struct SourceFile {
  std::string path;     // as given on the command line (used in findings)
  std::string content;  // raw bytes
};

/// Cross-file facts gathered in a first pass over the whole input set.
struct ProjectIndex {
  /// Container variables (and type aliases, resolved to fixpoint) declared
  /// unordered anywhere, so a member declared in a header is recognized when
  /// its .cpp iterates it.
  std::set<std::string> unordered_names;

  /// Whole-program names of functions whose declared return type is (or
  /// wraps, as in sim::Task<io::IoOutcome>) an identifier ending in
  /// "Outcome" — the typed I/O error channel a call site must inspect.
  std::set<std::string> outcome_fns;

  /// Names of coroutines handed to a *detached* spawn
  /// (`engine.spawn(name(...))` / `spawn_daemon(name(...))`) anywhere in
  /// the tree.  Their frames outlive the caller's stack, so the
  /// suspension-lifetime check treats their reference/pointer parameters
  /// as dangling once a suspension point has passed.
  std::set<std::string> detached_fns;

  /// Pass 3 artifacts: the whole-program call graph and one
  /// FunctionSummary per call-graph function (indexed like
  /// `call_graph.fns`).
  CallGraph call_graph;
  std::vector<FunctionSummary> summaries;
};

struct Options {
  std::set<std::string> disabled;  // check ids turned off globally
};

/// Aggregate statistics for one lint run, accumulated across files by the
/// driver.  `dataflow_bailouts` must stay zero: a capped solve means a
/// non-monotone transfer function (a linter bug), and the driver reports it
/// as an internal error rather than shipping a silently-truncated analysis.
struct LintRunStats {
  std::size_t functions = 0;         // function CFGs built
  std::size_t dataflow_solves = 0;   // fixpoint solves run
  std::size_t dataflow_bailouts = 0; // solves stopped by the iteration cap
};

/// Whole-program analysis statistics for `--stats`: per-pass wall time and
/// the call-graph/summary shape.
struct AnalysisStats {
  double index_ms = 0.0;    // pass 1: symbol index
  double cfg_ms = 0.0;      // pass 2: CFG construction (all files)
  double summary_ms = 0.0;  // pass 3: call graph + summaries
  std::size_t call_graph_fns = 0;
  std::size_t call_graph_edges = 0;
  std::size_t unresolved_calls = 0;
  std::size_t scc_count = 0;
  std::size_t max_fixpoint_iterations = 0;
};

/// Passes 1–3: build the cross-file index, the per-file CFGs, the call
/// graph, and the function summaries.
ProjectIndex index_project(const std::vector<SourceFile>& files,
                           AnalysisStats* stats = nullptr);

/// Pass 4: lint one file (CFG construction, dataflow, checks).
/// Returns every finding, including suppressed ones (callers count them
/// separately).  `stats`, when given, accumulates across calls.
std::vector<Finding> lint_file(const SourceFile& file,
                               const ProjectIndex& index,
                               const Options& options,
                               LintRunStats* stats = nullptr);

/// Collapses findings that share (check, file, line, col) — a header
/// linted through several translation units reports once.  Keeps the
/// first of each group (input order otherwise preserved); a suppressed or
/// baselined duplicate never shadows an active finding.
void dedupe_findings(std::vector<Finding>* findings);

/// The `--check-docs` two-way gate against an already-loaded document:
/// every catalog id must appear in `doc` as `` `id` `` and every
/// backticked token that looks like a check id must be in the catalog.
/// The CLI flag list (cli_flags()) is held to the same two-way contract.
/// Returns kExitClean or kExitFindings; drift details go to `err`.
int check_docs_text(const std::string& doc, const std::string& doc_name,
                    std::ostream& err);

/// Replaces comments, string literals, and char literals with spaces while
/// preserving line structure.  Exposed for tests.
std::string strip_comments_and_strings(const std::string& source);

}  // namespace paraio::lint
