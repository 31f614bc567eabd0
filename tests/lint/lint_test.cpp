// Unit tests for the paraio-lint check implementations.  Each seeded fixture
// under tests/lint/fixtures/ carries a known number of violations per check
// id (plus one suppressed instance), and clean.cc must produce none.
#include "paraio_lint/lint.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "paraio_lint/baseline.hpp"
#include "paraio_lint/sarif.hpp"

namespace {

using paraio::lint::Finding;
using paraio::lint::Options;
using paraio::lint::ProjectIndex;
using paraio::lint::Severity;
using paraio::lint::SourceFile;

SourceFile load_fixture(const std::string& relative) {
  const std::string path =
      std::string(PARAIO_LINT_FIXTURE_DIR) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return SourceFile{path, buffer.str()};
}

struct Tally {
  int active = 0;
  int suppressed = 0;
};

Tally tally(const std::vector<Finding>& findings, const std::string& check) {
  Tally t;
  for (const auto& f : findings) {
    if (check != f.check) continue;
    (f.suppressed ? t.suppressed : t.active)++;
  }
  return t;
}

std::vector<Finding> lint_fixture(const std::string& relative) {
  const SourceFile file = load_fixture(relative);
  const std::vector<SourceFile> files = {file};
  const ProjectIndex index = paraio::lint::index_project(files);
  return paraio::lint::lint_file(file, index, Options{});
}

TEST(LintFixtures, UnorderedIterSeededCounts) {
  const auto findings = lint_fixture("unordered_iter.cc");
  const Tally t = tally(findings, "unordered-iter");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, UnknownSuppressionSeededCounts) {
  const auto findings = lint_fixture("unknown_suppression.cc");
  const Tally unknown = tally(findings, "unknown-suppression");
  EXPECT_EQ(unknown.active, 3);
  EXPECT_EQ(unknown.suppressed, 0);
  // The catalog id next to the misspelled one still suppresses.
  const Tally clock = tally(findings, "wall-clock");
  EXPECT_EQ(clock.active, 0);
  EXPECT_EQ(clock.suppressed, 1);
  std::vector<std::pair<std::size_t, std::string>> where;
  for (const Finding& f : findings) {
    if (std::string(f.check) != "unknown-suppression") continue;
    EXPECT_NE(f.file.find("unknown_suppression.cc"), std::string::npos);
    where.emplace_back(f.line, f.message);
  }
  ASSERT_EQ(where.size(), 3u);
  EXPECT_EQ(where[0].first, 8u);
  EXPECT_NE(where[0].second.find("'discarded-task'"), std::string::npos);
  EXPECT_EQ(where[1].first, 9u);
  EXPECT_NE(where[1].second.find("'wall-clok'"), std::string::npos);
  EXPECT_EQ(where[2].first, 11u);
  EXPECT_NE(where[2].second.find("'lock-ordr'"), std::string::npos);
}

TEST(LintFixtures, WallClockSeededCounts) {
  const auto findings = lint_fixture("wall_clock.cc");
  const Tally t = tally(findings, "wall-clock");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, RawRandomSeededCounts) {
  const auto findings = lint_fixture("raw_random.cc");
  const Tally t = tally(findings, "raw-random");
  EXPECT_EQ(t.active, 3);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, PtrKeyOrderSeededCounts) {
  const auto findings = lint_fixture("ptr_key.cc");
  const Tally t = tally(findings, "ptr-key-order");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
  for (const auto& f : findings) {
    if (std::string("ptr-key-order") == f.check) {
      EXPECT_EQ(f.severity, Severity::kWarning);
    }
  }
}

TEST(LintFixtures, CoroLambdaCaptureSeededCounts) {
  const auto findings = lint_fixture("coro_capture.cc");
  const Tally t = tally(findings, "coro-lambda-capture");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, SwallowedIoErrorSeededCounts) {
  const auto findings = lint_fixture("swallowed_io_error.cc");
  const Tally t = tally(findings, "swallowed-io-error");
  EXPECT_EQ(t.active, 3);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintIndex, OutcomeReturningFunctionsIndexed) {
  const SourceFile file = load_fixture("swallowed_io_error.cc");
  const ProjectIndex index = paraio::lint::index_project({file});
  EXPECT_TRUE(index.outcome_fns.contains("access"));
  EXPECT_TRUE(index.outcome_fns.contains("flush"));
  // Value uses of an Outcome type are not declarations.
  EXPECT_FALSE(index.outcome_fns.contains("r"));
  EXPECT_FALSE(index.outcome_fns.contains("drive"));
}

TEST(LintFixtures, LayeringLowLayerSeededCounts) {
  const auto findings = lint_fixture("src/sim/bad_layering.hpp");
  const Tally t = tally(findings, "layering");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, LayeringObsSeededCounts) {
  const auto findings = lint_fixture("src/obs/bad_layering.hpp");
  const Tally t = tally(findings, "layering");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, LayeringAppsFacadeSeededCounts) {
  const auto findings = lint_fixture("src/apps/bad_hw.cc");
  const Tally t = tally(findings, "layering");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

// Satellite regression: containers that are unordered only through a
// `using`/`typedef` alias (including an alias of an alias) used to slip
// past the check entirely.
TEST(LintFixtures, UnorderedAliasSeededCounts) {
  const auto findings = lint_fixture("unordered_alias.cc");
  const Tally t = tally(findings, "unordered-iter");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, CaptureEscapeSeededCounts) {
  const auto findings = lint_fixture("capture_escape.cc");
  const Tally t = tally(findings, "capture-escape");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, SuspensionLifetimeSeededCounts) {
  const auto findings = lint_fixture("suspension_lifetime.cc");
  const Tally t = tally(findings, "suspension-lifetime");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, LockAcrossSuspensionSeededCounts) {
  const auto findings = lint_fixture("lock_suspension.cc");
  const Tally t = tally(findings, "lock-across-suspension");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, DeterminismTaintSeededCounts) {
  const auto findings = lint_fixture("determinism_taint.cc");
  const Tally t = tally(findings, "determinism-taint");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

// Shared helper for the flow-sensitive column tests: collect the text each
// active finding's column points at within its line.
std::vector<std::string> active_tokens_at_columns(const std::string& fixture,
                                                  const std::string& check) {
  const SourceFile file = load_fixture(fixture);
  const std::vector<SourceFile> files = {file};
  const ProjectIndex index = paraio::lint::index_project(files);
  const auto findings = paraio::lint::lint_file(file, index, Options{});

  std::vector<std::string> lines;
  std::stringstream text(file.content);
  for (std::string line; std::getline(text, line);) lines.push_back(line);

  std::vector<std::string> tokens;
  for (const auto& f : findings) {
    if (check != f.check || f.suppressed) continue;
    EXPECT_GE(f.line, 1u);
    EXPECT_LE(f.line, lines.size());
    EXPECT_GE(f.col, 1u);
    tokens.push_back(lines[f.line - 1].substr(f.col - 1));
  }
  return tokens;
}

// suspension-lifetime anchors on the dangling name's first post-suspension
// use, not on the co_await.
TEST(LintFixtures, SuspensionLifetimeColumnsPointAtDanglingName) {
  const auto tokens = active_tokens_at_columns("suspension_lifetime.cc",
                                               "suspension-lifetime");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].rfind("cfg", 0), 0u) << tokens[0];
  EXPECT_EQ(tokens[1].rfind("stop", 0), 0u) << tokens[1];
}

// lock-across-suspension anchors on the suspension point reached while the
// lock is (or may be) held.
TEST(LintFixtures, LockAcrossSuspensionColumnsPointAtSuspension) {
  const auto tokens = active_tokens_at_columns("lock_suspension.cc",
                                               "lock-across-suspension");
  ASSERT_EQ(tokens.size(), 2u);
  for (const auto& at : tokens) {
    EXPECT_EQ(at.rfind("co_await", 0), 0u) << at;
  }
}

// determinism-taint anchors on the sink call that observes the tainted
// value.
TEST(LintFixtures, DeterminismTaintColumnsPointAtSink) {
  const auto tokens = active_tokens_at_columns("determinism_taint.cc",
                                               "determinism-taint");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].rfind("emit", 0), 0u) << tokens[0];
  EXPECT_EQ(tokens[1].rfind("add", 0), 0u) << tokens[1];
}

// --- Interprocedural fixtures (function summaries) -----------------------

// The caller never reads the reference after its own suspension — the read
// happens inside the callee's frame, visible only through the escape
// summary (directly, and transitively through a forwarder).
TEST(LintFixtures, InterprocLifetimeSeededCounts) {
  const auto findings = lint_fixture("interproc_lifetime.cc");
  const Tally t = tally(findings, "suspension-lifetime");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

// Interprocedural findings anchor on the argument handed to the escaping
// callee, not on the call keyword.
TEST(LintFixtures, InterprocLifetimeColumnsPointAtArgument) {
  const auto tokens = active_tokens_at_columns("interproc_lifetime.cc",
                                               "suspension-lifetime");
  ASSERT_EQ(tokens.size(), 2u);
  for (const auto& at : tokens) {
    EXPECT_EQ(at.rfind("cfg", 0), 0u) << at;
  }
}

// Acquisition and release live inside grab()/drop(); only the net-lock
// summaries connect the held region to the later parking co_await — and
// awaiting a proven never-suspending coroutine is exempt.
TEST(LintFixtures, InterprocLockSeededCounts) {
  const auto findings = lint_fixture("interproc_lock.cc");
  const Tally t = tally(findings, "lock-across-suspension");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, InterprocLockColumnsPointAtSuspension) {
  const auto tokens = active_tokens_at_columns("interproc_lock.cc",
                                               "lock-across-suspension");
  ASSERT_EQ(tokens.size(), 2u);
  for (const auto& at : tokens) {
    EXPECT_EQ(at.rfind("co_await", 0), 0u) << at;
  }
}

// Taint enters through callees only: a returns-tainted helper feeding a
// sink argument, and a tainted out-parameter carried to a later sink.
TEST(LintFixtures, InterprocTaintSeededCounts) {
  const auto findings = lint_fixture("interproc_taint.cc");
  const Tally t = tally(findings, "determinism-taint");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
  // The returns-tainted path names the callee and its source in the report.
  bool named = false;
  for (const auto& f : findings) {
    if (!f.suppressed && f.check == std::string("determinism-taint") &&
        f.message.find("ticket()") != std::string::npos &&
        f.message.find("wall-clock") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named);
}

TEST(LintFixtures, InterprocTaintColumnsPointAtSink) {
  const auto tokens = active_tokens_at_columns("interproc_taint.cc",
                                               "determinism-taint");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].rfind("emit", 0), 0u) << tokens[0];
  EXPECT_EQ(tokens[1].rfind("schedule", 0), 0u) << tokens[1];
}

// blocking-loop-in-coroutine: an unbounded loop whose every co_await is a
// proven never-suspending coroutine (or that never awaits at all) starves
// the cooperative event loop; awaiting an opaque callee is assumed to park.
TEST(LintFixtures, BlockingLoopSeededCounts) {
  const auto findings = lint_fixture("blocking_loop.cc");
  const Tally t = tally(findings, "blocking-loop-in-coroutine");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
  for (const auto& f : findings) {
    if (std::string("blocking-loop-in-coroutine") == f.check) {
      EXPECT_EQ(f.severity, Severity::kError);
    }
  }
}

TEST(LintFixtures, BlockingLoopColumnsPointAtLoopKeyword) {
  const auto tokens = active_tokens_at_columns("blocking_loop.cc",
                                               "blocking-loop-in-coroutine");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].rfind("while", 0), 0u) << tokens[0];
  EXPECT_EQ(tokens[1].rfind("for", 0), 0u) << tokens[1];
}

// The three PR-7 intraprocedural fixtures must produce IDENTICAL findings
// under the four-pass pipeline: their callees are declared-but-undefined,
// so every summary is havoc and no summary-driven leg may add or remove
// anything.  (The exact-count tests above pin the totals; this pins the
// absence of *new* interprocedural findings in them.)
TEST(LintFixtures, IntraproceduralFixturesUnchangedBySummaries) {
  for (const char* fixture : {"suspension_lifetime.cc", "lock_suspension.cc",
                              "determinism_taint.cc"}) {
    const auto findings = lint_fixture(fixture);
    int flow = 0;
    for (const auto& f : findings) {
      if (f.check == std::string("suspension-lifetime") ||
          f.check == std::string("lock-across-suspension") ||
          f.check == std::string("determinism-taint")) {
        ++flow;
        // No summary-leg message shapes in the intraprocedural fixtures.
        EXPECT_EQ(f.message.find("passed to"), std::string::npos) << fixture;
        EXPECT_EQ(f.message.find("whose result derives"), std::string::npos)
            << fixture;
      }
    }
    EXPECT_EQ(flow, 3) << fixture;  // 2 active + 1 suppressed, no dupes
  }
}

// --- Deduplication --------------------------------------------------------

// Findings identical on (check, file, line, col) collapse to one, and an
// active finding always survives a suppressed/baselined duplicate.
TEST(LintDedupe, CollapsesDuplicatesActiveWins) {
  paraio::lint::Finding active{"a.cc", 3, 5, "wall-clock",
                               Severity::kWarning, "m1", false, false};
  paraio::lint::Finding suppressed = active;
  suppressed.suppressed = true;
  paraio::lint::Finding other = active;
  other.line = 4;

  // Suppressed copy first: the later active duplicate must replace it.
  std::vector<Finding> findings = {suppressed, active, other};
  paraio::lint::dedupe_findings(&findings);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_FALSE(findings[0].suppressed);
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_EQ(findings[1].line, 4u);

  // Active first: the suppressed duplicate is simply dropped.
  std::vector<Finding> reversed = {active, suppressed, other};
  paraio::lint::dedupe_findings(&reversed);
  ASSERT_EQ(reversed.size(), 2u);
  EXPECT_FALSE(reversed[0].suppressed);
}

// The regression dedupe guards against: a header linted through several
// translation units reports each site once.
TEST(LintDedupe, HeaderFindingsAcrossTusCollapse) {
  const SourceFile header{
      "fake/clock.hpp",
      "#include <chrono>\n"
      "inline double wall() {\n"
      "  return static_cast<double>(\n"
      "      std::chrono::system_clock::now().time_since_epoch().count());\n"
      "}\n"};
  const std::vector<SourceFile> files = {header};
  const ProjectIndex index = paraio::lint::index_project(files);
  std::vector<Finding> all;
  // Simulate two TUs both pulling in the header's findings.
  for (int tu = 0; tu < 2; ++tu) {
    for (Finding& f : paraio::lint::lint_file(header, index, Options{})) {
      all.push_back(std::move(f));
    }
  }
  const std::size_t doubled = all.size();
  ASSERT_GT(doubled, 0u);
  paraio::lint::dedupe_findings(&all);
  EXPECT_EQ(all.size(), doubled / 2);
}

// --- Exit codes and --check-docs ------------------------------------------

// The exit-code contract is stable API: scripts and CI match on it.
TEST(LintExitCodes, StableValues) {
  EXPECT_EQ(paraio::lint::kExitClean, 0);
  EXPECT_EQ(paraio::lint::kExitFindings, 1);
  EXPECT_EQ(paraio::lint::kExitInternalError, 2);
}

// check_docs_text returns kExitClean on a doc covering the whole catalog
// (check ids and CLI flags) and kExitFindings on drift, in both directions
// for both lists.
TEST(LintExitCodes, CheckDocsTextTwoWayGate) {
  std::string complete;
  for (const auto& c : paraio::lint::checks()) {
    complete += "| `" + std::string(c.id) + "` | ... |\n";
  }
  for (const char* flag : paraio::lint::cli_flags()) {
    complete += "* `" + std::string(flag) + "` — ...\n";
  }
  std::ostringstream quiet;
  EXPECT_EQ(paraio::lint::check_docs_text(complete, "doc.md", quiet),
            paraio::lint::kExitClean);
  EXPECT_NE(quiet.str().find("in sync"), std::string::npos);

  std::ostringstream missing_err;
  EXPECT_EQ(paraio::lint::check_docs_text("", "doc.md", missing_err),
            paraio::lint::kExitFindings);
  EXPECT_NE(missing_err.str().find("not documented"), std::string::npos);

  std::ostringstream unknown_err;
  EXPECT_EQ(paraio::lint::check_docs_text(
                complete + "| `no-such-check` | bogus |\n", "doc.md",
                unknown_err),
            paraio::lint::kExitFindings);
  EXPECT_NE(unknown_err.str().find("unknown check"), std::string::npos);

  // Flag drift, both directions: a doc missing one parsed flag, and a doc
  // mentioning a flag the driver no longer parses.
  std::string missing_flag = complete;
  const std::string stats_line = "* `--stats` — ...\n";
  missing_flag.erase(missing_flag.find(stats_line), stats_line.size());
  std::ostringstream flag_err;
  EXPECT_EQ(paraio::lint::check_docs_text(missing_flag, "doc.md", flag_err),
            paraio::lint::kExitFindings);
  EXPECT_NE(flag_err.str().find("flag '--stats'"), std::string::npos);

  std::ostringstream stale_err;
  EXPECT_EQ(paraio::lint::check_docs_text(
                complete + "and pass `--no-such-flag=1` for speed\n", "doc.md",
                stale_err),
            paraio::lint::kExitFindings);
  EXPECT_NE(stale_err.str().find("unknown flag '--no-such-flag'"),
            std::string::npos);
}

// Findings carry precise 1-based columns pointing at the offending token,
// not just a line number.
TEST(LintFixtures, FindingsCarryColumns) {
  const SourceFile file = load_fixture("unordered_alias.cc");
  const std::vector<SourceFile> files = {file};
  const ProjectIndex index = paraio::lint::index_project(files);
  const auto findings = paraio::lint::lint_file(file, index, Options{});

  std::vector<std::string> lines;
  std::stringstream text(file.content);
  for (std::string line; std::getline(text, line);) lines.push_back(line);

  int checked = 0;
  for (const auto& f : findings) {
    if (std::string("unordered-iter") != f.check || f.suppressed) continue;
    ASSERT_GE(f.line, 1u);
    ASSERT_LE(f.line, lines.size());
    ASSERT_GE(f.col, 1u);
    const std::string& line = lines[f.line - 1];
    // The column lands exactly on the iterated container's name.
    const std::string at = line.substr(f.col - 1);
    EXPECT_TRUE(at.rfind("peers_", 0) == 0 || at.rfind("blocks_", 0) == 0)
        << "col " << f.col << " points at: " << at;
    ++checked;
  }
  EXPECT_EQ(checked, 2);
}

TEST(LintFixtures, CleanExemplarHasNoFindings) {
  const auto findings = lint_fixture("clean.cc");
  EXPECT_TRUE(findings.empty()) << "unexpected finding: "
                                << (findings.empty()
                                        ? ""
                                        : findings.front().message);
}

// Disabling a check id via Options removes its findings entirely (they are
// not even reported as suppressed).
TEST(LintOptions, DisabledCheckProducesNothing) {
  const SourceFile file = load_fixture("wall_clock.cc");
  const std::vector<SourceFile> files = {file};
  const ProjectIndex index = paraio::lint::index_project(files);
  Options options;
  options.disabled.insert("wall-clock");
  const auto findings =
      paraio::lint::lint_file(file, index, options);
  EXPECT_EQ(tally(findings, "wall-clock").active, 0);
  EXPECT_EQ(tally(findings, "wall-clock").suppressed, 0);
}

// The cross-file index recognizes a member declared unordered in a header
// when a different file iterates it.
TEST(LintIndex, UnorderedMemberRecognizedAcrossFiles) {
  const SourceFile header{
      "fake/cache.hpp",
      "#include <unordered_map>\n"
      "struct Cache { std::unordered_map<int, int> entries_; };\n"};
  const SourceFile source{
      "fake/cache.cpp",
      "#include \"cache.hpp\"\n"
      "int sum(Cache& c) {\n"
      "  int acc = 0;\n"
      "  for (const auto& [k, v] : c.entries_) acc += v;\n"
      "  return acc;\n"
      "}\n"};
  const std::vector<SourceFile> files = {header, source};
  const ProjectIndex index = paraio::lint::index_project(files);
  const auto findings =
      paraio::lint::lint_file(source, index, Options{});
  EXPECT_EQ(tally(findings, "unordered-iter").active, 1);
}

// SARIF export: valid JSON (checked with the same dependency-free validator
// the trace exporter uses), one rule per catalog entry, suppressed findings
// marked rather than dropped.
TEST(LintSarif, ExportIsValidJsonWithRulesAndSuppressions) {
  const SourceFile file = load_fixture("unordered_iter.cc");
  const std::vector<SourceFile> files = {file};
  const ProjectIndex index = paraio::lint::index_project(files);
  const auto findings = paraio::lint::lint_file(file, index, Options{});
  ASSERT_FALSE(findings.empty());

  const std::string sarif = paraio::lint::to_sarif(findings);
  std::string why;
  EXPECT_TRUE(paraio::obs::validate_json(sarif, &why)) << why;
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"unordered-iter\""), std::string::npos);
  for (const auto& check : paraio::lint::checks()) {
    EXPECT_NE(sarif.find("\"id\":\"" + std::string(check.id) + "\""),
              std::string::npos)
        << "catalog rule missing from SARIF: " << check.id;
  }
  // The fixture's allow() line becomes an inSource suppression.
  EXPECT_NE(sarif.find("\"suppressions\":[{\"kind\":\"inSource\"}]"),
            std::string::npos);
}

TEST(LintStrip, CommentsAndStringsBecomeSpaces) {
  const std::string stripped = paraio::lint::strip_comments_and_strings(
      "int a = 1; // rand()\n"
      "const char* s = \"system_clock\"; /* srand */ int b = 2;\n");
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("system_clock"), std::string::npos);
  EXPECT_NE(stripped.find("int b = 2;"), std::string::npos);
  // Line structure is preserved so findings keep their line numbers.
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'), 2);
}

TEST(LintCatalog, EveryCheckHasIdSummaryAndDetail) {
  const auto& catalog = paraio::lint::checks();
  EXPECT_EQ(catalog.size(), 13u);
  for (const auto& check : catalog) {
    EXPECT_NE(std::string(check.id), "");
    EXPECT_NE(std::string(check.summary), "");
    // --explain would print an empty rationale otherwise.
    EXPECT_NE(std::string(check.detail), "") << check.id;
  }
}

TEST(LintCatalog, FindCheckResolvesKnownAndRejectsUnknown) {
  const auto* known = paraio::lint::find_check("determinism-taint");
  ASSERT_NE(known, nullptr);
  EXPECT_EQ(std::string(known->id), "determinism-taint");
  EXPECT_EQ(paraio::lint::find_check("no-such-check"), nullptr);
  EXPECT_EQ(paraio::lint::find_check(""), nullptr);
}

// Baseline round trip: findings exported as SARIF, parsed back, and applied
// to the same findings mark every non-inline-suppressed one as baselined.
TEST(LintBaseline, RoundTripBaselinesEveryActiveFinding) {
  const SourceFile file = load_fixture("unordered_iter.cc");
  const std::vector<SourceFile> files = {file};
  const ProjectIndex index = paraio::lint::index_project(files);
  auto findings = paraio::lint::lint_file(file, index, Options{});
  ASSERT_FALSE(findings.empty());

  const std::string sarif = paraio::lint::to_sarif(findings);
  const auto entries = paraio::lint::parse_baseline(sarif);
  // Inline-suppressed findings are in the SARIF too, so entry count matches
  // the full finding list.
  ASSERT_EQ(entries.size(), findings.size());
  EXPECT_EQ(entries.front().rule, std::string(findings.front().check));
  EXPECT_EQ(entries.front().uri, findings.front().file);

  const auto stale = paraio::lint::apply_baseline(entries, &findings);
  for (const auto& f : findings) {
    if (f.suppressed) {
      EXPECT_FALSE(f.baselined);  // inline allow() wins over the baseline
    } else {
      EXPECT_TRUE(f.baselined) << f.message;
    }
  }
  // All entries here are the same (rule, file) pair, so the first soaks up
  // every hit and the duplicates come back stale.
  EXPECT_EQ(stale.size(), entries.size() - 1);
}

// An entry for a rule/file pair with no current finding is stale and must
// be reported (the caller fails the run until it is deleted).
TEST(LintBaseline, UnmatchedEntryIsStale) {
  const SourceFile file = load_fixture("unordered_iter.cc");
  const std::vector<SourceFile> files = {file};
  const ProjectIndex index = paraio::lint::index_project(files);
  auto findings = paraio::lint::lint_file(file, index, Options{});
  ASSERT_FALSE(findings.empty());

  std::vector<paraio::lint::BaselineEntry> entries = {
      {"wall-clock", "tests/lint/fixtures/unordered_iter.cc"}};
  const auto stale = paraio::lint::apply_baseline(entries, &findings);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rule, "wall-clock");
  for (const auto& f : findings) EXPECT_FALSE(f.baselined);
}

// Path matching allows a `/`-aligned suffix so a baseline recorded from the
// repo root still matches when the linter is invoked with absolute paths.
TEST(LintBaseline, PathSuffixSlackMatchesAbsoluteInvocation) {
  const SourceFile file = load_fixture("unordered_iter.cc");
  const std::vector<SourceFile> files = {file};
  const ProjectIndex index = paraio::lint::index_project(files);
  auto findings = paraio::lint::lint_file(file, index, Options{});
  ASSERT_FALSE(findings.empty());

  std::vector<paraio::lint::BaselineEntry> entries = {
      {findings.front().check, "fixtures/unordered_iter.cc"}};
  const auto stale = paraio::lint::apply_baseline(entries, &findings);
  EXPECT_TRUE(stale.empty());
  EXPECT_TRUE(findings.front().baselined);
  // But a non-`/`-aligned suffix ("_iter.cc") must not match.
  auto refreshed = paraio::lint::lint_file(file, index, Options{});
  std::vector<paraio::lint::BaselineEntry> partial = {
      {refreshed.front().check, "_iter.cc"}};
  const auto stale2 = paraio::lint::apply_baseline(partial, &refreshed);
  ASSERT_EQ(stale2.size(), 1u);
  EXPECT_FALSE(refreshed.front().baselined);
}

// The shipped baseline is intentionally empty: the tree lints clean, and
// the file exists only so `--baseline=` wiring stays exercised in CI.
TEST(LintBaseline, ShippedBaselineIsEmpty) {
  std::ifstream in(std::string(PARAIO_LINT_FIXTURE_DIR) +
                   "/../../../tools/paraio_lint/baseline.sarif");
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(paraio::lint::parse_baseline(buffer.str()).empty());
}

// SARIF results matched by a baseline carry an "external" suppression kind,
// distinct from the inline "inSource" kind.
TEST(LintBaseline, BaselinedFindingsExportExternalSuppression) {
  const SourceFile file = load_fixture("unordered_iter.cc");
  const std::vector<SourceFile> files = {file};
  const ProjectIndex index = paraio::lint::index_project(files);
  auto findings = paraio::lint::lint_file(file, index, Options{});
  ASSERT_FALSE(findings.empty());
  (void)paraio::lint::apply_baseline(
      paraio::lint::parse_baseline(paraio::lint::to_sarif(findings)),
      &findings);
  const std::string sarif = paraio::lint::to_sarif(findings);
  EXPECT_NE(sarif.find("\"suppressions\":[{\"kind\":\"external\"}]"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"suppressions\":[{\"kind\":\"inSource\"}]"),
            std::string::npos);
}

}  // namespace
