// Pass 3 of the linter, part two: bottom-up function summaries over the
// call graph's SCC condensation.
//
// Each function body is abstracted once into a FunctionSummary the flow
// checks can consult at call sites:
//
//   * may_suspend      — the body can actually park the coroutine: it
//     co_yields, or co_awaits something that is not provably a
//     never-suspending coroutine (resolved, coroutine body, !may_suspend).
//   * net locks        — sim::Mutex acquisitions still held when the
//     function returns (and releases with no matching acquisition), by
//     parameter index or by member/global name, so `co_await grab(mu_)`
//     extends the caller's held set and `drop(mu_)` shrinks it.
//   * taint transfer   — the return value derives from a nondeterminism
//     source (directly or through callees), and by-reference parameters
//     the body writes tainted data into.
//   * escaping params  — reference/pointer parameters read on a path after
//     a suspension point of the callee (or handed further down a call
//     chain that does), so a detached coroutine passing its reference into
//     the callee dangles even though its own CFG shows no use-after-await.
//
// Summaries are computed over SCCs in bottom-up order with a fixpoint per
// SCC, so mutual recursion converges; each property starts optimistic
// (false/empty) and only grows.
//
// Unresolved call targets (std::, declared-but-undefined externs) get the
// *havoc* summary: no information.  Havoc is pessimistic where pessimism is
// cheap and checkable — an unknown awaitable is assumed to park, which is
// what keeps `co_await engine.delay(...)` counting as a real suspension —
// and deliberately empty everywhere else: claiming that every unknown
// callee leaks references, taints its return, or holds locks would flag
// essentially every call site in the tree, so those facts are only ever
// derived from bodies the linter has actually seen.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "paraio_lint/callgraph.hpp"

namespace paraio::lint {

struct FunctionSummary {
  bool havoc = false;      // unresolved target: no body to summarize
  bool coroutine = false;  // body contains co_await/co_yield/co_return
  bool may_suspend = false;

  bool returns_tainted = false;
  std::string taint_label;  // source description when returns_tainted
  std::set<int> tainted_out_params;  // by-ref params written tainted

  std::set<int> escaping_params;  // ref/ptr params read past a suspension

  // Net lock effect on return (see header comment).
  std::set<int> lock_acquire_params;
  std::set<std::string> lock_acquire_names;
  std::set<int> lock_release_params;
  std::set<std::string> lock_release_names;
};

struct SummaryStats {
  std::size_t sccs = 0;
  std::size_t max_fixpoint_iterations = 0;  // worst SCC, in passes
};

/// The no-information summary handed out for unresolved call targets.
FunctionSummary havoc_summary();

/// Summaries indexed like `graph.fns`, computed bottom-up over the SCCs.
std::vector<FunctionSummary> compute_summaries(
    const CallGraph& graph, const std::vector<FileAnalysis>& files,
    SummaryStats* stats = nullptr);

/// Merged summary for a call to `name`: the union over the overload set
/// (overload-set conservatism), or havoc when the name resolves to nothing.
FunctionSummary summary_for_call(const CallGraph& graph,
                                 const std::vector<FunctionSummary>& summaries,
                                 const std::string& name);

/// Whether the `co_await` at `pos` in `text` can actually park the
/// coroutine.  False only for an awaited call to a resolved function whose
/// every overload is a coroutine with may_suspend == false (e.g. a helper
/// that only co_returns): awaiting those completes synchronously, which is
/// what makes a `while (true) { co_await noop(); }` loop a livelock.
bool awaited_expr_may_suspend(const std::string& text, std::size_t pos,
                              const CallGraph& graph,
                              const std::vector<FunctionSummary>& summaries);

}  // namespace paraio::lint
