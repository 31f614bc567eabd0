#include "paraio_lint/summaries.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "paraio_lint/dataflow.hpp"
#include "paraio_lint/taint_sources.hpp"
#include "paraio_lint/text.hpp"

namespace paraio::lint {

namespace {

using namespace paraio::lint::text;

constexpr std::size_t npos = std::string::npos;

// The summary fixpoint is monotone in every field except the net-lock
// subtraction, so a cap is belt-and-braces; hitting it just freezes the
// current (conservative-ish) values rather than failing the run.
constexpr std::size_t kSccIterationCap = 16;

/// `fn`'s body text, body-local offsets, nested function bodies blanked.
std::string masked_body(const FileAnalysis& file, const FunctionCfg& fn) {
  return masked_function_text(file.stripped, file.cfgs, fn);
}

struct LockSite {
  std::string name;      // receiver identifier (`mu_` in `mu_.lock()`)
  bool awaited = false;  // `co_await` earlier in the same sub-statement
};

/// Direct `recv.lock()` / `recv->lock()` / `recv.unlock()` sites in `body`.
void collect_lock_sites(const std::string& body, std::vector<LockSite>* acq,
                        std::vector<std::string>* rel) {
  for (std::string_view word : {"lock", "unlock"}) {
    for (const std::size_t pos : find_word(body, word)) {
      const std::size_t after = skip_spaces(body, pos + word.size());
      if (after >= body.size() || body[after] != '(') continue;
      if (pos == 0) continue;
      std::size_t recv_end = npos;
      if (body[pos - 1] == '.') {
        recv_end = pos - 1;
      } else if (pos >= 2 && body[pos - 2] == '-' && body[pos - 1] == '>') {
        recv_end = pos - 2;
      }
      if (recv_end == npos || recv_end == 0) continue;
      const std::size_t ident_last = prev_nonspace(body, recv_end);
      if (ident_last == npos || !is_ident(body[ident_last])) continue;
      const std::string name = read_ident_backward(body, ident_last);
      if (name.empty() || name == "this") continue;
      if (word == "unlock") {
        rel->push_back(name);
        continue;
      }
      LockSite site;
      site.name = name;
      const std::size_t stmt = body.find_last_of(";{}", pos);
      const std::size_t from = stmt == npos ? 0 : stmt + 1;
      site.awaited = body.substr(from, pos - from).find("co_await") != npos;
      acq->push_back(site);
    }
  }
}

struct Assign {
  std::string lhs;   // trailing identifier of the assigned expression
  std::string base;  // leading identifier (`cfg` in `cfg.budget = ...`)
  bool compound = false;  // += and friends: never kills
  std::size_t rhs_lo = 0;
  std::size_t rhs_hi = 0;
};

/// Leading identifier of an lvalue expression, skipping `*`, `(`, `&`.
std::string leading_ident(const std::string& expr) {
  std::size_t p = 0;
  while (p < expr.size() &&
         (expr[p] == ' ' || expr[p] == '\t' || expr[p] == '\n' ||
          expr[p] == '*' || expr[p] == '(' || expr[p] == '&')) {
    ++p;
  }
  if (p >= expr.size() || !is_ident_start(expr[p])) return "";
  return read_ident(expr, p);
}

/// Assignments in `body`, one fragment per ';'-delimited piece (for-headers
/// split into their clauses, which is harmless: each clause is scanned on
/// its own).
std::vector<Assign> collect_assigns(const std::string& body) {
  std::vector<Assign> assigns;
  std::size_t frag_lo = 0;
  for (std::size_t i = 0; i <= body.size(); ++i) {
    if (i < body.size() && body[i] != ';') continue;
    const std::size_t frag_hi = i;
    // First '=' at paren/bracket depth 0 that is not a comparison.
    int depth = 0;
    std::size_t eq = npos;
    for (std::size_t j = frag_lo; j < frag_hi; ++j) {
      const char c = body[j];
      if (c == '(' || c == '[') ++depth;
      if (c == ')' || c == ']') --depth;
      if (c != '=' || depth != 0) continue;
      if (j + 1 < frag_hi && body[j + 1] == '=') {
        ++j;
        continue;
      }
      if (j > frag_lo && (body[j - 1] == '=' || body[j - 1] == '!' ||
                          body[j - 1] == '<' || body[j - 1] == '>')) {
        continue;
      }
      eq = j;
      break;
    }
    frag_lo = i + 1;
    if (eq == npos) continue;
    Assign a;
    std::size_t lhs_hi = eq;
    if (eq > 0 && std::string("+-*/%&|^").find(body[eq - 1]) != npos) {
      a.compound = true;
      lhs_hi = eq - 1;
    }
    const std::size_t lo = body.find_last_of(";{}", eq) == npos
                               ? 0
                               : body.find_last_of(";{}", eq) + 1;
    const std::string lhs_text = body.substr(lo, lhs_hi - lo);
    a.lhs = trailing_ident(lhs_text);
    a.base = leading_ident(lhs_text);
    a.rhs_lo = eq + 1;
    a.rhs_hi = frag_hi;
    if (a.lhs.empty()) continue;
    assigns.push_back(std::move(a));
  }
  return assigns;
}

/// `return` / `co_return` expression ranges in `body`.
std::vector<std::pair<std::size_t, std::size_t>> collect_returns(
    const std::string& body) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::string_view word : {"return", "co_return"}) {
    for (const std::size_t pos : find_word(body, word)) {
      // `return` positions also match inside `co_return`; find_word already
      // rejects those via the identifier-boundary test.
      const std::size_t lo = pos + word.size();
      const std::size_t hi = body.find(';', lo);
      if (hi == npos || hi <= lo) continue;
      out.emplace_back(lo, hi);
    }
  }
  return out;
}

/// Everything about one function the fixpoint re-reads each iteration,
/// computed once.
struct FnLocal {
  const FunctionCfg* cfg = nullptr;
  const FileAnalysis* file = nullptr;
  std::string body;             // masked, body-local offsets
  std::vector<NodeCall> calls;  // over `body`
  std::vector<std::size_t> awaits;  // `co_await` positions in `body`
  bool has_co_yield = false;
  std::vector<LockSite> acquires;
  std::vector<std::string> releases;
  std::vector<Assign> assigns;
  std::vector<std::pair<std::size_t, std::size_t>> returns;
  std::map<std::string, int> ref_params;  // ref/ptr param name -> index
  std::set<int> direct_escapes;           // ref/ptr params read past a suspension
};

FnLocal analyze_fn(const FileAnalysis& file, const FunctionCfg& cfg) {
  FnLocal local;
  local.cfg = &cfg;
  local.file = &file;
  local.body = masked_body(file, cfg);
  local.calls = find_calls(local.body);
  local.awaits = find_word(local.body, "co_await");
  local.has_co_yield = !find_word(local.body, "co_yield").empty();
  collect_lock_sites(local.body, &local.acquires, &local.releases);
  local.assigns = collect_assigns(local.body);
  local.returns = collect_returns(local.body);
  for (std::size_t i = 0; i < cfg.params.size(); ++i) {
    const CfgParam& p = cfg.params[i];
    if ((p.is_reference || p.is_pointer) && !p.name.empty()) {
      local.ref_params.emplace(p.name, static_cast<int>(i));
    }
  }

  // Direct escape: a ref/ptr parameter read in a node reachable from a
  // suspension point of this function (same reachability the
  // suspension-lifetime check uses).
  if (!local.ref_params.empty() && cfg.nodes.size() > 2) {
    GenKill gk(cfg.nodes.size());
    bool any_suspend = false;
    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
      if (cfg.nodes[n].suspends) {
        gk.gen[n].insert(static_cast<int>(n));
        any_suspend = true;
      }
    }
    if (any_suspend) {
      const std::vector<FactSet> in = gk.solve(cfg);
      for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
        if (in[n].empty() || cfg.nodes[n].hi <= cfg.nodes[n].lo) continue;
        const std::string node_text =
            masked_node_text(file.stripped, file.cfgs, cfg, cfg.nodes[n]);
        for (const auto& [name, idx] : local.ref_params) {
          if (!find_word(node_text, name).empty()) {
            local.direct_escapes.insert(idx);
          }
        }
      }
    }
  }
  return local;
}

bool same_summary(const FunctionSummary& a, const FunctionSummary& b) {
  return std::tie(a.havoc, a.coroutine, a.may_suspend, a.returns_tainted,
                  a.taint_label, a.tainted_out_params, a.escaping_params,
                  a.lock_acquire_params, a.lock_acquire_names,
                  a.lock_release_params, a.lock_release_names) ==
         std::tie(b.havoc, b.coroutine, b.may_suspend, b.returns_tainted,
                  b.taint_label, b.tainted_out_params, b.escaping_params,
                  b.lock_acquire_params, b.lock_acquire_names,
                  b.lock_release_params, b.lock_release_names);
}

/// One evaluation of `id`'s summary against the current summary table.
FunctionSummary evaluate(const CallGraph& graph,
                         const std::vector<FunctionSummary>& current,
                         const FnLocal& local) {
  const FunctionCfg& cfg = *local.cfg;
  FunctionSummary out;
  out.coroutine = cfg.is_coroutine;

  // --- may-suspend -------------------------------------------------------
  if (cfg.is_coroutine) {
    if (local.has_co_yield) out.may_suspend = true;
    for (const std::size_t pos : local.awaits) {
      if (out.may_suspend) break;
      if (awaited_expr_may_suspend(local.body, pos, graph, current)) {
        out.may_suspend = true;
      }
    }
  }

  // --- locks -------------------------------------------------------------
  std::set<std::string> acquired;
  std::set<std::string> released;
  for (const LockSite& site : local.acquires) {
    if (site.awaited) acquired.insert(site.name);
  }
  for (const std::string& name : local.releases) released.insert(name);
  for (const NodeCall& call : local.calls) {
    const FunctionSummary callee = summary_for_call(graph, current, call.name);
    if (callee.havoc) continue;
    // A coroutine callee only runs when awaited; a plain call to it just
    // materialises the task object.
    if (callee.coroutine && !call.awaited) continue;
    const auto map_arg = [&](int k) -> std::string {
      const auto uk = static_cast<std::size_t>(k);
      return uk < call.args.size() ? call.args[uk] : std::string();
    };
    for (const int k : callee.lock_acquire_params) {
      const std::string arg = map_arg(k);
      if (!arg.empty()) acquired.insert(arg);
    }
    for (const std::string& n : callee.lock_acquire_names) acquired.insert(n);
    for (const int k : callee.lock_release_params) {
      const std::string arg = map_arg(k);
      if (!arg.empty()) released.insert(arg);
    }
    for (const std::string& n : callee.lock_release_names) released.insert(n);
  }
  for (const std::string& name : acquired) {
    if (released.count(name) != 0) continue;
    const auto it = local.ref_params.find(name);
    if (it != local.ref_params.end()) {
      out.lock_acquire_params.insert(it->second);
    } else {
      out.lock_acquire_names.insert(name);
    }
  }
  for (const std::string& name : released) {
    if (acquired.count(name) != 0) continue;
    const auto it = local.ref_params.find(name);
    if (it != local.ref_params.end()) {
      out.lock_release_params.insert(it->second);
    } else {
      out.lock_release_names.insert(name);
    }
  }

  // --- taint -------------------------------------------------------------
  // Flow-insensitive fixpoint over the assigned-variable set.  No kill:
  // once a name has held tainted data inside this body, the summary treats
  // it as tainted, which keeps the fixpoint monotone.
  std::set<std::string> tainted;
  std::string label;
  const auto range_tainted = [&](std::size_t lo, std::size_t hi) {
    if (range_has_taint_source(local.body, lo, hi)) {
      if (label.empty()) label = taint_source_label(local.body, lo, hi);
      return true;
    }
    for (const std::string& t : tainted) {
      if (has_word_in(local.body, lo, hi, t)) return true;
    }
    for (const NodeCall& call : local.calls) {
      if (call.pos < lo || call.pos >= hi) continue;
      const FunctionSummary callee =
          summary_for_call(graph, current, call.name);
      if (callee.havoc || !callee.returns_tainted) continue;
      if (label.empty()) label = callee.taint_label;
      return true;
    }
    return false;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (const NodeCall& call : local.calls) {
      const FunctionSummary callee =
          summary_for_call(graph, current, call.name);
      if (callee.havoc) continue;
      for (const int k : callee.tainted_out_params) {
        const auto uk = static_cast<std::size_t>(k);
        if (uk >= call.args.size() || call.args[uk].empty()) continue;
        if (tainted.insert(call.args[uk]).second) {
          if (label.empty()) label = callee.taint_label;
          changed = true;
        }
      }
    }
    for (const Assign& a : local.assigns) {
      if (!range_tainted(a.rhs_lo, a.rhs_hi) &&
          !(a.compound && tainted.count(a.lhs) != 0)) {
        continue;
      }
      if (tainted.insert(a.lhs).second) changed = true;
      if (!a.base.empty() && a.base != a.lhs &&
          tainted.insert(a.base).second) {
        changed = true;
      }
    }
  }
  for (const auto& [lo, hi] : local.returns) {
    if (range_tainted(lo, hi)) {
      out.returns_tainted = true;
      break;
    }
  }
  for (const auto& [name, idx] : local.ref_params) {
    if (tainted.count(name) != 0) out.tainted_out_params.insert(idx);
  }
  if ((out.returns_tainted || !out.tainted_out_params.empty())) {
    out.taint_label = label.empty() ? "a nondeterministic source" : label;
  }

  // --- escape ------------------------------------------------------------
  out.escaping_params = local.direct_escapes;
  for (const NodeCall& call : local.calls) {
    const FunctionSummary callee = summary_for_call(graph, current, call.name);
    if (callee.havoc) continue;
    for (const int k : callee.escaping_params) {
      const auto uk = static_cast<std::size_t>(k);
      if (uk >= call.args.size() || call.args[uk].empty()) continue;
      const auto it = local.ref_params.find(call.args[uk]);
      if (it != local.ref_params.end()) {
        out.escaping_params.insert(it->second);
      }
    }
  }
  return out;
}

}  // namespace

FunctionSummary havoc_summary() {
  FunctionSummary s;
  s.havoc = true;
  s.may_suspend = true;  // see the header: the one pessimistic havoc field
  return s;
}

FunctionSummary summary_for_call(const CallGraph& graph,
                                 const std::vector<FunctionSummary>& summaries,
                                 const std::string& name) {
  const std::vector<int>* targets = graph.resolve(name);
  if (targets == nullptr || targets->empty()) return havoc_summary();
  FunctionSummary merged;
  merged.coroutine = true;
  for (const int t : *targets) {
    const FunctionSummary& s = summaries[static_cast<std::size_t>(t)];
    merged.coroutine = merged.coroutine && s.coroutine;
    merged.may_suspend = merged.may_suspend || s.may_suspend;
    if (s.returns_tainted && !merged.returns_tainted) {
      merged.returns_tainted = true;
      merged.taint_label = s.taint_label;
    }
    if (merged.taint_label.empty()) merged.taint_label = s.taint_label;
    merged.tainted_out_params.insert(s.tainted_out_params.begin(),
                                     s.tainted_out_params.end());
    merged.escaping_params.insert(s.escaping_params.begin(),
                                  s.escaping_params.end());
    merged.lock_acquire_params.insert(s.lock_acquire_params.begin(),
                                      s.lock_acquire_params.end());
    merged.lock_acquire_names.insert(s.lock_acquire_names.begin(),
                                     s.lock_acquire_names.end());
    merged.lock_release_params.insert(s.lock_release_params.begin(),
                                      s.lock_release_params.end());
    merged.lock_release_names.insert(s.lock_release_names.begin(),
                                     s.lock_release_names.end());
  }
  return merged;
}

bool awaited_expr_may_suspend(const std::string& text, std::size_t pos,
                              const CallGraph& graph,
                              const std::vector<FunctionSummary>& summaries) {
  std::size_t p = pos;
  if (text.compare(pos, 8, "co_await") == 0) p = pos + 8;
  p = skip_spaces(text, p);
  if (p >= text.size() || !is_ident_start(text[p])) {
    return true;  // awaiting a parenthesised/temporary expression: unknown
  }
  // Walk a qualified/member chain `a::b.c->d`; the last identifier is the
  // callee name when the chain ends in '('.
  std::string last;
  while (p < text.size() && is_ident_start(text[p])) {
    std::size_t end = p;
    last = read_ident(text, p, &end);
    p = end;
    if (text.compare(p, 2, "::") == 0) {
      p += 2;
    } else if (text.compare(p, 2, "->") == 0) {
      p += 2;
    } else if (p < text.size() && text[p] == '.') {
      p += 1;
    } else {
      break;
    }
  }
  if (p >= text.size() || text[p] != '(') {
    return true;  // awaiting a stored awaitable, not a call: unknown
  }
  const std::vector<int>* targets = graph.resolve(last);
  if (targets == nullptr || targets->empty()) return true;
  for (const int t : *targets) {
    const FunctionSummary& s = summaries[static_cast<std::size_t>(t)];
    // Awaiting a non-coroutine's return value means a hand-written
    // awaitable we cannot see through; assume it parks.
    if (!s.coroutine || s.may_suspend) return true;
  }
  return false;
}

std::vector<FunctionSummary> compute_summaries(
    const CallGraph& graph, const std::vector<FileAnalysis>& files,
    SummaryStats* stats) {
  std::vector<FunctionSummary> summaries(graph.fns.size());
  std::vector<FnLocal> locals;
  locals.reserve(graph.fns.size());
  for (const CallGraph::Fn& fn : graph.fns) {
    const FileAnalysis& file = files[fn.file];
    locals.push_back(analyze_fn(file, file.cfgs[fn.cfg]));
    summaries[locals.size() - 1].coroutine = locals.back().cfg->is_coroutine;
  }

  std::size_t max_iterations = 0;
  for (const std::vector<int>& scc : graph.sccs) {
    std::size_t iterations = 0;
    for (bool changed = true;
         changed && iterations < kSccIterationCap;) {
      changed = false;
      ++iterations;
      for (const int id : scc) {
        const auto uid = static_cast<std::size_t>(id);
        FunctionSummary next = evaluate(graph, summaries, locals[uid]);
        if (!same_summary(next, summaries[uid])) {
          summaries[uid] = std::move(next);
          changed = true;
        }
      }
    }
    max_iterations = std::max(max_iterations, iterations);
  }
  if (stats != nullptr) {
    stats->sccs = graph.sccs.size();
    stats->max_fixpoint_iterations = max_iterations;
  }
  return summaries;
}

}  // namespace paraio::lint
