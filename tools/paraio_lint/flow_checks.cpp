#include "paraio_lint/flow_checks.hpp"

#include <algorithm>
#include <map>
#include <string_view>

#include "paraio_lint/callgraph.hpp"
#include "paraio_lint/dataflow.hpp"
#include "paraio_lint/summaries.hpp"
#include "paraio_lint/taint_sources.hpp"
#include "paraio_lint/text.hpp"

namespace paraio::lint {

namespace {

using namespace paraio::lint::text;

constexpr std::size_t npos = std::string::npos;

void add_at(std::vector<Finding>* out, const char* id,
            const std::vector<std::size_t>& starts, std::size_t pos,
            std::string message) {
  const CheckInfo* info = find_check(id);
  out->push_back(Finding{"", line_of(starts, pos), col_of(starts, pos),
                         info->id, info->severity, std::move(message), false,
                         false});
}

std::vector<FactSet> solve(const FlowContext& ctx, const FunctionCfg& fn,
                           const GenKill& gk) {
  DataflowStats stats;
  auto in = gk.solve(fn, &stats);
  if (ctx.stats) {
    ctx.stats->dataflow_solves += 1;
    ctx.stats->dataflow_bailouts += stats.capped ? 1 : 0;
  }
  return in;
}

// ---------------------------------------------------------------------------
// suspension-lifetime

struct DangerName {
  std::string name;
  std::string why;  // "reference parameter", "by-reference capture", ...
};

/// Splits a lambda capture list into items at top-level commas.
std::vector<std::string> capture_items(const std::string& captures) {
  std::vector<std::string> items;
  std::size_t begin = 0;
  int depth = 0;
  for (std::size_t i = 0; i <= captures.size(); ++i) {
    const char c = i < captures.size() ? captures[i] : ',';
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
    if (c == ',' && depth == 0) {
      const std::string item = trim(captures.substr(begin, i - begin));
      if (!item.empty()) items.push_back(item);
      begin = i + 1;
    }
  }
  return items;
}

/// Whether a coroutine lambda's closure can die before the frame resumes:
/// the lambda is written inline inside an escaping spawn's argument list,
/// or it is bound to a name (`auto name = [...]`) that is invoked inside
/// one.  Lambdas awaited in place or spawned through a joined TaskGroup
/// keep their closure alive and are skipped.
bool lambda_escapes(const FlowContext& ctx, const FunctionCfg& fn) {
  for (const auto& [lo, hi] : ctx.escaping_spawns) {
    if (fn.header_lo >= lo && fn.header_lo < hi) return true;
  }
  std::size_t p = prev_nonspace(ctx.stripped, fn.header_lo);
  if (p == npos || ctx.stripped[p] != '=') return false;
  p = prev_nonspace(ctx.stripped, p);
  if (p == npos || !is_ident(ctx.stripped[p])) return false;
  const std::string name = read_ident_backward(ctx.stripped, p);
  if (name.empty()) return false;
  for (const auto& [lo, hi] : ctx.escaping_spawns) {
    std::size_t at = lo;
    while (at < hi &&
           (at = ctx.stripped.find(name, at)) != npos && at < hi) {
      const bool left_ok = at == 0 || !is_ident(ctx.stripped[at - 1]);
      const std::size_t after = at + name.size();
      if (left_ok && after < hi && !is_ident(ctx.stripped[after]) &&
          ctx.stripped[skip_spaces(ctx.stripped, after)] == '(') {
        return true;
      }
      at = after;
    }
  }
  return false;
}

void check_one_suspension_lifetime(const FlowContext& ctx,
                                   const FunctionCfg& fn,
                                   std::vector<Finding>* out) {
  if (!fn.is_coroutine || fn.nodes.size() <= 2) return;

  std::vector<DangerName> danger;
  bool implicit_members = false;  // `this` in scope: members (`name_`) too
  if (fn.is_lambda) {
    if (!lambda_escapes(ctx, fn)) return;
    for (const std::string& item : capture_items(fn.captures)) {
      if (item == "&" || item == "=") {
        implicit_members = true;  // default capture reaches `this`
        continue;
      }
      if (item == "this") {
        implicit_members = true;
        continue;
      }
      if (item.rfind("*this", 0) == 0) continue;  // by-value copy: safe
      if (item[0] == '&') {
        // `&name` or `&name = expr` (init capture by reference).
        const std::string name =
            read_ident(item, skip_spaces(item, 1));
        if (!name.empty()) {
          danger.push_back({name, "by-reference capture '&" + name + "'"});
        }
      }
      // By-value captures die with the closure; the temporary-closure case
      // is coro-lambda-capture's territory.
    }
  } else if (!fn.name.empty() && ctx.index.detached_fns.contains(fn.name)) {
    for (const CfgParam& p : fn.params) {
      if (!p.is_reference && !p.is_pointer) continue;
      danger.push_back(
          {p.name, std::string(p.is_reference ? "reference" : "pointer") +
                       " parameter '" + p.name + "' of detached coroutine '" +
                       fn.name + "'"});
    }
  }
  if (danger.empty() && !implicit_members) return;

  // Facts: the node ids of suspension points.
  GenKill gk(fn.nodes.size());
  bool any_suspension = false;
  for (std::size_t i = 0; i < fn.nodes.size(); ++i) {
    if (fn.nodes[i].suspends) {
      gk.gen[i].insert(static_cast<int>(i));
      any_suspension = true;
    }
  }
  if (!any_suspension) return;
  const auto in = solve(ctx, fn, gk);

  // (node, name) pairs already reported, so the summary-driven call-site
  // scan below never duplicates a textual finding in the same node.
  std::set<std::pair<std::size_t, std::string>> reported;

  for (std::size_t i = 0; i < fn.nodes.size(); ++i) {
    const CfgNode& node = fn.nodes[i];
    if (in[i].empty() || node.hi <= node.lo) continue;
    const int first_susp = *in[i].begin();
    const std::size_t susp_line = line_of(
        ctx.line_starts,
        fn.nodes[static_cast<std::size_t>(first_susp)].lo);
    const std::string body = masked_node_text(ctx.stripped, ctx.cfgs, fn,
                                              node);

    auto report = [&](std::size_t at, const std::string& what) {
      add_at(out, "suspension-lifetime", ctx.line_starts, node.lo + at,
             what + " read after the suspension point at line " +
                 std::to_string(susp_line) +
                 ": the coroutine frame can outlive what the name refers "
                 "to; pass by value or move ownership into the frame");
    };

    for (const DangerName& d : danger) {
      const auto uses = find_word(body, d.name);
      if (!uses.empty()) {
        report(uses.front(), d.why);
        reported.emplace(i, d.name);
      }
    }
    if (implicit_members) {
      // `this` escapes into the frame: flag explicit `this` and the first
      // member access (trailing-underscore naming convention).
      const auto this_uses = find_word(body, "this");
      std::size_t member_use = npos;
      std::string member;
      for (std::size_t p = 0; p < body.size(); ++p) {
        if (!is_ident_start(body[p]) || (p > 0 && is_ident(body[p - 1]))) {
          continue;
        }
        std::size_t e = p;
        const std::string w = read_ident(body, p, &e);
        if (w.size() > 1 && w.back() == '_') {
          member_use = p;
          member = w;
          break;
        }
        p = e;
      }
      if (!this_uses.empty() &&
          (member_use == npos || this_uses.front() < member_use)) {
        report(this_uses.front(), "captured 'this'");
      } else if (member_use != npos) {
        report(member_use, "member '" + member + "' (through captured 'this')");
      }
    }
  }

  // Interprocedural leg: a danger name handed to a callee whose summary
  // says the matching parameter escapes — is read after a suspension point
  // of the *callee* — dangles even when this function's own CFG shows no
  // use after a suspension (e.g. `co_await stage(buf)` as the first
  // statement: the read happens inside the await).
  if (danger.empty()) return;
  for (std::size_t i = 0; i < fn.nodes.size(); ++i) {
    const CfgNode& node = fn.nodes[i];
    if (node.hi <= node.lo) continue;
    const std::string body = masked_node_text(ctx.stripped, ctx.cfgs, fn,
                                              node);
    for (const NodeCall& call : find_calls(body)) {
      const FunctionSummary callee = summary_for_call(
          ctx.index.call_graph, ctx.index.summaries, call.name);
      if (callee.havoc || callee.escaping_params.empty()) continue;
      // A coroutine callee only runs (and suspends) when awaited.
      if (callee.coroutine && !call.awaited) continue;
      for (const int k : callee.escaping_params) {
        const auto uk = static_cast<std::size_t>(k);
        if (uk >= call.args.size()) continue;
        const std::string& arg = call.args[uk];
        for (const DangerName& d : danger) {
          if (d.name != arg) continue;
          if (!reported.emplace(i, d.name).second) continue;
          add_at(out, "suspension-lifetime", ctx.line_starts,
                 node.lo + call.arg_pos[uk],
                 d.why + " passed to '" + call.name +
                     "()', which reads it after a suspension point of its "
                     "own: the coroutine frame can outlive what the name "
                     "refers to; pass by value or move ownership into the "
                     "frame");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// lock-across-suspension

struct LockSite {
  std::size_t pos = 0;     // absolute offset of the receiver expression
  std::string name;        // receiver's trailing identifier
  bool acquire = false;
};

/// co_await-ed `.lock(` and plain `.unlock(` sites within one node's masked
/// text (positions absolute).  Deliberately sim::Mutex-only: holding a
/// Semaphore capacity token across a delay is how the hardware layer models
/// device service time (disk gates, NIC slots, ION service semaphores), so
/// `.acquire()`/`.release()` regions are exempt.
std::vector<LockSite> node_lock_sites(const std::string& body,
                                      std::size_t base) {
  struct Pattern {
    const char* text;
    bool acquire;
  };
  static constexpr Pattern kPatterns[] = {
      {".lock(", true},
      {"->lock(", true},
      {".unlock(", false},
      {"->unlock(", false},
  };
  std::vector<LockSite> sites;
  for (const Pattern& p : kPatterns) {
    const std::string needle(p.text);
    std::size_t pos = 0;
    while ((pos = body.find(needle, pos)) != npos) {
      const std::size_t at = pos;
      pos += needle.size();
      // Receiver: trailing identifier, subscripts stripped.
      std::size_t i = at;
      if (i > 0 && body[i - 1] == ']') {
        int depth = 0;
        while (i > 0) {
          --i;
          if (body[i] == ']') ++depth;
          if (body[i] == '[' && --depth == 0) break;
        }
      }
      if (i == 0 || !is_ident(body[i - 1])) continue;
      LockSite site;
      site.name = read_ident_backward(body, i - 1);
      site.pos = base + at;
      site.acquire = p.acquire;
      if (!site.name.empty()) sites.push_back(site);
    }
  }
  std::sort(sites.begin(), sites.end(),
            [](const LockSite& a, const LockSite& b) { return a.pos < b.pos; });
  return sites;
}

void check_one_lock_across_suspension(const FlowContext& ctx,
                                      const FunctionCfg& fn,
                                      std::vector<Finding>* out) {
  if (!fn.is_coroutine || fn.nodes.size() <= 2) return;

  // Collect acquisition/release sites per node; facts are acquisition-site
  // indices so the report can name the exact acquisition line.
  struct Acq {
    std::size_t node;
    LockSite site;
  };
  std::vector<Acq> acqs;
  std::vector<std::vector<LockSite>> releases(fn.nodes.size());
  std::vector<std::string> bodies(fn.nodes.size());
  for (std::size_t i = 0; i < fn.nodes.size(); ++i) {
    const CfgNode& node = fn.nodes[i];
    if (node.hi <= node.lo) continue;
    bodies[i] = masked_node_text(ctx.stripped, ctx.cfgs, fn, node);
    for (LockSite& site : node_lock_sites(bodies[i], node.lo)) {
      if (site.acquire) {
        // Only a co_awaited acquisition takes the lock (a bare one drops
        // a [[nodiscard]] awaitable, which the compiler rejects).
        if (!node.suspends) continue;
        acqs.push_back(Acq{i, std::move(site)});
      } else {
        releases[i].push_back(std::move(site));
      }
    }
    // Summary leg: a callee with a net lock effect extends or shrinks the
    // held set here — `co_await grab(mu_)` acquires, `drop(mu_)` releases.
    for (const NodeCall& call : find_calls(bodies[i])) {
      const FunctionSummary callee = summary_for_call(
          ctx.index.call_graph, ctx.index.summaries, call.name);
      if (callee.havoc) continue;
      if (callee.coroutine && !call.awaited) continue;  // task not run
      const auto arg_name = [&](int k) -> std::string {
        const auto uk = static_cast<std::size_t>(k);
        return uk < call.args.size() ? call.args[uk] : std::string();
      };
      std::set<std::string> acq_names(callee.lock_acquire_names);
      for (const int k : callee.lock_acquire_params) {
        const std::string n = arg_name(k);
        if (!n.empty()) acq_names.insert(n);
      }
      std::set<std::string> rel_names(callee.lock_release_names);
      for (const int k : callee.lock_release_params) {
        const std::string n = arg_name(k);
        if (!n.empty()) rel_names.insert(n);
      }
      for (const std::string& n : acq_names) {
        LockSite site;
        site.pos = node.lo + call.pos;
        site.name = n;
        site.acquire = true;
        acqs.push_back(Acq{i, std::move(site)});
      }
      for (const std::string& n : rel_names) {
        LockSite site;
        site.pos = node.lo + call.pos;
        site.name = n;
        site.acquire = false;
        releases[i].push_back(std::move(site));
      }
    }
  }
  if (acqs.empty()) return;

  GenKill gk(fn.nodes.size());
  for (std::size_t a = 0; a < acqs.size(); ++a) {
    gk.gen[acqs[a].node].insert(static_cast<int>(a));
  }
  for (std::size_t i = 0; i < fn.nodes.size(); ++i) {
    for (const LockSite& rel : releases[i]) {
      for (std::size_t a = 0; a < acqs.size(); ++a) {
        if (acqs[a].site.name == rel.name) {
          gk.kill[i].insert(static_cast<int>(a));
        }
      }
    }
  }
  const auto in = solve(ctx, fn, gk);

  for (std::size_t i = 0; i < fn.nodes.size(); ++i) {
    const CfgNode& node = fn.nodes[i];
    if (!node.suspends || in[i].empty()) continue;
    // Only a suspension that can actually park blocks other tasks behind
    // the lock: awaiting a callee whose every overload is a
    // never-suspending coroutine completes synchronously and is exempt.
    bool parks = !find_word(bodies[i], "co_yield").empty();
    for (const std::size_t at : find_word(bodies[i], "co_await")) {
      if (parks) break;
      parks = awaited_expr_may_suspend(bodies[i], at, ctx.index.call_graph,
                                       ctx.index.summaries);
    }
    if (!parks) continue;
    const std::size_t susp =
        node.lo + std::min(bodies[i].find("co_await"),
                           bodies[i].find("co_yield"));
    // One report per lock name held here, at the suspension site.
    std::set<std::string> reported;
    for (int a : in[i]) {
      const Acq& acq = acqs[static_cast<std::size_t>(a)];
      if (!reported.insert(acq.site.name).second) continue;
      add_at(out, "lock-across-suspension", ctx.line_starts, susp,
             "'" + acq.site.name + "' (acquired at line " +
                 std::to_string(line_of(ctx.line_starts, acq.site.pos)) +
                 ") is held across this suspension point: while the task is "
                 "parked, any task that needs the lock deadlocks behind it; "
                 "release before suspending or keep the critical section "
                 "synchronous");
    }
  }
}

// ---------------------------------------------------------------------------
// determinism-taint

// The nondeterminism-source vocabulary (range_has_taint_source,
// taint_source_label) lives in taint_sources.hpp, shared with the function
// summary pass so caller-side checks and callee summaries agree.

/// Sink call names: scheduling and every trace/metrics publication path.
bool is_sink_name(std::string_view w) {
  return w == "schedule" || w == "schedule_at" || w == "add" ||
         w == "observe" || w == "record" || w == "emit" || w == "trace" ||
         w == "publish" || w == "log";
}

struct TaintEvent {
  enum class Kind { kAssign, kSink };
  Kind kind = Kind::kAssign;
  std::size_t pos = 0;      // in node-local text
  int lhs = -1;             // kAssign
  bool compound = false;    // kAssign: `+=` etc. never un-taints
  std::size_t rhs_lo = 0, rhs_hi = 0;  // kAssign rhs / kSink args
  std::string sink_name;    // kSink
};

struct NodePlan {
  std::string body;
  std::vector<TaintEvent> events;   // sorted by pos
  std::vector<int> loop_taints;     // range-for over unordered container
  std::vector<NodeCall> calls;      // call sites (for summary taint)
  std::vector<int> force_taints;    // args matching callee tainted out-params
};

class TaintAnalysis {
 public:
  TaintAnalysis(const FlowContext& ctx, const FunctionCfg& fn)
      : ctx_(ctx), fn_(fn) {}

  void run(std::vector<Finding>* out) {
    plans_.resize(fn_.nodes.size());
    bool interesting = false;
    for (std::size_t i = 0; i < fn_.nodes.size(); ++i) {
      build_plan(i);
      interesting = interesting || !plans_[i].events.empty() ||
                    !plans_[i].loop_taints.empty();
    }
    if (!interesting) return;

    DataflowStats stats;
    const auto in = solve_forward(
        fn_,
        [this](int idx, const FactSet& in_set) {
          return transfer(static_cast<std::size_t>(idx), in_set);
        },
        &stats);
    if (ctx_.stats) {
      ctx_.stats->dataflow_solves += 1;
      ctx_.stats->dataflow_bailouts += stats.capped ? 1 : 0;
    }

    for (std::size_t i = 0; i < fn_.nodes.size(); ++i) {
      report_node(i, in[i], out);
    }
  }

 private:
  int id_of(const std::string& name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const int id = static_cast<int>(names_.size());
    ids_.emplace(name, id);
    names_.push_back(name);
    return id;
  }

  /// A call in [lo, hi) whose summary says the return value is tainted,
  /// or nullptr.
  const NodeCall* tainted_call_in(const NodePlan& plan, std::size_t lo,
                                  std::size_t hi,
                                  std::string* label) const {
    for (const NodeCall& call : plan.calls) {
      if (call.pos < lo || call.pos >= hi) continue;
      const FunctionSummary callee = summary_for_call(
          ctx_.index.call_graph, ctx_.index.summaries, call.name);
      if (callee.havoc || !callee.returns_tainted) continue;
      if (label) *label = callee.taint_label;
      return &call;
    }
    return nullptr;
  }

  bool rhs_tainted(const NodePlan& plan, const TaintEvent& ev,
                   const FactSet& cur) const {
    if (range_has_taint_source(plan.body, ev.rhs_lo, ev.rhs_hi)) return true;
    for (int v : cur) {
      if (has_word_in(plan.body, ev.rhs_lo, ev.rhs_hi,
                      names_[static_cast<std::size_t>(v)])) {
        return true;
      }
    }
    return tainted_call_in(plan, ev.rhs_lo, ev.rhs_hi, nullptr) != nullptr;
  }

  FactSet transfer(std::size_t idx, const FactSet& in_set) {
    const NodePlan& plan = plans_[idx];
    FactSet cur = in_set;
    for (int v : plan.loop_taints) cur.insert(v);
    for (int v : plan.force_taints) cur.insert(v);
    for (const TaintEvent& ev : plan.events) {
      if (ev.kind != TaintEvent::Kind::kAssign) continue;
      if (rhs_tainted(plan, ev, cur)) {
        cur.insert(ev.lhs);
      } else if (!ev.compound) {
        cur.erase(ev.lhs);  // overwritten with a clean value
      }
    }
    return cur;
  }

  void build_plan(std::size_t idx) {
    const CfgNode& node = fn_.nodes[idx];
    NodePlan& plan = plans_[idx];
    if (node.hi <= node.lo) return;
    plan.body = masked_node_text(ctx_.stripped, ctx_.cfgs, fn_, node);
    plan.calls = find_calls(plan.body);
    // A callee writing taint through a by-reference out-parameter taints
    // the matching argument name for the rest of the function.
    for (const NodeCall& call : plan.calls) {
      const FunctionSummary callee = summary_for_call(
          ctx_.index.call_graph, ctx_.index.summaries, call.name);
      if (callee.havoc || callee.tainted_out_params.empty()) continue;
      for (const int k : callee.tainted_out_params) {
        const auto uk = static_cast<std::size_t>(k);
        if (uk < call.args.size() && !call.args[uk].empty()) {
          plan.force_taints.push_back(id_of(call.args[uk]));
        }
      }
    }
    collect_loop_taints(node, &plan);
    collect_assigns(&plan);
    collect_sinks(&plan);
    std::sort(plan.events.begin(), plan.events.end(),
              [](const TaintEvent& a, const TaintEvent& b) {
                return a.pos < b.pos;
              });
  }

  /// `for (decl : container)` headers over an unordered container taint
  /// the loop variable(s): their values are stable, but the *order* they
  /// arrive in is not, and anything accumulated from them inherits it.
  void collect_loop_taints(const CfgNode& node, NodePlan* plan) {
    if (node.kind != CfgNode::Kind::kCondition) return;
    const std::string& body = plan->body;
    const std::size_t kw = skip_spaces(body, 0);
    if (read_ident(body, kw) != "for") return;
    const std::size_t open = body.find('(', kw);
    if (open == npos) return;
    int depth = 0;
    std::size_t colon = npos;
    for (std::size_t i = open; i < body.size(); ++i) {
      const char c = body[i];
      if (c == '(' || c == '<' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == '>' || c == ']' || c == '}') --depth;
      if (c == ';') return;  // classic for loop
      if (c == ':' && depth == 1 &&
          !(i + 1 < body.size() && body[i + 1] == ':') &&
          !(i > 0 && body[i - 1] == ':')) {
        colon = i;
        break;
      }
    }
    if (colon == npos) return;
    const std::string container = trailing_ident(
        body.substr(colon + 1, body.rfind(')') - colon - 1));
    if (container.empty() || !ctx_.index.unordered_names.contains(container)) {
      return;
    }
    // Loop variable(s): structured binding `[a, b]` or a single declarator.
    const std::string decl = body.substr(open + 1, colon - open - 1);
    const std::size_t bracket = decl.find('[');
    if (bracket != npos) {
      const std::size_t close = decl.find(']', bracket);
      std::size_t p = bracket + 1;
      while (p < close) {
        p = skip_spaces(decl, p);
        if (p >= close) break;
        if (is_ident_start(decl[p])) {
          std::size_t e = p;
          const std::string name = read_ident(decl, p, &e);
          plan->loop_taints.push_back(id_of(name));
          p = e;
        } else {
          ++p;
        }
      }
    } else {
      const std::string name = trailing_ident(decl);
      if (!name.empty()) plan->loop_taints.push_back(id_of(name));
    }
  }

  void collect_assigns(NodePlan* plan) {
    const std::string& body = plan->body;
    // Segment on top-level ';' so `a = f(x); b = a;` updates in order.
    std::size_t begin = 0;
    int depth = 0;
    for (std::size_t i = 0; i <= body.size(); ++i) {
      const char c = i < body.size() ? body[i] : ';';
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') --depth;
      if (!(c == ';' && depth <= 0)) continue;
      parse_assign(body, begin, i, plan);
      begin = i + 1;
    }
  }

  void parse_assign(const std::string& body, std::size_t lo, std::size_t hi,
                    NodePlan* plan) {
    int depth = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const char c = body[i];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') --depth;
      if (c != '=' || depth != 0) continue;
      const char prev = i > lo ? body[i - 1] : '\0';
      const char next = i + 1 < hi ? body[i + 1] : '\0';
      if (next == '=' || prev == '=' || prev == '!' || prev == '<' ||
          prev == '>') {
        if (prev == '=' || next == '=') ++i;  // comparison, skip both chars
        continue;
      }
      const bool compound = prev == '+' || prev == '-' || prev == '*' ||
                            prev == '/' || prev == '%' || prev == '&' ||
                            prev == '|' || prev == '^';
      std::size_t lhs_end = i - (compound ? 1 : 0);
      const std::string lhs =
          trailing_ident(body.substr(lo, lhs_end - lo));
      if (lhs.empty() || !is_ident_start(lhs[0])) return;
      TaintEvent ev;
      ev.kind = TaintEvent::Kind::kAssign;
      ev.pos = i;
      ev.lhs = id_of(lhs);
      ev.compound = compound;
      ev.rhs_lo = i + 1;
      ev.rhs_hi = hi;
      plan->events.push_back(std::move(ev));
      return;  // one assignment per sub-statement
    }
  }

  void collect_sinks(NodePlan* plan) {
    const std::string& body = plan->body;
    for (std::size_t i = 0; i < body.size(); ++i) {
      if (!is_ident_start(body[i]) || (i > 0 && is_ident(body[i - 1]))) {
        continue;
      }
      std::size_t e = i;
      const std::string w = read_ident(body, i, &e);
      if (is_sink_name(w)) {
        const std::size_t open = skip_spaces(body, e);
        if (open < body.size() && body[open] == '(') {
          const std::size_t past = skip_balanced(body, open, '(', ')');
          if (past != npos) {
            TaintEvent ev;
            ev.kind = TaintEvent::Kind::kSink;
            ev.pos = i;
            ev.sink_name = w;
            ev.rhs_lo = open + 1;
            ev.rhs_hi = past - 1;
            plan->events.push_back(std::move(ev));
          }
        }
      }
      i = e;
    }
  }

  void report_node(std::size_t idx, const FactSet& in_set,
                   std::vector<Finding>* out) {
    const NodePlan& plan = plans_[idx];
    if (plan.events.empty()) return;
    FactSet cur = in_set;
    for (int v : plan.loop_taints) cur.insert(v);
    for (int v : plan.force_taints) cur.insert(v);
    for (const TaintEvent& ev : plan.events) {
      if (ev.kind == TaintEvent::Kind::kAssign) {
        if (rhs_tainted(plan, ev, cur)) {
          cur.insert(ev.lhs);
        } else if (!ev.compound) {
          cur.erase(ev.lhs);
        }
        continue;
      }
      // Sink: flag a tainted variable argument, a direct source use, or a
      // call whose summary says the return value is tainted.
      std::string carrier;
      for (int v : cur) {
        if (has_word_in(plan.body, ev.rhs_lo, ev.rhs_hi,
                        names_[static_cast<std::size_t>(v)])) {
          carrier = names_[static_cast<std::size_t>(v)];
          break;
        }
      }
      const bool direct =
          carrier.empty() &&
          range_has_taint_source(plan.body, ev.rhs_lo, ev.rhs_hi);
      std::string callee_label;
      const NodeCall* tainted_call =
          carrier.empty() && !direct
              ? tainted_call_in(plan, ev.rhs_lo, ev.rhs_hi, &callee_label)
              : nullptr;
      if (carrier.empty() && !direct && tainted_call == nullptr) continue;
      std::string message;
      if (!carrier.empty()) {
        message = "'" + carrier +
                  "' carries a value derived from a nondeterministic source "
                  "into '" +
                  ev.sink_name +
                  "()': the result can differ run to run and break "
                  "trace/schedule reproducibility; derive it from "
                  "sim::Engine::now() or sim::Rng instead";
      } else if (direct) {
        message = std::string("argument of '") + ev.sink_name +
                  "()' comes straight from " +
                  taint_source_label(plan.body, ev.rhs_lo, ev.rhs_hi) +
                  ": the result can differ run to run and break "
                  "trace/schedule reproducibility; derive it from "
                  "sim::Engine::now() or sim::Rng instead";
      } else {
        message = std::string("argument of '") + ev.sink_name +
                  "()' comes from '" + tainted_call->name +
                  "()', whose result derives from " +
                  (callee_label.empty() ? "a nondeterministic source"
                                        : callee_label) +
                  ": the result can differ run to run and break "
                  "trace/schedule reproducibility; derive it from "
                  "sim::Engine::now() or sim::Rng instead";
      }
      add_at(out, "determinism-taint", ctx_.line_starts,
             fn_.nodes[idx].lo + ev.pos, std::move(message));
    }
  }

  const FlowContext& ctx_;
  const FunctionCfg& fn_;
  std::map<std::string, int> ids_;
  std::vector<std::string> names_;
  std::vector<NodePlan> plans_;
};

// ---------------------------------------------------------------------------
// blocking-loop-in-coroutine

/// Condition text of an unbounded-shaped loop: `true`/`1`, or a bare flag
/// (`running`, `!stop`) whose name is returned in `*flag` so the caller can
/// check whether the body ever touches it.
bool unbounded_condition(const std::string& cond, std::string* flag) {
  std::string c = trim(cond);
  if (c == "true" || c == "1") return true;
  if (!c.empty() && c[0] == '!') c = trim(c.substr(1));
  if (c.empty()) return false;
  if (!is_ident_start(c[0])) return false;
  if (!std::all_of(c.begin(), c.end(), [](char ch) { return is_ident(ch); })) {
    return false;
  }
  *flag = c;
  return true;
}

void check_one_blocking_loop(const FlowContext& ctx, const FunctionCfg& fn,
                             std::vector<Finding>* out) {
  if (!fn.is_coroutine || fn.body_hi <= fn.body_lo) return;
  const std::string body = masked_function_text(ctx.stripped, ctx.cfgs, fn);

  struct Loop {
    std::size_t kw = 0;       // loop keyword position (body-local)
    std::size_t lo = 0;       // body region
    std::size_t hi = 0;
    std::string flag;         // bare-flag condition, "" otherwise
  };
  std::vector<Loop> loops;

  for (const std::size_t kw : find_word(body, "while")) {
    const std::size_t open = skip_spaces(body, kw + 5);
    if (open >= body.size() || body[open] != '(') continue;
    const std::size_t past = skip_balanced(body, open, '(', ')');
    if (past == npos) continue;
    Loop loop;
    loop.kw = kw;
    if (!unbounded_condition(body.substr(open + 1, past - open - 2),
                             &loop.flag)) {
      continue;
    }
    const std::size_t prev = prev_nonspace(body, kw);
    if (prev != npos && body[prev] == '}') {
      // `do { ... } while (cond);` — the body precedes the keyword.
      const std::size_t blo = rskip_balanced(body, prev, '{', '}');
      if (blo == npos) continue;
      loop.lo = blo + 1;
      loop.hi = prev;
    } else {
      const std::size_t blo = skip_spaces(body, past);
      if (blo >= body.size()) continue;
      if (body[blo] == '{') {
        const std::size_t bhi = skip_balanced(body, blo, '{', '}');
        if (bhi == npos) continue;
        loop.lo = blo + 1;
        loop.hi = bhi - 1;
      } else {
        const std::size_t bhi = body.find(';', blo);
        if (bhi == npos) continue;
        loop.lo = blo;
        loop.hi = bhi;
      }
    }
    loops.push_back(std::move(loop));
  }

  for (const std::size_t kw : find_word(body, "for")) {
    const std::size_t open = skip_spaces(body, kw + 3);
    if (open >= body.size() || body[open] != '(') continue;
    const std::size_t past = skip_balanced(body, open, '(', ')');
    if (past == npos) continue;
    // `for (init; cond; step)` with an empty condition never terminates on
    // its own; a range-for or a conditioned for is bounded (or at least
    // data-dependent) and skipped.
    int depth = 0;
    std::vector<std::size_t> semis;
    for (std::size_t i = open; i < past - 1; ++i) {
      const char c = body[i];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') --depth;
      if (c == ';' && depth == 1) semis.push_back(i);
    }
    if (semis.size() != 2) continue;
    if (!trim(body.substr(semis[0] + 1, semis[1] - semis[0] - 1)).empty()) {
      continue;
    }
    Loop loop;
    loop.kw = kw;
    const std::size_t blo = skip_spaces(body, past);
    if (blo >= body.size()) continue;
    if (body[blo] == '{') {
      const std::size_t bhi = skip_balanced(body, blo, '{', '}');
      if (bhi == npos) continue;
      loop.lo = blo + 1;
      loop.hi = bhi - 1;
    } else {
      const std::size_t bhi = body.find(';', blo);
      if (bhi == npos) continue;
      loop.lo = blo;
      loop.hi = bhi;
    }
    loops.push_back(std::move(loop));
  }

  for (const Loop& loop : loops) {
    // An explicit exit makes the loop bounded-ish; a bare-flag condition
    // whose flag the body touches can flip; both are skipped — this check
    // is for loops that provably never leave on their own.
    bool escapes = false;
    for (const std::string_view w :
         {"break", "return", "co_return", "goto", "throw"}) {
      if (has_word_in(body, loop.lo, loop.hi, w)) {
        escapes = true;
        break;
      }
    }
    if (escapes) continue;
    if (!loop.flag.empty() && has_word_in(body, loop.lo, loop.hi, loop.flag)) {
      continue;
    }
    if (has_word_in(body, loop.lo, loop.hi, "co_yield")) continue;
    bool any_await = false;
    bool parks = false;
    for (const std::size_t at : find_word(body, "co_await")) {
      if (at < loop.lo || at >= loop.hi) continue;
      any_await = true;
      if (awaited_expr_may_suspend(body, at, ctx.index.call_graph,
                                   ctx.index.summaries)) {
        parks = true;
        break;
      }
    }
    if (parks) continue;
    const std::string reason =
        any_await
            ? "every co_await in this loop awaits a never-suspending "
              "coroutine and completes synchronously"
            : "no suspension point on any path through this loop";
    add_at(out, "blocking-loop-in-coroutine", ctx.line_starts,
           fn.body_lo + loop.kw,
           reason +
               ": the cooperative event loop never regains control while "
               "this coroutine spins, starving every other task and "
               "freezing simulated time; co_await a timer, channel, or "
               "I/O op inside the loop");
  }
}

}  // namespace

void check_suspension_lifetime(const FlowContext& ctx,
                               std::vector<Finding>* out) {
  for (const FunctionCfg& fn : ctx.cfgs) {
    check_one_suspension_lifetime(ctx, fn, out);
  }
}

void check_lock_across_suspension(const FlowContext& ctx,
                                  std::vector<Finding>* out) {
  for (const FunctionCfg& fn : ctx.cfgs) {
    check_one_lock_across_suspension(ctx, fn, out);
  }
}

void check_determinism_taint(const FlowContext& ctx,
                             std::vector<Finding>* out) {
  for (const FunctionCfg& fn : ctx.cfgs) {
    if (fn.nodes.size() <= 2) continue;
    TaintAnalysis analysis(ctx, fn);
    analysis.run(out);
  }
}

void check_blocking_loop(const FlowContext& ctx, std::vector<Finding>* out) {
  for (const FunctionCfg& fn : ctx.cfgs) {
    check_one_blocking_loop(ctx, fn, out);
  }
}

}  // namespace paraio::lint
