#pragma once

// splicer-lint phase 1: a lightweight symbol index and call graph over the
// scrubbed sources under src/. No compiler front-end — definitions are
// recognised token-level (an identifier chain followed by a balanced
// argument list and a function body, with ctor-init lists, trailing return
// types and template preambles skipped heuristically), and call sites are
// resolved by name + enclosing-class scope:
//
//   * a qualified call `X::f(...)` resolves to the definitions of X::f;
//   * a bare call `f(...)` inside a method of class C prefers C::f, then a
//     free function f, then a unique method f anywhere in the index;
//   * a member call `obj.f(...)` / `ptr->f(...)` resolves when exactly one
//     class in the index defines f (receiver types are unknown).
//
// Overloads within one (scope, name) key all receive edges (a call to an
// overload set over-approximates to every overload — safe for reachability
// rules). A name defined by several classes with no scope hint is recorded
// as an *unresolved* call: deliberately visible, both in --dump-callgraph
// output and in the fixture corpus, so resolution regressions are pinned
// rather than silent. Calls with no definition in the index (std::,
// external libraries) are external and ignored.
//
// The graph deliberately does not model virtual dispatch: the
// interprocedural rules name every override of a hot virtual (e.g.
// Router::on_timer) as its own analysis root instead.

#include <string>
#include <string_view>
#include <vector>

#include "splicer_lint/lint_core.h"

namespace splicer::lint {

/// One call site inside a function body.
struct CallSite {
  std::string qualifier;  // "Engine" for Engine::f(...), "" for bare f(...)
  std::string name;       // callee name
  int line = 0;           // 1-based line in the caller's file
  bool member_access = false;  // obj.f(...) / ptr->f(...)
  std::string args;       // scrubbed argument text (slab-escape analysis)
};

/// A function or method definition (has a body in the indexed sources).
struct FunctionDef {
  std::string scope;  // enclosing class ("Engine"), "" for free functions
  std::string name;
  std::string file;   // repo-relative path
  int line = 0;        // line of the signature (name token)
  int body_begin = 0;  // line of the opening brace
  int body_end = 0;    // line of the closing brace
  std::vector<CallSite> calls;
};

/// A resolved call edge. One call site may fan out to several definitions
/// (the callee's overload set).
struct Edge {
  int caller = -1;
  int call_index = -1;  // index into functions()[caller].calls
  int callee = -1;
};

/// A call that matched several (scope, name) keys and could not be pinned
/// to one class — recorded and reported, never silently dropped.
struct UnresolvedCall {
  int caller = -1;
  int call_index = -1;
  int candidate_keys = 0;
};

class CallGraph {
 public:
  /// Builds the index + graph. Only files whose path lies under src/
  /// participate; other files are ignored.
  [[nodiscard]] static CallGraph build(const std::vector<FileContent>& files);

  [[nodiscard]] const std::vector<FunctionDef>& functions() const {
    return functions_;
  }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }
  [[nodiscard]] const std::vector<UnresolvedCall>& unresolved() const {
    return unresolved_;
  }

  /// Resolved callee lists per function index (deduplicated).
  [[nodiscard]] const std::vector<std::vector<int>>& out_edges() const {
    return out_edges_;
  }
  /// Resolved caller lists per function index (deduplicated).
  [[nodiscard]] const std::vector<std::vector<int>>& in_edges() const {
    return in_edges_;
  }

  /// "Scope::name" or "name" for diagnostics.
  [[nodiscard]] std::string qualified_name(int index) const;

 private:
  std::vector<FunctionDef> functions_;
  std::vector<Edge> edges_;
  std::vector<UnresolvedCall> unresolved_;
  std::vector<std::vector<int>> out_edges_;
  std::vector<std::vector<int>> in_edges_;
};

}  // namespace splicer::lint
