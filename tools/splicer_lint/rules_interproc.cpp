#include "splicer_lint/rules_interproc.h"

#include <algorithm>
#include <deque>
#include <map>
#include <regex>
#include <string>
#include <utility>

namespace splicer::lint {
namespace {

bool path_in(std::string_view path, std::string_view prefix) {
  return path.size() > prefix.size() && path.substr(0, prefix.size()) == prefix;
}

using SourceMap = std::map<std::string, const std::vector<ScrubbedLine>*>;

SourceMap index_sources(const std::vector<ScrubbedSource>& sources) {
  SourceMap map;
  for (const ScrubbedSource& s : sources) map[s.path] = s.lines;
  return map;
}

/// Calls visit(line_number, code) for every line of `def`'s signature+body
/// range ([line, body_end]) that exists in the sources.
template <typename Visit>
void for_each_body_line(const FunctionDef& def, const SourceMap& sources,
                        Visit&& visit) {
  auto it = sources.find(def.file);
  if (it == sources.end()) return;
  const std::vector<ScrubbedLine>& lines = *it->second;
  const int begin = std::max(def.line, 1);
  const int end = std::min<int>(def.body_end, static_cast<int>(lines.size()));
  for (int ln = begin; ln <= end; ++ln) {
    visit(ln, lines[static_cast<std::size_t>(ln) - 1].code);
  }
}

bool contains_word(const std::string& text, const std::string& word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok =
        pos == 0 || (std::isalnum(static_cast<unsigned char>(text[pos - 1])) ==
                         0 &&
                     text[pos - 1] != '_');
    const std::size_t end = pos + word.size();
    const bool right_ok =
        end >= text.size() ||
        (std::isalnum(static_cast<unsigned char>(text[end])) == 0 &&
         text[end] != '_');
    if (left_ok && right_ok) return true;
    pos += word.size();
  }
  return false;
}

void add(std::vector<Finding>& out, const std::string& file, int line,
         std::string_view rule, std::string message) {
  out.push_back(
      Finding{file, line, std::string(rule), std::move(message)});
}

/// Resolved callees per (caller, call_index).
using EdgeMap = std::map<std::pair<int, int>, std::vector<int>>;

EdgeMap edge_map(const CallGraph& graph) {
  EdgeMap map;
  for (const Edge& e : graph.edges()) {
    map[{e.caller, e.call_index}].push_back(e.callee);
  }
  return map;
}

// ---------------------------------------------------------------------------
// slab-alias-escape
// ---------------------------------------------------------------------------

void check_slab_alias_escape(const CallGraph& graph, const SourceMap& sources,
                             std::vector<Finding>& out) {
  // Functions whose invocation may relocate/evict Engine slab slots: a
  // direct call (by name — resolution not required; the name is the
  // contract) to send_tu/fail_payment, propagated to every caller.
  const std::vector<FunctionDef>& funcs = graph.functions();
  std::vector<char> relocates(funcs.size(), 0);
  std::deque<int> queue;
  for (std::size_t fi = 0; fi < funcs.size(); ++fi) {
    for (const CallSite& call : funcs[fi].calls) {
      if (call.name == "send_tu" || call.name == "fail_payment") {
        relocates[fi] = 1;
        queue.push_back(static_cast<int>(fi));
        break;
      }
    }
  }
  while (!queue.empty()) {
    const int v = queue.front();
    queue.pop_front();
    for (const int u : graph.in_edges()[static_cast<std::size_t>(v)]) {
      if (relocates[static_cast<std::size_t>(u)] == 0) {
        relocates[static_cast<std::size_t>(u)] = 1;
        queue.push_back(u);
      }
    }
  }

  static const std::regex kSlabBind(
      R"([&*]\s*([A-Za-z_]\w*)\s*=\s*[^;]*\b(?:find_payment_state|state_or_orphan)\s*\()");
  const EdgeMap edges = edge_map(graph);

  for (std::size_t fi = 0; fi < funcs.size(); ++fi) {
    const FunctionDef& def = funcs[fi];
    if (!path_in(def.file, "src/routing/")) continue;
    // Slab bindings in this body, by declaration line.
    std::vector<std::pair<std::string, int>> bindings;
    for_each_body_line(def, sources, [&](int ln, const std::string& code) {
      std::smatch m;
      if (std::regex_search(code, m, kSlabBind)) {
        bindings.emplace_back(m[1].str(), ln);
      }
    });
    if (bindings.empty()) continue;
    for (std::size_t ci = 0; ci < def.calls.size(); ++ci) {
      const CallSite& call = def.calls[ci];
      if (call.name == "send_tu" || call.name == "fail_payment") continue;
      auto edge_it = edges.find({static_cast<int>(fi), static_cast<int>(ci)});
      if (edge_it == edges.end()) continue;
      const bool callee_relocates = std::any_of(
          edge_it->second.begin(), edge_it->second.end(),
          [&](int callee) { return relocates[static_cast<std::size_t>(callee)] != 0; });
      if (!callee_relocates) continue;
      for (const auto& [name, decl_line] : bindings) {
        if (call.line <= decl_line) continue;
        if (!contains_word(call.args, name)) continue;
        add(out, def.file, call.line, "slab-alias-escape",
            "'" + name + "' (bound to Engine slab state at line " +
                std::to_string(decl_line) + ") passed into '" + call.name +
                "', which transitively reaches send_tu()/fail_payment() — "
                "the callee may relocate or evict the slab this reference "
                "aliases; pass the PaymentId/TuId and re-fetch, or annotate "
                "with SPLICER_LINT_ALLOW(slab-alias-escape): <why the "
                "callee cannot relocate before the last use>");
        break;  // one finding per call site
      }
    }
  }
}

}  // namespace

std::vector<Finding> interprocedural_findings(
    const CallGraph& graph, const std::vector<ScrubbedSource>& sources) {
  const SourceMap map = index_sources(sources);
  std::vector<Finding> out;
  check_slab_alias_escape(graph, map, out);
  return out;
}

}  // namespace splicer::lint
