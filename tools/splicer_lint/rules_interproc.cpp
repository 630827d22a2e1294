#include "splicer_lint/rules_interproc.h"

#include <algorithm>
#include <deque>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <utility>

namespace splicer::lint {
namespace {

constexpr std::string_view kHotDirs[] = {"src/sim/", "src/routing/",
                                         "src/pcn/"};

bool path_in(std::string_view path, std::string_view prefix) {
  return path.size() > prefix.size() && path.substr(0, prefix.size()) == prefix;
}

bool in_hot_dirs(std::string_view path) {
  return std::any_of(std::begin(kHotDirs), std::end(kHotDirs),
                     [&](std::string_view d) { return path_in(path, d); });
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
// hotpath-alloc
// ---------------------------------------------------------------------------

void check_hotpath_alloc(const CallGraph& graph, const SourceMap& sources,
                         std::vector<Finding>& out) {
  std::vector<int> roots;
  for (const int r : graph.find("Engine", "handle_event")) roots.push_back(r);
  for (const int r : graph.find_by_name("on_timer")) roots.push_back(r);
  if (roots.empty()) return;
  const CallGraph::Reach reach = graph.reachable_from(roots);

  struct AllocPattern {
    std::regex re;
    const char* what;
  };
  // `new` / make_unique / make_shared; std container or std::string
  // construction (a mention whose template close is followed by a variable
  // name, brace or paren — `const std::vector<T>&` parameters and
  // `vector<T>::iterator` uses do not construct and are skipped below);
  // explicit capacity operations.
  static const std::regex kNew(R"((^|[^:\w])new\b)");
  static const std::regex kMake(R"(\bmake_(?:unique|shared)\b)");
  static const std::regex kContainer(
      R"(\bstd\s*::\s*(vector|deque|list|map|set|multimap|multiset|unordered_map|unordered_set|basic_string|priority_queue|queue|stack)\s*<)");
  static const std::regex kString(R"(\bstd\s*::\s*string\s*(\s[A-Za-z_]|[({]))");
  static const std::regex kCapacity(R"(\.\s*(reserve|resize)\s*\()");

  const std::vector<FunctionDef>& funcs = graph.functions();
  std::set<std::pair<std::string, int>> seen;  // one finding per (file, line)
  for (std::size_t fi = 0; fi < funcs.size(); ++fi) {
    if (reach.reachable[fi] == 0) continue;
    const FunctionDef& def = funcs[fi];
    if (!in_hot_dirs(def.file)) continue;
    const std::string chain = graph.chain(reach, static_cast<int>(fi));
    for_each_body_line(def, sources, [&](int ln, const std::string& code) {
      const char* what = nullptr;
      if (std::regex_search(code, kNew)) what = "operator new";
      else if (std::regex_search(code, kMake)) what = "make_unique/make_shared";
      else if (std::regex_search(code, kCapacity)) what = "reserve/resize";
      else if (std::regex_search(code, kString)) what = "std::string construction";
      else {
        std::smatch m;
        if (std::regex_search(code, m, kContainer)) {
          // Skip pure type mentions: find the matching '>' on this line and
          // look at what follows — '&' or '*' binds a reference/pointer,
          // "::" names a nested type; both are allocation-free.
          const std::size_t open =
              static_cast<std::size_t>(m.position(0)) + m.length(0) - 1;
          int depth = 0;
          std::size_t close = std::string::npos;
          for (std::size_t i = open; i < code.size(); ++i) {
            if (code[i] == '<') ++depth;
            else if (code[i] == '>') {
              if (--depth == 0) { close = i; break; }
            }
          }
          bool constructs = true;
          if (close != std::string::npos) {
            std::size_t next = code.find_first_not_of(" \t", close + 1);
            if (next != std::string::npos &&
                (code[next] == '&' || code[next] == '*' ||
                 code.compare(next, 2, "::") == 0)) {
              constructs = false;
            }
          }
          if (constructs) what = "std container construction";
        }
      }
      if (what == nullptr) return;
      if (!seen.insert({def.file, ln}).second) return;
      add(out, def.file, ln, "hotpath-alloc",
          std::string("allocation on the hot event path (") + what + ") in " +
              graph.qualified_name(static_cast<int>(fi)) +
              ", reachable via " + chain +
              " — hoist into per-engine scratch or a pool, or annotate with "
              "SPLICER_LINT_ALLOW(hotpath-alloc): <why this site is "
              "amortised/cold>");
    });
  }
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
  check_hotpath_alloc(graph, map, out);
  check_slab_alias_escape(graph, map, out);
  return out;
}

}  // namespace splicer::lint
