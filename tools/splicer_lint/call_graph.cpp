#include "splicer_lint/call_graph.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace splicer::lint {
namespace {

// ---------------------------------------------------------------------------
// Lexer: scrubbed code lines -> token stream. Identifiers and the
// multi-char operators the parser cares about ("::", "->") are single
// tokens; everything else is one punctuation character per token.
// Preprocessor lines (and their backslash continuations) are skipped so
// macro bodies cannot unbalance the brace tracking.
// ---------------------------------------------------------------------------

struct Tok {
  std::string text;
  int line = 0;  // 1-based
};

bool ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool ident_char(char c) { return ident_start(c) || (c >= '0' && c <= '9'); }

std::vector<Tok> lex(const std::vector<ScrubbedLine>& lines) {
  std::vector<Tok> toks;
  bool pp_continuation = false;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& code = lines[li].code;
    const int line_no = static_cast<int>(li) + 1;
    const std::size_t first = code.find_first_not_of(" \t");
    const bool is_pp =
        pp_continuation || (first != std::string::npos && code[first] == '#');
    if (is_pp) {
      const std::size_t last = code.find_last_not_of(" \t");
      pp_continuation = last != std::string::npos && code[last] == '\\';
      continue;
    }
    for (std::size_t i = 0; i < code.size();) {
      const char c = code[i];
      if (c == ' ' || c == '\t') {
        ++i;
      } else if (ident_start(c)) {
        std::size_t j = i + 1;
        while (j < code.size() && ident_char(code[j])) ++j;
        toks.push_back(Tok{code.substr(i, j - i), line_no});
        i = j;
      } else if (c >= '0' && c <= '9') {
        std::size_t j = i + 1;
        while (j < code.size() &&
               (ident_char(code[j]) || code[j] == '.' || code[j] == '\''))
          ++j;
        toks.push_back(Tok{code.substr(i, j - i), line_no});
        i = j;
      } else if (c == ':' && i + 1 < code.size() && code[i + 1] == ':') {
        toks.push_back(Tok{"::", line_no});
        i += 2;
      } else if (c == '-' && i + 1 < code.size() && code[i + 1] == '>') {
        toks.push_back(Tok{"->", line_no});
        i += 2;
      } else {
        toks.push_back(Tok{std::string(1, c), line_no});
        ++i;
      }
    }
  }
  return toks;
}

bool is_ident(const Tok& t) { return ident_start(t.text[0]); }

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kWords = {
      "if",     "for",          "while",    "switch",      "return",
      "sizeof", "alignof",      "decltype", "static_assert", "catch",
      "throw",  "co_return",    "co_await", "co_yield"};
  return kWords;
}

// Keywords that can never *name* a function being defined.
const std::set<std::string>& non_def_keywords() {
  static const std::set<std::string> kWords = {
      "if",      "for",     "while", "switch", "return", "do",
      "else",    "new",     "delete", "case",  "goto",   "try",
      "catch",   "throw",   "using", "typedef", "static_assert",
      "noexcept", "alignas", "requires"};
  return kWords;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
  Parser(const std::vector<Tok>& t, const std::string& f,
         std::vector<FunctionDef>& o)
      : toks(t), file(f), out(o) {}

  const std::vector<Tok>& toks;
  const std::string& file;
  std::vector<FunctionDef>& out;

  // Innermost function being parsed (-1 at namespace/class scope) and the
  // class-name stack for attributing unqualified method definitions.
  int current_fn = -1;

  struct BraceEnt {
    enum Kind { kNamespace, kClass, kFunction, kOther } kind = kOther;
    int fn_before = -1;       // current_fn to restore on close
    bool class_scope = false; // pushed a class name
  };
  std::vector<BraceEnt> braces;
  std::vector<std::string> class_stack;

  // What the next '{' opens, decided by the construct classifiers below.
  BraceEnt::Kind pending = BraceEnt::kOther;
  std::string pending_class;
  int pending_fn = -1;

  [[nodiscard]] std::size_t skip_angles(std::size_t i) const {
    // toks[i] == "<": try to skip a balanced template argument list with a
    // bounded lookahead; returns i unchanged when it does not look like one
    // (comparison operators, shifts).
    int depth = 0;
    std::size_t j = i;
    const std::size_t limit = std::min(toks.size(), i + 128);
    for (; j < limit; ++j) {
      const std::string& t = toks[j].text;
      if (t == "<") {
        ++depth;
      } else if (t == ">") {
        --depth;
        if (depth == 0) return j + 1;
      } else if (t == ";" || t == "{" || t == "}") {
        return i;
      }
    }
    return i;
  }

  [[nodiscard]] std::size_t match_paren(std::size_t i) const {
    // toks[i] == "(": index just past the matching ")", or toks.size().
    int depth = 0;
    for (std::size_t j = i; j < toks.size(); ++j) {
      if (toks[j].text == "(") ++depth;
      else if (toks[j].text == ")") {
        --depth;
        if (depth == 0) return j + 1;
      }
    }
    return toks.size();
  }

  void open_brace() {
    BraceEnt ent;
    ent.kind = pending;
    ent.fn_before = current_fn;
    if (pending == BraceEnt::kClass) {
      class_stack.push_back(pending_class);
      ent.class_scope = true;
    } else if (pending == BraceEnt::kFunction) {
      current_fn = pending_fn;
    }
    braces.push_back(ent);
    pending = BraceEnt::kOther;
    pending_fn = -1;
    pending_class.clear();
  }

  void close_brace(int line) {
    if (braces.empty()) return;
    const BraceEnt ent = braces.back();
    braces.pop_back();
    if (ent.class_scope && !class_stack.empty()) class_stack.pop_back();
    if (ent.kind == BraceEnt::kFunction && current_fn >= 0) {
      out[static_cast<std::size_t>(current_fn)].body_end = line;
    }
    current_fn = ent.fn_before;
  }

  // Reads an identifier chain `A::B::name` (or `~name`) at i. Returns the
  // index past the chain; fills qualifier ("A::B" joined, last component
  // kept separately by the caller) and name. Returns i when no chain.
  [[nodiscard]] std::size_t read_chain(std::size_t i, std::string& qualifier,
                                       std::string& name) const {
    qualifier.clear();
    name.clear();
    std::size_t j = i;
    if (j < toks.size() && toks[j].text == "::") ++j;  // global-ns qualifier
    std::string prev;
    for (;;) {
      std::string part;
      if (j < toks.size() && toks[j].text == "~" && j + 1 < toks.size() &&
          is_ident(toks[j + 1])) {
        part = "~" + toks[j + 1].text;
        j += 2;
      } else if (j < toks.size() && is_ident(toks[j])) {
        part = toks[j].text;
        ++j;
      } else {
        break;
      }
      if (!prev.empty()) {
        if (!qualifier.empty()) qualifier += "::";
        qualifier += prev;
      }
      prev = std::move(part);
      // Template arguments between chain components: A<T>::f.
      if (j < toks.size() && toks[j].text == "<") {
        const std::size_t after = skip_angles(j);
        if (after != j && j + 0 < toks.size() && after < toks.size() &&
            toks[after].text == "::") {
          j = after;
        }
      }
      if (j < toks.size() && toks[j].text == "::") {
        ++j;
        continue;
      }
      break;
    }
    name = std::move(prev);
    return name.empty() ? i : j;
  }

  // After the ')' of a candidate signature at `i`, decide whether a
  // function body follows. Returns the index of the body '{' or npos.
  [[nodiscard]] std::size_t find_body_brace(std::size_t i) const {
    std::size_t j = i;
    while (j < toks.size()) {
      const std::string& t = toks[j].text;
      if (t == "{") return j;
      if (t == ";" || t == "}") return std::string::npos;
      if (t == "=") {
        // `= default;` / `= delete;` / `= 0;` — not a body.
        return std::string::npos;
      }
      if (t == ":") {
        // Ctor-init list: skip `member(init)` / `member{init}` groups until
        // the body brace.
        ++j;
        for (;;) {
          // Skip the member name (possibly qualified / templated).
          while (j < toks.size() && toks[j].text != "(" &&
                 toks[j].text != "{" && toks[j].text != ";" &&
                 toks[j].text != "}")
            ++j;
          if (j >= toks.size() || toks[j].text == ";" || toks[j].text == "}")
            return std::string::npos;
          if (toks[j].text == "(") {
            j = match_paren(j);
          } else {
            // Brace initializer: balance braces.
            int depth = 0;
            while (j < toks.size()) {
              if (toks[j].text == "{") ++depth;
              else if (toks[j].text == "}") {
                --depth;
                if (depth == 0) { ++j; break; }
              }
              ++j;
            }
          }
          if (j < toks.size() && toks[j].text == ",") { ++j; continue; }
          if (j < toks.size() && toks[j].text == "{") return j;
          return std::string::npos;
        }
      }
      if (t == "noexcept" && j + 1 < toks.size() && toks[j + 1].text == "(") {
        j = match_paren(j + 1);
        continue;
      }
      if (t == "(") {
        // Unexpected parens (e.g. attribute) — bail out conservatively.
        return std::string::npos;
      }
      if (t == "<") {
        const std::size_t after = skip_angles(j);
        if (after == j) return std::string::npos;
        j = after;
        continue;
      }
      // const / override / final / & / && / -> / trailing type tokens.
      ++j;
    }
    return std::string::npos;
  }

  void record_call(std::size_t chain_begin, std::size_t paren,
                   const std::string& qualifier, const std::string& name) {
    if (current_fn < 0) return;
    if (control_keywords().count(name) != 0) return;
    if (chain_begin > 0 && toks[chain_begin - 1].text == "new") return;
    CallSite call;
    call.qualifier = qualifier;
    call.name = name;
    call.line = toks[chain_begin].line;
    call.member_access =
        chain_begin > 0 && (toks[chain_begin - 1].text == "." ||
                            toks[chain_begin - 1].text == "->");
    // Argument text: tokens between the parens (bounded; long argument
    // lists truncate — the escape analysis only greps for identifiers).
    const std::size_t end = match_paren(paren);
    std::string args;
    for (std::size_t j = paren + 1; j + 1 < end && j < paren + 200; ++j) {
      if (!args.empty()) args += ' ';
      args += toks[j].text;
    }
    call.args = std::move(args);
    out[static_cast<std::size_t>(current_fn)].calls.push_back(std::move(call));
  }

  void parse() {
    std::size_t i = 0;
    while (i < toks.size()) {
      const std::string& t = toks[i].text;
      if (t == "{") {
        open_brace();
        ++i;
        continue;
      }
      if (t == "}") {
        close_brace(toks[i].line);
        ++i;
        continue;
      }
      if (t == "namespace") {
        std::size_t j = i + 1;
        while (j < toks.size() && (is_ident(toks[j]) || toks[j].text == "::"))
          ++j;
        if (j < toks.size() && toks[j].text == "{") {
          pending = BraceEnt::kNamespace;
        }
        i = j;
        continue;
      }
      if (t == "template") {
        if (i + 1 < toks.size() && toks[i + 1].text == "<") {
          const std::size_t after = skip_angles(i + 1);
          i = after == i + 1 ? i + 2 : after;
        } else {
          ++i;
        }
        continue;
      }
      if ((t == "class" || t == "struct" || t == "union" || t == "enum") &&
          current_fn < 0) {
        // Find the '{' or ';' that terminates the head; remember the last
        // identifier before any base-clause ':' as the type name.
        std::size_t j = i + 1;
        if (t == "enum" && j < toks.size() &&
            (toks[j].text == "class" || toks[j].text == "struct"))
          ++j;
        std::string name;
        bool saw_colon = false;
        while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") {
          if (toks[j].text == ":") saw_colon = true;
          if (!saw_colon && is_ident(toks[j]) &&
              toks[j].text != "final" && toks[j].text != "alignas")
            name = toks[j].text;
          if (toks[j].text == "(" ) break;  // e.g. `struct Foo* f(...)`
          ++j;
        }
        if (j < toks.size() && toks[j].text == "{" && t != "enum") {
          pending = BraceEnt::kClass;
          pending_class = name;
          i = j;
        } else if (j < toks.size() && toks[j].text == "{") {
          pending = BraceEnt::kOther;  // enum body
          i = j;
        } else {
          i = i + 1;  // forward declaration / variable of struct type
        }
        continue;
      }
      if (is_ident(toks[i]) || t == "~" ||
          (t == "::" && i + 1 < toks.size() && is_ident(toks[i + 1]))) {
        std::string qualifier;
        std::string name;
        const std::size_t after_chain = read_chain(i, qualifier, name);
        if (after_chain == i) {
          ++i;
          continue;
        }
        std::size_t j = after_chain;
        if (j < toks.size() && toks[j].text == "<") {
          const std::size_t after = skip_angles(j);
          if (after != j && after < toks.size() && toks[after].text == "(")
            j = after;
        }
        if (j < toks.size() && toks[j].text == "(") {
          if (current_fn >= 0) {
            record_call(i, j, qualifier, name);
            i = j + 1;  // rescan inside the argument list for nested calls
            continue;
          }
          if (non_def_keywords().count(name) != 0) {
            i = j + 1;
            continue;
          }
          const std::size_t after_paren = match_paren(j);
          const std::size_t body = find_body_brace(after_paren);
          if (body != std::string::npos) {
            FunctionDef def;
            std::string scope;
            if (!qualifier.empty()) {
              const std::size_t pos = qualifier.rfind("::");
              scope = pos == std::string::npos ? qualifier
                                               : qualifier.substr(pos + 2);
            } else if (!class_stack.empty()) {
              scope = class_stack.back();
            }
            def.scope = std::move(scope);
            def.name = name;
            def.file = file;
            def.line = toks[i].line;
            def.body_begin = toks[body].line;
            out.push_back(std::move(def));
            pending = BraceEnt::kFunction;
            pending_fn = static_cast<int>(out.size()) - 1;
            i = body;
            continue;
          }
          i = after_paren;
          continue;
        }
        i = after_chain;
        continue;
      }
      ++i;
    }
    // Unterminated bodies at EOF (should not happen on well-formed input):
    // close them at the last line so body_end is always set.
    const int last_line =
        toks.empty() ? 1 : toks.back().line;
    while (!braces.empty()) close_brace(last_line);
  }
};

bool under_src(std::string_view path) {
  return path.size() > 4 && path.substr(0, 4) == "src/";
}

}  // namespace

CallGraph CallGraph::build(const std::vector<FileContent>& files) {
  CallGraph graph;
  for (const FileContent& f : files) {
    if (!under_src(f.path)) continue;
    const std::vector<ScrubbedLine> lines = scrub_source(f.content);
    const std::vector<Tok> toks = lex(lines);
    Parser parser{toks, f.path, graph.functions_};
    parser.parse();
  }

  // Index: (scope, name) key -> definition indices (overload sets), and
  // name -> distinct keys.
  std::map<std::pair<std::string, std::string>, std::vector<int>> by_key;
  std::map<std::string, std::set<std::pair<std::string, std::string>>> by_name;
  for (std::size_t fi = 0; fi < graph.functions_.size(); ++fi) {
    const FunctionDef& def = graph.functions_[fi];
    by_key[{def.scope, def.name}].push_back(static_cast<int>(fi));
    by_name[def.name].insert({def.scope, def.name});
  }

  graph.out_edges_.assign(graph.functions_.size(), {});
  graph.in_edges_.assign(graph.functions_.size(), {});

  auto add_edges = [&](int caller, int call_index,
                       const std::vector<int>& callees) {
    for (const int callee : callees) {
      graph.edges_.push_back(Edge{caller, call_index, callee});
      graph.out_edges_[static_cast<std::size_t>(caller)].push_back(callee);
      graph.in_edges_[static_cast<std::size_t>(callee)].push_back(caller);
    }
  };

  for (std::size_t fi = 0; fi < graph.functions_.size(); ++fi) {
    const FunctionDef& caller = graph.functions_[fi];
    for (std::size_t ci = 0; ci < caller.calls.size(); ++ci) {
      const CallSite& call = caller.calls[ci];
      const int caller_i = static_cast<int>(fi);
      const int call_i = static_cast<int>(ci);
      if (!call.qualifier.empty()) {
        const std::size_t pos = call.qualifier.rfind("::");
        const std::string last =
            pos == std::string::npos ? call.qualifier
                                     : call.qualifier.substr(pos + 2);
        if (auto it = by_key.find({last, call.name}); it != by_key.end()) {
          add_edges(caller_i, call_i, it->second);
        } else if (auto free_it = by_key.find({"", call.name});
                   free_it != by_key.end()) {
          // Namespace-qualified call to a free function.
          add_edges(caller_i, call_i, free_it->second);
        }
        continue;
      }
      if (!call.member_access) {
        // Bare call: sibling method first, then a free function.
        if (!caller.scope.empty()) {
          if (auto it = by_key.find({caller.scope, call.name});
              it != by_key.end()) {
            add_edges(caller_i, call_i, it->second);
            continue;
          }
        }
        if (auto it = by_key.find({"", call.name}); it != by_key.end()) {
          add_edges(caller_i, call_i, it->second);
          continue;
        }
      }
      // Member call (receiver type unknown), or a bare name with no scoped
      // match: resolve when exactly one key in the whole index defines it.
      auto name_it = by_name.find(call.name);
      if (name_it == by_name.end()) continue;  // external
      std::set<std::pair<std::string, std::string>> keys = name_it->second;
      if (call.member_access) keys.erase({"", call.name});  // obj.f: methods
      if (keys.empty()) continue;
      if (keys.size() == 1) {
        add_edges(caller_i, call_i, by_key.at(*keys.begin()));
      } else {
        graph.unresolved_.push_back(
            UnresolvedCall{caller_i, call_i, static_cast<int>(keys.size())});
      }
    }
  }

  for (auto& v : graph.out_edges_) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  for (auto& v : graph.in_edges_) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return graph;
}

std::string CallGraph::qualified_name(int index) const {
  const FunctionDef& def = functions_[static_cast<std::size_t>(index)];
  return def.scope.empty() ? def.name : def.scope + "::" + def.name;
}

}  // namespace splicer::lint
