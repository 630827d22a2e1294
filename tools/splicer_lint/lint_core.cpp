#include "splicer_lint/lint_core.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "splicer_lint/call_graph.h"
#include "splicer_lint/rules_interproc.h"

namespace splicer::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

constexpr std::string_view kHotDirs[] = {"src/sim/", "src/routing/",
                                         "src/pcn/"};
constexpr std::string_view kSrcDir = "src/";
constexpr std::string_view kRoutingDir = "src/routing/";

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> kRules = {
      {"ambient-nondet", "src/sim, src/routing, src/pcn",
       "no wall clocks, ambient randomness or getenv in sim paths; entropy "
       "must flow from the seeded common::rng"},
      {"unordered-decl", "src/sim, src/routing, src/pcn",
       "every std::unordered_map/set declaration is annotated with why its "
       "iteration order can never reach the event stream"},
      {"unordered-iter", "src/sim, src/routing, src/pcn",
       "no range-for/.begin() iteration over unordered containers unless "
       "annotated or rewritten over ordered/sorted containers"},
      {"std-function", "src/",
       "common::SmallFunction instead of std::function; the documented "
       "fallback variants are annotated in-source"},
      {"slab-alias", "src/routing",
       "no retained reference into Engine slab state across a relocation "
       "point (send_tu/fail_payment); no send_tu from on_tu_forwarded"},
      {"writer-lanes", "src/",
       "single-writer mailbox lanes and cross-shard inboxes mutate only "
       "inside their owning component"},
      {"writer-lanes-transitive", "src/ (call graph)",
       "lane/mailbox ownership propagates through calls: helpers that write "
       "owned state make their callers writers; only the sanctioned entry "
       "APIs cross the component boundary"},
      {"hotpath-alloc", "src/sim, src/routing, src/pcn (call graph)",
       "no allocation (new/make_unique/container or string construction/"
       "reserve/resize) reachable from Engine::handle_event, on_timer "
       "overrides or run_protocol_tick without a reasoned allow"},
      {"slab-alias-escape", "src/routing (call graph)",
       "no slab reference passed into a callee that transitively reaches "
       "send_tu/fail_payment — the callee may relocate the slab it aliases"},
      {"float-order", "src/ (call graph)",
       "floating accumulation in merge/parallel contexts (merge, merge_from, "
       "drain_mailboxes and their callees) is annotated with why summation "
       "order is deterministic"},
      {"stale-allow", "everywhere linted",
       "a SPLICER_LINT_ALLOW whose rule no longer fires on its covered line "
       "is dead and must be removed (tree runs only)"},
  };
  return kRules;
}

bool known_rule(std::string_view id) {
  const auto& table = rule_table();
  return std::any_of(table.begin(), table.end(),
                     [&](const RuleInfo& r) { return r.id == id; });
}

bool path_in(std::string_view path, std::string_view prefix) {
  return path.size() > prefix.size() && path.substr(0, prefix.size()) == prefix;
}

bool in_hot_dirs(std::string_view path) {
  return std::any_of(std::begin(kHotDirs), std::end(kHotDirs),
                     [&](std::string_view d) { return path_in(path, d); });
}

// ---------------------------------------------------------------------------
// Scrubber: split each line into code text and comment text, blanking
// string/char-literal contents (so tokens inside literals never match) while
// preserving column positions.
// ---------------------------------------------------------------------------

std::vector<ScrubbedLine> scrub(std::string_view src) {
  enum class State {
    kCode,
    kString,
    kChar,
    kLineComment,
    kBlockComment,
    kRawString
  };
  std::vector<ScrubbedLine> lines;
  ScrubbedLine current;
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"

  auto flush_line = [&] {
    lines.push_back(std::move(current));
    current = ScrubbedLine{};
  };

  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      flush_line();
      continue;
    }
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          // Raw string if the preceding identifier characters end in R
          // (covers R"..", u8R"..", LR"..", etc.).
          bool raw = false;
          if (!current.code.empty() && current.code.back() == 'R') {
            raw = true;
          }
          if (raw) {
            raw_delim.clear();
            std::size_t j = i + 1;
            while (j < src.size() && src[j] != '(' && src[j] != '\n') {
              raw_delim.push_back(src[j]);
              ++j;
            }
            state = State::kRawString;
            current.code.push_back('"');
            // Skip the delimiter and opening paren in the code output.
            i = j < src.size() ? j : src.size() - 1;
          } else {
            state = State::kString;
            current.code.push_back('"');
          }
        } else if (c == '\'') {
          state = State::kChar;
          current.code.push_back('\'');
        } else {
          current.code.push_back(c);
        }
        break;
      case State::kString:
        if (c == '\\') {
          current.code.push_back(' ');
          if (next != '\n' && next != '\0') {
            current.code.push_back(' ');
            ++i;
          }
        } else if (c == '"') {
          current.code.push_back('"');
          state = State::kCode;
        } else {
          current.code.push_back(' ');
        }
        break;
      case State::kChar:
        if (c == '\\') {
          current.code.push_back(' ');
          if (next != '\n' && next != '\0') {
            current.code.push_back(' ');
            ++i;
          }
        } else if (c == '\'') {
          current.code.push_back('\'');
          state = State::kCode;
        } else {
          current.code.push_back(' ');
        }
        break;
      case State::kRawString:
        if (c == ')' &&
            src.compare(i + 1, raw_delim.size(), raw_delim) == 0 &&
            i + 1 + raw_delim.size() < src.size() &&
            src[i + 1 + raw_delim.size()] == '"') {
          i += raw_delim.size() + 1;
          current.code.push_back('"');
          state = State::kCode;
        } else {
          current.code.push_back(' ');
        }
        break;
      case State::kLineComment:
        current.comment.push_back(c);
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          current.comment.push_back(c);
        }
        break;
    }
  }
  flush_line();
  return lines;
}

bool blank(std::string_view s) {
  return std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isspace(c) != 0; });
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

// ---------------------------------------------------------------------------
// Allow annotations
// ---------------------------------------------------------------------------

// Matches `SPLICER_LINT_ALLOW(<rule>): <reason>` in comment text.
const std::regex kAllowRe(
    R"(SPLICER_LINT_ALLOW\s*\(\s*([A-Za-z0-9_-]*)\s*\)\s*(:\s*(.*))?)");

std::vector<Allow> collect_allows_impl(const std::vector<ScrubbedLine>& lines) {
  std::vector<Allow> allows;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    const std::string& comment = lines[i].comment;
    if (!std::regex_search(comment, m, kAllowRe)) continue;
    Allow allow;
    allow.annotation_line = static_cast<int>(i) + 1;
    allow.tag = m[1].str();
    allow.has_reason = m[2].matched && !trim(m[3].str()).empty();
    // A trailing allow covers its own line; an allow on a comment-only line
    // covers the next line that carries code (skipping blanks/comments).
    if (!blank(lines[i].code)) {
      allow.covered_line = allow.annotation_line;
    } else {
      allow.covered_line = 0;
      for (std::size_t j = i + 1; j < lines.size(); ++j) {
        if (!blank(lines[j].code)) {
          allow.covered_line = static_cast<int>(j) + 1;
          break;
        }
      }
    }
    allows.push_back(std::move(allow));
  }
  return allows;
}

// ---------------------------------------------------------------------------
// Per-rule token scanners
// ---------------------------------------------------------------------------

void add(std::vector<Finding>& out, std::string_view path, int line,
         std::string_view rule, std::string message) {
  out.push_back(Finding{std::string(path), line, std::string(rule),
                        std::move(message)});
}

struct TokenRule {
  const char* pattern;
  const char* what;
};

void check_ambient_nondet(std::string_view path,
                          const std::vector<ScrubbedLine>& lines,
                          std::vector<Finding>& out) {
  static const std::vector<std::pair<std::regex, std::string>> kBans = [] {
    const TokenRule raw[] = {
        {R"(\brandom_device\b)", "std::random_device"},
        {R"(\bsrand\s*\()", "srand()"},
        {R"(\brand\s*\()", "rand()"},
        {R"(\bsystem_clock\b)", "std::chrono::system_clock"},
        {R"(\bsteady_clock\b)", "std::chrono::steady_clock"},
        {R"(\bhigh_resolution_clock\b)", "std::chrono::high_resolution_clock"},
        {R"(\bgetenv\b)", "getenv()"},
        {R"(\btime\s*\(\s*(nullptr|NULL|0)\s*\))", "time(nullptr)"},
    };
    std::vector<std::pair<std::regex, std::string>> compiled;
    for (const auto& r : raw) compiled.emplace_back(std::regex(r.pattern), r.what);
    return compiled;
  }();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const auto& [re, what] : kBans) {
      if (std::regex_search(lines[i].code, re)) {
        add(out, path, static_cast<int>(i) + 1, "ambient-nondet",
            "ambient nondeterminism: " + what +
                " in a determinism-critical path; the seeded common::rng "
                "stream must be the only entropy/clock source");
      }
    }
  }
}

bool is_preprocessor(std::string_view code) {
  const std::size_t b = code.find_first_not_of(" \t");
  return b != std::string_view::npos && code[b] == '#';
}

void check_unordered_decl(std::string_view path,
                          const std::vector<ScrubbedLine>& lines,
                          std::vector<Finding>& out) {
  static const std::regex kUse(R"(\bunordered_(map|set)\s*<)");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (is_preprocessor(lines[i].code)) continue;
    if (std::regex_search(lines[i].code, kUse)) {
      add(out, path, static_cast<int>(i) + 1, "unordered-decl",
          "unordered container in a determinism-critical dir: annotate with "
          "SPLICER_LINT_ALLOW(unordered-decl): <why iteration order can "
          "never reach the event stream>, or use an ordered container");
    }
  }
}

// Pass 1: names of variables declared as unordered containers.
std::vector<std::string> collect_unordered_names(
    const std::vector<ScrubbedLine>& lines) {
  static const std::regex kDecl(
      R"(\bunordered_(?:map|set)\s*<[^;]*>\s*([A-Za-z_]\w*)\s*(?:;|=|\{))");
  std::vector<std::string> names;
  for (const auto& line : lines) {
    auto begin = std::sregex_iterator(line.code.begin(), line.code.end(), kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      names.push_back((*it)[1].str());
    }
  }
  return names;
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

void check_unordered_iter(std::string_view path,
                          const std::vector<ScrubbedLine>& lines,
                          const std::vector<std::string>& extra_names,
                          std::vector<Finding>& out) {
  std::vector<std::string> names = collect_unordered_names(lines);
  names.insert(names.end(), extra_names.begin(), extra_names.end());

  static const std::regex kRangeFor(R"(\bfor\s*\(([^)]*)\))");
  static const std::regex kBegin(
      R"(([A-Za-z_]\w*)\s*\.\s*(c?r?begin)\s*\()");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    std::smatch m;
    if (std::regex_search(code, m, kRangeFor)) {
      std::string inner = m[1].str();
      if (inner.find(';') == std::string::npos) {
        // Range-for. Split at the range ':' — mask '::' first so scope
        // resolution in the declaration part cannot shadow it.
        std::string masked = inner;
        std::size_t pos = 0;
        while ((pos = masked.find("::", pos)) != std::string::npos) {
          masked[pos] = '\x01';
          masked[pos + 1] = '\x01';
        }
        const std::size_t colon = masked.find(':');
        if (colon != std::string::npos) {
          const std::string range_expr = inner.substr(colon + 1);
          const bool direct_type =
              range_expr.find("unordered_") != std::string::npos;
          const bool tracked_name = std::any_of(
              names.begin(), names.end(),
              [&](const std::string& n) { return contains_word(range_expr, n); });
          if (direct_type || tracked_name) {
            add(out, path, static_cast<int>(i) + 1, "unordered-iter",
                "iteration over an unordered container: hash order is not "
                "part of the determinism contract — sort first, use an "
                "ordered container, or annotate with "
                "SPLICER_LINT_ALLOW(unordered-iter): <why order cannot "
                "reach the event stream>");
          }
        }
      }
    }
    auto begin_it = std::sregex_iterator(code.begin(), code.end(), kBegin);
    for (auto it = begin_it; it != std::sregex_iterator(); ++it) {
      const std::string obj = (*it)[1].str();
      if (std::any_of(names.begin(), names.end(),
                      [&](const std::string& n) { return n == obj; })) {
        add(out, path, static_cast<int>(i) + 1, "unordered-iter",
            "iterator walk over unordered container '" + obj +
                "': hash order is not part of the determinism contract — "
                "sort first or annotate with "
                "SPLICER_LINT_ALLOW(unordered-iter): <reason>");
      }
    }
  }
}

void check_std_function(std::string_view path,
                        const std::vector<ScrubbedLine>& lines,
                        std::vector<Finding>& out) {
  static const std::regex kStdFunction(R"(\bstd\s*::\s*function\s*<)");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (std::regex_search(lines[i].code, kStdFunction)) {
      add(out, path, static_cast<int>(i) + 1, "std-function",
          "std::function in src/: heap-allocating type erasure is banned on "
          "simulation paths — use common::SmallFunction, or annotate a "
          "documented fallback with SPLICER_LINT_ALLOW(std-function): "
          "<reason>");
    }
  }
}

void check_slab_alias(std::string_view path,
                      const std::vector<ScrubbedLine>& lines,
                      std::vector<Finding>& out) {
  // Bindings whose RHS reaches into the Engine's DenseIdMap slabs.
  static const std::regex kSlabSource(
      R"(\b(?:find_payment_state|payment_state|state_or_orphan)\s*\()");
  // `& name = rhs` / `* name = rhs` declarations (references or pointers).
  static const std::regex kRefBind(R"([&*]\s*([A-Za-z_]\w*)\s*=\s*([^;]*))");
  // Plain re-assignment of an existing pointer variable: `name = ...slab...`.
  static const std::regex kAssign(
      R"(\b([A-Za-z_]\w*)\s*=\s*[^;=]*\b(?:find_payment_state|payment_state|state_or_orphan)\s*\()");
  // Relocation points: calls (not declarations/definitions) that can grow,
  // relocate or evict slab slots.
  static const std::regex kReloc(R"((^|[^:\w])(send_tu|fail_payment)\s*\()");
  static const std::regex kRelocDecl(
      R"(::\s*(send_tu|fail_payment)\s*\(|\b(send_tu|fail_payment)\s*\(\s*(TransactionUnit|PaymentId)\b)");
  static const std::regex kForwardHook(R"(\bon_tu_forwarded\s*\()");

  struct Binding {
    std::string name;
    int line = 0;
    int depth = 0;
    bool poisoned = false;
    int poison_depth = 0;
    int reloc_line = 0;
    std::string reloc_what;
  };

  std::vector<Binding> bindings;
  int depth = 0;
  bool forward_pending = false;  // saw on_tu_forwarded(, body not yet open
  int forward_depth = -1;        // body depth of on_tu_forwarded, -1 = not in

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    const int line_no = static_cast<int>(i) + 1;

    // 1. Uses of poisoned bindings (before this line's own relocations —
    //    arguments on the relocation line itself are evaluated pre-call).
    for (const Binding& b : bindings) {
      if (!b.poisoned || b.line == line_no) continue;
      if (contains_word(code, b.name)) {
        add(out, path, line_no, "slab-alias",
            "'" + b.name + "' (bound to Engine slab state at line " +
                std::to_string(b.line) + ") used after " + b.reloc_what +
                " at line " + std::to_string(b.reloc_line) +
                " — slabs may relocate/evict; re-fetch via "
                "find_payment_state() after any dispatch");
      }
    }

    // 2. New bindings.
    const bool rhs_has_source = std::regex_search(code, kSlabSource);
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kRefBind);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1].str();
      const std::string rhs = (*it)[2].str();
      const bool from_slab = std::regex_search(rhs, kSlabSource);
      const bool from_tracked = std::any_of(
          bindings.begin(), bindings.end(),
          [&](const Binding& b) { return contains_word(rhs, b.name); });
      if (from_slab || from_tracked) {
        bindings.push_back(Binding{name, line_no, depth, false, 0, 0, {}});
      }
    }
    if (rhs_has_source) {
      std::smatch m;
      if (std::regex_search(code, m, kAssign)) {
        const std::string name = m[1].str();
        const bool already = std::any_of(
            bindings.begin(), bindings.end(),
            [&](const Binding& b) { return b.name == name; });
        if (!already) {
          bindings.push_back(Binding{name, line_no, depth, false, 0, 0, {}});
        }
      }
    }

    // 3. Relocation calls poison every live binding at the current depth.
    std::smatch reloc;
    if (std::regex_search(code, reloc, kReloc) &&
        !std::regex_search(code, kRelocDecl)) {
      const std::string what = reloc[2].str() + "()";
      for (Binding& b : bindings) {
        if (!b.poisoned) {
          b.poisoned = true;
          b.poison_depth = depth;
          b.reloc_line = line_no;
          b.reloc_what = what;
        }
      }
      if (forward_depth >= 0 && reloc[2].str() == "send_tu") {
        add(out, path, line_no, "slab-alias",
            "send_tu() dispatched from on_tu_forwarded: the hook's TU "
            "aliases live_ slab memory that send_tu can relocate (the "
            "engine hard-errors at runtime; defer via schedule_timer "
            "instead)");
      }
    }

    // 4. on_tu_forwarded body tracking + brace depth bookkeeping.
    if (std::regex_search(code, kForwardHook) &&
        code.find(';') == std::string::npos) {
      forward_pending = true;
    }
    for (const char c : code) {
      if (c == '{') {
        ++depth;
        if (forward_pending) {
          forward_depth = depth;
          forward_pending = false;
        }
      } else if (c == '}') {
        --depth;
        if (depth < 0) depth = 0;
        if (forward_depth >= 0 && depth < forward_depth) forward_depth = -1;
        // Leaving a block: drop bindings scoped deeper, and clear poison
        // whose relocating block just closed (guard-clause idiom — the
        // relocation path returned out of the function).
        bindings.erase(
            std::remove_if(bindings.begin(), bindings.end(),
                           [&](const Binding& b) { return b.depth > depth; }),
            bindings.end());
        for (Binding& b : bindings) {
          if (b.poisoned && b.poison_depth > depth) {
            b.poisoned = false;
            b.reloc_line = 0;
            b.reloc_what.clear();
          }
        }
      } else if (c == ';' && forward_pending) {
        forward_pending = false;  // was a declaration, not a definition
      }
    }
    if (depth == 0) bindings.clear();
  }
}

void check_writer_lanes(std::string_view path,
                        const std::vector<ScrubbedLine>& lines,
                        std::vector<Finding>& out) {
  struct Owned {
    const char* pattern;
    const char* what;
    const char* owner_a;
    const char* owner_b;
  };
  static const Owned kOwned[] = {
      {R"(\blanes_\b)", "ShardedScheduler mailbox lane storage 'lanes_'",
       "src/sim/sharded_scheduler.h", "src/sim/sharded_scheduler.cpp"},
      {R"(\bdrain_mailboxes\s*\()", "barrier drain 'drain_mailboxes()'",
       "src/sim/sharded_scheduler.h", "src/sim/sharded_scheduler.cpp"},
      {R"(\b(handoff_inbox_|result_inbox_|injected_arrivals_)\b)",
       "Engine cross-shard inbox state",
       "src/routing/engine.h", "src/routing/engine.cpp"},
      {R"(\b(staged_mutations_|mutators_|node_down_depth_|channel_close_depth_)\b)",
       "Engine hostile-world mutation state",
       "src/routing/engine.h", "src/routing/engine.cpp"},
  };
  static const std::vector<std::regex> kRes = [] {
    std::vector<std::regex> res;
    for (const auto& o : kOwned) res.emplace_back(o.pattern);
    return res;
  }();
  for (std::size_t r = 0; r < std::size(kOwned); ++r) {
    if (path == kOwned[r].owner_a || path == kOwned[r].owner_b) continue;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (std::regex_search(lines[i].code, kRes[r])) {
        add(out, path, static_cast<int>(i) + 1, "writer-lanes",
            std::string(kOwned[r].what) +
                " referenced outside its owning component (" +
                kOwned[r].owner_a +
                "): cross-shard state has exactly one writer per window — "
                "go through the owning-shard API (post/deliver_*)");
      }
    }
  }
}

/// All file-local rule findings for one scrubbed source, unsuppressed.
std::vector<Finding> token_findings(std::string_view virtual_path,
                                    const std::vector<ScrubbedLine>& lines,
                                    const Options& options) {
  std::vector<Finding> raw;
  if (in_hot_dirs(virtual_path)) {
    check_ambient_nondet(virtual_path, lines, raw);
    check_unordered_decl(virtual_path, lines, raw);
    check_unordered_iter(virtual_path, lines, options.extra_unordered_names,
                         raw);
  }
  if (path_in(virtual_path, kSrcDir)) {
    check_std_function(virtual_path, lines, raw);
    check_writer_lanes(virtual_path, lines, raw);
  }
  if (path_in(virtual_path, kRoutingDir)) {
    check_slab_alias(virtual_path, lines, raw);
  }
  return raw;
}

/// Applies allow suppression to raw findings and polices the annotations
/// themselves (bare-allow / unknown-rule; stale-allow when requested).
/// `used` marks which allows suppressed at least one raw finding.
std::vector<Finding> apply_allows(std::string_view path,
                                  std::vector<Finding> raw,
                                  const std::vector<Allow>& allows,
                                  bool stale_check) {
  std::vector<char> used(allows.size(), 0);
  std::vector<Finding> out;
  for (Finding& f : raw) {
    bool suppressed = false;
    for (std::size_t a = 0; a < allows.size(); ++a) {
      const Allow& allow = allows[a];
      if (allow.has_reason && known_rule(allow.tag) && allow.tag == f.rule &&
          allow.covered_line == f.line) {
        suppressed = true;
        used[a] = 1;
      }
    }
    if (!suppressed) out.push_back(std::move(f));
  }

  // The annotations themselves are linted: a bare allow suppresses nothing
  // and is an error; so is an allow naming a rule that does not exist; and
  // (tree runs) a valid allow whose rule never fired on its covered line
  // has rotted and must go.
  for (std::size_t a = 0; a < allows.size(); ++a) {
    const Allow& allow = allows[a];
    if (!known_rule(allow.tag)) {
      std::string known;
      for (const RuleInfo& r : rule_table()) {
        if (!known.empty()) known += ", ";
        known += r.id;
      }
      add(out, path, allow.annotation_line, "unknown-rule",
          "SPLICER_LINT_ALLOW names unknown rule '" + allow.tag +
              "' (known rules: " + known + ")");
    } else if (!allow.has_reason) {
      add(out, path, allow.annotation_line, "bare-allow",
          "SPLICER_LINT_ALLOW(" + allow.tag +
              ") without a reason: every suppression must document why the "
              "contract holds — write 'SPLICER_LINT_ALLOW(" +
              allow.tag + "): <reason>'");
    } else if (stale_check && used[a] == 0 && allow.tag != "stale-allow") {
      add(out, path, allow.annotation_line, "stale-allow",
          "SPLICER_LINT_ALLOW(" + allow.tag + ") at line " +
              std::to_string(allow.annotation_line) +
              " suppresses nothing: rule '" + allow.tag +
              "' does not fire on line " +
              std::to_string(allow.covered_line) +
              " — the code it excused was fixed or moved; delete the "
              "annotation (or re-anchor it to the offending line)");
    }
  }
  return out;
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

}  // namespace

const std::vector<RuleInfo>& rules() { return rule_table(); }

std::vector<ScrubbedLine> scrub_source(std::string_view src) {
  return scrub(src);
}

std::vector<Allow> collect_allows(const std::vector<ScrubbedLine>& lines) {
  return collect_allows_impl(lines);
}

std::vector<std::string> unordered_container_names(std::string_view content) {
  return collect_unordered_names(scrub(content));
}

std::vector<Finding> lint_source(std::string_view virtual_path,
                                 std::string_view content,
                                 const Options& options) {
  const std::vector<ScrubbedLine> lines = scrub(content);
  const std::vector<Allow> allows = collect_allows_impl(lines);
  std::vector<Finding> out =
      apply_allows(virtual_path, token_findings(virtual_path, lines, options),
                   allows, /*stale_check=*/false);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

std::vector<Finding> lint_files(const std::vector<FileContent>& files) {
  // Scrub everything once; collect the cross-file unordered names.
  std::vector<std::vector<ScrubbedLine>> scrubbed;
  scrubbed.reserve(files.size());
  Options options;
  for (const FileContent& f : files) {
    scrubbed.push_back(scrub(f.content));
    if (in_hot_dirs(f.path)) {
      for (std::string& n : collect_unordered_names(scrubbed.back())) {
        options.extra_unordered_names.push_back(std::move(n));
      }
    }
  }
  std::sort(options.extra_unordered_names.begin(),
            options.extra_unordered_names.end());
  options.extra_unordered_names.erase(
      std::unique(options.extra_unordered_names.begin(),
                  options.extra_unordered_names.end()),
      options.extra_unordered_names.end());

  // Phase 2: call graph + interprocedural rules over src/.
  const CallGraph graph = CallGraph::build(files);
  std::vector<ScrubbedSource> sources;
  sources.reserve(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    sources.push_back(ScrubbedSource{files[i].path, &scrubbed[i]});
  }
  std::vector<Finding> interproc = interprocedural_findings(graph, sources);

  // Per-file: token rules + this file's share of the graph findings, then
  // allow suppression (uniform across both phases) + annotation policing.
  std::map<std::string, std::vector<Finding>> interproc_by_file;
  for (Finding& f : interproc) {
    interproc_by_file[f.file].push_back(std::move(f));
  }
  std::vector<Finding> out;
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::vector<Finding> raw =
        token_findings(files[i].path, scrubbed[i], options);
    if (auto it = interproc_by_file.find(files[i].path);
        it != interproc_by_file.end()) {
      raw.insert(raw.end(), std::make_move_iterator(it->second.begin()),
                 std::make_move_iterator(it->second.end()));
    }
    std::vector<Finding> checked =
        apply_allows(files[i].path, std::move(raw),
                     collect_allows_impl(scrubbed[i]), /*stale_check=*/true);
    out.insert(out.end(), std::make_move_iterator(checked.begin()),
               std::make_move_iterator(checked.end()));
  }
  sort_findings(out);
  return out;
}

namespace {

bool lintable_extension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc" ||
         ext == ".cxx";
}

bool skip_dir(const std::filesystem::path& p) {
  const std::string name = p.filename().string();
  return name.empty() || name.front() == '.' ||
         name.compare(0, 5, "build") == 0 || name == "data";
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    throw std::runtime_error("splicer_lint: cannot read " + p.string());
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::vector<FileContent> load_tree(const std::filesystem::path& repo_root,
                                   const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const std::string& root : roots) {
    const fs::path abs = repo_root / root;
    if (fs::is_regular_file(abs)) {
      if (lintable_extension(abs)) paths.push_back(abs);
      continue;
    }
    if (!fs::is_directory(abs)) {
      throw std::runtime_error("splicer_lint: no such file or directory: " +
                               abs.string());
    }
    fs::recursive_directory_iterator it(abs), end;
    for (; it != end; ++it) {
      if (it->is_directory()) {
        if (skip_dir(it->path())) it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && lintable_extension(it->path())) {
        paths.push_back(it->path());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<FileContent> files;
  files.reserve(paths.size());
  for (const fs::path& p : paths) {
    files.push_back(FileContent{fs::relative(p, repo_root).generic_string(),
                                read_file(p)});
  }
  return files;
}

std::vector<Finding> lint_tree(const std::filesystem::path& repo_root,
                               const std::vector<std::string>& roots) {
  return lint_files(load_tree(repo_root, roots));
}

std::string to_json(const std::vector<Finding>& findings) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += "  {\"file\": \"" + json_escape(f.file) +
           "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"" +
           json_escape(f.rule) + "\", \"message\": \"" +
           json_escape(f.message) + "\"}";
    if (i + 1 < findings.size()) out += ",";
    out += "\n";
  }
  out += "]\n";
  return out;
}

std::string to_sarif(const std::vector<Finding>& findings) {
  std::string out;
  out +=
      "{\n"
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [{\n"
      "    \"tool\": {\"driver\": {\n"
      "      \"name\": \"splicer_lint\",\n"
      "      \"informationUri\": "
      "\"tools/splicer_lint/RULES.md\",\n"
      "      \"rules\": [\n";
  const auto& table = rule_table();
  for (std::size_t i = 0; i < table.size(); ++i) {
    out += "        {\"id\": \"" + json_escape(table[i].id) +
           "\", \"shortDescription\": {\"text\": \"" +
           json_escape(table[i].summary) + "\"}}";
    if (i + 1 < table.size()) out += ",";
    out += "\n";
  }
  out +=
      "      ]\n"
      "    }},\n"
      "    \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += "      {\"ruleId\": \"" + json_escape(f.rule) +
           "\", \"level\": \"error\", \"message\": {\"text\": \"" +
           json_escape(f.message) +
           "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"" +
           json_escape(f.file) +
           "\"}, \"region\": {\"startLine\": " + std::to_string(f.line) +
           "}}}]}";
    if (i + 1 < findings.size()) out += ",";
    out += "\n";
  }
  out +=
      "    ]\n"
      "  }]\n"
      "}\n";
  return out;
}

}  // namespace splicer::lint
