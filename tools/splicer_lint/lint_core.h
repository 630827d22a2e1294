#pragma once

// splicer-lint: repo-contract static analysis for the determinism-critical
// core. A token/regex-level checker (no compiler front-end, no LLVM dev
// dependency) that enforces the source-level contracts behind the repo's
// CI-gated guarantees — the frozen epoch-0 fig7 event stream, 1-shard
// parity with the sequential engine, and N-shard byte-identity.
//
// The analysis runs in two phases:
//
//   phase 1  per-file token scan: each source is scrubbed (comments and
//            literal contents blanked, positions preserved) and the
//            file-local rules run over the scrubbed lines. A tree-wide
//            sub-pass carries unordered-container member names from
//            headers into their .cpp files.
//   phase 2  repo-wide call-graph analysis (call_graph.h): a symbol index
//            of function/method definitions over src/ with call sites
//            resolved heuristically by name + enclosing-class scope, and
//            graph-powered rules (rules_interproc.h) that track contract
//            violations hiding one or more calls deep.
//
// File-local rules:
//
//   ambient-nondet   no wall clocks / ambient randomness / environment
//                    reads inside src/sim, src/routing, src/pcn — all
//                    entropy must flow from the seeded common::rng.
//   unordered-decl   every std::unordered_map/set in those dirs carries an
//                    adjacent allow annotation (rule id unordered-decl)
//                    asserting its iteration order can never reach the
//                    event stream (keyed access only, or sorted first).
//   unordered-iter   range-for / .begin() iteration over an unordered
//                    container in those dirs must be annotated or rewritten
//                    over an ordered/sorted container.
//   std-function     std::function is banned in src/ (SBO-free type
//                    erasure heap-allocates on the hot path); use
//                    common::SmallFunction, or annotate the documented
//                    fallback variants.
//   slab-alias       a reference/pointer bound to Engine slab state
//                    (find_payment_state / payment_state / state_or_orphan)
//                    must not be used after a slab relocation point
//                    (send_tu / fail_payment) in the same scope, and
//                    send_tu must never be dispatched from inside
//                    on_tu_forwarded (whose TU aliases the live_ slab).
//   writer-lanes     single-writer mailbox state (ShardedScheduler lanes,
//                    Engine cross-shard inboxes, Engine mutation state)
//                    is mutated only inside its owning component's
//                    translation units.
//
// Call-graph rules (tree runs only — see rules_interproc.h for the
// contracts): writer-lanes-transitive, hotpath-alloc, slab-alias-escape,
// float-order.
//
// Suppression: a finding is allowed by a comment on the same line, or on a
// comment-only line directly above the offending code, of the form
//     // SPLICER_LINT_ALLOW(<rule-id>): <non-empty reason>
// A bare allow (missing or empty reason) and an allow naming an unknown
// rule are themselves findings (bare-allow / unknown-rule), and in tree
// runs an allow whose rule never fires on its covered line is a
// stale-allow finding — suppressions cannot rot silently after the code
// they excused is fixed or deleted.
//
// Being token-level, the checker is deliberately conservative: it tracks
// brace depth but not control flow, resolves calls by name rather than by
// type, and clears slab-alias poison when the relocating block closes (the
// guard-clause `if (...) { fail_payment(...); return; }` idiom). False
// negatives are backstopped by the SPLICER_AUDIT dynamic witnesses and the
// runtime hard-errors in the engine.

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace splicer::lint {

struct Finding {
  std::string file;     // repo-relative path (forward slashes)
  int line = 0;         // 1-based
  std::string rule;     // rule id, e.g. "ambient-nondet"
  std::string message;
};

struct RuleInfo {
  std::string_view id;
  std::string_view scope;    // human-readable path scope
  std::string_view summary;
};

/// The enforced rules, in reporting order (excludes the bare-allow /
/// unknown-rule meta findings, which police the annotations themselves).
[[nodiscard]] const std::vector<RuleInfo>& rules();

// ---------------------------------------------------------------------------
// Scrubber + allow parsing (shared with the call-graph phase)
// ---------------------------------------------------------------------------

/// One source line split into code text and comment text. Literal contents
/// are blanked with spaces (tokens inside strings never match a rule) and
/// column positions are preserved.
struct ScrubbedLine {
  std::string code;     // comments and literal contents replaced by spaces
  std::string comment;  // comment text only (for SPLICER_LINT_ALLOW parsing)
};

/// Splits a source into scrubbed lines. Handles //, /*...*/, "...", '...'
/// and raw strings (R"delim(...)delim" with any encoding prefix); an
/// unterminated literal at EOF scrubs to the end without error.
[[nodiscard]] std::vector<ScrubbedLine> scrub_source(std::string_view src);

/// A parsed SPLICER_LINT_ALLOW annotation.
struct Allow {
  int annotation_line = 0;  // where the comment sits (1-based)
  int covered_line = 0;     // which code line it suppresses
  std::string tag;
  bool has_reason = false;
};

/// All allow annotations in comment text. A trailing allow covers its own
/// line; an allow on a comment-only line covers the next code-bearing line.
[[nodiscard]] std::vector<Allow> collect_allows(
    const std::vector<ScrubbedLine>& lines);

// ---------------------------------------------------------------------------
// Linting
// ---------------------------------------------------------------------------

struct Options {
  /// Unordered-container variable names declared in *other* files (the
  /// tree pass feeds header declarations into .cpp scans so iteration over
  /// a member declared in the header is still caught).
  std::vector<std::string> extra_unordered_names;
};

/// Lints one in-memory source with the file-local rules only. The
/// `virtual_path` is the repo-relative path used for rule scoping (tests
/// lint fixture content under fake paths). Call-graph rules and stale-allow
/// detection need the whole tree — use lint_files/lint_tree for those.
[[nodiscard]] std::vector<Finding> lint_source(std::string_view virtual_path,
                                               std::string_view content,
                                               const Options& options = {});

/// Names of unordered-container variables declared in `content` (pass 1 of
/// the tree-wide cross-file iteration check).
[[nodiscard]] std::vector<std::string> unordered_container_names(
    std::string_view content);

/// An in-memory source file for the multi-file pipeline.
struct FileContent {
  std::string path;     // repo-relative, forward slashes
  std::string content;
};

/// Loads every lintable file (.h/.hpp/.cpp/.cc/.cxx) under each root (a
/// file or directory relative to `repo_root`) into memory, repo-relative
/// paths with forward slashes, sorted. Hidden directories, anything named
/// build*, and data dirs are skipped. Throws on a missing root or an
/// unreadable file.
[[nodiscard]] std::vector<FileContent> load_tree(
    const std::filesystem::path& repo_root,
    const std::vector<std::string>& roots);

/// The full two-phase analysis over a set of in-memory sources: file-local
/// rules on every file, the call graph + interprocedural rules over the
/// files under src/, allow suppression across both phases, and stale-allow
/// findings for suppressions that no longer match anything.
[[nodiscard]] std::vector<Finding> lint_files(
    const std::vector<FileContent>& files);

/// Recursively lints every .h/.hpp/.cpp/.cc/.cxx under each root (a file or
/// directory, relative to `repo_root`) through lint_files. Hidden
/// directories, anything named build*, and tests/data are skipped.
/// Findings are sorted by (file, line).
[[nodiscard]] std::vector<Finding> lint_tree(
    const std::filesystem::path& repo_root,
    const std::vector<std::string>& roots);

// ---------------------------------------------------------------------------
// Machine-readable output (CI annotations)
// ---------------------------------------------------------------------------

/// Findings as a JSON array of {file, line, rule, message} objects.
[[nodiscard]] std::string to_json(const std::vector<Finding>& findings);

/// Findings as a minimal SARIF 2.1.0 document (one run, rule metadata from
/// rules(), one result per finding) — uploadable as a GitHub code-scanning
/// artifact.
[[nodiscard]] std::string to_sarif(const std::vector<Finding>& findings);

}  // namespace splicer::lint
