// splicer-lint self-test: fixture files with known violations pin the exact
// (line, rule) output of every rule, allowlist honoring, bare-allow
// rejection and path scoping — plus the repo-is-clean self-gate, which
// lints the real tree exactly as tools/ci.sh does and requires zero
// findings. If a rule regex regresses (misses a violation or fires on
// clean idiom), a fixture pin breaks before CI does.
//
// The call_graph/ fixture corpus pins phase-2 resolution behaviour
// (overload sets, method-vs-free-function preference, deliberately
// unresolved member calls), the LintInterproc suites pin one true positive
// and one annotated negative per graph rule — including violations only
// visible through the call graph — and the Cli suites pin the documented
// exit codes and the json/sarif output formats.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "splicer_lint/call_graph.h"
#include "splicer_lint/cli.h"
#include "splicer_lint/lint_core.h"

namespace splicer::lint {
namespace {

using LineRule = std::pair<int, std::string>;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(SPLICER_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<LineRule> line_rules(const std::vector<Finding>& findings) {
  std::vector<LineRule> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.emplace_back(f.line, f.rule);
  return out;
}

TEST(LintRules, TableListsEveryRuleOnce) {
  const std::vector<std::string> expected = {
      "ambient-nondet", "unordered-decl", "unordered-iter",
      "std-function",   "slab-alias",     "slab-alias-escape",
      "stale-allow"};
  const auto& table = rules();
  ASSERT_EQ(table.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(table[i].id, expected[i]);
    EXPECT_FALSE(table[i].scope.empty());
    EXPECT_FALSE(table[i].summary.empty());
  }
}

TEST(LintAmbientNondet, FlagsClocksEntropyAndEnv) {
  const std::string src = read_fixture("ambient_nondet.cpp");
  const auto findings = lint_source("src/sim/fixture.cpp", src);
  const std::vector<LineRule> expected = {{8, "ambient-nondet"},
                                          {12, "ambient-nondet"},
                                          {13, "ambient-nondet"},
                                          {21, "ambient-nondet"},
                                          {22, "ambient-nondet"}};
  EXPECT_EQ(line_rules(findings), expected);
}

TEST(LintAmbientNondet, ScopedToDeterminismCriticalDirs) {
  const std::string src = read_fixture("ambient_nondet.cpp");
  // Outside src/sim, src/routing, src/pcn the rule does not apply: bench
  // harnesses may legitimately read wall clocks.
  EXPECT_TRUE(lint_source("bench/fixture.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/common/fixture.cpp", src).empty());
}

TEST(LintUnordered, FlagsDeclsAndIterationHonorsAllows) {
  const std::string src = read_fixture("unordered.cpp");
  const auto findings = lint_source("src/routing/fixture.cpp", src);
  // Line 6: unannotated declaration. Line 13: range-for over a tracked
  // unordered member. Line 16: explicit .begin() walk. The annotated
  // declaration (line 8) and annotated loop (line 15) are suppressed.
  const std::vector<LineRule> expected = {{6, "unordered-decl"},
                                          {13, "unordered-iter"},
                                          {16, "unordered-iter"}};
  EXPECT_EQ(line_rules(findings), expected);
}

TEST(LintUnordered, CrossFileNamesComeFromOptions) {
  // Iterating a member whose unordered declaration lives in another file
  // (the header) is caught only when the tree pass feeds the name in.
  const std::string src =
      "int sum() {\n"
      "  int total = 0;\n"
      "  for (const auto& [k, v] : remap_) total += v;\n"
      "  return total;\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/pcn/fixture.cpp", src).empty());
  Options options;
  options.extra_unordered_names.push_back("remap_");
  const auto findings = lint_source("src/pcn/fixture.cpp", src, options);
  const std::vector<LineRule> expected = {{3, "unordered-iter"}};
  EXPECT_EQ(line_rules(findings), expected);
}

TEST(LintStdFunction, FlagsUsesAcrossSrcHonorsAllows) {
  const std::string src = read_fixture("std_function.cpp");
  const auto findings = lint_source("src/pcn/fixture.cpp", src);
  const std::vector<LineRule> expected = {{4, "std-function"}};
  EXPECT_EQ(line_rules(findings), expected);
  // The rule covers all of src/ (not just the hot dirs) but not tools or
  // bench harness code.
  EXPECT_EQ(line_rules(lint_source("src/common/fixture.cpp", src)), expected);
  EXPECT_TRUE(lint_source("bench/fixture.cpp", src).empty());
  EXPECT_TRUE(lint_source("tools/fixture.cpp", src).empty());
}

TEST(LintSlabAlias, FlagsStaleRefsAndForwardHookDispatch) {
  const std::string src = read_fixture("slab_alias.cpp");
  const auto findings = lint_source("src/routing/fixture.cpp", src);
  // Line 8: 'state' used after the send_tu on line 7 relocated the slab.
  // Line 22: send_tu dispatched from inside on_tu_forwarded. The
  // guard-clause idiom (fail_payment + return inside an if block, line 14)
  // must NOT poison the use on line 17.
  const std::vector<LineRule> expected = {{8, "slab-alias"},
                                          {22, "slab-alias"}};
  EXPECT_EQ(line_rules(findings), expected);
}

TEST(LintSlabAlias, ScopedToRoutingDir) {
  const std::string src = read_fixture("slab_alias.cpp");
  EXPECT_TRUE(lint_source("src/common/fixture.cpp", src).empty());
}

TEST(LintAllowMeta, BareAndUnknownAllowsAreFindingsAndSuppressNothing) {
  const std::string src = read_fixture("allow_meta.cpp");
  const auto findings = lint_source("src/routing/fixture.cpp", src);
  const std::vector<LineRule> expected = {
      {4, "bare-allow"},     {5, "unordered-decl"}, {7, "unknown-rule"},
      {8, "unordered-decl"}, {10, "bare-allow"},    {11, "unordered-decl"}};
  EXPECT_EQ(line_rules(findings), expected);
}

TEST(LintClean, CleanFileHasNoFindings) {
  const std::string src = read_fixture("clean.cpp");
  EXPECT_TRUE(lint_source("src/routing/fixture.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/sim/fixture.cpp", src).empty());
}

TEST(LintLiterals, BannedTokensInsideStringsAndCommentsDoNotMatch) {
  const std::string src =
      "// rand() and lanes_ and std::function<void()> in a comment\n"
      "const char* doc = \"getenv system_clock lanes_\";\n"
      "const char* raw = R\"(std::unordered_map<int, int> ghost_;)\";\n";
  EXPECT_TRUE(lint_source("src/sim/fixture.cpp", src).empty());
}

// The self-gate: the real tree, linted exactly as tools/ci.sh lints it,
// must be clean. Every suppression in src/ carries its reason; a new
// violation (or a new bare allow) fails this test before it fails CI.
TEST(LintRepo, TreeIsClean) {
  const auto findings = lint_tree(SPLICER_LINT_REPO_ROOT,
                                  {"src", "tools", "bench", "examples"});
  for (const Finding& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;
  }
}

// ---------------------------------------------------------------------------
// Scrubber edge cases
// ---------------------------------------------------------------------------

TEST(LintScrubber, RawStringWithEncodingPrefixAndDelimiter) {
  const std::string src =
      "const char* s = u8R\"delim(rand() lanes_ )quote\" still inside)delim\";"
      " int x = 0;\n";
  const auto lines = scrub_source(src);
  ASSERT_FALSE(lines.empty());
  // Everything between the custom delimiters is blanked — including the
  // lookalike terminator )quote" — and code after the literal survives.
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  EXPECT_EQ(lines[0].code.find("still inside"), std::string::npos);
  EXPECT_NE(lines[0].code.find("int x = 0"), std::string::npos);
  EXPECT_TRUE(lint_source("src/sim/fixture.cpp", src).empty());
}

TEST(LintScrubber, UnterminatedRawStringAtEofScrubsToEnd) {
  const std::string src =
      "const char* s = R\"(never closed\n"
      "rand();\n"
      "lanes_.clear();\n";
  const auto lines = scrub_source(src);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[1].code.find("rand"), std::string::npos);
  EXPECT_EQ(lines[2].code.find("lanes_"), std::string::npos);
  EXPECT_TRUE(lint_source("src/sim/fixture.cpp", src).empty());
}

TEST(LintScrubber, AllowInsideRawStringIsInert) {
  const std::string src =
      "const char* doc = R\"(SPLICER_LINT_ALLOW(unordered-decl): fake)\";\n"
      "std::unordered_map<int, int> m_;\n";
  // The annotation text lives inside a literal (blanked code), not a
  // comment — it must suppress nothing.
  EXPECT_TRUE(collect_allows(scrub_source(src)).empty());
  const auto findings = lint_source("src/sim/fixture.cpp", src);
  const std::vector<LineRule> expected = {{2, "unordered-decl"}};
  EXPECT_EQ(line_rules(findings), expected);
}

// ---------------------------------------------------------------------------
// Call-graph fixture corpus
// ---------------------------------------------------------------------------

int find_unique(const CallGraph& graph, const std::string& qualified) {
  int found = -1;
  for (std::size_t i = 0; i < graph.functions().size(); ++i) {
    if (graph.qualified_name(static_cast<int>(i)) == qualified) {
      EXPECT_EQ(found, -1) << "duplicate definition of " << qualified;
      found = static_cast<int>(i);
    }
  }
  EXPECT_NE(found, -1) << qualified << " not indexed";
  return found;
}

std::vector<std::string> callee_names(const CallGraph& graph, int caller) {
  std::vector<std::string> names;
  for (const int callee : graph.out_edges()[static_cast<std::size_t>(caller)]) {
    names.push_back(graph.qualified_name(callee));
  }
  std::sort(names.begin(), names.end());
  return names;
}

CallGraph build_graph(const std::string& fixture, const std::string& vpath) {
  return CallGraph::build({FileContent{vpath, read_fixture(fixture)}});
}

TEST(CallGraphCorpus, ResolveBasic) {
  const CallGraph graph =
      build_graph("call_graph/resolve_basic.cpp", "src/sim/basic.cpp");
  ASSERT_EQ(graph.functions().size(), 4u);
  const int leaf = find_unique(graph, "leaf");
  const int caller = find_unique(graph, "caller");
  const int helper = find_unique(graph, "Widget::helper");
  const int run = find_unique(graph, "Widget::run");
  EXPECT_EQ(callee_names(graph, caller), std::vector<std::string>{"leaf"});
  EXPECT_EQ(callee_names(graph, helper), std::vector<std::string>{"leaf"});
  // run() resolves helper() to the sibling method and caller() to the free
  // function.
  EXPECT_EQ(callee_names(graph, run),
            (std::vector<std::string>{"Widget::helper", "caller"}));
  EXPECT_TRUE(callee_names(graph, leaf).empty());
  EXPECT_TRUE(graph.unresolved().empty());
}

TEST(CallGraphCorpus, OverloadsGetAnEdgeEach) {
  const CallGraph graph =
      build_graph("call_graph/overloads.cpp", "src/sim/overloads.cpp");
  const int use = find_unique(graph, "use");
  // Both pick(int) and pick(double) are indexed under one key; the call
  // fans out to the whole overload set.
  EXPECT_EQ(callee_names(graph, use),
            (std::vector<std::string>{"pick", "pick"}));
  EXPECT_TRUE(graph.unresolved().empty());
}

TEST(CallGraphCorpus, MethodShadowsFreeFunction) {
  const CallGraph graph =
      build_graph("call_graph/methods_vs_free.cpp", "src/sim/shadow.cpp");
  const int total = find_unique(graph, "Counter::total");
  const int outside = find_unique(graph, "outside");
  EXPECT_EQ(callee_names(graph, total),
            std::vector<std::string>{"Counter::tally"});
  EXPECT_EQ(callee_names(graph, outside), std::vector<std::string>{"tally"});
}

TEST(CallGraphCorpus, AmbiguousMemberCallIsUnresolved) {
  const CallGraph graph =
      build_graph("call_graph/unresolved.cpp", "src/sim/unresolved.cpp");
  const int drive = find_unique(graph, "drive");
  // obj.tick() matches both Alpha::tick and Beta::tick: no edge, one
  // recorded unresolved call naming both candidate scopes.
  EXPECT_TRUE(callee_names(graph, drive).empty());
  ASSERT_EQ(graph.unresolved().size(), 1u);
  const UnresolvedCall& u = graph.unresolved()[0];
  EXPECT_EQ(u.caller, drive);
  EXPECT_EQ(u.candidate_keys, 2);
  const CallSite& site =
      graph.functions()[static_cast<std::size_t>(u.caller)]
          .calls[static_cast<std::size_t>(u.call_index)];
  EXPECT_EQ(site.name, "tick");
}

TEST(CallGraphCorpus, OnlySrcFilesParticipate) {
  const CallGraph graph = CallGraph::build(
      {FileContent{"bench/basic.cpp", read_fixture("call_graph/resolve_basic.cpp")}});
  EXPECT_TRUE(graph.functions().empty());
}

// ---------------------------------------------------------------------------
// Interprocedural rules (lint_files over virtual src/ paths)
// ---------------------------------------------------------------------------

std::vector<Finding> lint_fixture_files(
    const std::vector<std::pair<std::string, std::string>>& path_fixture) {
  std::vector<FileContent> files;
  for (const auto& [vpath, fixture] : path_fixture) {
    files.push_back(FileContent{vpath, read_fixture(fixture)});
  }
  return lint_files(files);
}

TEST(LintInterproc, SlabAliasEscapeFlagsEscapeHonorsAllow) {
  const auto findings =
      lint_fixture_files({{"src/routing/slab_escape.cpp", "slab_escape.cpp"}});
  const std::vector<LineRule> expected = {{16, "slab-alias-escape"}};
  EXPECT_EQ(line_rules(findings), expected);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("'state'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("forward_one"), std::string::npos);
}

TEST(LintInterproc, SlabAliasEscapeScopedToRouting) {
  // The same shape outside src/routing is not slab state.
  const auto findings =
      lint_fixture_files({{"src/sim/slab_escape.cpp", "slab_escape.cpp"}});
  // Only the now-stale allow surfaces (its rule cannot fire here).
  const std::vector<LineRule> expected = {{21, "stale-allow"}};
  EXPECT_EQ(line_rules(findings), expected);
}

// ---------------------------------------------------------------------------
// stale-allow
// ---------------------------------------------------------------------------

TEST(LintStaleAllow, TreeRunFlagsRottedAllowKeepsUsedAllow) {
  const auto findings = lint_fixture_files(
      {{"src/routing/stale_allow.cpp", "stale_allow.cpp"}});
  const std::vector<LineRule> expected = {{10, "stale-allow"}};
  EXPECT_EQ(line_rules(findings), expected);
}

TEST(LintStaleAllow, FileLocalLintDoesNotFlagStaleAllows) {
  // lint_source sees one file at a time — a rule that needs the tree could
  // legitimately fire later, so staleness is only decided in tree runs.
  const std::string src = read_fixture("stale_allow.cpp");
  EXPECT_TRUE(lint_source("src/routing/stale_allow.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// CLI: exit codes and output formats
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

fs::path make_cli_tree(const std::string& name, const std::string& source) {
  const fs::path root = fs::path(testing::TempDir()) / ("splicer_lint_" + name);
  fs::remove_all(root);
  fs::create_directories(root / "src" / "sim");
  std::ofstream(root / "src" / "sim" / "probe.cpp") << source;
  return root;
}

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult cli(const fs::path& root, const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(root, args, out, err);
  return CliResult{code, out.str(), err.str()};
}

TEST(CliExitCodes, CleanTreeIsZero) {
  const fs::path root = make_cli_tree("clean", "int f() { return 2; }\n");
  const CliResult r = cli(root, {"--error-on-findings", "src"});
  EXPECT_EQ(r.code, kExitClean);
  EXPECT_NE(r.out.find("splicer_lint: clean"), std::string::npos);
}

TEST(CliExitCodes, FindingsAreOneOnlyWithErrorFlag) {
  const fs::path root = make_cli_tree("dirty", "int f() { return rand(); }\n");
  EXPECT_EQ(cli(root, {"--error-on-findings", "src"}).code, kExitFindings);
  // Without the flag findings are reported but the exit stays 0 (report
  // mode for local runs).
  const CliResult r = cli(root, {"src"});
  EXPECT_EQ(r.code, kExitClean);
  EXPECT_NE(r.out.find("[ambient-nondet]"), std::string::npos);
}

TEST(CliExitCodes, UsageAndIoErrorsAreTwo) {
  const fs::path root = make_cli_tree("usage", "int f() { return 2; }\n");
  EXPECT_EQ(cli(root, {}).code, kExitUsage);                    // no paths
  EXPECT_EQ(cli(root, {"--wat", "src"}).code, kExitUsage);      // bad option
  EXPECT_EQ(cli(root, {"--format", "xml", "src"}).code, kExitUsage);
  EXPECT_EQ(cli(root, {"--format"}).code, kExitUsage);          // missing arg
  EXPECT_EQ(cli(root, {"no/such/dir"}).code, kExitUsage);       // IO error
}

TEST(CliExitCodes, InformationalInvocationsAreZero) {
  const fs::path root = make_cli_tree("info", "int f() { return 2; }\n");
  EXPECT_EQ(cli(root, {"--help"}).code, kExitClean);
  const CliResult r = cli(root, {"--list-rules"});
  EXPECT_EQ(r.code, kExitClean);
  for (const RuleInfo& rule : rules()) {
    EXPECT_NE(r.out.find(std::string(rule.id)), std::string::npos)
        << "missing rule " << rule.id;
  }
}

TEST(CliFormats, JsonCarriesFindings) {
  const fs::path root = make_cli_tree("json", "int f() { return rand(); }\n");
  const CliResult r = cli(root, {"--format", "json", "src"});
  EXPECT_EQ(r.code, kExitClean);
  EXPECT_EQ(r.out.compare(0, 2, "[\n"), 0);
  EXPECT_NE(r.out.find("\"rule\": \"ambient-nondet\""), std::string::npos);
  EXPECT_NE(r.out.find("\"file\": \"src/sim/probe.cpp\""), std::string::npos);
}

TEST(CliFormats, SarifCarriesSchemaRuleTableAndResults) {
  const fs::path root = make_cli_tree("sarif", "int f() { return rand(); }\n");
  const CliResult r = cli(root, {"--format", "sarif", "src"});
  EXPECT_EQ(r.code, kExitClean);
  EXPECT_NE(r.out.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(r.out.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(r.out.find("\"name\": \"splicer_lint\""), std::string::npos);
  EXPECT_NE(r.out.find("\"ruleId\": \"ambient-nondet\""), std::string::npos);
  // The driver advertises every rule, not just the ones that fired.
  for (const RuleInfo& rule : rules()) {
    EXPECT_NE(r.out.find("\"id\": \"" + std::string(rule.id) + "\""),
              std::string::npos)
        << "missing rule " << rule.id;
  }
}

TEST(CliFormats, DumpCallgraphListsFunctionsAndUnresolved) {
  const fs::path root = make_cli_tree(
      "dump", "int leaf() { return 1; }\nint top() { return leaf(); }\n");
  const CliResult r = cli(root, {"--dump-callgraph", "src"});
  EXPECT_EQ(r.code, kExitClean);
  EXPECT_NE(r.out.find("functions: 2"), std::string::npos);
  EXPECT_NE(r.out.find("-> leaf"), std::string::npos);
  EXPECT_NE(r.out.find("unresolved calls: 0"), std::string::npos);
}

TEST(LintRenderers, JsonIsExactAndEscaped) {
  const std::vector<Finding> findings = {
      {"src/a.cpp", 3, "slab-alias", "msg \"quoted\"\twith\ttabs"}};
  EXPECT_EQ(to_json(findings),
            "[\n"
            "  {\"file\": \"src/a.cpp\", \"line\": 3, \"rule\": "
            "\"slab-alias\", \"message\": \"msg \\\"quoted\\\"\\twith\\t"
            "tabs\"}\n"
            "]\n");
  EXPECT_EQ(to_json({}), "[\n]\n");
}

}  // namespace
}  // namespace splicer::lint
