#include "splicer_lint/cli.h"

#include <exception>
#include <string_view>

#include "splicer_lint/call_graph.h"
#include "splicer_lint/lint_core.h"

namespace splicer::lint {
namespace {

void print_usage(std::ostream& err) {
  err << "usage: splicer_lint [options] <path>...\n"
         "\n"
         "Two-phase static analysis of the repo's determinism and\n"
         "memory-safety contracts: per-file token rules plus a call-graph\n"
         "rule (slab-alias-escape) over src/. Suppress a finding with\n"
         "  // SPLICER_LINT_ALLOW(<rule-id>): <non-empty reason>\n"
         "on the offending line or the comment line directly above it;\n"
         "stale suppressions are findings themselves.\n"
         "\n"
         "options:\n"
         "  --error-on-findings   exit 1 when findings are present\n"
         "  --format <fmt>        text (default), json, or sarif\n"
         "  --dump-callgraph      print the resolved call graph and every\n"
         "                        unresolved call, then exit\n"
         "  --list-rules          print the rule table\n"
         "  -h, --help            this text\n"
         "\n"
         "exit codes: 0 clean (or findings without --error-on-findings),\n"
         "1 findings with --error-on-findings, 2 usage or IO error\n";
}

void print_rules(std::ostream& out) {
  for (const RuleInfo& rule : rules()) {
    out << rule.id;
    for (std::size_t pad = rule.id.size(); pad < 24; ++pad) out << ' ';
    out << "[" << rule.scope << "]\n    " << rule.summary << "\n";
  }
}

void dump_callgraph(const CallGraph& graph, std::ostream& out) {
  const auto& fns = graph.functions();
  out << "functions: " << fns.size() << "\n";
  for (std::size_t i = 0; i < fns.size(); ++i) {
    out << "  " << graph.qualified_name(static_cast<int>(i)) << "  (" <<
        fns[i].file << ":" << fns[i].line << ")\n";
    for (const int callee : graph.out_edges()[i]) {
      out << "    -> " << graph.qualified_name(callee) << "\n";
    }
  }
  out << "unresolved calls: " << graph.unresolved().size() << "\n";
  for (const UnresolvedCall& u : graph.unresolved()) {
    const FunctionDef& caller = fns[static_cast<std::size_t>(u.caller)];
    const CallSite& site =
        caller.calls[static_cast<std::size_t>(u.call_index)];
    out << "  " << caller.file << ":" << site.line << "  "
        << graph.qualified_name(u.caller) << " -> " << site.name << "  ("
        << u.candidate_keys << " candidate scopes)\n";
  }
}

}  // namespace

int run_cli(const std::filesystem::path& repo_root,
            const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  bool error_on_findings = false;
  bool list_rules = false;
  bool dump_graph = false;
  std::string format = "text";
  std::vector<std::string> roots;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view arg = args[i];
    if (arg == "--error-on-findings") {
      error_on_findings = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--dump-callgraph") {
      dump_graph = true;
    } else if (arg == "--format") {
      if (i + 1 >= args.size()) {
        err << "splicer_lint: --format needs an argument (text|json|sarif)\n";
        return kExitUsage;
      }
      format = args[++i];
      if (format != "text" && format != "json" && format != "sarif") {
        err << "splicer_lint: unknown format '" << format
            << "' (expected text, json or sarif)\n";
        return kExitUsage;
      }
    } else if (arg == "--help" || arg == "-h") {
      print_usage(err);
      return kExitClean;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "splicer_lint: unknown option '" << arg << "'\n";
      print_usage(err);
      return kExitUsage;
    } else {
      roots.emplace_back(arg);
    }
  }

  if (list_rules) {
    print_rules(out);
    if (roots.empty()) return kExitClean;
  }
  if (roots.empty()) {
    print_usage(err);
    return kExitUsage;
  }

  try {
    if (dump_graph) {
      dump_callgraph(CallGraph::build(load_tree(repo_root, roots)), out);
      return kExitClean;
    }
    const std::vector<Finding> findings = lint_tree(repo_root, roots);
    if (format == "json") {
      out << to_json(findings);
    } else if (format == "sarif") {
      out << to_sarif(findings);
    } else {
      for (const Finding& f : findings) {
        out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
            << "\n";
      }
      if (findings.empty()) {
        out << "splicer_lint: clean\n";
      } else {
        out << "splicer_lint: " << findings.size() << " finding"
            << (findings.size() == 1 ? "" : "s") << "\n";
      }
    }
    if (findings.empty()) return kExitClean;
    return error_on_findings ? kExitFindings : kExitClean;
  } catch (const std::exception& e) {
    err << "splicer_lint: " << e.what() << "\n";
    return kExitUsage;
  }
}

}  // namespace splicer::lint
