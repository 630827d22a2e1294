#pragma once

// splicer-lint phase 2: a graph-powered rule over the call graph built by
// call_graph.h. It closes a one-call-deep hole in the token rules — a
// contract violation hiding behind a helper function is attributed to its
// callers through the graph:
//
//   slab-alias-escape  a reference/pointer bound to Engine slab state that
//            is passed as an argument into a callee which transitively
//            reaches a relocation point (send_tu / fail_payment) is
//            flagged at the call site — the callee may relocate or evict
//            the slab the reference aliases, one or more calls deep.

#include <vector>

#include "splicer_lint/call_graph.h"
#include "splicer_lint/lint_core.h"

namespace splicer::lint {

/// A scrubbed source handed to the graph rules (scrubbed once by the
/// caller, shared with the token pass).
struct ScrubbedSource {
  std::string path;
  const std::vector<ScrubbedLine>* lines = nullptr;
};

/// Runs the call-graph rule. Returned findings are raw (allow suppression
/// is applied by lint_files, uniformly with the token rules).
[[nodiscard]] std::vector<Finding> interprocedural_findings(
    const CallGraph& graph, const std::vector<ScrubbedSource>& sources);

}  // namespace splicer::lint
