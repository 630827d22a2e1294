#pragma once

// splicer-lint phase 2: graph-powered rules over the call graph built by
// call_graph.h. These close the one-call-deep holes in the token rules —
// a contract violation hiding behind a helper function is attributed to
// its callers through the graph:
//
//   hotpath-alloc  no new / make_unique / make_shared, no std container or
//            std::string construction, and no reserve/resize in any
//            function reachable from the hot event-loop entry points
//            (Engine::handle_event, any on_timer override, which also
//            runs the rate tick) inside src/sim, src/routing, src/pcn.
//            Pool internals, per-engine scratch and amortised-capacity
//            sites carry a reasoned allow annotation for the
//            hotpath-alloc rule.
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

/// Runs the two call-graph rules. Returned findings are raw (allow
/// suppression is applied by lint_files, uniformly with the token rules).
[[nodiscard]] std::vector<Finding> interprocedural_findings(
    const CallGraph& graph, const std::vector<ScrubbedSource>& sources);

}  // namespace splicer::lint
