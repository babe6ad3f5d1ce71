// manet_lint — a simulator-invariant checker for the manetsim tree.
//
// The Boukerche-style protocol comparison is only credible if every run is
// bit-identical for a given seed regardless of host, compiler, or thread
// count. The compiler cannot enforce that; this tool checks the source for
// the project-specific rules that make it true:
//
//   MLNT001 banned-rand          rand()/srand() instead of core/rng streams
//   MLNT002 random-device        std::random_device (hardware entropy)
//   MLNT003 wall-clock-call      time()/clock()/gettimeofday() in sim code
//   MLNT004 wall-clock-chrono    std::chrono outside annotated profiling code
//   MLNT005 rng-outside-core     <random> engines/distributions outside core/rng
//   MLNT006 unordered-iteration  iterating unordered containers where order
//                                can leak into packets or the event queue
//   MLNT007 missing-pragma-once  header without #pragma once
//   MLNT008 float-equality       ==/!= against floating-point literals
//   MLNT009 bad-suppression      malformed or rationale-free suppression
//   MLNT010 scenario-config-aggregate  positional brace-construction
//
// Structural rules. MLNT011 is scope-aware: a lightweight tokenizer tracks
// namespace/class/function nesting, so the checker knows a `static` inside a
// function from a class data member:
//
//   MLNT011 mutable-global-state  mutable namespace-scope/static state in src/
//                                (SweepRunner's concurrent replications race on it)
//   MLNT015 full-node-scan       loop over every node in PHY/MAC/net code
//
// (MLNT012 and MLNT013 policed the retired sharded kernel, and MLNT014 a
// missing RoutingProtocol::on_node_restart() override, which is now pure
// virtual, so the compiler rejects it. Their ids stay unused so old findings
// never change meaning.)
//
// Suppressions: append `// manet-lint: <tag> - <rationale>` to the offending
// line (or the line directly above it). Each rule has a tag (see rules()).
// A rationale is mandatory — a suppression without one is itself a finding.
// Whole-file opt-outs use the same comment marker with a
// `disable(MLNT00X) - <rationale>` directive within the first 40 lines.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace manet::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;     ///< e.g. "MLNT006"
  std::string message;  ///< what happened + fix-it hint
};

struct RuleInfo {
  const char* id;       ///< "MLNT001"
  const char* name;     ///< "banned-rand"
  const char* tag;      ///< suppression tag, e.g. "allow-rand"
  const char* summary;  ///< one-line description
};

/// The rule table, in id order.
[[nodiscard]] const std::vector<RuleInfo>& rules();

/// Output styles for findings: the human one-liner, GitHub Actions
/// workflow-command annotations (`::error file=...,line=...`) that render
/// inline on the PR diff, or JSON objects (the CLI wraps them in one array —
/// a machine-readable findings artifact, shared tools/common/json.* shapes).
enum class Format { kHuman, kGithub, kJson };

/// Render one finding in the given format (no trailing newline).
[[nodiscard]] std::string format_finding(const Finding& f, Format fmt);

/// Lint one file given its text. `paired_text` is the matching header of a
/// .cpp (member containers are declared there); empty when not applicable.
[[nodiscard]] std::vector<Finding> lint_text(const std::string& path, const std::string& text,
                                             const std::string& paired_text = {});

/// Lint a file on disk; for foo.cpp the sibling foo.hpp/.h is loaded as the
/// paired header automatically.
[[nodiscard]] std::vector<Finding> lint_file(const std::filesystem::path& p);

/// Recursively lint every .cpp/.hpp/.h under `roots` (files are accepted
/// too). Findings come back sorted by file then line.
[[nodiscard]] std::vector<Finding> lint_paths(const std::vector<std::filesystem::path>& roots);

/// Command-line driver: prints findings and returns the process exit code
/// (0 clean, 1 findings, 2 usage error / nonexistent path). Paths that do
/// not exist are hard errors, never silently skipped; unreadable files
/// surface as MLNT000 findings naming the path.
int run_cli(int argc, const char* const* argv);

}  // namespace manet::lint
