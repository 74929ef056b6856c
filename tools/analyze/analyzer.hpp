// mmx_analyze driver: repo walk, suppression and baseline application.
//
// The flow is: lex every TU under {src, tests, bench, examples, tools}
// -> run the per-file token rules -> assemble the module graph (mmx/
// includes + src/*/CMakeLists.txt link edges) and run the layering
// checks -> flag src/ headers that only their own .cpp and tests/
// include (perfbench/ is read for its includes too) -> drop findings
// covered by inline `allow()` comments or by the checked-in baseline
// -> report (human text, SARIF, DOT graph).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "include_graph.hpp"
#include "rules.hpp"
#include "token.hpp"

namespace mmx::analyze {

/// One reasoned entry of the checked-in baseline file. Format (one per
/// line, '#' comments):
///   <rule> <file> <symbol> -- <reason>
struct BaselineEntry {
  std::string rule;
  std::string file;
  std::string symbol;
  std::size_t line = 0;  // line in the baseline file itself
  bool reasoned = false;
  bool used = false;
};

/// Parse a baseline file body. Malformed or unreasoned entries append
/// meta-findings (`baseline-reason`) against `rel`.
std::vector<BaselineEntry> parse_baseline(std::string_view text, const std::string& rel,
                                          std::vector<Finding>& meta);

/// Drop findings matched by a same-line allow() for the same rule.
/// Unreasoned suppressions add `suppression-reason` findings. Returns
/// the number of findings suppressed.
std::size_t apply_inline_suppressions(
    const std::map<std::string, std::vector<Suppression>>& by_file,
    std::vector<Finding>& findings);

/// Drop findings matched by (rule, file, symbol) baseline entries; mark
/// entries used; report stale ones. Returns the number baselined.
std::size_t apply_baseline(std::vector<BaselineEntry>& entries, const std::string& baseline_rel,
                           std::vector<Finding>& findings);

struct AnalyzeOptions {
  std::string root;
  std::string baseline_path;  // empty: no baseline
  std::string sarif_path;     // empty: no SARIF output
  std::string dot_path;       // empty: no graph dump
};

struct AnalyzeResult {
  std::vector<Finding> findings;  // surviving findings, sorted
  std::size_t files_scanned = 0;
  std::size_t inline_suppressed = 0;
  std::size_t baselined = 0;
  bool io_error = false;  // root missing / outputs unwritable
};

AnalyzeResult analyze_repo(const AnalyzeOptions& opts);

}  // namespace mmx::analyze
