// Repo-wide module graph for the layering rule family.
//
// Two edge sources feed one graph: `#include "mmx/<module>/..."` lines
// from every TU, and `target_link_libraries(mmx_<module> ...)` edges
// from `src/*/CMakeLists.txt`. The layering check enforces the
// docs/ARCHITECTURE.md DAG
//
//   common -> dsp -> {rf, antenna} -> channel -> phy -> mac -> sim
//          -> core -> baseline
//
// (tools / bench / tests / examples sit on top and may use anything),
// rejects any edge that climbs the DAG or forms a cycle, and requires
// every cross-module include in src/ to be backed by a CMake link edge.
//
// The orphan-module check works on the header level: it flags a src/
// public header that no library, bench, example, tool or perfbench file
// includes, i.e. code that only its own unit test reaches.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "rules.hpp"

namespace mmx::analyze {

struct ModuleEdge {
  std::string from;
  std::string to;
  std::string file;      // provenance for the finding
  std::size_t line = 0;
  bool link = false;     // CMake link edge vs include edge
};

struct IncludeGraph {
  std::vector<ModuleEdge> edges;
  // Observed direct link deps per module (from CMake).
  std::map<std::string, std::set<std::string>> links;

  void add_include(const std::string& from, const std::string& to, const std::string& file,
                   std::size_t line);
  void add_link(const std::string& from, const std::string& to, const std::string& file,
                std::size_t line);
};

/// Module that owns a repo-relative path: "src/dsp/fft.cpp" -> "dsp",
/// "bench/harness.cpp" -> "bench". nullopt for anything else.
std::optional<std::string> module_of(const std::string& rel);

/// Module an include target belongs to: "mmx/phy/ask.hpp" -> "phy".
/// nullopt for system and non-mmx includes.
std::optional<std::string> include_target_module(const std::string& include_path);

/// Layer rank. Lower layers may be used by higher ones; equal-rank
/// modules are independent siblings. App-level dirs get a rank above
/// every library. nullopt for modules not in the table.
std::optional<int> layer_rank(const std::string& module);

/// Parse `target_link_libraries(mmx_X ... mmx_Y ...)` edges out of one
/// CMakeLists.txt body.
void parse_cmake_links(std::string_view text, const std::string& rel, IncludeGraph& graph);

/// Run every layering check over the assembled graph.
void check_layering(const IncludeGraph& graph, std::vector<Finding>& out);

/// orphan-module: flag every src/ public header
/// (`src/<m>/include/mmx/<m>/<x>.hpp`, repo-relative, in `headers`) whose
/// only includers are its own `src/<m>/<x>.cpp` and files under tests/.
/// `includers` maps an include path ("mmx/<m>/<x>.hpp") to the
/// repo-relative files that include it. Findings are keyed by the header
/// path, so a kept module needs a reasoned baseline entry.
void check_orphan_modules(const std::set<std::string>& headers,
                          const std::map<std::string, std::set<std::string>>& includers,
                          std::vector<Finding>& out);

/// Graphviz dump of the module graph (solid = link, dashed = include).
std::string to_dot(const IncludeGraph& graph);

}  // namespace mmx::analyze
