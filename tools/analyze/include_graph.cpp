#include "include_graph.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace mmx::analyze {
namespace {

// The enforced DAG, as ranks. An edge from -> to is legal iff
// rank(to) < rank(from) (or from == to). rf and antenna share a rank:
// they are siblings and may not include each other.
const std::map<std::string, int>& ranks() {
  static const std::map<std::string, int> kRanks = {
      {"common", 0},  {"obs", 1},     {"dsp", 2},     {"rf", 3},        {"antenna", 3},
      {"channel", 4}, {"phy", 5},     {"mac", 6},     {"sim", 7},       {"core", 8},
      {"baseline", 9}, {"tools", 100}, {"bench", 100}, {"tests", 100},  {"examples", 100},
  };
  return kRanks;
}

}  // namespace

void IncludeGraph::add_include(const std::string& from, const std::string& to,
                               const std::string& file, std::size_t line) {
  edges.push_back({from, to, file, line, /*link=*/false});
}

void IncludeGraph::add_link(const std::string& from, const std::string& to,
                            const std::string& file, std::size_t line) {
  edges.push_back({from, to, file, line, /*link=*/true});
  links[from].insert(to);
}

std::optional<std::string> module_of(const std::string& rel) {
  for (const char* top : {"tools/", "bench/", "tests/", "examples/"}) {
    if (rel.rfind(top, 0) == 0) return std::string(top, std::char_traits<char>::length(top) - 1);
  }
  if (rel.rfind("src/", 0) == 0) {
    const std::size_t slash = rel.find('/', 4);
    if (slash != std::string::npos) return rel.substr(4, slash - 4);
  }
  return std::nullopt;
}

std::optional<std::string> include_target_module(const std::string& include_path) {
  if (include_path.rfind("mmx/", 0) != 0) return std::nullopt;
  const std::size_t slash = include_path.find('/', 4);
  if (slash == std::string::npos) return std::nullopt;
  return include_path.substr(4, slash - 4);
}

std::optional<int> layer_rank(const std::string& module) {
  const auto it = ranks().find(module);
  if (it == ranks().end()) return std::nullopt;
  return it->second;
}

void parse_cmake_links(std::string_view text, const std::string& rel, IncludeGraph& graph) {
  static const std::string kCall = "target_link_libraries";
  std::size_t line = 1;
  std::size_t scanned = 0;
  std::size_t pos = 0;
  while ((pos = text.find(kCall, pos)) != std::string_view::npos) {
    for (; scanned < pos; ++scanned)
      if (text[scanned] == '\n') ++line;
    std::size_t p = pos + kCall.size();
    while (p < text.size() && std::isspace(static_cast<unsigned char>(text[p]))) ++p;
    if (p >= text.size() || text[p] != '(') {
      pos = p;
      continue;
    }
    const std::size_t close = text.find(')', p);
    if (close == std::string_view::npos) break;
    std::istringstream args(std::string(text.substr(p + 1, close - p - 1)));
    std::string word, target;
    while (args >> word) {
      if (target.empty()) {
        target = word;
        continue;
      }
      if (word == "PUBLIC" || word == "PRIVATE" || word == "INTERFACE") continue;
      if (target.rfind("mmx_", 0) == 0 && word.rfind("mmx_", 0) == 0)
        graph.add_link(target.substr(4), word.substr(4), rel, line);
    }
    pos = close;
  }
}

namespace {

// Transitive closure of `links` reachable from `from`.
void reach(const std::map<std::string, std::set<std::string>>& links, const std::string& from,
           std::set<std::string>& out) {
  const auto it = links.find(from);
  if (it == links.end()) return;
  for (const std::string& to : it->second)
    if (out.insert(to).second) reach(links, to, out);
}

// DFS cycle detection over the module-level edge set; reports one
// representative cycle path.
bool find_cycle(const std::map<std::string, std::set<std::string>>& adj,
                const std::string& node, std::map<std::string, int>& state,
                std::vector<std::string>& stack, std::string& cycle) {
  state[node] = 1;
  stack.push_back(node);
  const auto it = adj.find(node);
  if (it != adj.end()) {
    for (const std::string& next : it->second) {
      if (next == node) continue;
      if (state[next] == 1) {
        std::string path = next;
        for (auto r = std::find(stack.begin(), stack.end(), next); r != stack.end(); ++r)
          if (*r != next) path += " -> " + *r;
        cycle = path + " -> " + next;
        return true;
      }
      if (state[next] == 0 && find_cycle(adj, next, state, stack, cycle)) return true;
    }
  }
  stack.pop_back();
  state[node] = 2;
  return false;
}

}  // namespace

void check_layering(const IncludeGraph& graph, std::vector<Finding>& out) {
  // 1) Every edge must descend the DAG.
  std::set<std::pair<std::string, std::string>> reported;
  for (const ModuleEdge& e : graph.edges) {
    if (e.from == e.to) continue;
    const std::optional<int> rf = layer_rank(e.from);
    const std::optional<int> rt = layer_rank(e.to);
    const char* kind = e.link ? "link" : "include";
    if (!rf || !rt) {
      out.push_back({"layering", e.file, e.line, e.from + "->" + e.to,
                     std::string("module '") + (!rf ? e.from : e.to) +
                         "' is not in the layering table; add it to docs/ARCHITECTURE.md and "
                         "tools/analyze/include_graph.cpp in the right layer"});
      continue;
    }
    if (*rt >= *rf) {
      out.push_back({"layering", e.file, e.line, e.from + "->" + e.to,
                     std::string(kind) + " edge " + e.from + " -> " + e.to +
                         " climbs the module DAG (docs/ARCHITECTURE.md): '" + e.from +
                         "' (layer " + std::to_string(*rf) + ") may only use layers below it, "
                         "and '" + e.to + "' is at layer " + std::to_string(*rt)});
    }
  }
  // 2) No cycles in the observed graph (belt and braces: rank violations
  // already preclude them, but a future table edit must not regress this).
  std::map<std::string, std::set<std::string>> adj;
  for (const ModuleEdge& e : graph.edges)
    if (e.from != e.to) adj[e.from].insert(e.to);
  std::map<std::string, int> state;
  for (const auto& [node, _] : adj) {
    if (state[node] != 0) continue;
    std::vector<std::string> stack;
    std::string cycle;
    if (find_cycle(adj, node, state, stack, cycle)) {
      out.push_back({"layering", "src/CMakeLists.txt", 0, "cycle",
                     "module dependency cycle: " + cycle});
      break;
    }
  }
  // 3) Every cross-module include from a src/ library must be backed by a
  // CMake link edge (directly or transitively), or the build only works
  // by include-path accident.
  for (const ModuleEdge& e : graph.edges) {
    if (e.link || e.from == e.to) continue;
    const std::optional<int> rf = layer_rank(e.from);
    if (!rf || *rf >= 100) continue;  // app-level dirs link ad hoc
    std::set<std::string> closure;
    reach(graph.links, e.from, closure);
    if (closure.count(e.to) > 0) continue;
    const auto key = std::make_pair(e.from, e.to);
    if (!reported.insert(key).second) continue;
    out.push_back({"layering", e.file, e.line, e.from + "->" + e.to,
                   e.from + " includes mmx/" + e.to + "/... but mmx_" + e.from +
                       " does not link mmx_" + e.to +
                       " (directly or transitively) in src/" + e.from + "/CMakeLists.txt"});
  }
}

void check_orphan_modules(const std::set<std::string>& headers,
                          const std::map<std::string, std::set<std::string>>& includers,
                          std::vector<Finding>& out) {
  static const std::string kIncludeDir = "/include/";
  for (const std::string& header : headers) {
    const std::optional<std::string> mod = module_of(header);
    const std::size_t dir = header.find(kIncludeDir);
    if (header.rfind("src/", 0) != 0 || !mod || dir == std::string::npos) continue;
    const std::string path = header.substr(dir + kIncludeDir.size());
    const std::string name = header.substr(header.rfind('/') + 1);
    const std::string own_tu = "src/" + *mod + "/" + name.substr(0, name.rfind('.')) + ".cpp";
    bool reached = false;
    if (const auto it = includers.find(path); it != includers.end())
      for (const std::string& file : it->second)
        reached |= file != own_tu && file.rfind("tests/", 0) != 0;
    if (reached) continue;
    out.push_back({"orphan-module", header, 0, path,
                   path + " is included only by its own " + own_tu +
                       " and tests/: no other src/ file, bench, example, tool or perfbench file "
                       "reaches it; delete the module or wire it in"});
  }
}

std::string to_dot(const IncludeGraph& graph) {
  std::set<std::pair<std::string, std::string>> link_edges, include_edges;
  for (const ModuleEdge& e : graph.edges) {
    if (e.from == e.to) continue;
    (e.link ? link_edges : include_edges).insert({e.from, e.to});
  }
  std::ostringstream os;
  os << "digraph mmx_modules {\n  rankdir=BT;\n  node [shape=box, fontname=\"monospace\"];\n";
  for (const auto& [from, to] : link_edges)
    os << "  \"" << from << "\" -> \"" << to << "\";\n";
  for (const auto& [from, to] : include_edges)
    if (link_edges.count({from, to}) == 0)
      os << "  \"" << from << "\" -> \"" << to << "\" [style=dashed];\n";
  os << "}\n";
  return os.str();
}

}  // namespace mmx::analyze
