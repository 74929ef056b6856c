#include "analyzer.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "lexer.hpp"
#include "sarif.hpp"

namespace fs = std::filesystem;

namespace mmx::analyze {
namespace {

bool has_ext(const fs::path& p, std::initializer_list<const char*> exts) {
  const std::string e = p.extension().string();
  return std::any_of(exts.begin(), exts.end(), [&](const char* x) { return e == x; });
}

std::vector<fs::path> collect(const fs::path& dir, std::initializer_list<const char*> exts) {
  std::vector<fs::path> files;
  if (!fs::exists(dir)) return files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && has_ext(entry.path(), exts)) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

std::string trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return std::string(s);
}

}  // namespace

std::vector<BaselineEntry> parse_baseline(std::string_view text, const std::string& rel,
                                          std::vector<Finding>& meta) {
  std::vector<BaselineEntry> entries;
  std::size_t lineno = 0;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const std::size_t dashes = stripped.find("--");
    const std::string head = dashes == std::string::npos ? stripped : stripped.substr(0, dashes);
    const std::string reason =
        dashes == std::string::npos ? "" : trim(std::string_view(stripped).substr(dashes + 2));
    std::istringstream fields(head);
    BaselineEntry e;
    e.line = lineno;
    e.reasoned = !reason.empty();
    std::string extra;
    if (!(fields >> e.rule >> e.file >> e.symbol) || (fields >> extra)) {
      meta.push_back({"baseline-reason", rel, lineno, stripped,
                      "malformed baseline entry; expected '<rule> <file> <symbol> -- <reason>'"});
      continue;
    }
    if (!e.reasoned) {
      meta.push_back({"baseline-reason", rel, lineno, e.rule + " " + e.file,
                      "baseline entry without a reason ('-- <why>' required)"});
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

std::size_t apply_inline_suppressions(
    const std::map<std::string, std::vector<Suppression>>& by_file,
    std::vector<Finding>& findings) {
  std::size_t suppressed = 0;
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (Finding& f : findings) {
    bool drop = false;
    const auto it = by_file.find(f.file);
    if (it != by_file.end()) {
      for (const Suppression& s : it->second) {
        if (s.line == f.line && s.rule == f.rule) {
          drop = true;
          break;
        }
      }
    }
    if (drop)
      ++suppressed;
    else
      kept.push_back(std::move(f));
  }
  findings = std::move(kept);
  // A suppression without a reason is itself a finding, used or not.
  for (const auto& [file, sups] : by_file) {
    for (const Suppression& s : sups) {
      if (s.reasoned) continue;
      findings.push_back({"suppression-reason", file, s.line, s.rule,
                          "allow(" + s.rule + ") without a reason ('-- <why>' required)"});
    }
  }
  return suppressed;
}

std::size_t apply_baseline(std::vector<BaselineEntry>& entries, const std::string& baseline_rel,
                           std::vector<Finding>& findings) {
  std::size_t baselined = 0;
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (Finding& f : findings) {
    bool drop = false;
    for (BaselineEntry& e : entries) {
      if (e.rule == f.rule && e.file == f.file && e.symbol == f.symbol) {
        e.used = true;
        drop = true;
        break;
      }
    }
    if (drop)
      ++baselined;
    else
      kept.push_back(std::move(f));
  }
  findings = std::move(kept);
  for (const BaselineEntry& e : entries) {
    if (e.used) continue;
    findings.push_back({"stale-baseline", baseline_rel, e.line,
                        e.rule + " " + e.file + " " + e.symbol,
                        "baseline entry matches no finding anymore; delete it (" + e.rule + " " +
                            e.file + " " + e.symbol + ")"});
  }
  return baselined;
}

AnalyzeResult analyze_repo(const AnalyzeOptions& opts) {
  AnalyzeResult result;
  const fs::path root = fs::absolute(opts.root);
  if (!fs::exists(root / "src")) {
    result.io_error = true;
    result.findings.push_back(
        {"io", opts.root, 0, "root", "does not look like the mmX repo root (no src/)"});
    return result;
  }

  std::vector<Finding> findings;
  std::map<std::string, std::vector<Suppression>> suppressions;
  IncludeGraph graph;
  std::set<std::string> src_headers;
  std::map<std::string, std::set<std::string>> includers;  // "mmx/<m>/<x>.hpp" -> files

  // perfbench/ is read for its includes only: it may reach a module, but
  // no per-file rule runs on it.
  for (const char* top : {"src", "tests", "bench", "examples", "tools", "perfbench"}) {
    const bool checked = std::string_view(top) != "perfbench";
    for (const fs::path& p : collect(root / top, {".hpp", ".cpp", ".h", ".cc"})) {
      std::string text;
      const std::string rel = fs::relative(p, root).generic_string();
      if (!read_file(p, text)) {
        findings.push_back({"io", rel, 0, "read", "could not read file"});
        continue;
      }
      LexedFile f = lex(text, rel);
      for (const IncludeDirective& inc : f.includes)
        if (inc.path.rfind("mmx/", 0) == 0) includers[inc.path].insert(rel);
      if (!checked) continue;
      ++result.files_scanned;
      if (rel.rfind("src/", 0) == 0 && p.extension() == ".hpp") src_headers.insert(rel);
      run_file_rules(f, classify(rel), findings);
      if (!f.suppressions.empty()) suppressions[rel] = f.suppressions;
      const std::optional<std::string> from = module_of(rel);
      if (from) {
        for (const IncludeDirective& inc : f.includes) {
          const std::optional<std::string> to = include_target_module(inc.path);
          if (to) graph.add_include(*from, *to, rel, inc.line);
        }
      }
    }
  }

  // Link edges from the library CMake files.
  if (fs::exists(root / "src")) {
    for (const auto& entry : fs::directory_iterator(root / "src")) {
      const fs::path cml = entry.path() / "CMakeLists.txt";
      if (!entry.is_directory() || !fs::exists(cml)) continue;
      std::string text;
      if (read_file(cml, text))
        parse_cmake_links(text, fs::relative(cml, root).generic_string(), graph);
    }
  }
  check_layering(graph, findings);
  check_orphan_modules(src_headers, includers, findings);

  result.inline_suppressed = apply_inline_suppressions(suppressions, findings);

  if (!opts.baseline_path.empty()) {
    std::string text;
    const std::string baseline_rel =
        fs::relative(fs::absolute(opts.baseline_path), root).generic_string();
    if (!read_file(opts.baseline_path, text)) {
      findings.push_back({"io", baseline_rel, 0, "read", "could not read baseline file"});
    } else {
      std::vector<BaselineEntry> entries = parse_baseline(text, baseline_rel, findings);
      result.baselined = apply_baseline(entries, baseline_rel, findings);
    }
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
  result.findings = std::move(findings);

  if (!opts.sarif_path.empty()) {
    std::ofstream out(opts.sarif_path);
    if (out)
      out << to_sarif(result.findings);
    else
      result.io_error = true;
  }
  if (!opts.dot_path.empty()) {
    std::ofstream out(opts.dot_path);
    if (out)
      out << to_dot(graph);
    else
      result.io_error = true;
  }
  return result;
}

}  // namespace mmx::analyze
