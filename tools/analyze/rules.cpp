#include "rules.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace mmx::analyze {
namespace {

bool starts_with(const std::string& s, const char* prefix) { return s.rfind(prefix, 0) == 0; }

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool has_ext(const std::string& rel, std::initializer_list<const char*> exts) {
  return std::any_of(exts.begin(), exts.end(), [&](const char* e) { return ends_with(rel, e); });
}

const Token* tok_at(const std::vector<Token>& t, std::size_t i) {
  return i < t.size() ? &t[i] : nullptr;
}

bool next_is_punct(const std::vector<Token>& t, std::size_t i, const char* p) {
  const Token* n = tok_at(t, i + 1);
  return n != nullptr && n->is_punct(p);
}

// Index of the matching ')' for the '(' at `open`, or npos.
std::size_t match_paren(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].is_punct("(")) ++depth;
    if (t[i].is_punct(")") && --depth == 0) return i;
  }
  return std::string::npos;
}

// Index just past a template argument list starting at `i` (which must be
// '<'); angle depth counted, '>>' closes two levels. Returns `i` if the
// token is not '<'.
std::size_t skip_template_args(const std::vector<Token>& t, std::size_t i) {
  if (i >= t.size() || !t[i].is_punct("<")) return i;
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].is_punct("<")) ++depth;
    if (t[i].is_punct(">")) --depth;
    if (t[i].is_punct(">>")) depth -= 2;
    if (depth <= 0) return i + 1;
  }
  return i;
}

}  // namespace

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

FileClass classify(const std::string& rel) {
  FileClass c;
  c.in_src = starts_with(rel, "src/");
  c.public_header =
      c.in_src && rel.find("/include/") != std::string::npos && has_ext(rel, {".hpp", ".h"});
  c.float_hot =
      starts_with(rel, "src/dsp/") || starts_with(rel, "src/phy/") || starts_with(rel, "src/rf/");
  c.dsp_kernel_tu = starts_with(rel, "src/dsp/") && has_ext(rel, {".cpp", ".cc"});
  c.alloc_scope = c.in_src;
  // src/mac: shed_for, promote_demoted and retune_moved walk per-node
  // state in id order, so a hashed container would make AP decisions
  // depend on the hash.
  c.det_scope = starts_with(rel, "src/sim/") || starts_with(rel, "src/mac/") ||
                starts_with(rel, "bench/");
  c.mac_scope = starts_with(rel, "src/mac/");
  c.units_impl =
      rel == "src/common/include/mmx/common/units.hpp" || rel == "src/common/units.cpp";
  c.rng_impl = rel == "src/common/include/mmx/common/rng.hpp";
  return c;
}

// ---------------------------------------------------------------------------
// units-suffix
// ---------------------------------------------------------------------------

namespace {

const std::set<std::string>& quantity_stems() {
  static const std::set<std::string> kStems = {
      "freq", "frequency", "power", "bandwidth", "gain", "loss",
      "snr",  "sinr",      "noise", "atten",     "attenuation",
  };
  return kStems;
}

const std::set<std::string>& unit_suffixes() {
  static const std::set<std::string> kSuffixes = {
      "hz",   "khz",  "mhz",   "ghz", "db",   "dbm", "dbi", "dbc", "dbr", "w",  "mw",
      "uw",   "nw",   "kw",    "rad", "deg",  "lin", "norm", "frac", "ratio", "scale",
      "bps",  "mbps", "m",     "mm",  "s",    "ms",  "us",  "ns",
  };
  return kSuffixes;
}

std::vector<std::string> split_components(std::string name) {
  while (!name.empty() && name.back() == '_') name.pop_back();  // member `_`
  std::vector<std::string> parts;
  std::stringstream ss(name);
  std::string part;
  while (std::getline(ss, part, '_'))
    if (!part.empty()) parts.push_back(part);
  return parts;
}

}  // namespace

void check_units_suffix(const LexedFile& f, std::vector<Finding>& out) {
  const std::vector<Token>& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].is_id("double")) continue;
    std::size_t j = i + 1;
    while (j < t.size() && (t[j].is_punct("&") || t[j].is_punct("&&") || t[j].is_punct("*"))) ++j;
    const Token* name_tok = tok_at(t, j);
    if (name_tok == nullptr || name_tok->kind != TokKind::kIdentifier) continue;
    const std::string& name = name_tok->text;
    if (name == "operator") continue;
    // A '(' right after the identifier means a function name: the rule
    // covers fields and parameters, not return types.
    if (next_is_punct(t, j, "(")) continue;
    const std::vector<std::string> parts = split_components(name);
    if (parts.empty()) continue;
    const bool has_stem = std::any_of(parts.begin(), parts.end(), [](const std::string& p) {
      return quantity_stems().count(p) > 0;
    });
    if (!has_stem || unit_suffixes().count(parts.back()) > 0) continue;
    out.push_back({"units-suffix", f.rel, name_tok->line, name,
                   "'double " + name + "' holds a physical quantity but has no unit suffix "
                   "(_hz/_db/_dbm/_w/_rad/_lin/...)"});
  }
}

// ---------------------------------------------------------------------------
// rng-discipline
// ---------------------------------------------------------------------------

namespace {

void rng_scan(const std::vector<Token>& t, const std::string& rel, std::vector<Finding>& out) {
  static const std::set<std::string> kEngines = {
      "random_device", "mt19937",     "mt19937_64", "default_random_engine",
      "minstd_rand",   "minstd_rand0", "knuth_b",
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier) continue;
    const std::string& id = t[i].text;
    std::string what;
    if (id == "rand") {
      const bool qualified = i >= 2 && t[i - 1].is_punct("::") && t[i - 2].is_id("std");
      if (qualified || next_is_punct(t, i, "(")) what = "std::rand()";
    } else if (id == "srand") {
      if (next_is_punct(t, i, "(")) what = "srand()";
    } else if (id == "time") {
      const Token* a = tok_at(t, i + 1);
      const Token* b = tok_at(t, i + 2);
      const Token* c = tok_at(t, i + 3);
      if (a != nullptr && a->is_punct("(") && b != nullptr && c != nullptr &&
          c->is_punct(")") &&
          (b->is_id("nullptr") || b->is_id("NULL") ||
           (b->kind == TokKind::kNumber && b->text == "0")))
        what = "time(nullptr) seeding";
    } else if (kEngines.count(id) > 0) {
      what = "raw std::" + id + " engine";
      if (id == "random_device") what = "std::random_device";
    } else if (id.rfind("ranlux", 0) == 0) {
      what = "raw " + id + " engine";
    }
    if (what.empty()) continue;
    out.push_back({"rng-discipline", rel, t[i].line, id,
                   what + " breaks run-to-run determinism; draw from an explicitly seeded "
                   "mmx::Rng instead"});
  }
}

}  // namespace

void check_rng_discipline(const LexedFile& f, std::vector<Finding>& out) {
  rng_scan(f.tokens, f.rel, out);
  rng_scan(f.pp_tokens, f.rel, out);
}

// ---------------------------------------------------------------------------
// no-float
// ---------------------------------------------------------------------------

namespace {

void float_scan(const std::vector<Token>& t, const std::string& rel, std::vector<Finding>& out) {
  for (const Token& tk : t) {
    if (!tk.is_id("float")) continue;
    out.push_back({"no-float", rel, tk.line, "float",
                   "'float' in a DSP/PHY/RF hot path; mmX numerics are validated in double "
                   "precision only"});
  }
}

}  // namespace

void check_no_float(const LexedFile& f, std::vector<Finding>& out) {
  float_scan(f.tokens, f.rel, out);
  float_scan(f.pp_tokens, f.rel, out);
}

// ---------------------------------------------------------------------------
// db-arith
// ---------------------------------------------------------------------------

namespace {

bool number_is(const Token& t, const char* a, const char* b) {
  return t.kind == TokKind::kNumber && (t.text == a || t.text == b);
}

bool is_ten(const Token& t) { return number_is(t, "10", "10.0") || t.text == "10."; }
bool is_ten_or_twenty(const Token& t) {
  return is_ten(t) || number_is(t, "20", "20.0") || t.text == "20.";
}

void db_scan(const std::vector<Token>& t, const std::string& rel, bool strict_pow10,
             std::vector<Finding>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    // pow(10, ... / 10) / pow(10, ... / 20): hand-rolled dB -> linear.
    if (t[i].is_id("pow") && next_is_punct(t, i, "(")) {
      const Token* base = tok_at(t, i + 2);
      if (base != nullptr && is_ten(*base)) {
        bool hit = strict_pow10;  // inside src/, any pow(10, ...) is suspect
        if (!hit) {
          const std::size_t close = match_paren(t, i + 1);
          for (std::size_t j = i + 3; j + 1 < t.size() && j < close; ++j) {
            if (t[j].is_punct("/") && is_ten_or_twenty(t[j + 1])) {
              hit = true;
              break;
            }
          }
        }
        if (hit) {
          out.push_back({"db-arith", rel, t[i].line, "pow10",
                         "hand-rolled dB<->linear conversion; use mmx::lin_to_db/db_to_lin/"
                         "watt_to_dbm/dbm_to_watt from units.hpp"});
          continue;
        }
      }
    }
    // 10*log10(x) / 20*log10(x): hand-rolled linear -> dB.
    if (is_ten_or_twenty(t[i]) && next_is_punct(t, i, "*")) {
      std::size_t j = i + 2;
      if (j + 1 < t.size() && t[j].is_id("std") && t[j + 1].is_punct("::")) j += 2;
      if (j < t.size() && t[j].is_id("log10") && next_is_punct(t, j, "(")) {
        out.push_back({"db-arith", rel, t[i].line, "log10",
                       "hand-rolled dB<->linear conversion; use mmx::lin_to_db/db_to_lin/"
                       "watt_to_dbm/dbm_to_watt from units.hpp"});
      }
    }
  }
}

}  // namespace

void check_db_arith(const LexedFile& f, bool strict_pow10, std::vector<Finding>& out) {
  db_scan(f.tokens, f.rel, strict_pow10, out);
  db_scan(f.pp_tokens, f.rel, strict_pow10, out);
}

// ---------------------------------------------------------------------------
// trig-per-sample
// ---------------------------------------------------------------------------

void check_trig_per_sample(const LexedFile& f, std::vector<Finding>& out) {
  const std::vector<Token>& t = f.tokens;
  int depth = 0;
  std::vector<int> loop_frames;  // brace depth of each enclosing loop body
  bool in_header = false;        // inside a for/while header's parentheses
  bool pending_body = false;     // header closed, body not yet begun
  int header_paren = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tk = t[i];
    const bool in_loop = !loop_frames.empty() || in_header || pending_body;
    if (in_loop && (tk.is_id("sin") || tk.is_id("cos")) && next_is_punct(t, i, "(")) {
      out.push_back({"trig-per-sample", f.rel, tk.line, tk.text,
                     "sin/cos in a loop of a DSP kernel TU; advance a unit phasor (one "
                     "complex multiply per sample, periodic resync) instead, or mark a "
                     "setup/design loop with a reasoned allow()"});
    }
    if (!in_header && (tk.is_id("for") || tk.is_id("while")) && next_is_punct(t, i, "(")) {
      in_header = true;
      header_paren = 0;
      continue;
    }
    if (in_header) {
      if (tk.is_punct("(")) ++header_paren;
      if (tk.is_punct(")") && --header_paren == 0) {
        in_header = false;
        pending_body = true;
      }
      continue;
    }
    if (tk.is_punct("{")) {
      ++depth;
      if (pending_body) {
        loop_frames.push_back(depth);
        pending_body = false;
      }
    } else if (tk.is_punct("}")) {
      if (!loop_frames.empty() && loop_frames.back() == depth) loop_frames.pop_back();
      --depth;
    } else if (tk.is_punct(";") && pending_body) {
      pending_body = false;  // braceless single-statement body ended
    }
  }
}

// ---------------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------------

namespace {

// The zero-alloc fast-path surface (docs/DSP_FASTPATH.md and
// docs/GEOMETRY.md): every *_into kernel plus all methods of these
// classes. Constructors/destructors are setup time and exempt.
const std::set<std::string>& hot_classes() {
  static const std::set<std::string> kHot = {"FftPlan",       "Nco",      "GoertzelBin",
                                             "GoertzelBank",  "FramePipeline",
                                             "RoomPlan",      "PathList"};
  return kHot;
}

// Free functions that sit on the fast path without the *_into naming:
// the thread-local plan/pipeline caches called from inside hot loops.
const std::set<std::string>& hot_free_functions() {
  static const std::set<std::string> kHot = {"fft_plan", "thread_pipeline"};
  return kHot;
}

// Heap-backed value types whose construction inside a hot function is an
// allocation (workspace leases are the sanctioned alternative).
const std::set<std::string>& heap_types() {
  static const std::set<std::string> kTypes = {"Cvec", "Rvec", "Bits", "vector", "string"};
  return kTypes;
}

const std::set<std::string>& alloc_methods() {
  static const std::set<std::string> kMethods = {"push_back", "emplace_back", "resize",
                                                 "reserve",   "insert",       "assign",
                                                 "emplace",   "append"};
  return kMethods;
}

struct ClassFrame {
  std::string name;
  int open_depth;  // brace depth of the class body's '{'
};

void scan_hot_body(const std::vector<Token>& t, std::size_t begin, std::size_t end,
                   const std::string& fn, const std::string& rel, std::vector<Finding>& out) {
  for (std::size_t i = begin; i < end; ++i) {
    const Token& tk = t[i];
    if (tk.kind == TokKind::kIdentifier) {
      if (tk.text == "new") {
        out.push_back({"hot-path-alloc", rel, tk.line, "new",
                       "operator new in fast-path function '" + fn +
                           "'; lease from the DspWorkspace arena instead"});
        continue;
      }
      if (tk.text == "make_unique" || tk.text == "make_shared") {
        out.push_back({"hot-path-alloc", rel, tk.line, tk.text,
                       "std::" + tk.text + " allocates in fast-path function '" + fn + "'"});
        continue;
      }
      if (heap_types().count(tk.text) > 0) {
        // Declaration / temporary by value: `Cvec out(n)`, `Cvec{...}`,
        // `std::vector<T> tmp;`. References, pointers and nested-name uses
        // (`Cvec&`, `Cvec*`, `Cvec::`) do not construct.
        const std::size_t after = skip_template_args(t, i + 1);
        const Token* n = tok_at(t, after);
        const bool constructs =
            n != nullptr && (n->kind == TokKind::kIdentifier || n->is_punct("{") ||
                             (after == i + 1 && n->is_punct("(")));
        if (constructs && !tk.is_id("new")) {
          out.push_back({"hot-path-alloc", rel, tk.line, tk.text,
                         "constructs a heap-backed " + tk.text + " in fast-path function '" +
                             fn + "'; use a DspWorkspace lease or a caller-provided span"});
        }
        continue;
      }
    }
    if ((tk.is_punct(".") || tk.is_punct("->")) && i + 1 < end &&
        t[i + 1].kind == TokKind::kIdentifier && alloc_methods().count(t[i + 1].text) > 0 &&
        next_is_punct(t, i + 1, "(")) {
      out.push_back({"hot-path-alloc", rel, t[i + 1].line, t[i + 1].text,
                     "container ." + t[i + 1].text + "() may allocate in fast-path function '" +
                         fn + "'; size buffers at setup or lease from the workspace"});
      ++i;
    }
  }
}

}  // namespace

void check_hot_path_alloc(const LexedFile& f, std::vector<Finding>& out) {
  const std::vector<Token>& t = f.tokens;
  int depth = 0;
  std::vector<ClassFrame> classes;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tk = t[i];
    if (tk.is_punct("{")) {
      ++depth;
      continue;
    }
    if (tk.is_punct("}")) {
      if (!classes.empty() && classes.back().open_depth == depth) classes.pop_back();
      --depth;
      continue;
    }
    // Track `class X ... {` / `struct X ... {` context for in-class method
    // definitions (skips forward declarations, which end in ';').
    if ((tk.is_id("class") || tk.is_id("struct")) && i + 1 < t.size() &&
        t[i + 1].kind == TokKind::kIdentifier) {
      for (std::size_t j = i + 2; j < t.size(); ++j) {
        if (t[j].is_punct(";") || t[j].is_punct(")")) break;  // fwd-decl / param
        if (t[j].is_punct("{")) {
          classes.push_back({t[i + 1].text, depth + 1});
          break;
        }
      }
      continue;
    }
    // Candidate function definition: identifier '(' ... ')' [stuff] '{'.
    if (tk.kind != TokKind::kIdentifier || !next_is_punct(t, i, "(")) continue;
    const std::string& name = tk.text;
    std::string qual;
    if (i >= 2 && t[i - 1].is_punct("::") && t[i - 2].kind == TokKind::kIdentifier)
      qual = t[i - 2].text;
    else if (!classes.empty())
      qual = classes.back().name;
    const bool dtor = i >= 1 && t[i - 1].is_punct("~");
    const bool hot = ends_with(name, "_into") ||
                     (qual.empty() && hot_free_functions().count(name) > 0) ||
                     (hot_classes().count(qual) > 0 && name != qual && !dtor);
    if (!hot) continue;
    const std::size_t close = match_paren(t, i + 1);
    if (close == std::string::npos) continue;
    // Walk past cv-qualifiers / noexcept / trailing return to the body
    // '{'; a ';', '=', ',' or ')' first means declaration or call site.
    std::size_t k = close + 1;
    bool is_def = false;
    int trail_paren = 0;
    for (; k < t.size(); ++k) {
      if (trail_paren == 0 && t[k].is_punct("{")) {
        is_def = true;
        break;
      }
      if (trail_paren == 0 && (t[k].is_punct(";") || t[k].is_punct("=") || t[k].is_punct(",") ||
                               t[k].is_punct(")") || t[k].is_punct(":")))
        break;
      if (t[k].is_punct("(")) ++trail_paren;
      if (t[k].is_punct(")")) --trail_paren;
    }
    if (!is_def) continue;
    // Body extent.
    int body_depth = 0;
    std::size_t end = k;
    for (; end < t.size(); ++end) {
      if (t[end].is_punct("{")) ++body_depth;
      if (t[end].is_punct("}") && --body_depth == 0) break;
    }
    const std::string full = qual.empty() ? name : qual + "::" + name;
    scan_hot_body(t, k + 1, end, full, f.rel, out);
    i = end;
  }
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

void check_determinism(const LexedFile& f, std::vector<Finding>& out) {
  static const std::set<std::string> kUnordered = {"unordered_map", "unordered_set",
                                                   "unordered_multimap", "unordered_multiset"};
  static const std::set<std::string> kOrdered = {"map", "set", "multimap", "multiset"};
  const std::vector<Token>& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier) continue;
    const std::string& id = t[i].text;
    if (kUnordered.count(id) > 0) {
      out.push_back({"determinism", f.rel, t[i].line, id,
                     "std::" + id + " in result-producing code: iteration order varies across "
                     "standard libraries and runs, breaking the sweep engine's bit-identical "
                     "output guarantee; use a sorted or id-indexed container"});
      continue;
    }
    if (id == "uintptr_t" || id == "intptr_t") {
      out.push_back({"determinism", f.rel, t[i].line, id,
                     "pointer-to-integer conversion in result-producing code: addresses "
                     "change run to run, so any value derived from them is nondeterministic"});
      continue;
    }
    if (kOrdered.count(id) > 0 && next_is_punct(t, i, "<")) {
      // Pointer-keyed ordered container: ordering by address is ASLR-dependent.
      int angle = 0;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (t[j].is_punct("<")) ++angle;
        if (t[j].is_punct(">")) --angle;
        if (t[j].is_punct(">>")) angle -= 2;
        if (angle <= 0) break;
        if (angle == 1 && t[j].is_punct(",")) break;  // key type ends
        if (t[j].is_punct("*")) {
          out.push_back({"determinism", f.rel, t[i].line, id,
                         "std::" + id + " keyed on a pointer orders elements by address, "
                         "which differs run to run; key on a stable id instead"});
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// mac-rng
// ---------------------------------------------------------------------------

namespace {

// The MAC layer draws no randomness of its own: every admission, deny
// hint and backoff schedule is a pure function of the request sequence,
// which is what keeps scale reports bit-identical at any thread count
// (docs/ROBUSTNESS.md). The only sanctioned shape is a caller-supplied
// reference — `Rng&` — whose counter-derived stream the scenario layer
// built. Construction (`Rng r`, `Rng(...)`, `Rng::stream(...)`) or
// pointer forms inside src/mac/ mean the MAC grew its own entropy
// source, and the determinism contract is one merge away from breaking.
void mac_rng_scan(const std::vector<Token>& t, const std::string& rel,
                  std::vector<Finding>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].is_id("Rng")) continue;
    if (next_is_punct(t, i, "&")) continue;  // caller-supplied reference
    out.push_back({"mac-rng", rel, t[i].line, "Rng",
                   "mmx::mac must not own or construct an Rng: AP-side decisions are pure "
                   "functions of the request sequence; take a caller-supplied 'Rng&' whose "
                   "counter-derived stream the scenario layer built"});
  }
}

}  // namespace

void check_mac_rng(const LexedFile& f, std::vector<Finding>& out) {
  mac_rng_scan(f.tokens, f.rel, out);
  mac_rng_scan(f.pp_tokens, f.rel, out);
}

// ---------------------------------------------------------------------------
// Dispatch + rule table
// ---------------------------------------------------------------------------

void run_file_rules(const LexedFile& f, const FileClass& cls, std::vector<Finding>& out) {
  if (!cls.rng_impl) check_rng_discipline(f, out);
  if (!cls.units_impl) check_db_arith(f, /*strict_pow10=*/cls.in_src, out);
  if (cls.public_header) check_units_suffix(f, out);
  if (cls.float_hot) check_no_float(f, out);
  if (cls.dsp_kernel_tu) check_trig_per_sample(f, out);
  if (cls.alloc_scope) check_hot_path_alloc(f, out);
  if (cls.det_scope) check_determinism(f, out);
  if (cls.mac_scope) check_mac_rng(f, out);
}

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> kRules = {
      {"units-suffix",
       "double fields/params holding physical quantities need a unit suffix in public headers"},
      {"rng-discipline",
       "all randomness flows through an explicitly seeded mmx::Rng; no raw engines or wall-clock "
       "seeds"},
      {"no-float", "no float in src/dsp, src/phy, src/rf; numerics are double-precision only"},
      {"db-arith", "dB<->linear arithmetic lives only in units.{hpp,cpp}"},
      {"trig-per-sample", "no sin/cos inside loops of DSP kernel TUs; use the phasor fast path"},
      {"layering", "module include/link edges must follow the docs/ARCHITECTURE.md DAG"},
      {"orphan-module",
       "every src/ header is included by something other than its own .cpp and tests/"},
      {"hot-path-alloc",
       "no heap allocation in *_into kernels or FftPlan/Nco/Goertzel*/FramePipeline/RoomPlan/"
       "PathList methods"},
      {"determinism",
       "no unordered iteration, pointer keys or address-derived values in src/sim, src/mac and "
       "bench/"},
      {"mac-rng",
       "src/mac draws no randomness of its own: Rng appears only as a caller-supplied Rng&"},
      {"suppression-reason", "every allow() suppression must carry a '-- <why>' reason"},
      {"baseline-reason", "every baseline entry must carry a '-- <why>' reason"},
      {"stale-baseline", "baseline entries that no longer match any finding must be removed"},
      {"io", "source files must be readable"},
  };
  return kRules;
}

}  // namespace mmx::analyze
