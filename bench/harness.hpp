// Shared CLI + JSON reporting for the sweep-based benches.
//
// Every Monte-Carlo bench accepts the same flags:
//   --trials N    sweep size (per-bench meaning documented in --help)
//   --threads K   worker threads (0 = one per hardware thread)
//   --seed S      root seed (trial i draws from Rng::stream(S, i))
//   --json PATH   write a machine-readable report (metric summaries,
//                 wall-clock, throughput) for CI's perf lane
//   --obs         enable mmx::obs collection; the JSON report gains an
//                 "obs" block (counters, histograms, prometheus text)
//   --trace PATH  write the merged trace as chrome://tracing JSON
//                 (implies --obs)
//
// Figure output goes to stdout exactly as before (byte-identical at the
// historical defaults); sweep timing goes to stderr so redirected figure
// text never changes with thread count or machine speed. Without --obs
// the report is byte-identical to an uninstrumented build's.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mmx/sim/sweep.hpp"

namespace mmx::bench {

struct Options {
  sim::SweepConfig sweep;
  std::string json_path;   // empty = no JSON report
  std::string trace_path;  // empty = no chrome trace (--trace sets it)
  bool obs = false;        // runtime obs collection (--obs / --trace)
};

/// A bench-specific flag on top of the shared set. `value` must point at
/// a string pre-loaded with the default; it receives the raw argument
/// (the bench parses/validates it). `help` is the usage line suffix.
struct ExtraFlag {
  const char* flag;    // e.g. "--nodes"
  const char* help;    // e.g. "resident things (default 10000)"
  std::string* value;  // non-owning; holds default, receives override
};

/// Parse the shared sweep flags; prints usage and exits on --help or a
/// malformed/unknown argument.
Options parse_args(int argc, char** argv, std::size_t default_trials,
                   std::uint64_t default_seed, const char* trials_meaning = "trials");

/// Same, plus bench-specific flags (e.g. scale_churn's --nodes/--cache).
Options parse_args(int argc, char** argv, std::size_t default_trials,
                   std::uint64_t default_seed, const char* trials_meaning,
                   const std::vector<ExtraFlag>& extras);

void report_timing_line(std::size_t trials, std::size_t threads_used, double wall_s,
                        double trials_per_s);

/// Print the "[sweep] trials=.. threads=.. wall=..s (.. trials/s)" line
/// to stderr (stderr so stdout stays byte-stable across machines).
template <typename T>
void report_timing(const sim::SweepResult<T>& result) {
  report_timing_line(result.trials.size(), result.threads_used, result.wall_s,
                     result.trials_per_s);
}

/// Accumulates metric summaries and writes the perf-lane JSON report.
class JsonReport {
 public:
  JsonReport(std::string bench_name, const Options& options);

  void add_metric(const std::string& name, const std::vector<double>& samples);
  void add_scalar(const std::string& name, double value);

  template <typename T>
  void record(const sim::SweepResult<T>& result) {
    set_timing(result.trials.size(), result.threads_used, result.wall_s, result.trials_per_s);
  }
  void set_timing(std::size_t trials, std::size_t threads_used, double wall_s,
                  double trials_per_s);
  /// Also report `"process_wall_s"` (written right after `"wall_s"`): the
  /// wall time of the whole process, for benches whose `wall_s` covers
  /// only a measurement phase.
  void set_process_wall_s(double seconds) { process_wall_s_ = seconds; }

  /// Write to `options.json_path` if set (no-op otherwise). Returns false
  /// if the file could not be written.
  bool write() const;

 private:
  std::string bench_name_;
  std::string json_path_;
  std::string trace_path_;
  bool obs_enabled_ = false;
  std::uint64_t seed_;
  std::size_t trials_ = 0;
  std::size_t threads_used_ = 0;
  double wall_s_ = 0.0;
  std::optional<double> process_wall_s_;
  double trials_per_s_ = 0.0;
  std::vector<sim::MetricSummary> metrics_;
  std::vector<std::pair<std::string, double>> scalars_;
};

}  // namespace mmx::bench
