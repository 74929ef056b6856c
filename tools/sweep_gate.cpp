// sweep_gate — CI's parallel-speedup gate.
//
// Reads two JSON reports written by the bench harness (a serial run and
// a parallel run of the same sweep), computes the throughput speedup and
// fails if it is under the threshold. Always prints the numbers — and
// appends a markdown row to $GITHUB_STEP_SUMMARY when set — so the perf
// lane leaves an advisory comment whether or not the gate trips.
//
// The same binary also serves as the obs-overhead gate: with the plain
// run as SERIAL and the instrumented run as PARALLEL, `--min-speedup
// 0.98` asserts the instrumented run keeps >= 98% of the throughput.
//
// Given an odd number of pairs (run alternately, ref then fast), the gate
// judges the pair with the median speedup, so a single run slowed by a
// noisy shared host neither fails nor passes it on its own.
//
// usage: sweep_gate SERIAL.json PARALLEL.json [SERIAL.json PARALLEL.json ...]
//                   [--min-speedup X]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "report_json.hpp"

namespace {

using mmx::tools::Report;

void append_step_summary(const Report& serial, const Report& parallel, double speedup,
                         double min_speedup, bool pass) {
  const char* path = std::getenv("GITHUB_STEP_SUMMARY");
  if (path == nullptr || *path == '\0') return;
  std::ofstream out(path, std::ios::app);
  if (!out) return;
  out << "### Sweep speedup gate — " << parallel.bench << (pass ? " ✅\n" : " ❌\n\n");
  out << "| run | trials | threads | wall [s] | trials/s |\n";
  out << "|---|---|---|---|---|\n";
  char line[256];
  std::snprintf(line, sizeof(line), "| serial | %lld | %lld | %.3f | %.1f |\n", serial.trials,
                serial.threads, serial.wall_s, serial.trials_per_s);
  out << line;
  std::snprintf(line, sizeof(line), "| parallel | %lld | %lld | %.3f | %.1f |\n",
                parallel.trials, parallel.threads, parallel.wall_s, parallel.trials_per_s);
  out << line;
  std::snprintf(line, sizeof(line), "\n**speedup: %.2fx** (gate: >= %.2fx)\n", speedup,
                min_speedup);
  out << line;
}

struct Pair {
  Report serial;
  Report parallel;
  double speedup = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  double min_speedup = 1.5;
  std::vector<const char*> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::strtod(argv[++i], nullptr);
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.empty() || paths.size() % 4 != 2) {
    std::fprintf(stderr,
                 "usage: sweep_gate SERIAL.json PARALLEL.json [SERIAL.json PARALLEL.json ...] "
                 "[--min-speedup X]  (an odd number of pairs)\n");
    return 2;
  }

  std::vector<Pair> pairs(paths.size() / 2);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    Report& serial = pairs[k].serial;
    Report& parallel = pairs[k].parallel;
    if (!mmx::tools::load_report("sweep_gate", paths[2 * k], serial) ||
        !mmx::tools::load_report("sweep_gate", paths[2 * k + 1], parallel))
      return 2;
    if (serial.bench != parallel.bench || serial.trials != parallel.trials ||
        serial.bench != pairs[0].serial.bench || serial.trials != pairs[0].serial.trials) {
      std::fprintf(stderr, "sweep_gate: reports disagree (bench '%s'/%lld trials vs '%s'/%lld)\n",
                   serial.bench.c_str(), serial.trials, parallel.bench.c_str(), parallel.trials);
      return 2;
    }
    if (serial.trials_per_s <= 0.0) {
      std::fprintf(stderr, "sweep_gate: serial report has no throughput\n");
      return 2;
    }
    pairs[k].speedup = parallel.trials_per_s / serial.trials_per_s;
  }
  if (pairs.size() > 1) {
    for (std::size_t k = 0; k < pairs.size(); ++k)
      std::printf("sweep_gate: pair %zu speedup %.2fx\n", k + 1, pairs[k].speedup);
    std::printf("sweep_gate: judging the median pair of %zu\n", pairs.size());
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& a, const Pair& b) { return a.speedup < b.speedup; });
  const Pair& median = pairs[pairs.size() / 2];
  const Report& serial = median.serial;
  const Report& parallel = median.parallel;
  const double speedup = median.speedup;
  const bool pass = speedup >= min_speedup;
  std::printf("sweep_gate: %s, %lld trials\n", serial.bench.c_str(), serial.trials);
  std::printf("  serial:   %lld thread(s), %8.3f s wall, %10.1f trials/s\n", serial.threads,
              serial.wall_s, serial.trials_per_s);
  std::printf("  parallel: %lld thread(s), %8.3f s wall, %10.1f trials/s\n", parallel.threads,
              parallel.wall_s, parallel.trials_per_s);
  std::printf("  speedup:  %.2fx (gate: >= %.2fx) -> %s\n", speedup, min_speedup,
              pass ? "PASS" : "FAIL");
  append_step_summary(serial, parallel, speedup, min_speedup, pass);
  if (!pass) {
    std::printf("::error::parallel sweep is only %.2fx faster than serial (gate %.2fx)\n",
                speedup, min_speedup);
    return 1;
  }
  return 0;
}
