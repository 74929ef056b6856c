// Micro-benchmarks of the library's trace kernel (channel::RoomPlan)
// against the frozen naive tracer (reftrace::RayTracer,
// tests/reference/ray_tracer_ref.*), on the shared sweep harness.
//
// Two kernel sets are selectable with --kernels:
//   fast  the production path: compiled RoomPlan, tabulated AP images,
//         batched trace_batch_into, caller-owned PathList workspace
//   ref   reftrace::RayTracer::trace — the frozen bit-exact reference
//         (allocating one vector per call, deriving every image inline,
//         scanning every blocker per segment)
//
// Every trial folds the traced paths into a checksum, so the work cannot
// be optimized away AND ref/fast runs are bitwise-comparable: the default
// `all` mode runs matched ref/fast pairs per stage, prints the speedup
// table, and FAILS (exit 1) if any stage's per-trial checksums differ —
// a perf report that doubles as an equivalence test. --stage picks one
// workload for a machine-readable run (the JSON bench name carries the
// stage, so tools/sweep_gate can compare a matched ref/fast pair); CI's
// bench-perf lane gates the refill stage at >= 3x (docs/GEOMETRY.md).
//
// Stages:
//   refill   the sim's cache-refill inner loop at its pinned config
//            (1 bounce, 60 dB): 10k nodes against one AP in a 12 m x 8 m
//            room with 3 human blockers, in 64-node blocks, one
//            blockers-on gains trace + one blockers-off (wall-only) trace
//            per node — exactly NetworkSimulator::refill_block's shape
//   trace    single-pair trace_into, random endpoints, 1 bounce
//   bounce2  single-pair trace, 2 bounces (image-of-image heavy)
//   dense    48 blockers (grid broad phase on), 2 bounces
//   rescore  one blocker-delta refill of the refill stage's 10k nodes
//            after its 3 blockers moved: ref re-traces every node
//            (batched gains trace) and sums the frozen pre-split
//            beam_gains_from_paths (tests/reference/beam_gains_ref.*);
//            fast rescores each node's stored wall-only path records
//            (channel::rescore_beam_gains) — exactly the simulator's
//            parent and current blocker-delta refills. The all-mode run
//            also splits one such refill into geometry, blocker loss and
//            beam-gain evaluation for both arms (no CI bound).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "beam_gains_ref.hpp"
#include "harness.hpp"
#include "mmx/channel/beam_channel.hpp"
#include "mmx/channel/room_plan.hpp"
#include "mmx/common/rng.hpp"
#include "ray_tracer_ref.hpp"

using namespace mmx;

namespace {

constexpr double kRoomW = 12.0;
constexpr double kRoomH = 8.0;
constexpr Vec2 kAp{6.0, 4.0};
// The sim's pinned trace config (network_sim.cpp): 1 bounce, 60 dB.
constexpr double kMaxExcessDb = 60.0;
constexpr std::size_t kRefillNodes = 10000;
constexpr std::size_t kBlock = 64;  // NetworkSimulator's kRefillBlock

channel::Room make_room(int blockers, std::uint64_t seed) {
  channel::Room room(kRoomW, kRoomH);
  Rng rng(seed);
  for (int i = 0; i < blockers; ++i)
    room.add_blocker({{rng.uniform(0.5, kRoomW - 0.5), rng.uniform(0.5, kRoomH - 0.5)},
                      rng.uniform(0.15, 0.35), rng.uniform(10.0, 30.0)});
  return room;
}

double path_checksum(const channel::Path& p) {
  return p.length_m + p.excess_loss_db + static_cast<double>(p.blocker_crossings);
}

// One fixture per stage flavour, built once: the plan compiles per
// Room::epoch() and the AP image table per (endpoint, epoch) — exactly
// the amortization the production refill enjoys.
struct Fixture {
  channel::Room room;
  reftrace::RayTracer tracer;
  channel::RoomPlan plan;
  channel::ImageTable ap_images;

  Fixture(int blockers, std::uint64_t seed, int max_bounces)
      : room(make_room(blockers, seed)), tracer(room), plan(room) {
    plan.build_images(kAp, max_bounces, ap_images);
  }
};

Fixture& refill_fixture() {
  static Fixture f(/*blockers=*/3, /*seed=*/0x5eedULL, /*max_bounces=*/1);
  return f;
}
Fixture& sparse_fixture() {
  static Fixture f(/*blockers=*/3, /*seed=*/0x5eedULL, /*max_bounces=*/2);
  return f;
}
Fixture& dense_fixture() {
  static Fixture f(/*blockers=*/48, /*seed=*/0xd05eULL, /*max_bounces=*/2);
  return f;
}

const std::vector<Vec2>& refill_nodes() {
  static const std::vector<Vec2> nodes = [] {
    std::vector<Vec2> out;
    out.reserve(kRefillNodes);
    Rng rng(0x10adULL);
    for (std::size_t i = 0; i < kRefillNodes; ++i)
      out.push_back({rng.uniform(0.25, kRoomW - 0.25), rng.uniform(0.25, kRoomH - 0.25)});
    return out;
  }();
  return nodes;
}

// The sim's refill inner loop: per 64-node block, one batched gains trace
// (blockers applied) and one batched wall-only trace (blockers off).
// Checksums accumulate per-stream in node order, so ref and fast sum the
// same doubles in the same sequence — bitwise-equal results.
double trial_refill(bool fast) {
  Fixture& f = refill_fixture();
  const std::vector<Vec2>& nodes = refill_nodes();
  double acc_gains = 0.0;
  double acc_corr = 0.0;
  if (fast) {
    thread_local channel::PathList ws;
    thread_local std::vector<std::uint32_t> offs;
    for (std::size_t lo = 0; lo < nodes.size(); lo += kBlock) {
      const std::size_t n = std::min(kBlock, nodes.size() - lo);
      const std::span<const Vec2> block(nodes.data() + lo, n);
      offs.resize(2 * (n + 1));
      const std::span<std::uint32_t> o1(offs.data(), n + 1);
      const std::span<std::uint32_t> o2(offs.data() + n + 1, n + 1);
      ws.clear();
      // The fused refill kernel: gains + wall-only paths from one pass.
      f.plan.trace_batch_dual_into(kAp, block, f.ap_images, ws, o1, o2, kMaxExcessDb, 1);
      for (std::size_t i = 0; i < n; ++i) {
        for (const channel::Path& p : ws.slice(o1[i], o1[i + 1])) acc_gains += path_checksum(p);
        for (const channel::Path& p : ws.slice(o2[i], o2[i + 1])) acc_corr += path_checksum(p);
      }
    }
  } else {
    for (const Vec2 node : nodes) {
      for (const channel::Path& p : f.tracer.trace(node, kAp, kMaxExcessDb, 1, true))
        acc_gains += path_checksum(p);
      for (const channel::Path& p : f.tracer.trace(node, kAp, kMaxExcessDb, 1, false))
        acc_corr += path_checksum(p);
    }
  }
  return acc_gains + acc_corr;
}

// --- rescore ---------------------------------------------------------------
// The refill fixture's 10k nodes, each with a random facing, their
// wall-only path records stored by a full fill against the refill room
// (the fused dual trace, as the link cache fills), and a delta room: the
// same walls with the 3 blockers moved, against which one blocker-delta
// refill recomputes every node's gains.
constexpr double kFreqHz = 24.125e9;  // SimConfig's default carrier
const channel::Pose kApPose{kAp, 0.0};

struct RescoreFixture {
  antenna::MmxBeamPair beams{antenna::BeamPairSpec{.freq_hz = kFreqHz}};
  antenna::Dipole ap_antenna;
  std::vector<channel::Pose> poses;
  std::vector<Vec2> positions;
  std::vector<std::vector<channel::PathRecord>> records;
  Fixture delta{/*blockers=*/3, /*seed=*/0xde17aULL, /*max_bounces=*/1};

  RescoreFixture() {
    const std::vector<Vec2>& nodes = refill_nodes();
    Rng rng(0xfacedULL);
    for (const Vec2 n : nodes) poses.push_back({n, rng.uniform(-3.1, 3.1)});
    positions = nodes;
    records.resize(nodes.size());
    Fixture& f = refill_fixture();
    channel::PathList ws;
    std::vector<std::uint32_t> on(kBlock + 1);
    std::vector<std::uint32_t> off(kBlock + 1);
    for (std::size_t lo = 0; lo < nodes.size(); lo += kBlock) {
      const std::size_t n = std::min(kBlock, nodes.size() - lo);
      ws.clear();
      f.plan.trace_batch_dual_into(kAp, {nodes.data() + lo, n}, f.ap_images, ws,
                                   {on.data(), n + 1}, {off.data(), n + 1}, kMaxExcessDb, 1);
      for (std::size_t i = 0; i < n; ++i)
        channel::record_paths(ws.slice(on[i], on[i + 1]), ws.slice(off[i], off[i + 1]),
                              poses[lo + i], beams, kApPose, ap_antenna, kFreqHz,
                              records[lo + i]);
    }
  }
};

RescoreFixture& rescore_fixture() {
  static RescoreFixture f;
  return f;
}

double gains_checksum(const channel::BeamGains& g) {
  return g.h0.real() + g.h0.imag() + g.h1.real() + g.h1.imag() +
         static_cast<double>(g.paths_used);
}

// Batched blockers-applied re-trace of `block` against the delta room.
std::span<const channel::Path> retrace_block(std::size_t lo, std::size_t n, bool apply_blockers,
                                             channel::PathList& ws,
                                             std::vector<std::uint32_t>& offs) {
  RescoreFixture& r = rescore_fixture();
  offs.resize(n + 1);
  ws.clear();
  return r.delta.plan.trace_batch_into(kAp, {r.positions.data() + lo, n}, r.delta.ap_images, ws,
                                       offs, kMaxExcessDb, 1, apply_blockers);
}

double trial_rescore(bool fast) {
  RescoreFixture& r = rescore_fixture();
  double acc = 0.0;
  thread_local channel::PathList ws;
  if (fast) {
    for (std::size_t i = 0; i < r.poses.size(); ++i)
      acc += gains_checksum(channel::rescore_beam_gains(r.delta.plan, r.positions[i], kAp,
                                                        r.records[i], ws, kMaxExcessDb));
    return acc;
  }
  thread_local std::vector<std::uint32_t> offs;
  for (std::size_t lo = 0; lo < r.poses.size(); lo += kBlock) {
    const std::size_t n = std::min(kBlock, r.poses.size() - lo);
    retrace_block(lo, n, /*apply_blockers=*/true, ws, offs);
    for (std::size_t i = 0; i < n; ++i)
      acc += gains_checksum(refbeam::beam_gains_from_paths(
          ws.slice(offs[i], offs[i + 1]), r.poses[lo + i], r.beams, kApPose, r.ap_antenna,
          kFreqHz));
  }
  return acc;
}

// Best-of-`reps` wall time of `fn` in milliseconds.
template <typename Fn>
double best_ms(int reps, Fn&& fn) {
  double best = 1e300;
  for (int k = 0; k < reps; ++k) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double, std::milli> dt = std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

// Where one blocker-delta refill's time goes, per arm. Re-trace:
// geometry = the blocker-free batched trace (images, wall intersections,
// transmission), blocker loss = the blockers-applied trace minus that,
// beam gains = the frozen beam_gains_from_paths over the traced paths
// (antenna patterns, Friis, dB -> linear, phase). Rescore: blocker loss =
// RoomPlan::rescore over every stored record, beam gains = the
// accumulate steps over the survivors (scores precomputed).
struct RescoreSplit {
  double geometry_ms, retrace_blockers_ms, retrace_beam_ms;
  double rescore_blockers_ms, rescore_beam_ms;
};

RescoreSplit measure_rescore_split(int reps) {
  RescoreFixture& r = rescore_fixture();
  const std::size_t nodes = r.poses.size();
  channel::PathList ws;
  std::vector<std::uint32_t> offs;
  double sink = 0.0;
  const auto trace_all = [&](bool apply_blockers) {
    for (std::size_t lo = 0; lo < nodes; lo += kBlock)
      sink += static_cast<double>(
          retrace_block(lo, std::min(kBlock, nodes - lo), apply_blockers, ws, offs).size());
  };
  // Every traced block kept, so beam gains are timed without the trace.
  std::vector<std::vector<channel::Path>> traced;
  for (std::size_t lo = 0; lo < nodes; lo += kBlock) {
    const std::size_t n = std::min(kBlock, nodes - lo);
    retrace_block(lo, n, true, ws, offs);
    for (std::size_t i = 0; i < n; ++i) {
      const auto w = ws.slice(offs[i], offs[i + 1]);
      traced.emplace_back(w.begin(), w.end());
    }
  }
  std::vector<std::vector<double>> scores(nodes);  // survivors' excess losses
  channel::PathScore score;
  for (std::size_t i = 0; i < nodes; ++i)
    for (const channel::PathRecord& rec : r.records[i])
      scores[i].push_back(r.delta.plan.rescore(r.positions[i], kAp, rec.route, ws, score,
                                               kMaxExcessDb)
                              ? score.excess_loss_db
                              : -1.0);

  RescoreSplit s{};
  s.geometry_ms = best_ms(reps, [&] { trace_all(false); });
  s.retrace_blockers_ms = best_ms(reps, [&] { trace_all(true); }) - s.geometry_ms;
  s.retrace_beam_ms = best_ms(reps, [&] {
    for (std::size_t i = 0; i < nodes; ++i)
      sink += gains_checksum(refbeam::beam_gains_from_paths(traced[i], r.poses[i], r.beams,
                                                            kApPose, r.ap_antenna, kFreqHz));
  });
  s.rescore_blockers_ms = best_ms(reps, [&] {
    for (std::size_t i = 0; i < nodes; ++i)
      for (const channel::PathRecord& rec : r.records[i])
        sink += r.delta.plan.rescore(r.positions[i], kAp, rec.route, ws, score, kMaxExcessDb)
                    ? score.excess_loss_db
                    : 0.0;
  });
  s.rescore_beam_ms = best_ms(reps, [&] {
    for (std::size_t i = 0; i < nodes; ++i) {
      channel::BeamGains g{};
      for (std::size_t k = 0; k < scores[i].size(); ++k)
        if (scores[i][k] >= 0.0) channel::accumulate_path(g, r.records[i][k].beam, scores[i][k]);
      sink += gains_checksum(g);
    }
  });
  (void)sink;  // the timed calls are out-of-line library code; sink only collects
  return s;
}

// Single-pair tracing with per-trial random endpoints. Endpoints are
// drawn before the kernel branch, so ref and fast consume identical rng
// streams and the checksums stay comparable.
double trial_single(bool fast, Rng& rng, Fixture& f, int max_bounces) {
  double acc = 0.0;
  for (int i = 0; i < 64; ++i) {
    const Vec2 tx{rng.uniform(0.25, kRoomW - 0.25), rng.uniform(0.25, kRoomH - 0.25)};
    const Vec2 rx{rng.uniform(0.25, kRoomW - 0.25), rng.uniform(0.25, kRoomH - 0.25)};
    if (tx == rx) continue;
    if (fast) {
      thread_local channel::PathList ws;
      ws.clear();
      for (const channel::Path& p :
           f.plan.trace_into(tx, rx, ws, kMaxExcessDb, max_bounces, true))
        acc += path_checksum(p);
    } else {
      for (const channel::Path& p : f.tracer.trace(tx, rx, kMaxExcessDb, max_bounces, true))
        acc += path_checksum(p);
    }
  }
  return acc;
}

const std::vector<std::string> kStages = {"refill", "trace", "bounce2", "dense", "rescore"};

sim::SweepResult<double> run_stage(const std::string& stage, bool fast,
                                   sim::SweepRunner& runner) {
  if (stage == "refill") return runner.run([&](std::size_t, Rng&) { return trial_refill(fast); });
  if (stage == "rescore")
    return runner.run([&](std::size_t, Rng&) { return trial_rescore(fast); });
  if (stage == "trace")
    return runner.run(
        [&](std::size_t, Rng& rng) { return trial_single(fast, rng, sparse_fixture(), 1); });
  if (stage == "bounce2")
    return runner.run(
        [&](std::size_t, Rng& rng) { return trial_single(fast, rng, sparse_fixture(), 2); });
  return runner.run(
      [&](std::size_t, Rng& rng) { return trial_single(fast, rng, dense_fixture(), 2); });
}

bool checksums_match(const sim::SweepResult<double>& a, const sim::SweepResult<double>& b) {
  if (a.trials.size() != b.trials.size()) return false;
  for (std::size_t i = 0; i < a.trials.size(); ++i)
    if (a.trials[i] != b.trials[i]) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string stage = "all";
  std::string kernels = "fast";
  const bench::Options opt = bench::parse_args(
      argc, argv, /*default_trials=*/20, /*default_seed=*/0x6d6d5821ULL, "trials per stage",
      {{"--stage", "all|refill|trace|bounce2|dense|rescore (default all)", &stage},
       {"--kernels", "fast|ref kernel set (default fast)", &kernels}});
  if (kernels != "fast" && kernels != "ref") {
    std::fprintf(stderr, "micro_trace: --kernels must be fast or ref, got '%s'\n",
                 kernels.c_str());
    return 2;
  }
  const bool fast = kernels == "fast";
  sim::SweepRunner runner(opt.sweep);

  if (stage == "all") {
    bench::JsonReport report("micro_trace", opt);
    std::printf("# micro_trace — RayTracer (ref) vs RoomPlan (fast), %zu trials/stage, %zu threads\n",
                opt.sweep.trials, runner.threads());
    std::printf("%-10s %14s %14s %9s %9s\n", "stage", "ref trials/s", "fast trials/s", "speedup",
                "bitwise");
    for (const std::string& s : kStages) {
      const sim::SweepResult<double> ref = run_stage(s, /*fast=*/false, runner);
      const sim::SweepResult<double> fst = run_stage(s, /*fast=*/true, runner);
      const bool same = checksums_match(ref, fst);
      const double speedup = ref.trials_per_s > 0.0 ? fst.trials_per_s / ref.trials_per_s : 0.0;
      std::printf("%-10s %14.1f %14.1f %8.2fx %9s\n", s.c_str(), ref.trials_per_s,
                  fst.trials_per_s, speedup, same ? "ok" : "MISMATCH");
      if (!same) {
        std::fprintf(stderr, "micro_trace: stage '%s' checksums diverge from the reference\n",
                     s.c_str());
        return 1;
      }
      report.add_scalar("speedup_" + s, speedup);
      if (s == "refill") report.record(fst);
    }
    const RescoreSplit split = measure_rescore_split(5);
    std::printf("# rescore split, one 10k-node blocker-delta refill (best of 5, ms):\n");
    std::printf("#   re-trace  geometry %.2f  blocker loss %.2f  beam gains %.2f\n",
                split.geometry_ms, split.retrace_blockers_ms, split.retrace_beam_ms);
    std::printf("#   rescore   geometry    -  blocker loss %.2f  beam gains %.2f\n",
                split.rescore_blockers_ms, split.rescore_beam_ms);
    report.add_scalar("split_retrace_geometry_ms", split.geometry_ms);
    report.add_scalar("split_retrace_blockers_ms", split.retrace_blockers_ms);
    report.add_scalar("split_retrace_beam_ms", split.retrace_beam_ms);
    report.add_scalar("split_rescore_blockers_ms", split.rescore_blockers_ms);
    report.add_scalar("split_rescore_beam_ms", split.rescore_beam_ms);
    return report.write() ? 0 : 1;
  }

  bool known = false;
  for (const std::string& s : kStages) known = known || (s == stage);
  if (!known) {
    std::fprintf(stderr, "micro_trace: unknown --stage '%s'\n", stage.c_str());
    return 2;
  }
  const sim::SweepResult<double> result = run_stage(stage, fast, runner);
  bench::report_timing(result);
  std::printf("[micro_trace] stage=%s kernels=%s trials=%zu trials_per_s=%.1f\n", stage.c_str(),
              kernels.c_str(), result.trials.size(), result.trials_per_s);
  bench::JsonReport report("micro_trace_" + stage, opt);
  report.record(result);
  report.add_metric("checksum", result.trials);
  return report.write() ? 0 : 1;
}
