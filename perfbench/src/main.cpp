// perfbench_mmx: one workload of the whole-run, per-layer benchmark.
//
//   perfbench_mmx --workload NAME --seed N --seconds S --trace 0|1
//                 [--nodes N] [--rounds R] [--frames F]
//
// Untraced (--trace 0): runs the library entry point (sim::ScaleScenario
// ::run, or the PHY frame sweep) on a fixed set of scenarios sized to take
// about S seconds, pinned next to a speed probe, and reports end-to-end
// metrics in reference-core seconds (host_speed.hpp). Traced (--trace 1):
// alternates an untraced library run with the benchmark-owned traced
// replay and reports the per-layer metrics. The overrides shrink a
// workload for the self-check.
//
// Output: JSON lines on stdout. "meta" (build + run stamp), "report"
// (simulated outputs of the first run), "timings" (untraced runs: every
// repetition's wall time and speed factor), "layers" (traced runs), and last
// "result" (checks + metrics). run.py adds the golden-output checks and
// prints the final result line.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "build_info.hpp"
#include "heap_meter.hpp"
#include "host_speed.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/sim/scale_scenario.hpp"
#include "phy_frames.hpp"
#include "replay.hpp"
#include "tracer.hpp"

using namespace mmx;
using perfbench::Clock;
using perfbench::Layer;
using perfbench::seconds_since;

namespace {

// One refresh thread: with two, the 2,048 small per-round refreshes of
// poll_2k5 fork and join on two cores, and its wall time followed host
// CPU contention (ten-seed quartile spread 36% of the median, against 7% for
// the single-threaded lanes in the same window). Reports are bit-identical
// at any refresh thread count. PHY workers pull frames from a shared
// counter, which absorbs a stalled core.
constexpr std::size_t kRefreshThreads = 1;
constexpr std::size_t kPhyThreads = 2;
// Set-up samples taken before every repetition, so they spread over the
// whole run instead of its first milliseconds. The PHY set-up generates
// every frame's bits (~50 ms); the scale set-up takes ~1 ms.
constexpr std::size_t kSetupRepsPerRun = 11;
constexpr std::size_t kPhySetupRepsPerRun = 2;

struct Workload {
  std::string name;
  bool phy = false;
  std::size_t nodes = 0;
  std::size_t rounds = 0;
  bool faults = false;
  std::size_t frames = 0;
  /// Approximate seconds one scenario (or sweep) takes on a 4-core 2.1 GHz
  /// x86 host. It fixes how many scenarios a run of --seconds covers, so
  /// that number follows the budget, never how fast the host happens to be.
  double nominal_s = 1.0;
  /// How strongly a repetition's and a set-up sample's wall times follow
  /// the speed probe: the slope of log(wall time) on log(speed factor) over
  /// every repetition or sample of twenty 30 s runs on the reference host
  /// (host_speed.hpp), to one decimal. Reference-core time is thread CPU
  /// time x factor^elasticity.
  double run_elasticity = 1.0;
  double setup_elasticity = 1.0;

  /// Scenarios in an untraced run; a traced run pairs a library run with a
  /// replay for each, so it covers half as many.
  std::size_t scenarios(double seconds, bool traced) const {
    const auto n = static_cast<std::size_t>(seconds / nominal_s);
    return std::max<std::size_t>(1, traced ? n / 2 : n);
  }
};

std::optional<Workload> find_workload(const std::string& name) {
  if (name == "churn_10k") return Workload{name, false, 10000, 128, false, 0, 9.0, 1.2, 1.8};
  if (name == "faults_5k") return Workload{name, false, 5000, 128, true, 0, 5.5, 1.1, 1.4};
  if (name == "poll_2k5") return Workload{name, false, 2500, 2048, false, 0, 2.2, 1.5, 1.5};
  if (name == "phy_frames") return Workload{name, true, 0, 0, false, 4096, 2.2, 1.1, 1.1};
  return std::nullopt;
}

/// Scenario k of a run: --seed itself for k = 0, then the seed's derived
/// family. A run's scenario set depends on (seed, count) alone.
std::uint64_t scenario_seed(std::uint64_t seed, std::size_t k) {
  return k == 0 ? seed : Rng::derive_seed(seed, k);
}

// --- JSON -------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class Json {
 public:
  Json& add(const std::string& key, double v) { return raw(key, num(v)); }
  Json& add(const std::string& key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  Json& add(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& add(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
  Json& add(const std::string& key, const char* v) { return raw(key, quote(v)); }
  Json& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') out += '\\';
      if (static_cast<unsigned char>(ch) < 0x20) continue;
      out += ch;
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

// --- checks + stats ---------------------------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok && std::find(failures.begin(), failures.end(), what) == failures.end())
      failures.push_back(what);
    failed += ok ? 0 : 1;
  }
  std::uint64_t failed = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num_v, double den) { return den > 0.0 ? num_v / den : 0.0; }

// --- metrics ----------------------------------------------------------------

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void set(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  std::string json() const {
    Json j;
    for (const auto& [name, vu] : items)
      j.raw(name, Json().add("value", vu.first).add("unit", vu.second).str());
    return j.str();
  }
};

std::string array_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + num(v[i]);
  return out + "]";
}

// One repetition or set-up sample: its window (for the host-speed
// factor), wall time and work (link evaluations or frames), the CPU time
// of each thread that did the work with the CPU it was pinned to, and the
// peak live heap.
struct Timed {
  Clock::time_point t0;
  Clock::time_point t1;
  double wall_s = 0.0;
  double items = 0.0;
  std::vector<std::pair<int, double>> cpu_s;
  double heap_mb = 0.0;
};

// Times f() on the calling thread, pinned to `cpu`; f returns the work.
Timed time_call(int cpu, const std::function<double()>& f) {
  Timed t;
  const double c0 = perfbench::thread_cpu_s();
  t.t0 = Clock::now();
  t.items = f();
  t.t1 = Clock::now();
  t.cpu_s = {{cpu, perfbench::thread_cpu_s() - c0}};
  t.wall_s = std::chrono::duration<double>(t.t1 - t.t0).count();
  return t;
}

// Reference-core seconds of one sample (host_speed.hpp): each thread's CPU
// time times its CPU's speed factor over the window raised to the
// elasticity, averaged over the threads that shared the work. Returns
// (reference-core seconds, mean speed factor, mean CPU seconds).
std::array<double, 3> reference_time(const Timed& t, const perfbench::SpeedProbes& probes,
                                     Clock::duration widen, double elasticity) {
  double ref = 0.0;
  double factor = 0.0;
  double cpu = 0.0;
  for (const auto& [c, s] : t.cpu_s) {
    const double f = probes.factor(c, t.t0 - widen, t.t1 + widen);
    ref += s * std::pow(f, elasticity);
    factor += f;
    cpu += s;
  }
  const double n = static_cast<double>(t.cpu_s.size());
  return {ref / n, factor / n, cpu / n};
}

// Medians of the repetitions and set-up samples in reference-core seconds
// (a set-up sample's window is widened to +-200 ms, ~20 probe samples);
// peak heap is the mean over the repetitions, each a deterministic figure
// of its scenario. Every sample's wall time, CPU time and speed factor goes
// to the "timings" line.
void end_to_end(Metrics& m, const Workload& w, const std::vector<Timed>& reps,
                const std::vector<Timed>& setups, const perfbench::SpeedProbes& probes) {
  std::vector<double> wall, cpu, factor, run_ref, rates, heap;
  for (const Timed& r : reps) {
    const auto [ref, f, c] = reference_time(r, probes, Clock::duration::zero(), w.run_elasticity);
    wall.push_back(r.wall_s);
    cpu.push_back(c);
    factor.push_back(f);
    run_ref.push_back(ref);
    rates.push_back(ratio(r.items, ref));
    heap.push_back(r.heap_mb);
  }
  std::vector<double> setup_wall, setup_cpu, setup_factor, setup_ref;
  for (const Timed& s : setups) {
    const auto [ref, f, c] =
        reference_time(s, probes, std::chrono::milliseconds(200), w.setup_elasticity);
    setup_wall.push_back(s.wall_s);
    setup_cpu.push_back(c);
    setup_factor.push_back(f);
    setup_ref.push_back(ref);
  }
  double heap_mean = 0.0;
  for (const double h : heap) heap_mean += h / static_cast<double>(heap.size());
  std::printf("%s\n", Json()
                          .add("kind", "timings")
                          .raw("wall_s", array_json(wall))
                          .raw("cpu_s", array_json(cpu))
                          .raw("speed_factor", array_json(factor))
                          .add("run_elasticity", w.run_elasticity)
                          .raw("run_ref_s", array_json(run_ref))
                          .raw("items_per_ref_s", array_json(rates))
                          .raw("peak_heap_mb", array_json(heap))
                          .raw("setup_wall_s", array_json(setup_wall))
                          .raw("setup_cpu_s", array_json(setup_cpu))
                          .raw("setup_speed_factor", array_json(setup_factor))
                          .add("setup_elasticity", w.setup_elasticity)
                          .raw("setup_s", array_json(setup_ref))
                          .str()
                          .c_str());
  m.set("run_ref_s", median(run_ref), "s");
  m.set("setup_s", median(setup_ref), "s");
  m.set("peak_heap_mb", heap_mean, "MB");
  m.set("items_per_ref_s", median(rates), "1/s");
}

// Time outside the spans around library calls: the replay's own
// bookkeeping (sim.join/churn/round/faults, set-up, report, teardown) and
// anything no span covers. The traced run fails when it reaches 10%.
double unattributed_s(const perfbench::Tracer& tr, double wall_s) {
  double attributed = 0.0;
  for (std::size_t i = 0; i < perfbench::kLayerCount; ++i) {
    const auto l = static_cast<Layer>(i);
    if (perfbench::is_library_layer(l)) attributed += tr.self_s(l);
  }
  return wall_s - attributed;
}

// Every per-layer metric, on every workload: layers a workload does not
// exercise read 0 calls and a 0 share. Shares are of the traced wall time
// (scale) or of worker-thread time (phy_frames).
struct LayerView {
  const perfbench::Tracer* tr = nullptr;
  double denom_s = 0.0;  ///< traced wall time (x workers for the PHY)
  double reps = 1.0;     ///< replays merged into `tr`
  double frac(Layer l) const { return ratio(tr->self_s(l), denom_s); }
  double calls(Layer l) const { return static_cast<double>(tr->calls(l)) / reps; }
};

void per_layer(Metrics& m, const LayerView& v, const perfbench::ReplayCounters* ctr,
               double link_hit_rate, std::uint64_t phy_frames, std::uint64_t alloc_events,
               double unattributed_s, double trace_overhead_frac) {
  const double reps = v.reps;
  const auto per_rep = [&](std::uint64_t x) { return static_cast<double>(x) / reps; };
  m.set("mac.admit.calls", v.calls(Layer::kAdmit), "count");
  m.set("mac.admit.self_frac", v.frac(Layer::kAdmit), "frac");
  m.set("mac.admit.grant_ratio",
        ctr ? ratio(per_rep(ctr->admit_granted), v.calls(Layer::kAdmit)) : 0.0, "ratio");
  m.set("mac.track.calls", v.calls(Layer::kTrack), "count");
  m.set("mac.track.self_frac", v.frac(Layer::kTrack), "frac");
  m.set("mac.release.calls", v.calls(Layer::kRelease), "count");
  m.set("mac.release.self_frac", v.frac(Layer::kRelease), "frac");
  m.set("mac.reap.calls", v.calls(Layer::kReap), "count");
  m.set("mac.reap.self_frac", v.frac(Layer::kReap), "frac");
  m.set("sim.refresh.calls", v.calls(Layer::kRefresh), "count");
  m.set("sim.refresh.entries", ctr ? per_rep(ctr->refresh_entries) : 0.0, "count");
  m.set("sim.refresh.self_frac", v.frac(Layer::kRefresh), "frac");
  m.set("sim.link.calls", ctr ? per_rep(ctr->link_calls) : 0.0, "count");
  m.set("sim.link.self_frac", v.frac(Layer::kLink), "frac");
  m.set("sim.link.hit_rate", link_hit_rate, "ratio");
  const double frames = ctr ? per_rep(ctr->arq_frames) : 0.0;
  m.set("mac.arq.frames", frames, "count");
  m.set("mac.arq.self_frac", v.frac(Layer::kArq), "frac");
  m.set("mac.arq.retx_ratio",
        ctr ? ratio(per_rep(ctr->arq_retx), frames) : 0.0, "ratio");
  m.set("channel.churn.self_frac", v.frac(Layer::kCrowd), "frac");
  m.set("mac.init.self_frac", v.frac(Layer::kInit), "frac");
  m.set("sim.events.dispatched", ctr ? per_rep(ctr->events_dispatched) : 0.0, "count");
  m.set("sim.events.self_frac", v.frac(Layer::kEvents), "frac");
  m.set("sim.round.calls", v.calls(Layer::kRound), "count");
  m.set("sim.join_storm_frac", ratio(v.tr->total_s(Layer::kJoin), v.denom_s), "frac");
  m.set("sim.bookkeeping.self_frac",
        v.frac(Layer::kJoin) + v.frac(Layer::kChurn) + v.frac(Layer::kFaults) +
            v.frac(Layer::kRound),
        "frac");
  m.set("sim.setup.self_frac", v.frac(Layer::kSetup), "frac");
  m.set("sim.teardown.self_frac", v.frac(Layer::kTeardown), "frac");
  m.set("phy.frames", static_cast<double>(phy_frames), "count");
  m.set("phy.synthesize.self_frac", v.frac(Layer::kSynthesize), "frac");
  m.set("dsp.awgn.self_frac", v.frac(Layer::kAwgn), "frac");
  m.set("phy.demod.self_frac", v.frac(Layer::kDemod), "frac");
  m.set("dsp.alloc_events", static_cast<double>(alloc_events), "count");
  m.set("unattributed_s", unattributed_s, "s");
  m.set("unattributed_frac", ratio(unattributed_s * reps, v.denom_s), "frac");
  m.set("trace_overhead_frac", trace_overhead_frac, "frac");
}

Json layer_block(const LayerView& v) {
  Json j;
  for (std::size_t i = 0; i < perfbench::kLayerCount; ++i) {
    const auto l = static_cast<Layer>(i);
    if (v.tr->calls(l) == 0) continue;
    j.raw(perfbench::layer_name(l),
          Json()
              .add("calls", v.calls(l))
              .add("self_s", v.tr->self_s(l) / v.reps)
              .add("total_s", v.tr->total_s(l) / v.reps)
              .add("self_frac", v.frac(l))
              .str());
  }
  return j;
}

// --- scale workloads ----------------------------------------------------------

sim::ScaleConfig scale_config(const Workload& w) {
  sim::ScaleConfig cfg = sim::make_scale_config(w.nodes);
  cfg.use_cache = true;
  cfg.refresh_threads = kRefreshThreads;
  cfg.duration_s = cfg.measure_interval_s * static_cast<double>(w.rounds);
  cfg.join_window_s = std::min(cfg.join_window_s, cfg.duration_s);
  if (w.faults) cfg.faults = sim::make_fault_storm();
  return cfg;
}

// The fields ScaleReport::operator== compares, by value.
std::string report_json(const sim::ScaleReport& r) {
  const auto u = [](std::uint64_t x) { return x; };
  Json j;
  j.add("joins", u(r.joins)).add("granted", u(r.granted)).add("denied", u(r.denied));
  j.add("leaves", u(r.leaves)).add("moves", u(r.moves));
  j.add("blocker_updates", u(r.blocker_updates)).add("measure_rounds", u(r.measure_rounds));
  j.add("link_evals", u(r.link_evals));
  j.add("arq.transmissions", r.arq.transmissions).add("arq.delivered", r.arq.delivered);
  j.add("arq.gave_up", r.arq.gave_up).add("arq.duplicate_acks", r.arq.duplicate_acks);
  const sim::FaultStats& f = r.faults;
  j.add("faults.storms", f.storms).add("faults.power_cycles", f.power_cycles);
  j.add("faults.revocations", f.revocations).add("faults.acks_lost", f.acks_lost);
  j.add("faults.acks_corrupted", f.acks_corrupted).add("faults.reaped", f.reaped);
  j.add("faults.escalations", f.escalations).add("faults.rejoin_attempts", f.rejoin_attempts);
  j.add("faults.recoveries", f.recoveries);
  j.add("faults.recovery_rounds_sum", f.recovery_rounds_sum);
  const sim::OverloadLaneReport& o = r.overload;
  j.add("overload.demotions", o.demotions).add("overload.shed_demotions", o.shed_demotions);
  j.add("overload.promotions", o.promotions).add("overload.compactions", o.compactions);
  j.add("overload.retunes", o.retunes).add("overload.hinted_denies", o.hinted_denies);
  j.add("overload.hint_delay_sum_s", o.hint_delay_sum_s);
  j.add("overload.backoff_retries", o.backoff_retries);
  j.add("overload.invariant_violations", o.invariant_violations);
  j.add("overload.admitted", u(o.admitted));
  j.add("overload.admitted_below_request", u(o.admitted_below_request));
  j.add("overload.min_admitted_rate_bps", o.min_admitted_rate_bps);
  j.add("overload.mean_admitted_rate_bps", o.mean_admitted_rate_bps);
  j.add("mean_snr_db", r.mean_snr_db).add("mean_joint_ber", r.mean_joint_ber);
  j.add("mean_rate_bps", r.mean_rate_bps).add("delivery_ratio", r.delivery_ratio);
  return j.str();
}

void check_invariants(Checks& ck, const sim::ScaleConfig& cfg, const Workload& w,
                      const sim::ScaleReport& r) {
  std::size_t ticks = 0;
  for (double t = cfg.churn_interval_s; t <= cfg.duration_s; t += cfg.churn_interval_s) ++ticks;
  ck.expect(r.joins == r.granted + r.denied, "joins == granted + denied");
  ck.expect(r.joins >= cfg.nodes, "every thing joined at least once");
  ck.expect(r.measure_rounds == w.rounds, "every measurement round ran");
  ck.expect(r.blocker_updates == ticks, "every churn tick ran");
  ck.expect(r.link_evals >= r.measure_rounds, "links were measured");
  ck.expect(r.arq.delivered + r.arq.gave_up <= r.arq.transmissions,
            "ARQ resolved <= transmitted");
  ck.expect(r.delivery_ratio >= 0.0 && r.delivery_ratio <= 1.0, "delivery ratio in [0, 1]");
  ck.expect(std::isfinite(r.mean_snr_db) && std::isfinite(r.mean_joint_ber) &&
                std::isfinite(r.mean_rate_bps),
            "link means are finite");
  ck.expect(r.overload == sim::OverloadLaneReport{}, "overload lane idle");
  if (!w.faults) ck.expect(r.faults == sim::FaultStats{}, "no faults without the fault layer");
  else ck.expect(r.faults.power_cycles + r.faults.revocations > 0, "fault plan exercised");
}

void run_scale(const Workload& w, std::uint64_t seed, double seconds, bool traced, Checks& ck,
               Metrics& m) {
  const sim::ScaleConfig cfg = scale_config(w);
  const sim::ScaleScenario scenario(cfg);
  const std::size_t n = w.scenarios(seconds, traced);

  if (!traced) {
    // Each scenario runs once; the median is over independent scenarios,
    // so one heavy draw of the fault storm does not set the run's figure.
    // The scenario and its speed probe share one core.
    const int cpu = perfbench::allowed_cpus().front();
    perfbench::pin_to_cpu(cpu);
    const perfbench::SpeedProbes probes({cpu});
    std::vector<Timed> setups;
    std::vector<Timed> reps;
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t s = scenario_seed(seed, k);
      for (std::size_t j = 0; j < kSetupRepsPerRun; ++j)
        setups.push_back(time_call(cpu, [&] {
          perfbench::time_scale_setup(cfg, s);
          return 0.0;
        }));
      sim::ScaleReport rep;
      perfbench::heap_reset_peak();
      reps.push_back(time_call(cpu, [&] {
        rep = scenario.run(s);
        return static_cast<double>(rep.link_evals);
      }));
      reps.back().heap_mb = static_cast<double>(perfbench::heap_peak_bytes()) / (1 << 20);
      check_invariants(ck, cfg, w, rep);
      if (k == 0) {
        std::printf("%s\n", Json().add("kind", "report").raw("report", report_json(rep)).str().c_str());
      }
    }
    end_to_end(m, w, reps, setups, probes);
    return;
  }

  // Traced: a (library run, traced replay) pair per scenario.
  perfbench::Tracer tracer;
  perfbench::ReplayCounters ctr;
  std::vector<double> lib_runs;
  std::vector<double> replay_runs;
  double replay_total_s = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t s = scenario_seed(seed, k);
    Clock::time_point t0 = Clock::now();
    const sim::ScaleReport lib = scenario.run(s);
    lib_runs.push_back(seconds_since(t0));

    perfbench::Tracer tr;
    t0 = Clock::now();
    const sim::ScaleReport rep = perfbench::replay_scale(cfg, s, tr, ctr);
    const double replay_s = seconds_since(t0);
    replay_runs.push_back(replay_s);
    replay_total_s += replay_s;
    tracer.merge(tr);
    hits += rep.cache.hits;
    lookups += rep.cache.hits + rep.cache.misses;

    ck.expect(rep == lib, "traced replay report == ScaleScenario::run report");
    check_invariants(ck, cfg, w, lib);
    if (k == 0)
      std::printf("%s\n", Json().add("kind", "report").raw("report", report_json(lib)).str().c_str());
  }

  const double reps = static_cast<double>(replay_runs.size());
  const LayerView v{&tracer, replay_total_s, reps};
  const double unattr_s = unattributed_s(tracer, replay_total_s) / reps;
  const double overhead = median(replay_runs) / median(lib_runs) - 1.0;
  ck.expect(ratio(unattr_s * reps, replay_total_s) < 0.10,
            "unattributed time < 10% of the traced run");

  const double q = perfbench::tail_quantile(ctr.round_s.size());
  Json layers = layer_block(v);
  layers.raw("mac.admit.latency",
             Json()
                 .add("p50_us", perfbench::percentile(ctr.admit_s, 50.0) * 1e6)
                 .add("p99_us", perfbench::percentile(ctr.admit_s, 99.0) * 1e6)
                 .add("grant_ratio", ratio(static_cast<double>(ctr.admit_granted),
                                           static_cast<double>(ctr.admit_s.size())))
                 .str());
  layers.raw("sim.refresh.latency",
             Json()
                 .add("entries", static_cast<double>(ctr.refresh_entries) / reps)
                 .add("p50_ms", perfbench::percentile(ctr.refresh_s, 50.0) * 1e3)
                 .add("p99_ms", perfbench::percentile(ctr.refresh_s, 99.0) * 1e3)
                 .str());
  layers.raw("sim.round.latency",
             Json()
                 .add("samples", static_cast<std::uint64_t>(ctr.round_s.size()))
                 .add("p50_ms", perfbench::percentile(ctr.round_s, 50.0) * 1e3)
                 .add("tail_q", q)
                 .add("tail_ms", perfbench::percentile(ctr.round_s, q) * 1e3)
                 .str());
  layers.add("sim.join_storm_s", tracer.total_s(Layer::kJoin) / reps);
  layers.add("sim.link.hit_rate", ratio(static_cast<double>(hits), static_cast<double>(lookups)));
  layers.add("replays", static_cast<std::uint64_t>(replay_runs.size()));
  layers.add("traced_run_s", median(replay_runs)).add("untraced_run_s", median(lib_runs));
  layers.add("unattributed_s", unattr_s);
  layers.add("unattributed_frac", ratio(unattr_s * reps, replay_total_s));
  layers.add("trace_overhead_frac", overhead);
  std::printf("%s\n", Json().add("kind", "layers").raw("layers", layers.str()).str().c_str());

  per_layer(m, v, &ctr, ratio(static_cast<double>(hits), static_cast<double>(lookups)), 0, 0,
            unattr_s, overhead);
}

// --- phy_frames ---------------------------------------------------------------

std::string points_json(const perfbench::PhySweep& s) {
  std::string out = "[";
  for (std::size_t p = 0; p < s.points.size(); ++p) {
    const perfbench::PhyPoint& pt = s.points[p];
    out += (p ? ", " : "") + Json()
                                 .add("ratio_db", pt.ratio_db)
                                 .add("snr_db", pt.snr_db)
                                 .add("frames", pt.frames)
                                 .add("bits", pt.bits)
                                 .add("errors", pt.errors)
                                 .str();
  }
  return out + "]";
}

bool same_errors(const perfbench::PhySweep& a, const perfbench::PhySweep& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t p = 0; p < a.points.size(); ++p)
    if (a.points[p].errors != b.points[p].errors || a.points[p].bits != b.points[p].bits)
      return false;
  return true;
}

void check_phy(Checks& ck, const perfbench::PhySweep& s, std::size_t frames) {
  std::uint64_t n = 0;
  bool better_than_chance = true;
  for (const perfbench::PhyPoint& pt : s.points) {
    n += pt.frames;
    if (pt.bits > 0) better_than_chance = better_than_chance && pt.errors * 20 < pt.bits * 9;
  }
  ck.expect(n == frames, "every frame decoded");
  // The joint decoder works across the whole ratio grid (paper §6.3),
  // down to the grid's -10 dB floor; a broken branch sits near BER 0.5.
  ck.expect(better_than_chance, "joint BER < 0.45 at every grid point");
  ck.expect(s.alloc_events == 0, "PHY fast path allocation-free after warm-up");
}

void run_phy(const Workload& w, std::uint64_t seed, double seconds, bool traced, Checks& ck,
             Metrics& m) {
  const std::size_t n = w.scenarios(seconds, traced);
  // Worker w runs on the w-th allowed CPU (wrapping), set-up on the first;
  // each of those CPUs has a speed probe.
  const std::vector<int> allowed = perfbench::allowed_cpus();
  std::vector<int> cpus;
  for (std::size_t t = 0; t < kPhyThreads; ++t) cpus.push_back(allowed[t % allowed.size()]);
  perfbench::pin_to_cpu(cpus.front());
  std::vector<Timed> setups;
  std::optional<perfbench::PhyFrames> bench;
  // Each sweep runs on a freshly built PhyFrames (cold pipelines), the
  // last of this repetition's set-up samples.
  const auto set_up = [&](std::size_t samples) {
    for (std::size_t k = 0; k < samples; ++k) {
      bench.reset();
      setups.push_back(time_call(cpus.front(), [&] {
        bench.emplace(w.frames, cpus, seed);
        return 0.0;
      }));
    }
  };

  // Every sweep reruns --seed's inputs: the frame count is fixed, and a
  // sweep's cost barely depends on the drawn grid.
  if (!traced) {
    const perfbench::SpeedProbes probes(cpus);
    std::vector<Timed> reps;
    std::optional<perfbench::PhySweep> first;
    for (std::size_t k = 0; k < n; ++k) {
      set_up(kPhySetupRepsPerRun);
      perfbench::heap_reset_peak();
      perfbench::PhySweep s = bench->run(false);
      Timed t{s.t0, s.t1, s.run_s, static_cast<double>(w.frames), {},
              static_cast<double>(perfbench::heap_peak_bytes()) / (1 << 20)};
      for (std::size_t i = 0; i < cpus.size(); ++i) t.cpu_s.push_back({cpus[i], s.worker_cpu_s[i]});
      reps.push_back(std::move(t));
      check_phy(ck, s, w.frames);
      if (!first) {
        std::printf("%s\n",
                    Json().add("kind", "phy_points").raw("points", points_json(s)).str().c_str());
        first = std::move(s);
      } else {
        ck.expect(same_errors(s, *first), "repeat sweep reproduces the first sweep's errors");
      }
    }
    end_to_end(m, w, reps, setups, probes);
    return;
  }

  set_up(1);
  perfbench::Tracer tracer;
  std::vector<double> lib_runs;
  std::vector<double> traced_runs;
  double thread_s = 0.0;
  std::uint64_t alloc_events = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const perfbench::PhySweep plain = bench->run(false);
    const perfbench::PhySweep s = bench->run(true);
    lib_runs.push_back(plain.run_s);
    traced_runs.push_back(s.run_s);
    thread_s += s.run_s * static_cast<double>(bench->threads());
    tracer.merge(s.tracer);
    alloc_events += s.alloc_events;
    check_phy(ck, s, w.frames);
    ck.expect(same_errors(plain, s), "traced sweep errors == untraced sweep errors");
    if (traced_runs.size() == 1)
      std::printf("%s\n",
                  Json().add("kind", "phy_points").raw("points", points_json(s)).str().c_str());
  }

  const double reps = static_cast<double>(traced_runs.size());
  const LayerView v{&tracer, thread_s, reps};
  const double unattr_s = unattributed_s(tracer, thread_s) / reps;
  const double overhead = median(traced_runs) / median(lib_runs) - 1.0;
  ck.expect(ratio(unattr_s * reps, thread_s) < 0.10,
            "unattributed time < 10% of the traced worker time");
  Json layers = layer_block(v);
  layers.add("threads", static_cast<std::uint64_t>(bench->threads()));
  layers.add("dsp.alloc_events", alloc_events);
  layers.add("traced_run_s", median(traced_runs)).add("untraced_run_s", median(lib_runs));
  layers.add("unattributed_s", unattr_s);
  layers.add("unattributed_frac", ratio(unattr_s * reps, thread_s));
  layers.add("trace_overhead_frac", overhead);
  std::printf("%s\n", Json().add("kind", "layers").raw("layers", layers.str()).str().c_str());
  per_layer(m, v, nullptr, 0.0, w.frames, alloc_events, unattr_s, overhead);
}

// --- main -------------------------------------------------------------------

// Timing from a sanitizer, -O0 or debug build says nothing about the
// optimized program; refuse to report one.
std::string unfit_build() {
#if !defined(__OPTIMIZE__)
  return "unoptimized build (-O0)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  const std::string flags = perfbench::kCxxFlags;
  if (flags.find("-fsanitize") != std::string::npos) return "sanitizer build";
  if (flags.find("-O0") != std::string::npos) return "unoptimized build (-O0)";
  if (std::string(perfbench::kBuildType) == "Debug") return "debug build";
  return "";
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_mmx: %s\nusage: perfbench_mmx --workload "
               "churn_10k|faults_5k|poll_2k5|phy_frames --seed N --seconds S --trace 0|1\n"
               "       [--nodes N] [--rounds R] [--frames F]\n",
               msg);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || s[0] == '-' || end == s.c_str() || *end != '\0')
    usage((std::string(flag) + " expects a non-negative integer").c_str());
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage(("bad argument " + key).c_str());
    args[key] = argv[++i];
  }
  const auto arg = [&](const char* k, const char* dflt) {
    const auto it = args.find(k);
    return it == args.end() ? std::string(dflt) : it->second;
  };
  for (const auto& [k, v] : args) {
    static const char* known[] = {"--workload", "--seed",   "--seconds",
                                  "--trace",    "--nodes",  "--rounds",  "--frames"};
    if (std::none_of(std::begin(known), std::end(known), [&](const char* x) { return k == x; }))
      usage(("unknown flag " + k).c_str());
  }

  std::optional<Workload> w = find_workload(arg("--workload", ""));
  if (!w) usage("unknown or missing --workload");
  const std::uint64_t seed = parse_u64(arg("--seed", "4242"), "--seed");
  const std::uint64_t seconds = parse_u64(arg("--seconds", "10"), "--seconds");
  const std::string trace = arg("--trace", "0");
  if (trace != "0" && trace != "1") usage("--trace expects 0 or 1");
  if (args.count("--nodes")) w->nodes = parse_u64(args["--nodes"], "--nodes");
  if (args.count("--rounds")) w->rounds = parse_u64(args["--rounds"], "--rounds");
  if (args.count("--frames")) w->frames = parse_u64(args["--frames"], "--frames");
  if (w->phy ? w->frames == 0 : (w->nodes == 0 || w->rounds == 0 || w->nodes > 60000))
    usage("workload size out of range");

  const std::string unfit = unfit_build();
  if (!unfit.empty()) {
    std::fprintf(stderr, "perfbench_mmx: refusing to report from a %s\n", unfit.c_str());
    return 3;
  }

  std::printf("%s\n", Json()
                          .add("kind", "meta")
                          .add("workload", w->name)
                          .add("seed", seed)
                          .add("seconds", seconds)
                          .add("trace", trace == "1")
                          .add("refresh_threads", static_cast<std::uint64_t>(kRefreshThreads))
                          .add("phy_threads", static_cast<std::uint64_t>(kPhyThreads))
                          .add("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
                          .add("nodes", static_cast<std::uint64_t>(w->nodes))
                          .add("rounds", static_cast<std::uint64_t>(w->rounds))
                          .add("faults", w->faults)
                          .add("frames", static_cast<std::uint64_t>(w->frames))
                          .add("compiler", perfbench::kCompiler)
                          .add("cxx_flags", perfbench::kCxxFlags)
                          .add("build_type", perfbench::kBuildType)
                          .str()
                          .c_str());
  std::fflush(stdout);

  Checks ck;
  Metrics m;
  try {
    if (w->phy)
      run_phy(*w, seed, static_cast<double>(seconds), trace == "1", ck, m);
    else
      run_scale(*w, seed, static_cast<double>(seconds), trace == "1", ck, m);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_mmx: %s\n", e.what());
    return 1;
  }

  std::string failures = "[";
  for (std::size_t i = 0; i < ck.failures.size(); ++i)
    failures += (i ? ", " : "") + Json::quote(ck.failures[i]);
  failures += "]";
  std::printf("%s\n", Json()
                          .add("kind", "result")
                          .add("attempted", ck.attempted)
                          .add("failed", ck.failed)
                          .raw("failures", failures)
                          .raw("metrics", m.json())
                          .str()
                          .c_str());
  return 0;
}
