// Micro-benchmarks of MAC admission: mac::InitProtocol on the gap-indexed
// FdmAllocator against the frozen reference pair in tests/reference/
// (refmac::InitProtocol on refmac::FdmAllocator, which copies and sorts
// the occupied set on every allocation), on the shared sweep harness.
//
// Two kernel sets are selectable with --kernels:
//   fast  the library: gap index, cached solo slots, shared-channel set
//   ref   the frozen pre-index reference pair
//
// Every trial copies a pinned resident population, applies its stage's
// operations and folds every reply and re-tune into a checksum, so ref
// and fast are bitwise-comparable: the default `all` mode runs matched
// pairs, prints the speedup table and FAILS (exit 1) if any stage's
// per-trial checksums differ — a perf report that doubles as an
// equivalence test. --stage picks one stage for a machine-readable run
// (the JSON bench name carries the stage, so tools/sweep_gate can compare
// a matched ref/fast pair); CI's bench-perf lane gates admit_10k at >= 5x.
//
// Residents: n things admitted in id order on a V-band slice sized so
// they all fit (20 kHz guard, 40-160 kHz channels), then every 8th one
// released, leaving holes. Stages, each at n = 1k, 10k and 60k (node ids
// are 16-bit, so 10^5 residents are out of reach):
//   admit_<n>    256 newcomers request: holes first, then SDM, then deny
//   readmit_<n>  256 residents released and re-admitted at a new rate
//   compact_<n>  one compact_spectrum() sliding every channel down-band
//   modify_<n>   256 residents renegotiate their rate (halve or double)
// The reference only runs at 1k and 10k: building its 60k population
// alone re-sorts the band 60,000 times (minutes), so the 60k rows are
// fast-only.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <variant>
#include <vector>

#include "harness.hpp"
#include "init_protocol_ref.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/mac/init_protocol.hpp"

using namespace mmx;

namespace {

constexpr double kBandLowHz = 57.0e9;
constexpr double kGuardHz = 20e3;
constexpr double kBaseRateBps = 64e3;  // 80 kHz at 0.8 b/s/Hz
constexpr int kOpsPerTrial = 256;
constexpr std::size_t kLargestRefResidents = 10000;

struct Stage {
  std::string name;  // e.g. "admit_10k"
  std::string op;    // admit | readmit | compact | modify
  std::size_t residents;
};

std::vector<Stage> all_stages() {
  std::vector<Stage> stages;
  for (const auto& [suffix, n] :
       std::vector<std::pair<std::string, std::size_t>>{{"1k", 1000}, {"10k", 10000},
                                                       {"60k", 60000}})
    for (const char* op : {"admit", "readmit", "compact", "modify"})
      stages.push_back({std::string(op) + "_" + suffix, op, n});
  return stages;
}

double draw_rate(Rng& rng) {
  static constexpr double kTiers[] = {0.5, 1.0, 1.0, 2.0};
  return kBaseRateBps * kTiers[rng.uniform_int(0, 3)];
}

mac::ChannelRequest draw_request(std::uint16_t id, Rng& rng) {
  const double rate = draw_rate(rng);
  return {id, rate, rng.uniform(-0.6, 0.6), 1};
}

/// The pinned resident population of size n, built through the kernel's
/// own admission path.
template <class Protocol, class Allocator, class Config>
Protocol make_residents(std::size_t n) {
  Rng rng(0x3ac0ffeeULL + n);
  std::vector<mac::ChannelRequest> residents;
  double band_hz = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    residents.push_back(draw_request(static_cast<std::uint16_t>(i), rng));
    band_hz += mac::required_bandwidth_hz(residents.back().rate_bps) + kGuardHz;
  }
  rf::VcoSpec vco;
  vco.f_min_hz = kBandLowHz - 0.5e9;
  vco.f_max_hz = kBandLowHz + band_hz + 0.5e9;
  Protocol p(Allocator(kBandLowHz, kBandLowHz + band_hz, kGuardHz), rf::Vco(vco), Config{});
  for (const mac::ChannelRequest& req : residents) p.handle(req);
  for (std::size_t id = 8; id <= n; id += 8) p.release(static_cast<std::uint16_t>(id));
  return p;
}

template <class Protocol, class Allocator, class Config>
const Protocol& residents(std::size_t n) {
  static const Protocol p1k = make_residents<Protocol, Allocator, Config>(1000);
  if (n == 1000) return p1k;
  static const Protocol p10k = make_residents<Protocol, Allocator, Config>(10000);
  if (n == 10000) return p10k;
  static const Protocol p60k = make_residents<Protocol, Allocator, Config>(60000);
  return p60k;
}

double fold(const mac::SideChannelMessage& m) {
  if (const auto* g = std::get_if<mac::ChannelGrant>(&m))
    return g->channel.center_hz + 1e-3 * g->channel.bandwidth_hz + g->sdm_harmonic +
           g->vco_tune_v0 + g->vco_tune_v1;
  if (const auto* d = std::get_if<mac::ChannelDeny>(&m)) return 1.0 + d->retry_after_s;
  return 0.0;
}

template <class Protocol, class Allocator, class Config>
double trial(const Stage& stage, Rng& rng) {
  Protocol p = residents<Protocol, Allocator, Config>(stage.residents);
  const auto n = static_cast<int>(stage.residents);
  double acc = 0.0;
  if (stage.op == "compact") {
    acc += static_cast<double>(p.compact_spectrum());
  } else {
    for (int i = 0; i < kOpsPerTrial; ++i) {
      if (stage.op == "admit") {
        acc += fold(p.handle(draw_request(static_cast<std::uint16_t>(n + 1 + i), rng)));
      } else {
        const auto id = static_cast<std::uint16_t>(rng.uniform_int(1, n));
        if (stage.op == "readmit") {
          p.release(id);
          acc += fold(p.handle(draw_request(id, rng)));
        } else {
          acc += fold(p.modify_rate(id, kBaseRateBps * (rng.chance(0.5) ? 0.5 : 2.0)));
        }
      }
    }
  }
  for (const mac::ChannelGrant& g : p.take_retunes()) acc += fold(g);
  return acc;
}

// The resident population is built before the clock starts; a trial's
// time is its copy of the population plus its stage's operations.
sim::SweepResult<double> run_stage(const Stage& stage, bool fast, sim::SweepRunner& runner) {
  if (fast) {
    residents<mac::InitProtocol, mac::FdmAllocator, mac::InitConfig>(stage.residents);
    return runner.run([&](std::size_t, Rng& rng) {
      return trial<mac::InitProtocol, mac::FdmAllocator, mac::InitConfig>(stage, rng);
    });
  }
  residents<refmac::InitProtocol, refmac::FdmAllocator, refmac::InitConfig>(stage.residents);
  return runner.run([&](std::size_t, Rng& rng) {
    return trial<refmac::InitProtocol, refmac::FdmAllocator, refmac::InitConfig>(stage, rng);
  });
}

bool checksums_match(const sim::SweepResult<double>& a, const sim::SweepResult<double>& b) {
  if (a.trials.size() != b.trials.size()) return false;
  for (std::size_t i = 0; i < a.trials.size(); ++i)
    if (a.trials[i] != b.trials[i]) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string stage_name = "all";
  std::string kernels = "fast";
  const bench::Options opt = bench::parse_args(
      argc, argv, /*default_trials=*/5, /*default_seed=*/0x6d6d584dULL, "trials per stage",
      {{"--stage", "all|{admit,readmit,compact,modify}_{1k,10k,60k} (default all)", &stage_name},
       {"--kernels", "fast|ref kernel set (default fast)", &kernels}});
  if (kernels != "fast" && kernels != "ref") {
    std::fprintf(stderr, "micro_mac: --kernels must be fast or ref, got '%s'\n", kernels.c_str());
    return 2;
  }
  const bool fast = kernels == "fast";
  sim::SweepRunner runner(opt.sweep);

  if (stage_name == "all") {
    bench::JsonReport report("micro_mac", opt);
    std::printf("# micro_mac — refmac (ref) vs gap-indexed InitProtocol (fast), %zu trials/stage, "
                "%zu threads\n",
                opt.sweep.trials, runner.threads());
    std::printf("%-12s %14s %14s %9s %9s\n", "stage", "ref trials/s", "fast trials/s", "speedup",
                "bitwise");
    for (const Stage& s : all_stages()) {
      const sim::SweepResult<double> fst = run_stage(s, /*fast=*/true, runner);
      if (s.residents > kLargestRefResidents) {
        std::printf("%-12s %14s %14.1f %9s %9s\n", s.name.c_str(), "-", fst.trials_per_s, "-",
                    "-");
        continue;
      }
      const sim::SweepResult<double> ref = run_stage(s, /*fast=*/false, runner);
      const bool same = checksums_match(ref, fst);
      const double speedup = ref.trials_per_s > 0.0 ? fst.trials_per_s / ref.trials_per_s : 0.0;
      std::printf("%-12s %14.1f %14.1f %8.2fx %9s\n", s.name.c_str(), ref.trials_per_s,
                  fst.trials_per_s, speedup, same ? "ok" : "MISMATCH");
      if (!same) {
        std::fprintf(stderr, "micro_mac: stage '%s' checksums diverge from the reference\n",
                     s.name.c_str());
        return 1;
      }
      report.add_scalar("speedup_" + s.name, speedup);
      if (s.name == "admit_10k") report.record(fst);
    }
    return report.write() ? 0 : 1;
  }

  const std::vector<Stage> stages = all_stages();
  const Stage* stage = nullptr;
  for (const Stage& s : stages)
    if (s.name == stage_name) stage = &s;
  if (stage == nullptr) {
    std::fprintf(stderr, "micro_mac: unknown --stage '%s'\n", stage_name.c_str());
    return 2;
  }
  if (!fast && stage->residents > kLargestRefResidents) {
    std::fprintf(stderr, "micro_mac: the ref kernels run at 1k and 10k residents only\n");
    return 2;
  }
  const sim::SweepResult<double> result = run_stage(*stage, fast, runner);
  bench::report_timing(result);
  std::printf("[micro_mac] stage=%s kernels=%s trials=%zu trials_per_s=%.1f\n", stage->name.c_str(),
              kernels.c_str(), result.trials.size(), result.trials_per_s);
  bench::JsonReport report("micro_mac_" + stage->name, opt);
  report.record(result);
  report.add_metric("checksum", result.trials);
  return report.write() ? 0 : 1;
}
