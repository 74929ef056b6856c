#include "phy_frames.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>

#include "host_speed.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/common/units.hpp"

namespace perfbench {

using namespace mmx;

namespace {

const phy::Bits kPreamble{1, 0, 1, 0, 1, 1, 0, 0};

// Stream layout under the workload seed: 0 = grid, 1 + f = frame f's
// bits, 1 + frames + f = frame f's noise.
std::vector<double> sorted_draws(Rng& rng, std::size_t n, double lo, double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

PhyFrames::PhyFrames(std::size_t frames, std::vector<int> cpus, std::uint64_t seed)
    : seed_(seed), cpus_(std::move(cpus)) {
  const std::size_t threads = cpus_.size();
  if (frames == 0 || threads == 0)
    throw std::invalid_argument("PhyFrames: frames and threads must be > 0");
  Rng grid_rng = Rng::stream(seed, 0);
  const std::vector<double> ratios = sorted_draws(grid_rng, kGridSide, -20.0, 20.0);
  const std::vector<double> snrs = sorted_draws(grid_rng, kGridSide, -10.0, 10.0);
  for (const double r : ratios) {
    for (const double s : snrs) {
      ratio_db_.push_back(r);
      snr_db_.push_back(s);
    }
  }
  bits_.resize(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    Rng rng = Rng::stream(seed, 1 + f);
    phy::Bits& b = bits_[f];
    b.reserve(kPreamble.size() + kDataBits);
    b = kPreamble;
    for (std::size_t i = 0; i < kDataBits; ++i) b.push_back(rng.uniform_int(0, 1));
  }
  for (std::size_t t = 0; t < threads; ++t)
    pipes_.push_back(std::make_unique<phy::FramePipeline>(cfg_));
}

template <bool kTraced>
void PhyFrames::run_worker(std::size_t worker, std::atomic<std::size_t>& next,
                           std::vector<std::uint64_t>& errors, std::uint64_t& alloc_events,
                           double& cpu_s, Tracer& tracer) {
  const double c0 = thread_cpu_s();
  phy::FramePipeline& pipe = *pipes_[worker];
  const std::size_t n = bits_.size();
  std::size_t warm_allocs = 0;
  bool warm = false;
  for (std::size_t f = next++; f < n; f = next++) {
    const std::size_t p = f % ratio_db_.size();
    const phy::Bits& bits = bits_[f];
    const phy::OtamChannel ch{{db_to_amp(ratio_db_[p]), 0.0}, {1.0, 0.0}};
    Rng noise = Rng::stream(seed_, 1 + n + f);
    const phy::JointDecision* d = nullptr;
    if constexpr (kTraced) {
      {
        Span s(tracer, Layer::kSynthesize);
        pipe.synthesize_otam(bits, ch, spdt_);
      }
      {
        Span s(tracer, Layer::kAwgn);
        pipe.add_noise_snr(snr_db_[p], noise);
      }
      Span s(tracer, Layer::kDemod);
      d = &pipe.demodulate_joint(kPreamble);
    } else {
      pipe.synthesize_otam(bits, ch, spdt_);
      pipe.add_noise_snr(snr_db_[p], noise);
      d = &pipe.demodulate_joint(kPreamble);
    }
    std::uint64_t err = 0;
    for (std::size_t i = kPreamble.size(); i < bits.size(); ++i) err += (d->bits[i] != bits[i]);
    errors[f] = err;
    if (!warm) {
      warm = true;
      warm_allocs = pipe.workspace().alloc_events();
    }
  }
  alloc_events = pipe.workspace().alloc_events() - warm_allocs;
  cpu_s = thread_cpu_s() - c0;
}

PhySweep PhyFrames::run(bool traced) {
  const std::size_t workers = pipes_.size();
  std::vector<std::uint64_t> errors(bits_.size(), 0);
  std::vector<std::uint64_t> allocs(workers, 0);
  std::vector<Tracer> tracers(workers);
  std::vector<double> cpu_s(workers, 0.0);
  std::vector<std::exception_ptr> failures(workers);
  // Workers pull frames from a shared counter: a worker whose core stalls
  // does not hold back the sweep with a fixed share of the frames.
  std::atomic<std::size_t> next{0};

  PhySweep out;
  out.t0 = Clock::now();
  {
    std::vector<std::jthread> pool;
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        try {
          pin_to_cpu(cpus_[w]);
          if (traced)
            run_worker<true>(w, next, errors, allocs[w], cpu_s[w], tracers[w]);
          else
            run_worker<false>(w, next, errors, allocs[w], cpu_s[w], tracers[w]);
        } catch (...) {
          failures[w] = std::current_exception();
        }
      });
    }
  }  // jthreads join here
  out.t1 = Clock::now();
  out.run_s = std::chrono::duration<double>(out.t1 - out.t0).count();
  out.worker_cpu_s = std::move(cpu_s);
  for (const std::exception_ptr& e : failures)
    if (e) std::rethrow_exception(e);

  out.points.resize(ratio_db_.size());
  for (std::size_t p = 0; p < out.points.size(); ++p) {
    out.points[p].ratio_db = ratio_db_[p];
    out.points[p].snr_db = snr_db_[p];
  }
  for (std::size_t f = 0; f < errors.size(); ++f) {
    PhyPoint& pt = out.points[f % out.points.size()];
    ++pt.frames;
    pt.bits += kDataBits;
    pt.errors += errors[f];
  }
  for (std::size_t w = 0; w < workers; ++w) {
    out.alloc_events += allocs[w];
    out.tracer.merge(tracers[w]);
  }
  return out;
}

}  // namespace perfbench
