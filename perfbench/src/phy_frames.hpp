// phy_frames workload: sample-level OTAM frames through the PHY fast path.
//
// Every frame is synthesize_otam -> add_noise_snr -> demodulate_joint on
// a per-thread phy::FramePipeline, over a seed-generated grid of
// beam-level ratios |h0|/|h1| (-20..20 dB) and SNRs (-10..10 dB). The
// inputs (grid and frame bits) are generated once in set-up; the noise
// of frame f draws from its own counter-derived stream, so per-point bit
// errors depend neither on the thread count nor on which worker decodes
// which frame.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "mmx/phy/pipeline.hpp"
#include "mmx/rf/spdt.hpp"
#include "tracer.hpp"

namespace perfbench {

struct PhyPoint {
  double ratio_db = 0.0;
  double snr_db = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t bits = 0;    ///< data bits decoded (preamble excluded)
  std::uint64_t errors = 0;  ///< data-bit errors
};

struct PhySweep {
  std::vector<PhyPoint> points;
  double run_s = 0.0;
  Clock::time_point t0;  ///< sweep start and end (wall clock)
  Clock::time_point t1;
  std::vector<double> worker_cpu_s;  ///< each worker's thread CPU time
  /// DspWorkspace allocations after each worker's first frame (0 when
  /// the fast path is allocation-free in steady state).
  std::uint64_t alloc_events = 0;
  Tracer tracer;  ///< merged over workers (traced sweeps only)
};

class PhyFrames {
 public:
  static constexpr std::size_t kGridSide = 8;  ///< ratios x SNRs = 64 points
  static constexpr std::size_t kDataBits = 1000;

  /// Set-up: generate the grid and every frame's bits from `seed`, and
  /// build one pipeline per worker thread. Worker w is pinned to cpus[w].
  PhyFrames(std::size_t frames, std::vector<int> cpus, std::uint64_t seed);

  /// One sweep over every frame; `traced` wraps each pipeline call in a
  /// span (phy.synthesize, dsp.awgn, phy.demod).
  PhySweep run(bool traced);

  std::size_t frames() const { return bits_.size(); }
  std::size_t threads() const { return pipes_.size(); }

 private:
  template <bool kTraced>
  void run_worker(std::size_t worker, std::atomic<std::size_t>& next,
                  std::vector<std::uint64_t>& errors, std::uint64_t& alloc_events,
                  double& cpu_s, Tracer& tracer);

  std::uint64_t seed_;
  std::vector<int> cpus_;
  mmx::phy::PhyConfig cfg_;
  mmx::rf::SpdtSwitch spdt_;
  std::vector<double> ratio_db_;  ///< per grid point
  std::vector<double> snr_db_;    ///< per grid point
  std::vector<mmx::phy::Bits> bits_;  ///< per frame: preamble + data
  std::vector<std::unique_ptr<mmx::phy::FramePipeline>> pipes_;
};

}  // namespace perfbench
