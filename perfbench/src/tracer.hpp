// Benchmark-side span timer: attributes wall time to named layers.
//
// Spans are opened around calls into one library layer and nest on a
// per-tracer stack. A layer's self time is its spans' duration minus the
// time their child spans cover, so the self times of all layers plus the
// time outside any span add up to the traced wall time exactly. One
// Tracer per thread; it is not thread-safe.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Layer : std::uint8_t {
  kSetup,       // sim.setup: simulator construction + event scheduling
  kEvents,      // sim.events: EventQueue::run_until minus handler time
  kJoin,        // sim.join: join handlers (thing construction, pose draw)
  kChurn,       // sim.churn: churn-tick bookkeeping (victim draws, retry scan)
  kFaults,      // sim.faults: fault-plan and rejoin-timer handlers
  kRound,       // sim.round: measurement-round bookkeeping
  kCrowd,       // channel.churn: WalkingCrowd::update + set_node_pose
  kInit,        // mac.init: a thing's Rng stream, its first pose draw and its
                //   RateController/ArqSender/RejoinBackoff
  kAdmit,       // mac.admit: NetworkSimulator::admit
  kTrack,       // mac.track: NetworkSimulator::add_tracked_node
  kRelease,     // mac.release: remove_node + revoke_grant
  kReap,        // mac.reap: reap_inactive
  kRefresh,     // sim.refresh: refresh_cache (RoomPlan refill)
  kLink,        // sim.link: per-thing link reads, one span per round
  kArq,         // mac.arq: per-thing ARQ + AIMD steps, one span per round
  kReport,      // sim.report: end-of-run aggregation
  kTeardown,    // sim.teardown: destruction of the scenario state
  kSynthesize,  // phy.synthesize: FramePipeline::synthesize_otam
  kAwgn,        // dsp.awgn: FramePipeline::add_noise_snr
  kDemod,       // phy.demod: FramePipeline::demodulate_joint
  kCount
};

constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

const char* layer_name(Layer layer);

/// Layers whose spans wrap calls into the library (mac.*, sim.refresh,
/// sim.link, channel.churn, sim.events, and the PHY stages). The other
/// spans time the benchmark's own replay bookkeeping, which counts as
/// unattributed.
bool is_library_layer(Layer layer);

class Tracer {
 public:
  void begin(Layer layer);
  /// Close the innermost span; returns its inclusive duration (seconds).
  double end();

  double self_s(Layer l) const { return self_[idx(l)]; }
  double total_s(Layer l) const { return total_[idx(l)]; }
  std::uint64_t calls(Layer l) const { return calls_[idx(l)]; }

  /// Add another tracer's closed spans onto this one (per-thread merge).
  void merge(const Tracer& other);

 private:
  static std::size_t idx(Layer l) { return static_cast<std::size_t>(l); }

  struct Open {
    Layer layer;
    Clock::time_point start;
    double child_s;
  };
  std::vector<Open> stack_;
  std::array<double, kLayerCount> self_{};
  std::array<double, kLayerCount> total_{};
  std::array<std::uint64_t, kLayerCount> calls_{};
};

/// RAII span. When `samples` is given, the inclusive duration is also
/// appended to it (per-call latency distributions).
class Span {
 public:
  Span(Tracer& tracer, Layer layer, std::vector<double>* samples = nullptr)
      : tracer_(tracer), samples_(samples) {
    tracer_.begin(layer);
  }
  ~Span() {
    const double d = tracer_.end();
    if (samples_ != nullptr) samples_->push_back(d);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::vector<double>* samples_;
};

/// Nearest-rank percentile (q in [0, 100]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double q);

/// The highest of {99.9, 99, 95, 90, 75, 50} that leaves at least ten
/// samples beyond it; 50 when the sample is smaller than that allows.
double tail_quantile(std::size_t n);

}  // namespace perfbench
