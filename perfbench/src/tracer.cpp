#include "tracer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSetup: return "sim.setup";
    case Layer::kEvents: return "sim.events";
    case Layer::kJoin: return "sim.join";
    case Layer::kChurn: return "sim.churn";
    case Layer::kFaults: return "sim.faults";
    case Layer::kRound: return "sim.round";
    case Layer::kCrowd: return "channel.churn";
    case Layer::kInit: return "mac.init";
    case Layer::kAdmit: return "mac.admit";
    case Layer::kTrack: return "mac.track";
    case Layer::kRelease: return "mac.release";
    case Layer::kReap: return "mac.reap";
    case Layer::kRefresh: return "sim.refresh";
    case Layer::kLink: return "sim.link";
    case Layer::kArq: return "mac.arq";
    case Layer::kReport: return "sim.report";
    case Layer::kTeardown: return "sim.teardown";
    case Layer::kSynthesize: return "phy.synthesize";
    case Layer::kAwgn: return "dsp.awgn";
    case Layer::kDemod: return "phy.demod";
    case Layer::kCount: break;
  }
  return "unknown";
}

bool is_library_layer(Layer layer) {
  switch (layer) {
    case Layer::kEvents:
    case Layer::kCrowd:
    case Layer::kInit:
    case Layer::kAdmit:
    case Layer::kTrack:
    case Layer::kRelease:
    case Layer::kReap:
    case Layer::kRefresh:
    case Layer::kLink:
    case Layer::kArq:
    case Layer::kSynthesize:
    case Layer::kAwgn:
    case Layer::kDemod: return true;
    default: return false;
  }
}

void Tracer::begin(Layer layer) { stack_.push_back(Open{layer, Clock::now(), 0.0}); }

double Tracer::end() {
  if (stack_.empty()) throw std::logic_error("Tracer::end without an open span");
  const Open open = stack_.back();
  stack_.pop_back();
  const double d = seconds_since(open.start);
  const std::size_t i = idx(open.layer);
  self_[i] += d - open.child_s;
  total_[i] += d;
  ++calls_[i];
  if (!stack_.empty()) stack_.back().child_s += d;
  return d;
}


void Tracer::merge(const Tracer& other) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    self_[i] += other.self_[i];
    total_[i] += other.total_[i];
    calls_[i] += other.calls_[i];
  }
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double tail_quantile(std::size_t n) {
  for (const double q : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0) return q;
  }
  return 50.0;
}

}  // namespace perfbench
