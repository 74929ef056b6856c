// Traced replay of sim::ScaleScenario::run.
//
// The replay drives the same sequence of public layer calls the library
// scenario makes — NetworkSimulator admission/tracking/removal/pose/
// refresh/link/reap/revoke, WalkingCrowd, the per-thing ArqSender /
// RateController / RejoinBackoff, EventQueue and FaultInjector — with a
// benchmark-side span around each call. Its ScaleReport must compare
// equal (ScaleReport::operator==) to the library's for the same
// (config, seed); that equality is what lets the per-layer times stand
// for the library's run. Overload-control configs are not replayed.
//
// The one structural difference: a measurement round reads every link
// first and then runs the per-thing ARQ/AIMD steps, so each half can be
// timed as one batch instead of per call. The halves touch disjoint
// state (a thing's ARQ step only ever removes that thing), so the
// simulated outcome is unchanged — the equality check proves it.
#pragma once

#include <cstdint>
#include <vector>

#include "mmx/sim/scale_scenario.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Counts and per-call samples the replay records next to the spans.
struct ReplayCounters {
  std::uint64_t admit_granted = 0;
  std::uint64_t refresh_entries = 0;
  std::uint64_t link_calls = 0;
  std::uint64_t arq_frames = 0;        ///< frames put on the air
  std::uint64_t arq_retx = 0;          ///< frames that were retransmissions
  std::uint64_t events_dispatched = 0;
  std::vector<double> admit_s;    ///< per admit() call
  std::vector<double> refresh_s;  ///< per refresh_cache() call
  std::vector<double> round_s;    ///< per measurement round (inclusive)
};

/// Replay one run under `tracer`: sim.setup, sim.events (with every
/// handler and layer call nested inside), sim.report and sim.teardown
/// are top-level spans.
mmx::sim::ScaleReport replay_scale(const mmx::sim::ScaleConfig& cfg, std::uint64_t seed,
                                   Tracer& tracer, ReplayCounters& counters);

/// Wall time of the scenario's set-up alone: simulator construction
/// through the scheduling of every event, up to the first dispatch.
/// Teardown is not included.
double time_scale_setup(const mmx::sim::ScaleConfig& cfg, std::uint64_t seed);

}  // namespace perfbench
