// Frozen reference copy of channel::beam_gains_from_paths from before it
// was split into a pose-only per-path term (path_beam_term) and an
// excess-loss accumulate step (accumulate_path), the split the link
// cache's blocker-delta rescore relies on. Kept verbatim apart from the
// namespace and the using-declarations (the Path, Pose and BeamGains value
// types, the antenna patterns and channel::RayTracer::path_amplitude are
// the library's), so tests/channel/rescore_test.cpp, the link cache
// oracle in tests/sim/link_cache_test.cpp and the ref arm of
// bench/micro_trace's rescore stage can demand that the library sums
// bit-identical gains. Do not edit: a change here weakens the oracle.
#pragma once

#include <span>

#include "mmx/channel/beam_channel.hpp"

namespace mmx::refbeam {

using channel::BeamGains;
using channel::Path;
using channel::Pose;

/// Same accumulation over an already-traced path set — the entry point
/// for the RoomPlan batch path, where one trace_batch_into produces the
/// per-node path windows. Bit-identical to compute_beam_gains when
/// `paths` is the trace of (node.position -> ap.position).
BeamGains beam_gains_from_paths(std::span<const Path> paths, const Pose& node,
                                const antenna::MmxBeamPair& beams, const Pose& ap,
                                const antenna::Element& ap_antenna, double freq_hz);

}  // namespace mmx::refbeam
