#include "beam_gains_ref.hpp"

#include <complex>

#include "mmx/channel/ray_tracer.hpp"
#include "mmx/common/units.hpp"

namespace mmx::refbeam {

using channel::RayTracer;

BeamGains beam_gains_from_paths(std::span<const Path> paths, const Pose& node,
                                const antenna::MmxBeamPair& beams, const Pose& ap,
                                const antenna::Element& ap_antenna, double freq_hz) {
  BeamGains g{};
  for (const Path& p : paths) {
    // Angles in each device's own frame.
    const double dep = wrap_angle(p.departure_rad - node.orientation_rad);
    const double arr = wrap_angle(p.arrival_rad - ap.orientation_rad);
    const double rx_amp = ap_antenna.amplitude(arr);
    const std::complex<double> a = RayTracer::path_amplitude(p, freq_hz) * rx_amp;
    g.h0 += beams.field(0, dep) * a;
    g.h1 += beams.field(1, dep) * a;
    ++g.paths_used;
  }
  return g;
}

}  // namespace mmx::refbeam
