#include "mmx/channel/beam_channel.hpp"

#include <cmath>
#include <stdexcept>

#include "mmx/channel/propagation.hpp"
#include "mmx/common/units.hpp"

namespace mmx::channel {

double BeamGains::contrast_db() const {
  const double a0 = std::abs(h0);
  const double a1 = std::abs(h1);
  if (a0 <= 0.0 || a1 <= 0.0) return 200.0;
  return std::abs(amp_to_db(a1 / a0));
}

PathBeamTerm path_beam_term(const Path& path, const Pose& node, const antenna::MmxBeamPair& beams,
                            const Pose& ap, const antenna::Element& ap_antenna, double freq_hz) {
  // Angles in each device's own frame.
  const double dep = wrap_angle(path.departure_rad - node.orientation_rad);
  const double arr = wrap_angle(path.arrival_rad - ap.orientation_rad);
  // The factors of RayTracer::path_amplitude (path_gain) that do not
  // depend on the excess loss.
  const double phase = -wavenumber(freq_hz) * path.length_m;
  PathBeamTerm t;
  t.fixed_loss_db =
      free_space_loss_db(path.length_m, freq_hz) + atmospheric_loss_db(path.length_m, freq_hz);
  t.phasor = {std::cos(phase), std::sin(phase)};
  t.rx_amp = ap_antenna.amplitude(arr);
  t.f0 = beams.field(0, dep);
  t.f1 = beams.field(1, dep);
  return t;
}

void accumulate_path(BeamGains& g, const PathBeamTerm& term, double excess_loss_db) {
  if (excess_loss_db < 0.0)
    throw std::invalid_argument("accumulate_path: excess loss must be >= 0");
  const double amp = db_to_amp(-(term.fixed_loss_db + excess_loss_db));
  const std::complex<double> a = amp * term.phasor * term.rx_amp;
  g.h0 += term.f0 * a;
  g.h1 += term.f1 * a;
  ++g.paths_used;
}

BeamGains beam_gains_from_paths(std::span<const Path> paths, const Pose& node,
                                const antenna::MmxBeamPair& beams, const Pose& ap,
                                const antenna::Element& ap_antenna, double freq_hz) {
  BeamGains g{};
  for (const Path& p : paths)
    accumulate_path(g, path_beam_term(p, node, beams, ap, ap_antenna, freq_hz), p.excess_loss_db);
  return g;
}

BeamGains record_paths(std::span<const Path> blocked, std::span<const Path> free,
                       const Pose& node, const antenna::MmxBeamPair& beams, const Pose& ap,
                       const antenna::Element& ap_antenna, double freq_hz,
                       std::vector<PathRecord>& records) {
  BeamGains g{};
  records.reserve(records.size() + free.size());
  std::size_t next = 0;  // next blockers-applied path to match
  for (const Path& p : free) {
    const PathRecord& r = records.emplace_back(
        PathRecord{path_beam_term(p, node, beams, ap, ap_antenna, freq_hz), route_of(p)});
    // A path is identified by its bounce walls; the blocked set is the
    // free set minus the paths blockers pushed over the loss cap.
    if (next < blocked.size() && blocked[next].wall_index == p.wall_index &&
        blocked[next].wall_index2 == p.wall_index2)
      accumulate_path(g, r.beam, blocked[next++].excess_loss_db);
  }
  if (next != blocked.size())
    throw std::logic_error("record_paths: blocked paths are not a subsequence of free ones");
  return g;
}

BeamGains rescore_beam_gains(const RoomPlan& plan, Vec2 node, Vec2 ap,
                             std::span<const PathRecord> records, PathList& ws,
                             double max_excess_loss_db) {
  BeamGains g{};
  PathScore score;
  for (const PathRecord& r : records)
    if (plan.rescore(node, ap, r.route, ws, score, max_excess_loss_db))
      accumulate_path(g, r.beam, score.excess_loss_db);
  return g;
}

BeamGains compute_beam_gains(const RayTracer& tracer, const Pose& node,
                             const antenna::MmxBeamPair& beams, const Pose& ap,
                             const antenna::Element& ap_antenna, double freq_hz) {
  const auto paths = tracer.trace(node.position, ap.position);
  return beam_gains_from_paths(paths, node, beams, ap, ap_antenna, freq_hz);
}

BeamGains compute_beam_gains_avg(const RayTracer& tracer, const Pose& node,
                                 const antenna::MmxBeamPair& beams, const Pose& ap,
                                 const antenna::Element& ap_antenna, double freq_hz) {
  double p0 = 0.0;
  double p1 = 0.0;
  int used = 0;
  for (const Path& p : tracer.trace(node.position, ap.position)) {
    const double dep = wrap_angle(p.departure_rad - node.orientation_rad);
    const double arr = wrap_angle(p.arrival_rad - ap.orientation_rad);
    const double rx_amp = ap_antenna.amplitude(arr);
    const double a = std::abs(RayTracer::path_amplitude(p, freq_hz)) * rx_amp;
    p0 += std::norm(beams.field(0, dep)) * a * a;
    p1 += std::norm(beams.field(1, dep)) * a * a;
    ++used;
  }
  BeamGains g{};
  g.h0 = std::sqrt(p0);
  g.h1 = std::sqrt(p1);
  g.paths_used = used;
  return g;
}

std::complex<double> compute_pattern_gain(const RayTracer& tracer, const Pose& tx,
                                          const antenna::LinearArray& tx_array, const Pose& rx,
                                          const antenna::Element& rx_antenna, double freq_hz) {
  std::complex<double> h{0.0, 0.0};
  for (const Path& p : tracer.trace(tx.position, rx.position)) {
    const double dep = wrap_angle(p.departure_rad - tx.orientation_rad);
    const double arr = wrap_angle(p.arrival_rad - rx.orientation_rad);
    h += tx_array.field(dep) * rx_antenna.amplitude(arr) * RayTracer::path_amplitude(p, freq_hz);
  }
  return h;
}

}  // namespace mmx::channel
