// End-to-end complex channel gains per transmit beam.
//
// This is where OTAM's physics lives: for a node at a pose transmitting
// through Beam 0 or Beam 1 of its orthogonal pair, the multipath channel
// collapses to one complex gain per beam,
//     h_b = sum_paths  F_b(departure) * G_ap(arrival) * a_path,
// and the AP sees the carrier amplitude toggle between |h1| and |h0| —
// ASK "modulated by the channel" (paper §6.1).
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "mmx/antenna/element.hpp"
#include "mmx/antenna/mmx_beams.hpp"
#include "mmx/channel/ray_tracer.hpp"

namespace mmx::channel {

/// A position + facing direction in the 2-D world frame.
struct Pose {
  Vec2 position;
  double orientation_rad = 0.0;  ///< boresight direction, CCW from +x

  bool operator==(const Pose&) const = default;
};

struct BeamGains {
  std::complex<double> h0;  ///< channel gain through Beam 0
  std::complex<double> h1;  ///< channel gain through Beam 1
  int paths_used = 0;

  /// OTAM amplitude contrast |log-ratio| between the two beams [dB].
  double contrast_db() const;
};

/// The pose-only part of one path's term in the beam-gain sum: every
/// factor of h_b that depends on the path's geometry and the two poses
/// but not on its excess loss. A blocker delta changes only the excess
/// loss, so a link cache keeps these and re-runs accumulate_path alone.
struct PathBeamTerm {
  double fixed_loss_db = 0.0;   ///< free-space + atmospheric loss [dB]
  std::complex<double> phasor;  ///< cos/sin of the electrical phase -k * length
  double rx_amp = 0.0;          ///< AP element amplitude at the arrival angle
  std::complex<double> f0;      ///< Beam 0 field at the departure angle
  std::complex<double> f1;      ///< Beam 1 field at the departure angle
};

PathBeamTerm path_beam_term(const Path& path, const Pose& node, const antenna::MmxBeamPair& beams,
                            const Pose& ap, const antenna::Element& ap_antenna, double freq_hz);

/// Add one path with excess loss `excess_loss_db` to `g`: the amplitude
/// is db_to_amp(-((free + atm) + excess)), path_loss_db's sum order, and
/// h_b += F_b * (amp * phasor * rx_amp). Throws std::invalid_argument on
/// a negative excess loss, as path_loss_db does.
void accumulate_path(BeamGains& g, const PathBeamTerm& term, double excess_loss_db);

/// One wall-only path as a link cache stores it: the route a blocker
/// delta re-scores (RoomPlan::rescore) and the path's beam term.
struct PathRecord {
  PathBeamTerm beam;
  PathRoute route;
};

/// Gains and records of a full fill from a fused dual trace: appends one
/// record per wall-only path in `free` (blocker-free, traced with the
/// same walls, bounce count and loss cap as `blocked`) to `records`, and
/// returns the gains of the blockers-applied set `blocked` — a
/// subsequence of `free` in the same order — summed from those records'
/// terms. Bit-identical to beam_gains_from_paths(blocked, ...).
BeamGains record_paths(std::span<const Path> blocked, std::span<const Path> free,
                       const Pose& node, const antenna::MmxBeamPair& beams, const Pose& ap,
                       const antenna::Element& ap_antenna, double freq_hz,
                       std::vector<PathRecord>& records);

/// Gains of a blocker-delta refill, without tracing: re-scores each
/// stored record against `plan`'s current blockers (node -> ap, the
/// endpoints it was traced between), drops the ones over
/// `max_excess_loss_db` and sums the rest in stored order. Bit-identical
/// to beam_gains_from_paths over a fresh blockers-applied trace, provided
/// `records` came from a wall-only trace of `plan`'s walls at the same
/// poses, bounce count and loss cap.
BeamGains rescore_beam_gains(const RoomPlan& plan, Vec2 node, Vec2 ap,
                             std::span<const PathRecord> records, PathList& ws,
                             double max_excess_loss_db);

/// Compute the per-beam gains between a node (with the mmX beam pair)
/// and the AP (with a single element pattern). Paths combine coherently
/// (instantaneous channel, includes small-scale fading).
BeamGains compute_beam_gains(const RayTracer& tracer, const Pose& node,
                             const antenna::MmxBeamPair& beams, const Pose& ap,
                             const antenna::Element& ap_antenna, double freq_hz);

/// Same accumulation over an already-traced path set: accumulate_path
/// of each path's path_beam_term, in path order. Bit-identical to
/// compute_beam_gains when `paths` is the trace of
/// (node.position -> ap.position).
BeamGains beam_gains_from_paths(std::span<const Path> paths, const Pose& node,
                                const antenna::MmxBeamPair& beams, const Pose& ap,
                                const antenna::Element& ap_antenna, double freq_hz);

/// Fading-averaged variant: |h_b| is the RMS over path phases (incoherent
/// power sum), the quantity a time-averaged SNR measurement sees when
/// people moving through the room scramble the multipath phases (the
/// paper's §9.2 procedure). Returned gains are real-valued amplitudes.
BeamGains compute_beam_gains_avg(const RayTracer& tracer, const Pose& node,
                                 const antenna::MmxBeamPair& beams, const Pose& ap,
                                 const antenna::Element& ap_antenna, double freq_hz);

/// Channel gain for an arbitrary single transmit pattern (used by the
/// beam-search baseline with steered phased-array beams).
std::complex<double> compute_pattern_gain(const RayTracer& tracer, const Pose& tx,
                                          const antenna::LinearArray& tx_array, const Pose& rx,
                                          const antenna::Element& rx_antenna, double freq_hz);

}  // namespace mmx::channel
