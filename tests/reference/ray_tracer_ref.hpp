// Frozen reference copy of channel::RayTracer from before it became a
// facade over channel::RoomPlan: the naive image-method tracer that
// re-derives every wall image and scans every blocker per segment. Kept
// verbatim apart from the namespace and the using-declarations (the
// plain Path, PathKind and WallSkip value types are the library's,
// mmx/channel/path.hpp), so tests/channel/room_plan_test.cpp, the link
// cache oracle in tests/sim/link_cache_test.cpp and the ref arm of
// bench/micro_trace can demand that the library traces bit-identical
// paths. Do not edit: a change here weakens the oracle.
//
// Image-method ray tracer: LoS + first-order specular reflections.
//
// Past mmWave measurement studies show "typically there are a few paths"
// between two nodes (paper §2, citing BeamSpy) — LoS plus a handful of
// single-bounce reflections dominate. The tracer enumerates exactly
// those, with per-path departure/arrival angles so directional antenna
// patterns can be applied at both ends, and blocker crossings so human
// blockage shows up as the 10-15 dB penalty the paper relies on.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "mmx/channel/path.hpp"
#include "mmx/channel/room.hpp"

namespace mmx::reftrace {

using channel::Blocker;
using channel::Room;
using channel::Wall;
using channel::Path;
using channel::PathKind;
using channel::WallSkip;

class RayTracer {
 public:
  explicit RayTracer(const Room& room);

  /// All propagation paths tx -> rx: the (possibly blocked) LoS plus one
  /// single-bounce reflection per visible wall/reflector, and — with
  /// `max_bounces` >= 2 — ordered double bounces (image-of-image method).
  /// Paths whose total excess loss exceeds `max_excess_loss_db` are
  /// dropped. With `apply_blockers` false, blocker crossings contribute
  /// no loss and no pruning: the result is the wall-only path *superset*
  /// a link cache uses to decide which nodes a blocker move can affect
  /// (blockers attenuate paths but never create or bend them).
  std::vector<Path> trace(Vec2 tx, Vec2 rx, double max_excess_loss_db = 60.0,
                          int max_bounces = 1, bool apply_blockers = true) const;

  /// Complex amplitude gain of one path at `freq_hz` (isotropic ends).
  static std::complex<double> path_amplitude(const Path& path, double freq_hz);

  /// Power-weighted RMS delay spread [s] of a path set at `freq_hz` —
  /// the metric that says whether a channel is flat across an mmX FDM
  /// channel (indoor mmWave: a few ns, i.e. flat over tens of MHz).
  static double rms_delay_spread_s(std::span<const Path> paths, double freq_hz);

  const Room& room() const { return *room_; }

 private:
  /// Sum of blocker losses along segment [a, b], scaled by `loss_scale`
  /// (1.0 for LoS, less for reflected paths whose 3-D elevation spread
  /// partially routes around a standing blocker); also counts crossings.
  double blocker_loss_db(Vec2 a, Vec2 b, int& crossings, double loss_scale) const;

  /// Sum of partition transmission losses along segment [a, b], skipping
  /// the walls in `skip`.
  double transmission_loss_db(Vec2 a, Vec2 b, WallSkip skip) const;

  const Room* room_;  // non-owning; Room must outlive the tracer
};

}  // namespace mmx::reftrace
