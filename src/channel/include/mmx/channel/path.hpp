// One propagation path between two points of a Room: the plain value
// type every tracer (RoomPlan, its RayTracer facade, the frozen
// reference in tests/reference/) produces and the channel/sim layers
// consume.
#pragma once

#include "mmx/common/geometry.hpp"

namespace mmx::channel {

enum class PathKind { kLineOfSight, kReflected, kDoubleReflected };

/// Wall ids a transmission scan must ignore — a leg's own reflecting
/// wall(s) touch the leg at an endpoint and must not count as crossings.
/// At most two walls are ever skipped (the two bounce walls of a
/// double-reflected leg), so a 2-slot mask beats scanning a list per
/// wall: the old initializer_list scan was O(walls x skip) per leg.
struct WallSkip {
  int w0 = -1;
  int w1 = -1;

  bool contains(int w) const { return w == w0 || w == w1; }
};

struct Path {
  PathKind kind = PathKind::kLineOfSight;
  double length_m = 0.0;
  /// Departure direction at the transmitter (global frame angle).
  double departure_rad = 0.0;
  /// Arrival direction at the receiver: the direction the energy comes
  /// *from*, seen from the receiver (global frame angle).
  double arrival_rad = 0.0;
  /// Loss beyond free space: reflection loss + blocker losses [dB].
  double excess_loss_db = 0.0;
  /// Number of blockers the path crosses.
  int blocker_crossings = 0;
  /// Index of the (first) reflecting wall in Room::walls().
  int wall_index = -1;
  /// Second wall for double-bounce paths.
  int wall_index2 = -1;
  /// Reflection points (first / second bounce).
  Vec2 via{};
  Vec2 via2{};
};

/// The wall-only route of a traced path: its bounce walls and reflection
/// points, all that RoomPlan::rescore needs to re-apply the current
/// blockers to the path without re-tracing it. The kind follows from the
/// walls: none is line of sight, one a single and two a double bounce.
struct PathRoute {
  int wall_index = -1;
  int wall_index2 = -1;
  Vec2 via{};
  Vec2 via2{};

  PathKind kind() const {
    if (wall_index < 0) return PathKind::kLineOfSight;
    return wall_index2 < 0 ? PathKind::kReflected : PathKind::kDoubleReflected;
  }
};

inline PathRoute route_of(const Path& p) { return {p.wall_index, p.wall_index2, p.via, p.via2}; }

}  // namespace mmx::channel
