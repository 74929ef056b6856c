// Geometry engine: a compiled, epoch-keyed room plan — the one
// image-method tracer in the library (RayTracer is its call-site facade).
//
// Tracing a room naively re-derives every wall image, scans every
// blocker per segment, and heap-allocates its result vector on each
// call — fine for one link, ruinous for the 10^4-node cache refills the
// scale lane runs (docs/SCALING.md). A RoomPlan compiles a Room snapshot
// once per Room::epoch() into flat, cache-friendly tables:
//
//   - per-wall precomputed segments (direction/length cached) so the
//     image-method mirror/intersect steps apply stored transforms,
//   - SoA blocker storage (centers/radii/losses in flat arrays) behind a
//     uniform-grid broad phase: a segment only exact-tests the discs
//     registered in the cells it crosses, with an AABB reject first,
//   - allocation-free tracing into a caller-owned PathList workspace
//     (the DspWorkspace pattern from docs/DSP_FASTPATH.md),
//   - batched tracing against a shared endpoint (the AP) whose per-wall
//     and per-wall-pair images are hoisted into an ImageTable once per
//     batch instead of once per node.
//
// One kernel does all tracing; it is templated on which path sets it
// emits (blockers applied, blocker-free, or both from one geometric
// pass), and trace_into / trace_batch_into / trace_batch_dual_into are
// thin wrappers over it. Every path it produces is bit-identical to the
// naive reference tracer frozen in tests/reference/ray_tracer_ref.* —
// same paths, same order, same doubles (tests/channel/room_plan_test.cpp,
// and end to end through the link cache in
// tests/sim/link_cache_test.cpp). rescore() re-applies the current
// blockers to one stored blocker-free path without tracing it, summing
// its excess loss with the kernel's own helper, so a blocker delta can
// be refilled from stored paths bit for bit
// (tests/channel/rescore_test.cpp). See docs/GEOMETRY.md for the
// contract and the broad-phase conservativeness argument.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "mmx/channel/path.hpp"
#include "mmx/channel/room.hpp"

namespace mmx::channel {

/// Per-wall and per-wall-pair images of one fixed endpoint, hoisted out
/// of the per-node loop by trace_batch_into. Built by
/// RoomPlan::build_images; valid only for the (plan epoch, rx, bounces)
/// it was built for — the batch trace verifies all three.
struct ImageTable {
  Vec2 rx{};
  std::uint64_t room_epoch = ~0ull;
  int max_bounces = 0;
  std::vector<Vec2> wall_image;  ///< mirror_w(rx), one per wall
  std::vector<Vec2> pair_image;  ///< mirror_wi(mirror_wj(rx)), index wi * walls + wj
};

/// Caller-owned trace workspace: grown-once path storage plus the
/// broad-phase scratch (candidate list, stamp array, image table).
/// Reuse one PathList across traces — after the first few calls every
/// trace_into/trace_batch_into is allocation-free. Appended paths stay
/// valid until clear(); batch traces index them through the offsets
/// array (see RoomPlan::trace_batch_into).
class PathList {
 public:
  PathList() = default;

  /// Pre-grow the path store (setup-time allocation; optional — traces
  /// grow it on demand, amortized).
  void reserve_paths(std::size_t n) { ensure_paths(n); }

  void clear() { count_ = 0; }
  std::size_t size() const { return count_; }
  std::size_t path_capacity() const { return storage_.size(); }
  std::span<const Path> paths() const { return {storage_.data(), count_}; }
  /// Paths [begin, end) — the per-node window a batch trace reported.
  std::span<const Path> slice(std::size_t begin, std::size_t end) const {
    return {storage_.data() + begin, end - begin};
  }

 private:
  friend class RoomPlan;

  /// Next pre-grown path slot (never allocates; ensure_paths sizes the
  /// store before any trace loop runs).
  Path& commit() { return storage_[count_++]; }
  void ensure_paths(std::size_t n);
  void ensure_scratch(std::size_t blockers);
  void ensure_dual(std::size_t n);
  std::uint32_t next_query();

  std::vector<Path> storage_;
  std::size_t count_ = 0;
  /// Dual-trace staging: blocker-free paths buffered here during the
  /// fused pass, then appended after the batch's blockers-applied block.
  std::vector<Path> dual_buf_;
  /// Single-trace image table (batch traces read the caller's).
  ImageTable images_;
  /// Broad-phase scratch: grid-gathered candidate blocker indices, and a
  /// per-blocker stamp (== query_) deduplicating multi-cell hits.
  std::vector<std::uint32_t> cand_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t query_ = 0;
};

/// A path's blockers-applied loss, as RoomPlan::rescore recomputes it.
struct PathScore {
  double excess_loss_db = 0.0;
  int blocker_crossings = 0;
};

struct RoomPlanConfig {
  /// Broad-phase grid cell size [m]; 0 = auto (room min dimension / 8,
  /// floored at 0.5 m so a human blocker spans at most ~2x2 cells).
  double grid_cell_m = 0.0;
  /// Below this blocker count the grid is skipped for a flat SoA scan
  /// with AABB rejects — walk-the-grid bookkeeping only pays for itself
  /// once enough discs can be skipped.
  std::size_t grid_min_blockers = 8;
};

class RoomPlan {
 public:
  RoomPlan() = default;
  explicit RoomPlan(const Room& room, RoomPlanConfig cfg = {});

  /// Recompile from `room`'s current walls/blockers. Call whenever
  /// Room::epoch() moved past room_epoch(); cheap relative to even one
  /// 10^4-node refill (O(walls + blockers + grid cells)).
  void rebuild(const Room& room);

  bool compiled() const { return room_epoch_ != ~0ull; }
  /// Room::epoch() at the last rebuild (~0 = never compiled). The plan
  /// snapshots geometry: using it after its source Room mutated returns
  /// stale (pre-mutation) paths, exactly like a stale LinkCache entry.
  std::uint64_t room_epoch() const { return room_epoch_; }

  std::size_t wall_count() const { return walls_.size(); }
  std::size_t blocker_count() const { return bx_.size(); }
  /// Upper bound on paths a single trace can append (LoS + one per wall
  /// + one per ordered wall pair when max_bounces >= 2).
  std::size_t max_paths(int max_bounces) const;

  bool grid_enabled() const { return grid_on_; }
  int grid_cols() const { return grid_cols_; }
  int grid_rows() const { return grid_rows_; }
  double grid_cell_m() const { return cell_m_; }

  /// Hoist the per-wall (and, for max_bounces >= 2, per-wall-pair)
  /// images of `rx` into `out` for trace_batch_into.
  void build_images(Vec2 rx, int max_bounces, ImageTable& out) const;

  /// All propagation paths tx -> rx (RayTracer::trace's contract):
  /// appends the path set to `out` and returns the appended window.
  std::span<const Path> trace_into(Vec2 tx, Vec2 rx, PathList& out,
                                   double max_excess_loss_db = 60.0, int max_bounces = 1,
                                   bool apply_blockers = true) const;

  /// Batched traces against the shared endpoint `ap`: for each i,
  /// appends the exact trace_into(nodes[i], ap, ...) path set, reusing
  /// `images` (build_images(ap, ...)) across the whole batch. Fills
  /// `offsets` (size nodes.size() + 1) so node i's paths are
  /// out.slice(offsets[i], offsets[i+1]); returns the full appended
  /// window. Mirrors are pure functions, so the shared table yields the
  /// same bits as the table trace_into builds per call.
  std::span<const Path> trace_batch_into(Vec2 ap, std::span<const Vec2> nodes,
                                         const ImageTable& images, PathList& out,
                                         std::span<std::uint32_t> offsets,
                                         double max_excess_loss_db = 60.0, int max_bounces = 1,
                                         bool apply_blockers = true) const;

  /// Fused batch: ONE geometric traversal per node yields BOTH the
  /// blockers-applied path set (gains) and the blocker-free set (the
  /// link cache's path records) — the intersections, leg lengths, angles
  /// and transmission terms are shared, only the two loss accumulations
  /// differ, and each runs in the reference order, so both result sets
  /// are bit-identical to separate trace_batch_into calls with
  /// apply_blockers true / false. This is the full cache-fill call: a
  /// fill needs exactly these two sets per node (docs/GEOMETRY.md).
  /// Node i's windows: out.slice(offsets_on[i], offsets_on[i+1]) with
  /// blockers, out.slice(offsets_off[i], offsets_off[i+1]) without (the
  /// off windows follow every on window in storage). Both offset spans
  /// need nodes.size() + 1 slots. Returns the full appended window.
  std::span<const Path> trace_batch_dual_into(Vec2 ap, std::span<const Vec2> nodes,
                                              const ImageTable& images, PathList& out,
                                              std::span<std::uint32_t> offsets_on,
                                              std::span<std::uint32_t> offsets_off,
                                              double max_excess_loss_db = 60.0,
                                              int max_bounces = 1) const;

  /// Re-apply the current blockers to one wall-only path tx -> rx that a
  /// trace of this plan's walls emitted (`route` = route_of(path)),
  /// without re-tracing it: writes the blockers-applied excess loss and
  /// crossings to `out` and returns whether a blockers-applied trace
  /// keeps the path (excess <= max_excess_loss_db). The loss is summed by
  /// the kernel's own helper, in its order: reflection dB, each leg's
  /// blocker loss, each leg's transmission loss. So it is bit-identical
  /// to the path trace_into(tx, rx, ..., apply_blockers = true) emits,
  /// and the wall-only set filtered by it, in stored order, is exactly
  /// that trace's path set: blocker losses are >= 0 and IEEE addition is
  /// monotone, so no path the wall-only trace pruned can survive. This is
  /// the blocker-delta refill of the link cache (docs/GEOMETRY.md).
  /// The walls must be the ones the route was traced against; a wall
  /// index this plan does not have throws std::out_of_range.
  bool rescore(Vec2 tx, Vec2 rx, const PathRoute& route, PathList& ws, PathScore& out,
               double max_excess_loss_db = 60.0) const;

 private:
  struct WallRec {
    Segment seg;  ///< precomputed (cached direction/length)
    double reflection_loss_db = 0.0;
    double transmission_loss_db = 0.0;
    bool blocks_transmission = false;
  };

  /// Which path sets one kernel pass emits.
  enum class Emit { kBlocked, kFree, kBoth };

  /// The trace kernel: every path tx -> rx, imaging rx through `images`.
  /// kBlocked / kFree commit into `out`; kBoth commits the blocked set
  /// and stages the blocker-free set in out.dual_buf_[off_count++].
  template <Emit E>
  void trace_kernel(Vec2 tx, Vec2 rx, const ImageTable& images, PathList& out,
                    std::size_t& off_count, double max_excess_loss_db, int max_bounces) const;
  /// Batch loop behind trace_batch_into / trace_batch_dual_into
  /// (`offsets_off` is read only for kBoth).
  template <Emit E>
  std::span<const Path> trace_batch(Vec2 ap, std::span<const Vec2> nodes,
                                    const ImageTable& images, PathList& out,
                                    std::span<std::uint32_t> offsets,
                                    std::span<std::uint32_t> offsets_off,
                                    double max_excess_loss_db, int max_bounces) const;
  /// Both loss sums of one path over the legs pts[0] -> ... -> pts[N-1]
  /// (bounce_wall[k] = the wall reflecting at pts[k], -1 at the ends).
  struct Losses {
    double on = 0.0;   ///< blockers applied (kOn only)
    double off = 0.0;  ///< blocker-free (kOff only)
    int crossings = 0;
  };
  /// The one place the excess-loss sum order is written, shared by the
  /// trace kernel and rescore(): reflection dB, then each leg's blocker
  /// loss, then each leg's transmission loss (the naive tracer's order).
  template <bool kOn, bool kOff, std::size_t N>
  Losses route_losses(const std::array<Vec2, N>& pts, const std::array<int, N>& bounce_wall,
                      double reflection_db, double blocker_scale, PathList& ws) const;
  void check_trace_args(int max_bounces) const;
  double blocker_loss_db(Vec2 a, Vec2 b, int& crossings, double loss_scale,
                         PathList& ws) const;
  double transmission_loss_db(Vec2 a, Vec2 b, WallSkip skip) const;
  int clamp_col(double x) const;
  int clamp_row(double y) const;

  RoomPlanConfig cfg_{};
  std::uint64_t room_epoch_ = ~0ull;
  std::vector<WallRec> walls_;
  /// Indices of transmission-blocking walls, ascending — preserves the
  /// reference tracer's wall-order dB accumulation.
  std::vector<std::uint32_t> trans_walls_;
  /// SoA blockers (flat arrays scan without pulling Material strings or
  /// struct padding through the cache).
  std::vector<double> bx_;
  std::vector<double> by_;
  std::vector<double> br_;
  std::vector<double> bloss_db_;
  /// Uniform grid over the wall bounding box, CSR-packed: cell c holds
  /// cell_items_[cell_start_[c] .. cell_start_[c+1]). Registration and
  /// query both inflate by kGridSlackM, so float rounding can only add
  /// candidates (false positives are filtered by the exact disc test;
  /// false negatives would break bit-identity and cannot happen).
  bool grid_on_ = false;
  int grid_cols_ = 0;
  int grid_rows_ = 0;
  double cell_m_ = 0.0;
  double grid_x0_ = 0.0;
  double grid_y0_ = 0.0;
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_items_;
};

}  // namespace mmx::channel
