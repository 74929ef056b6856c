// Blocker-delta rescoring vs the frozen oracles: a wall-only path set
// stored once, re-scored against each new blocker configuration
// (RoomPlan::rescore + accumulate_path), must give the same paths and the
// same gains, bit for bit, as re-tracing with the naive tracer
// (tests/reference/ray_tracer_ref.*) and summing with the pre-split
// beam_gains_from_paths (tests/reference/beam_gains_ref.*). This is the
// arithmetic behind every blocker-delta refill of the link cache.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "beam_gains_ref.hpp"
#include "mmx/channel/beam_channel.hpp"
#include "mmx/channel/room_plan.hpp"
#include "mmx/common/rng.hpp"
#include "ray_tracer_ref.hpp"

namespace mmx::channel {
namespace {

constexpr double kFreq = 24.125e9;

::testing::AssertionResult gains_equal(const BeamGains& ref, const BeamGains& got) {
  if (ref.h0 == got.h0 && ref.h1 == got.h1 && ref.paths_used == got.paths_used)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "ref h0=" << ref.h0 << " h1=" << ref.h1 << " paths=" << ref.paths_used
         << " got h0=" << got.h0 << " h1=" << got.h1 << " paths=" << got.paths_used;
}

Vec2 random_point(Rng& rng, double w, double h) {
  return {rng.uniform(0.05, w - 0.05), rng.uniform(0.05, h - 0.05)};
}

// Heavy blockers (up to 75 dB) so paths cross the 60 dB cap both ways as
// the crowd moves; radii wide enough to hit reflected legs often.
Blocker random_blocker(Rng& rng, double w, double h) {
  return {random_point(rng, w, h), rng.uniform(0.15, 0.8), rng.uniform(10.0, 75.0)};
}

// A room with a partition (transmission loss on some legs) and a
// reflector (an extra bounce wall); walls fixed, blockers mutated below.
Room random_walls(Rng& rng, double& w, double& h) {
  w = rng.uniform(4.0, 12.0);
  h = rng.uniform(3.0, 9.0);
  Room room(w, h);
  const Vec2 a = random_point(rng, w, h);
  room.add_partition({a, a + unit_vector(rng.uniform(0.0, 6.283)) * rng.uniform(0.8, 3.0)},
                     rng.chance(0.5) ? drywall() : glass());
  const Vec2 b = random_point(rng, w, h);
  room.add_reflector({b, b + unit_vector(rng.uniform(0.0, 6.283)) * rng.uniform(0.5, 2.5)},
                     rng.chance(0.5) ? metal() : wood_furniture());
  return room;
}

// One random blocker delta: add, move or clear (clear rarely).
void mutate_blockers(Room& room, Rng& rng, double w, double h) {
  const double pick = rng.uniform();
  if (pick < 0.06 || room.blockers().size() > 14) {
    room.clear_blockers();
  } else if (pick < 0.5 || room.blockers().empty()) {
    room.add_blocker(random_blocker(rng, w, h));
  } else {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(room.blockers().size()) - 1));
    room.move_blocker(i, random_point(rng, w, h));
  }
}

struct Node {
  Pose pose;
  std::vector<PathRecord> records;  // stored once, at the first blocker set
};

// The headline property: per case, stored wall-only records re-scored
// across a random blocker add/move/clear sequence, at 1 and 2 bounces,
// grid broad phase off (default config below 8 blockers), on by count
// (>= 8 blockers) and forced on. Every step compares, per node, the
// surviving paths (excess loss, crossings, walls) with a fresh reference
// trace and the rescored gains with the frozen beam-gain sum.
TEST(RescoreProperty, StoredPathsRescoredMatchReferenceAcrossBlockerDeltas) {
  constexpr int kCases = 240;
  constexpr int kSteps = 12;
  constexpr double kMaxExcess = 60.0;
  const antenna::MmxBeamPair beams(antenna::BeamPairSpec{.freq_hz = kFreq});
  const antenna::Dipole ap_antenna;
  PathList ws;
  std::size_t pruned_by_delta = 0;    // kept at the previous step, dropped now
  std::size_t restored_by_delta = 0;  // dropped at the previous step, kept now
  std::size_t grid_steps = 0;
  std::size_t flat_steps = 0;

  for (int c = 0; c < kCases; ++c) {
    Rng rng = Rng::stream(0x5e5c0eULL, static_cast<std::uint64_t>(c));
    double w = 0.0;
    double h = 0.0;
    Room room = random_walls(rng, w, h);
    const int initial = rng.uniform_int(0, 10);
    for (int b = 0; b < initial; ++b) room.add_blocker(random_blocker(rng, w, h));
    const int max_bounces = c % 2 == 0 ? 1 : 2;
    RoomPlanConfig cfg;
    if (c % 3 == 2) {
      cfg.grid_min_blockers = 0;
      cfg.grid_cell_m = rng.uniform(0.3, 1.5);
    }
    const Pose ap{random_point(rng, w, h), rng.uniform(-3.1, 3.1)};

    // Full fill: the fused dual trace, as the link cache does it.
    std::vector<Node> nodes(6);
    {
      const RoomPlan plan(room, cfg);
      ImageTable images;
      plan.build_images(ap.position, max_bounces, images);
      std::vector<Vec2> txs;
      for (Node& n : nodes) {
        n.pose = {random_point(rng, w, h), rng.uniform(-3.1, 3.1)};
        if (n.pose.position == ap.position) n.pose.position.x += 0.01;
        txs.push_back(n.pose.position);
      }
      std::vector<std::uint32_t> on(txs.size() + 1);
      std::vector<std::uint32_t> off(txs.size() + 1);
      ws.clear();
      plan.trace_batch_dual_into(ap.position, txs, images, ws, on, off, kMaxExcess, max_bounces);
      const reftrace::RayTracer ref(room);
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const BeamGains full =
            record_paths(ws.slice(on[i], on[i + 1]), ws.slice(off[i], off[i + 1]), nodes[i].pose,
                         beams, ap, ap_antenna, kFreq, nodes[i].records);
        const auto paths = ref.trace(txs[i], ap.position, kMaxExcess, max_bounces, true);
        ASSERT_TRUE(gains_equal(
            refbeam::beam_gains_from_paths(paths, nodes[i].pose, beams, ap, ap_antenna, kFreq),
            full))
            << "full fill, case " << c << " node " << i;
      }
    }

    std::vector<std::vector<bool>> kept_before(nodes.size());
    for (int step = 0; step < kSteps; ++step) {
      if (step > 0) mutate_blockers(room, rng, w, h);
      const RoomPlan plan(room, cfg);
      (plan.grid_enabled() ? grid_steps : flat_steps) += 1;
      const reftrace::RayTracer ref(room);
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const Node& n = nodes[i];
        const auto paths = ref.trace(n.pose.position, ap.position, kMaxExcess, max_bounces, true);

        // Per path: the survivors, in stored order, are the reference set.
        std::vector<bool> kept(n.records.size());
        std::size_t next = 0;
        for (std::size_t k = 0; k < n.records.size(); ++k) {
          PathScore score;
          kept[k] = plan.rescore(n.pose.position, ap.position, n.records[k].route, ws, score,
                                 kMaxExcess);
          if (!kept[k]) continue;
          ASSERT_LT(next, paths.size()) << "case " << c << " step " << step << " node " << i;
          const Path& p = paths[next++];
          ASSERT_EQ(p.wall_index, n.records[k].route.wall_index);
          ASSERT_EQ(p.wall_index2, n.records[k].route.wall_index2);
          ASSERT_EQ(p.excess_loss_db, score.excess_loss_db)
              << "case " << c << " step " << step << " node " << i << " path " << k;
          ASSERT_EQ(p.blocker_crossings, score.blocker_crossings);
        }
        ASSERT_EQ(next, paths.size()) << "case " << c << " step " << step << " node " << i;
        if (step > 0) {
          for (std::size_t k = 0; k < kept.size(); ++k) {
            pruned_by_delta += kept_before[i][k] && !kept[k] ? 1 : 0;
            restored_by_delta += !kept_before[i][k] && kept[k] ? 1 : 0;
          }
        }
        kept_before[i] = kept;

        ASSERT_TRUE(gains_equal(
            refbeam::beam_gains_from_paths(paths, n.pose, beams, ap, ap_antenna, kFreq),
            rescore_beam_gains(plan, n.pose.position, ap.position, n.records, ws, kMaxExcess)))
            << "case " << c << " step " << step << " node " << i << " bounces " << max_bounces
            << " blockers " << room.blockers().size() << " grid " << plan.grid_enabled();
      }
    }
  }
  // The sequences must really exercise what the property claims.
  EXPECT_GT(pruned_by_delta, 1000u);
  EXPECT_GT(restored_by_delta, 1000u);
  EXPECT_GT(grid_steps, 1000u);
  EXPECT_GT(flat_steps, 1000u);
}

// The split sum on its own: random path values (lengths, angles, excess
// losses spanning many binades) through the library's
// beam_gains_from_paths and through one accumulate_path per term must
// equal the frozen pre-split function bit for bit.
TEST(BeamTerms, SplitSumMatchesFrozenBeamGains) {
  const antenna::MmxBeamPair beams(antenna::BeamPairSpec{.freq_hz = kFreq});
  const antenna::Dipole ap_antenna;
  Rng rng(0xbea3);
  for (int c = 0; c < 4000; ++c) {
    std::vector<Path> paths(static_cast<std::size_t>(rng.uniform_int(1, 8)));
    for (Path& p : paths) {
      p.length_m = rng.uniform(0.05, 40.0);
      p.departure_rad = rng.uniform(-3.2, 3.2);
      p.arrival_rad = rng.uniform(-3.2, 3.2);
      p.excess_loss_db = rng.chance(0.2) ? 0.0 : std::ldexp(rng.uniform(1.0, 2.0),
                                                            rng.uniform_int(-30, 6));
    }
    const Pose node{{0.0, 0.0}, rng.uniform(-3.1, 3.1)};
    const Pose ap{{1.0, 1.0}, rng.uniform(-3.1, 3.1)};
    const BeamGains ref = refbeam::beam_gains_from_paths(paths, node, beams, ap, ap_antenna, kFreq);
    ASSERT_TRUE(gains_equal(ref, beam_gains_from_paths(paths, node, beams, ap, ap_antenna, kFreq)))
        << "case " << c;
    BeamGains split{};
    for (const Path& p : paths)
      accumulate_path(split, path_beam_term(p, node, beams, ap, ap_antenna, kFreq),
                      p.excess_loss_db);
    ASSERT_TRUE(gains_equal(ref, split)) << "case " << c;
  }
}

// A negative excess loss is a caller bug the pre-split sum rejected
// (path_loss_db throws); the accumulate step must keep rejecting it, and
// without touching the sum.
TEST(BeamTerms, NegativeExcessLossThrows) {
  const antenna::MmxBeamPair beams(antenna::BeamPairSpec{.freq_hz = kFreq});
  const antenna::Dipole ap_antenna;
  Path p;
  p.length_m = 3.0;
  p.excess_loss_db = -1e-12;
  const Pose node{{0.0, 0.0}, 0.0};
  const Pose ap{{3.0, 0.0}, 3.14};
  const std::vector<Path> paths{p};
  EXPECT_THROW(refbeam::beam_gains_from_paths(paths, node, beams, ap, ap_antenna, kFreq),
               std::invalid_argument);
  EXPECT_THROW(beam_gains_from_paths(paths, node, beams, ap, ap_antenna, kFreq),
               std::invalid_argument);
  BeamGains g{};
  const PathBeamTerm term = path_beam_term(p, node, beams, ap, ap_antenna, kFreq);
  EXPECT_THROW(accumulate_path(g, term, -0.5), std::invalid_argument);
  EXPECT_EQ(g.paths_used, 0);
  EXPECT_EQ(g.h0, std::complex<double>{});
  accumulate_path(g, term, 0.0);
  EXPECT_EQ(g.paths_used, 1);
}

// record_paths relies on the blockers-applied set being a subsequence of
// the wall-only set; anything else is a caller bug and fails loudly.
TEST(BeamTerms, RecordPathsRejectsForeignBlockedSet) {
  const antenna::MmxBeamPair beams(antenna::BeamPairSpec{.freq_hz = kFreq});
  const antenna::Dipole ap_antenna;
  Path los;
  los.length_m = 2.0;
  Path bounce = los;
  bounce.kind = PathKind::kReflected;
  bounce.wall_index = 1;
  const Pose node{{0.0, 0.0}, 0.0};
  const Pose ap{{2.0, 0.0}, 3.14};
  std::vector<PathRecord> records;
  const std::vector<Path> free{los};
  const std::vector<Path> blocked{bounce};
  EXPECT_THROW(record_paths(blocked, free, node, beams, ap, ap_antenna, kFreq, records),
               std::logic_error);
}

TEST(RoomPlanRescore, ArgumentChecks) {
  Room room(6.0, 4.0);
  PathList ws;
  PathScore score;
  EXPECT_THROW(RoomPlan().rescore({1.0, 1.0}, {5.0, 3.0}, PathRoute{}, ws, score),
               std::logic_error);
  const RoomPlan plan(room);
  EXPECT_THROW(plan.rescore({1.0, 1.0}, {5.0, 3.0}, PathRoute{4, -1, {3.0, 0.0}, {}}, ws, score),
               std::out_of_range);
  EXPECT_THROW(plan.rescore({1.0, 1.0}, {5.0, 3.0}, PathRoute{0, 9, {3.0, 0.0}, {}}, ws, score),
               std::out_of_range);
  // A clear line of sight in an empty room: no excess, kept.
  EXPECT_TRUE(plan.rescore({1.0, 1.0}, {5.0, 3.0}, PathRoute{}, ws, score));
  EXPECT_EQ(score.excess_loss_db, 0.0);
  EXPECT_EQ(score.blocker_crossings, 0);
  // A blocker on it, above a 10 dB cap: dropped, with the loss reported.
  room.add_blocker({{3.0, 2.0}, 0.3, 15.0});
  const RoomPlan blocked(room);
  EXPECT_FALSE(blocked.rescore({1.0, 1.0}, {5.0, 3.0}, PathRoute{}, ws, score, 10.0));
  EXPECT_EQ(score.excess_loss_db, 15.0);
  EXPECT_EQ(score.blocker_crossings, 1);
}

}  // namespace
}  // namespace mmx::channel
