// Cache coherence contract: memoized link state must be bit-identical to
// re-tracing, under every mutation the Room can express — and must NOT
// invalidate entries a mutation provably cannot affect.
#include <gtest/gtest.h>

#include <stdexcept>

#include "mmx/antenna/element.hpp"
#include "mmx/antenna/mmx_beams.hpp"
#include "mmx/channel/beam_channel.hpp"
#include "mmx/channel/room.hpp"
#include "mmx/channel/room_plan.hpp"
#include "mmx/sim/link_cache.hpp"
#include "mmx/sim/network_sim.hpp"
#include "beam_gains_ref.hpp"
#include "mmx/common/rng.hpp"
#include "ray_tracer_ref.hpp"

namespace mmx::sim {
namespace {

// 10 x 6 room, AP at the centre. Node A's line of sight runs through
// (3.5, 3.75); node B sits near the AP with all five of its wall-only
// corridors (LoS + four first-order wall bounces) far from both blocker
// positions used below — verified by the hit assertions themselves.
constexpr Vec2 kApPos{5.0, 3.0};
constexpr Vec2 kNodeAPos{2.0, 4.5};
constexpr Vec2 kNodeBPos{5.5, 3.2};
constexpr Vec2 kOnLosA{3.5, 3.75};
constexpr Vec2 kFarCorner{2.0, 0.7};

struct Fixture {
  NetworkSimulator sim;
  std::uint16_t a;
  std::uint16_t b;

  explicit Fixture(SimConfig cfg = {})
      : sim(channel::Room(10.0, 6.0), channel::Pose{kApPos, 0.0}, cfg),
        a(*sim.add_node(channel::Pose{kNodeAPos, -0.5}, 1e6)),
        b(*sim.add_node(channel::Pose{kNodeBPos, 2.0}, 1e6)) {}
};

void expect_links_equal(const OtamLink& x, const OtamLink& y) {
  EXPECT_EQ(x.rx1_dbm, y.rx1_dbm);
  EXPECT_EQ(x.rx0_dbm, y.rx0_dbm);
  EXPECT_EQ(x.snr_db, y.snr_db);
  EXPECT_EQ(x.contrast_db, y.contrast_db);
  EXPECT_EQ(x.ask_ber, y.ask_ber);
  EXPECT_EQ(x.fsk_ber, y.fsk_ber);
  EXPECT_EQ(x.joint_ber, y.joint_ber);
}

TEST(RoomEpoch, BumpsOnEveryMutationButNotOnNoOps) {
  channel::Room room(10.0, 6.0);
  const std::uint64_t e0 = room.epoch();
  const std::size_t idx = room.add_blocker(channel::human_blocker(kOnLosA));
  EXPECT_GT(room.epoch(), e0);

  const std::uint64_t e1 = room.epoch();
  room.move_blocker(idx, kOnLosA);  // no-op move: same centre
  EXPECT_EQ(room.epoch(), e1);
  room.move_blocker(idx, kFarCorner);
  EXPECT_GT(room.epoch(), e1);

  const std::uint64_t e2 = room.epoch();
  room.add_reflector({{2.0, 2.0}, {4.0, 2.0}}, channel::metal());
  EXPECT_GT(room.epoch(), e2);

  const std::uint64_t e3 = room.epoch();
  room.clear_blockers();
  EXPECT_GT(room.epoch(), e3);
  const std::uint64_t e4 = room.epoch();
  room.clear_blockers();  // already empty: no-op
  EXPECT_EQ(room.epoch(), e4);
}

TEST(LinkCache, CachedLinkBitIdenticalToUncachedAcrossBlockerChurn) {
  Fixture f;
  expect_links_equal(f.sim.link(f.a), f.sim.link_uncached(f.a));
  expect_links_equal(f.sim.link(f.b), f.sim.link_uncached(f.b));

  const std::size_t idx = f.sim.room().add_blocker(channel::human_blocker(kOnLosA));
  expect_links_equal(f.sim.link(f.a), f.sim.link_uncached(f.a));
  expect_links_equal(f.sim.link(f.b), f.sim.link_uncached(f.b));

  f.sim.room().move_blocker(idx, kFarCorner);
  expect_links_equal(f.sim.link(f.a), f.sim.link_uncached(f.a));
  expect_links_equal(f.sim.link(f.b), f.sim.link_uncached(f.b));

  f.sim.room().clear_blockers();
  expect_links_equal(f.sim.link(f.a), f.sim.link_uncached(f.a));
  expect_links_equal(f.sim.link(f.b), f.sim.link_uncached(f.b));
}

// Gains recomputed from scratch by the frozen naive tracer
// (tests/reference/ray_tracer_ref.*) at the simulator's pinned trace
// config (1 bounce, 60 dB; network_sim.cpp) and its default antennas,
// summed by the frozen pre-split beam-gain function
// (tests/reference/beam_gains_ref.*).
channel::BeamGains reference_gains(const NetworkSimulator& sim, std::uint16_t id) {
  const SimConfig cfg;
  const antenna::MmxBeamPair beams(antenna::BeamPairSpec{.freq_hz = cfg.freq_hz});
  const antenna::Dipole ap_antenna;
  const reftrace::RayTracer tracer(sim.room());
  const channel::Pose& pose = sim.node_pose(id);
  const auto paths = tracer.trace(pose.position, sim.ap_pose().position, 60.0, 1, true);
  return refbeam::beam_gains_from_paths(paths, pose, beams, sim.ap_pose(), ap_antenna,
                                        cfg.freq_hz);
}

void expect_gains_equal(const channel::BeamGains& x, const channel::BeamGains& y) {
  EXPECT_EQ(x.h0, y.h0);
  EXPECT_EQ(x.h1, y.h1);
  EXPECT_EQ(x.paths_used, y.paths_used);
}

// Cached and uncached gains both trace through RoomPlan, so their
// agreement alone no longer proves the plan right: every cache fill —
// single misses in one simulator, batched refreshes in the other — is
// checked bit for bit against the naive reference tracer after each
// mutation the cache must handle.
TEST(LinkCache, CachedGainsBitIdenticalToReferenceTracer) {
  Fixture miss;
  Fixture batch;
  std::vector<std::uint16_t> ids{miss.a, miss.b};
  for (int i = 0; i < 10; ++i) {
    const channel::Pose pose{{0.5 + 0.9 * i, 0.4 + 0.5 * i}, 0.3 * i - 1.5};
    const std::uint16_t id = miss.sim.add_tracked_node(pose);
    EXPECT_EQ(batch.sim.add_tracked_node(pose), id);
    ids.push_back(id);
  }
  const auto check = [&](const char* step) {
    SCOPED_TRACE(step);
    EXPECT_GT(batch.sim.refresh_cache(2), 0u);
    for (const std::uint16_t id : ids) {
      const channel::BeamGains ref = reference_gains(miss.sim, id);
      expect_gains_equal(miss.sim.gains(id), ref);
      expect_gains_equal(batch.sim.gains(id), ref);
    }
  };
  const auto both = [&](const auto& mutate) {
    mutate(miss.sim);
    mutate(batch.sim);
  };

  check("cold");
  std::size_t blk = 0;
  both([&](NetworkSimulator& s) { blk = s.room().add_blocker(channel::human_blocker(kOnLosA)); });
  check("blocker added on A's LoS");
  both([&](NetworkSimulator& s) { s.room().add_blocker({{6.0, 2.6}, 0.4, 18.0}); });
  check("second blocker near the AP");
  both([&](NetworkSimulator& s) { s.room().move_blocker(blk, {4.0, 3.4}); });
  check("blocker moved");
  both([&](NetworkSimulator& s) {
    s.room().add_reflector({{1.0, 1.0}, {3.0, 1.0}}, channel::metal());
  });
  check("reflector added");
  both([&](NetworkSimulator& s) { s.set_node_pose(ids[3], channel::Pose{{8.5, 5.0}, 2.8}); });
  check("pose changed");
  both([&](NetworkSimulator& s) { s.room().clear_blockers(); });
  check("blockers cleared");
}

// Blocker-delta refills rescore stored paths instead of tracing. Over
// random blocker add/move/clear sequences (with an occasional pose
// change, which forces a full fill), in a room with a partition and a
// reflector, with heavy bodies that push paths over the 60 dB cap and
// back, and crowds that switch the grid broad phase on (>= 8 blockers)
// and off: every node's gains, refilled by single misses in one
// simulator and by batched refreshes in the other, must equal the frozen
// reference trace + beam-gain sum bit for bit.
TEST(LinkCache, StaleRefillsBitIdenticalToReferenceAcrossBlockerSequences) {
  const auto make = [] {
    NetworkSimulator sim(channel::Room(10.0, 6.0), channel::Pose{kApPos, 0.3});
    sim.room().add_partition({{7.0, 0.5}, {7.0, 2.5}}, channel::drywall());
    sim.room().add_reflector({{1.0, 1.0}, {3.0, 1.2}}, channel::metal());
    return sim;
  };
  NetworkSimulator miss = make();
  NetworkSimulator batch = make();
  Rng rng(0x5ca1e);
  std::vector<std::uint16_t> ids;
  for (int i = 0; i < 24; ++i) {
    const channel::Pose pose{{rng.uniform(0.2, 9.8), rng.uniform(0.2, 5.8)},
                             rng.uniform(-3.1, 3.1)};
    ids.push_back(miss.add_tracked_node(pose));
    EXPECT_EQ(batch.add_tracked_node(pose), ids.back());
  }
  std::size_t refills = 0;
  for (int step = 0; step < 60; ++step) {
    const double pick = rng.uniform();
    const std::size_t n = miss.room().blockers().size();
    if (pick < 0.05 || n > 14) {
      miss.room().clear_blockers();
      batch.room().clear_blockers();
    } else if (pick < 0.1) {
      const std::uint16_t id = ids[static_cast<std::size_t>(rng.uniform_int(0, 23))];
      const channel::Pose pose{{rng.uniform(0.2, 9.8), rng.uniform(0.2, 5.8)},
                               rng.uniform(-3.1, 3.1)};
      miss.set_node_pose(id, pose);
      batch.set_node_pose(id, pose);
    } else if (pick < 0.55 || n == 0) {
      const channel::Blocker b{{rng.uniform(0.3, 9.7), rng.uniform(0.3, 5.7)},
                               rng.uniform(0.2, 0.6), rng.uniform(10.0, 75.0)};
      miss.room().add_blocker(b);
      batch.room().add_blocker(b);
    } else {
      const auto i = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
      const Vec2 to{rng.uniform(0.3, 9.7), rng.uniform(0.3, 5.7)};
      miss.room().move_blocker(i, to);
      batch.room().move_blocker(i, to);
    }
    refills += batch.refresh_cache(2);
    for (const std::uint16_t id : ids) {
      SCOPED_TRACE(::testing::Message() << "step " << step << " node " << id << " blockers "
                                        << miss.room().blockers().size());
      const channel::BeamGains ref = reference_gains(miss, id);
      expect_gains_equal(miss.gains(id), ref);
      expect_gains_equal(batch.gains(id), ref);
    }
  }
  // Most steps dirty some nodes; the two arms saw the same misses.
  EXPECT_GT(refills, 200u);
  EXPECT_EQ(miss.cache_stats().misses, batch.cache_stats().refills);
}

// The stale-entry contract at the LinkCache API: a blocker delta marks
// the entry stale, and the next lookup at the same pose runs only the
// rescore callable, committing its gains into the same entry — same
// storage, same path records, no fill.
TEST(LinkCache, StaleSamePoseLookupRescoresInPlace) {
  channel::Room room(10.0, 6.0);
  LinkCache cache(kApPos);
  cache.reconcile(room);
  const channel::Pose pose{kNodeAPos, -0.5};
  int fills = 0;
  int rescores = 0;
  const auto fill = [&] {
    ++fills;
    LinkCache::Entry e;
    e.pose = pose;
    e.gains.paths_used = 1;
    e.paths.push_back(channel::PathRecord{});  // the LoS: node -> AP
    return e;
  };
  const auto rescore = [&](const LinkCache::Entry& stale) {
    ++rescores;
    channel::BeamGains g = stale.gains;
    g.paths_used += 10;
    return g;
  };
  LinkCache::Entry* first = &cache.ensure(7, pose, fill, rescore);
  const channel::PathRecord* records = first->paths.data();
  EXPECT_EQ(fills, 1);

  room.add_blocker(channel::human_blocker(kOnLosA));  // on the stored LoS
  cache.reconcile(room);
  ASSERT_TRUE(cache.find(7)->stale);
  LinkCache::Entry& again = cache.ensure(7, pose, fill, rescore);
  EXPECT_EQ(&again, first);
  EXPECT_EQ(again.paths.data(), records);
  EXPECT_EQ(fills, 1);
  EXPECT_EQ(rescores, 1);
  EXPECT_FALSE(again.stale);
  EXPECT_EQ(again.gains.paths_used, 11);
  EXPECT_EQ(cache.stats().misses, 2u);

  // The batched commit path does the same: gains in, records kept.
  room.move_blocker(0, {kOnLosA.x + 0.1, kOnLosA.y});
  cache.reconcile(room);
  ASSERT_TRUE(cache.find(7)->stale);
  channel::BeamGains g;
  g.paths_used = 42;
  cache.store_rescore(7, g);
  EXPECT_EQ(cache.find(7), first);
  EXPECT_EQ(cache.find(7)->paths.data(), records);
  EXPECT_EQ(cache.find(7)->gains.paths_used, 42);
  EXPECT_TRUE(cache.valid(7, pose));
  EXPECT_EQ(cache.stats().refills, 1u);
  EXPECT_THROW(cache.store_rescore(8, g), std::logic_error);
}

// Erased entries give their storage back: ids are never reused, but the
// next insert takes the freed slot, and lookups stay exact.
TEST(LinkCache, ErasedSlotsAreReusedAcrossIds) {
  channel::Room room(10.0, 6.0);
  LinkCache cache(kApPos);
  cache.reconcile(room);
  const auto fill_at = [](const channel::Pose& pose) {
    return [pose] {
      LinkCache::Entry e;
      e.pose = pose;
      return e;
    };
  };
  const auto no_rescore = [](const LinkCache::Entry&) -> channel::BeamGains {
    ADD_FAILURE() << "nothing is stale";
    return {};
  };
  const channel::Pose p1{{1.0, 1.0}, 0.0};
  const channel::Pose p2{{2.0, 2.0}, 0.0};
  const LinkCache::Entry* e1 = &cache.ensure(1, p1, fill_at(p1), no_rescore);
  cache.erase(1);
  EXPECT_EQ(cache.find(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  const LinkCache::Entry* e2 = &cache.ensure(500, p2, fill_at(p2), no_rescore);
  EXPECT_EQ(e2, e1);  // the freed slot, now id 500's
  EXPECT_EQ(cache.find(1), nullptr);
  EXPECT_TRUE(cache.valid(500, p2));
  EXPECT_FALSE(cache.valid(500, p1));
  EXPECT_EQ(cache.size(), 1u);
  cache.store_refill(3, fill_at(p1)());
  EXPECT_TRUE(cache.valid(3, p1));
  EXPECT_EQ(cache.size(), 2u);
}

// Delta invalidation skips the exact disc test behind a bounding-box
// reject; it must decide exactly as the exact test alone. Random blocker
// moves, most of them placed tangent to a stored path segment (distance
// = radius, within a few ulps either way) — at an interior point, or
// beyond an endpoint along an axis, where the disc's box only grazes the
// segment's — are checked entry by entry against a brute-force
// segment_hits_disc scan of the old and new discs.
TEST(LinkCache, DeltaInvalidationMatchesExactDiscTest) {
  channel::Room room(10.0, 6.0);
  room.add_reflector({{1.0, 1.0}, {3.0, 1.2}}, channel::metal());
  room.add_blocker({{4.0, 4.0}, 0.3, 15.0});
  LinkCache cache(kApPos);
  cache.reconcile(room);
  const channel::RoomPlan plan(room);
  channel::PathList ws;
  Rng rng(0xaabb);
  std::vector<channel::Pose> poses;
  for (std::uint16_t id = 0; id < 40; ++id) {
    const channel::Pose pose{{rng.uniform(0.2, 9.8), rng.uniform(0.2, 5.8)}, 0.0};
    poses.push_back(pose);
    ws.clear();
    const auto paths = plan.trace_into(pose.position, kApPos, ws, 60.0, 2, false);
    cache.ensure(
        id, pose,
        [&] {
          LinkCache::Entry e;
          e.pose = pose;
          for (const channel::Path& p : paths) e.paths.push_back({{}, channel::route_of(p)});
          return e;
        },
        [](const LinkCache::Entry& stale) { return stale.gains; });
  }
  const auto segments = [&](std::uint16_t id) {
    std::vector<std::pair<Vec2, Vec2>> out;
    const LinkCache::Entry& e = *cache.find(id);
    for (const channel::PathRecord& r : e.paths) {
      std::vector<Vec2> w{e.pose.position};
      if (r.route.kind() != channel::PathKind::kLineOfSight) w.push_back(r.route.via);
      if (r.route.kind() == channel::PathKind::kDoubleReflected) w.push_back(r.route.via2);
      w.push_back(kApPos);
      for (std::size_t i = 0; i + 1 < w.size(); ++i) out.emplace_back(w[i], w[i + 1]);
    }
    return out;
  };

  std::size_t hits = 0;
  std::size_t misses = 0;
  for (int step = 0; step < 400; ++step) {
    const channel::Blocker was = room.blockers()[0];
    Vec2 to{rng.uniform(0.1, 9.9), rng.uniform(0.1, 5.9)};
    const int kind = step % 3;
    if (kind != 0) {  // tangent to a random stored segment
      const auto segs = segments(static_cast<std::uint16_t>(rng.uniform_int(0, 39)));
      const auto& [a, b] = segs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(segs.size()) - 1))];
      const double reach =
          was.radius * (1.0 + static_cast<double>(rng.uniform_int(-4, 4)) * 2.2e-16);
      if (kind == 1) {
        const Vec2 along = a + (b - a) * rng.uniform(0.0, 1.0);
        to = along + unit_vector((b - a).angle() + 1.5707963267948966) * reach;
      } else {
        // Beyond the endpoint that is extreme along a random axis side.
        const int side = rng.uniform_int(0, 3);
        if (side == 0) to = (a.x > b.x ? a : b) + Vec2{reach, 0.0};
        if (side == 1) to = (a.x < b.x ? a : b) - Vec2{reach, 0.0};
        if (side == 2) to = (a.y > b.y ? a : b) + Vec2{0.0, reach};
        if (side == 3) to = (a.y < b.y ? a : b) - Vec2{0.0, reach};
      }
    }
    room.move_blocker(0, to);
    std::vector<bool> expect(poses.size());
    for (std::uint16_t id = 0; id < poses.size(); ++id)
      for (const auto& [a, b] : segments(id))
        if (segment_hits_disc(a, b, was.center, was.radius) ||
            segment_hits_disc(a, b, to, was.radius))
          expect[id] = true;
    cache.reconcile(room);
    for (std::uint16_t id = 0; id < poses.size(); ++id) {
      ASSERT_EQ(cache.find(id)->stale, expect[id]) << "step " << step << " node " << id;
      (expect[id] ? hits : misses) += 1;
      cache.ensure(id, poses[id], [] { return LinkCache::Entry{}; },
                   [](const LinkCache::Entry& stale) { return stale.gains; });
    }
  }
  EXPECT_GT(hits, 1000u);
  EXPECT_GT(misses, 1000u);
}

TEST(LinkCache, BlockerOnOneLosInvalidatesExactlyThatNode) {
  Fixture f;
  const OtamLink a_before = f.sim.link(f.a);
  (void)f.sim.link(f.b);

  f.sim.room().add_blocker(channel::human_blocker(kOnLosA));
  f.sim.reset_cache_stats();
  const OtamLink a_after = f.sim.link(f.a);
  const OtamLink b_after = f.sim.link(f.b);

  // A was recomputed (miss) and its link genuinely changed: a 28 dB body
  // on the LoS must cost receive power. B hit the warm cache.
  EXPECT_EQ(f.sim.cache_stats().misses, 1u);
  EXPECT_EQ(f.sim.cache_stats().hits, 1u);
  EXPECT_LT(a_after.rx1_dbm, a_before.rx1_dbm - 1.0);
  expect_links_equal(a_after, f.sim.link_uncached(f.a));
  expect_links_equal(b_after, f.sim.link_uncached(f.b));
}

TEST(LinkCache, BlockerMoveAwayRestoresAndRevalidatesUntouched) {
  Fixture f;
  const OtamLink a_clear = f.sim.link(f.a);
  const std::size_t idx = f.sim.room().add_blocker(channel::human_blocker(kOnLosA));
  (void)f.sim.link(f.a);
  (void)f.sim.link(f.b);

  // Move the body off A's line of sight to a spot neither node's
  // corridors pass: A must be re-traced (and recover its clear-room
  // link bit-for-bit), B must stay warm.
  f.sim.room().move_blocker(idx, kFarCorner);
  f.sim.reset_cache_stats();
  const OtamLink a_after = f.sim.link(f.a);
  (void)f.sim.link(f.b);
  EXPECT_EQ(f.sim.cache_stats().misses, 1u);
  EXPECT_EQ(f.sim.cache_stats().hits, 1u);
  expect_links_equal(a_after, a_clear);
}

TEST(LinkCache, BlockerFarFromAllCorridorsInvalidatesNobody) {
  Fixture f;
  const std::size_t idx = f.sim.room().add_blocker(channel::human_blocker(kFarCorner));
  (void)f.sim.link(f.a);
  (void)f.sim.link(f.b);

  // Nudge the far body by 10 cm: still clear of every corridor, so both
  // entries revalidate for free.
  f.sim.room().move_blocker(idx, Vec2{kFarCorner.x + 0.1, kFarCorner.y});
  f.sim.reset_cache_stats();
  (void)f.sim.link(f.a);
  (void)f.sim.link(f.b);
  EXPECT_EQ(f.sim.cache_stats().hits, 2u);
  EXPECT_EQ(f.sim.cache_stats().misses, 0u);
  EXPECT_EQ(f.sim.cache_stats().revalidated, 2u);
}

TEST(LinkCache, SetNodePoseInvalidatesOnlyThatNode) {
  Fixture f;
  (void)f.sim.link(f.a);
  (void)f.sim.link(f.b);

  f.sim.set_node_pose(f.a, channel::Pose{{2.5, 4.0}, -0.6});
  f.sim.reset_cache_stats();
  const OtamLink a_after = f.sim.link(f.a);
  (void)f.sim.link(f.b);
  EXPECT_EQ(f.sim.cache_stats().misses, 1u);
  EXPECT_EQ(f.sim.cache_stats().hits, 1u);
  expect_links_equal(a_after, f.sim.link_uncached(f.a));

  // Re-posing to the identical pose is a no-op: no invalidation.
  f.sim.reset_cache_stats();
  f.sim.set_node_pose(f.a, channel::Pose{{2.5, 4.0}, -0.6});
  (void)f.sim.link(f.a);
  EXPECT_EQ(f.sim.cache_stats().hits, 1u);
}

TEST(LinkCache, StructuralChangeDropsEveryEntry) {
  Fixture f;
  (void)f.sim.link(f.a);
  (void)f.sim.link(f.b);

  f.sim.room().add_reflector({{1.0, 1.0}, {3.0, 1.0}}, channel::metal());
  f.sim.reset_cache_stats();
  expect_links_equal(f.sim.link(f.a), f.sim.link_uncached(f.a));
  expect_links_equal(f.sim.link(f.b), f.sim.link_uncached(f.b));
  EXPECT_EQ(f.sim.cache_stats().misses, 2u);
  EXPECT_EQ(f.sim.cache_stats().hits, 0u);
}

TEST(LinkCache, DisabledCacheStillBitIdentical) {
  SimConfig cfg;
  cfg.link_cache = false;
  Fixture off(cfg);
  Fixture on;
  off.sim.room().add_blocker(channel::human_blocker(kOnLosA));
  on.sim.room().add_blocker(channel::human_blocker(kOnLosA));
  expect_links_equal(off.sim.link(off.a), on.sim.link(on.a));
  expect_links_equal(off.sim.fixed_beam_link(off.b), on.sim.fixed_beam_link(on.b));
  EXPECT_EQ(off.sim.cache_stats().hits + off.sim.cache_stats().misses, 0u);
}

TEST(LinkCache, ParallelRefreshBitIdenticalToSerial) {
  Fixture serial;
  Fixture parallel;
  // Dirty everything: a blocker lands on A's LoS, then both sims refresh
  // their whole population — one on a single worker, one on four.
  serial.sim.room().add_blocker(channel::human_blocker(kOnLosA));
  parallel.sim.room().add_blocker(channel::human_blocker(kOnLosA));
  const std::size_t n1 = serial.sim.refresh_cache(1);
  const std::size_t n4 = parallel.sim.refresh_cache(4);
  EXPECT_EQ(n1, n4);
  EXPECT_EQ(n1, 2u);
  expect_links_equal(serial.sim.link(serial.a), parallel.sim.link(parallel.a));
  expect_links_equal(serial.sim.link(serial.b), parallel.sim.link(parallel.b));
  // Refreshed entries count as refills and the subsequent reads as hits.
  EXPECT_EQ(parallel.sim.cache_stats().refills, 2u);
  EXPECT_EQ(parallel.sim.cache_stats().hits, 2u);
}

TEST(LinkCache, RefreshMakesSubsequentQueriesHits) {
  Fixture f;
  EXPECT_EQ(f.sim.refresh_cache(2), 2u);  // cold fill
  f.sim.reset_cache_stats();
  (void)f.sim.link(f.a);
  (void)f.sim.gains(f.b);
  EXPECT_EQ(f.sim.cache_stats().hits, 2u);
  EXPECT_EQ(f.sim.cache_stats().misses, 0u);
  EXPECT_EQ(f.sim.refresh_cache(2), 0u);  // everything already valid
}

TEST(LinkCache, RemovedNodeDropsItsEntry) {
  Fixture f;
  (void)f.sim.link(f.a);
  f.sim.remove_node(f.a);
  EXPECT_THROW((void)f.sim.link(f.a), std::out_of_range);
  // B is unaffected.
  f.sim.reset_cache_stats();
  (void)f.sim.link(f.b);
  EXPECT_EQ(f.sim.cache_stats().misses, 1u);  // B was never queried before
}

}  // namespace
}  // namespace mmx::sim
