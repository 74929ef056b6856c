// Lockstep differential fuzz for mac::InitProtocol (ctest label: overload).
//
// The library's InitProtocol keeps one record per grant holder, one
// member list per SDM group and indexes over both (gap-indexed allocator,
// cached solo slots, shared-channel set); the oracle in tests/reference/
// is the frozen pre-refactor implementation with its parallel per-id maps,
// running on the frozen pre-index allocator. Both are driven with the
// same random request/release/modify_rate/compact/promote/drain sequence
// on a band narrow enough to fill, and after every op they must agree on
// the reply, every grant, the allocator's map, the overload stats and any
// drained re-tunes — bit for bit — and the library's audit() must find
// its indexes consistent (placement_checks.hpp). Each lane also asserts
// that the fuzz reached the admission paths it exists to cover, so a
// generator that drifts into a corner cannot pass vacuously.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "init_protocol_ref.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/mac/init_protocol.hpp"
#include "placement_checks.hpp"

namespace mmx::mac {
namespace {

constexpr std::uint16_t kMaxId = 40;

struct Lane {
  double band_low_hz = 24.0e9;
  double min_band_hz = 60e6;   ///< per-episode band width drawn in [min, max]
  double max_band_hz = 250e6;
  bool overload = false;
  /// Bearing separation below twice the harmonic mismatch: an incumbent
  /// and a newcomer can want the same slot.
  bool tight_sdm = false;
  int episodes = 200;
  int ops_per_episode = 500;
  std::uint64_t seed = 0;
};

/// Admission paths a lane must reach at least once.
struct Coverage {
  int sdm_join = 0;
  int sdm_convert = 0;
  int compaction = 0;
  int demotion = 0;
  int shed = 0;
  int promotion = 0;
  int hinted_deny = 0;
  int reinstate = 0;
  int vco_deny = 0;
};

bool same(const ChannelGrant& a, const ChannelGrant& b) {
  return a.node_id == b.node_id && a.channel == b.channel && a.sdm_harmonic == b.sdm_harmonic &&
         a.vco_tune_v0 == b.vco_tune_v0 && a.vco_tune_v1 == b.vco_tune_v1;
}

bool same(const SideChannelMessage& a, const SideChannelMessage& b) {
  if (a.index() != b.index()) return false;
  if (const auto* ga = std::get_if<ChannelGrant>(&a)) return same(*ga, std::get<ChannelGrant>(b));
  if (const auto* da = std::get_if<ChannelDeny>(&a)) {
    const auto& db = std::get<ChannelDeny>(b);
    return da->node_id == db.node_id && da->retry_after_s == db.retry_after_s;
  }
  return false;  // neither side ever replies with a request
}

bool same(const std::vector<ChannelGrant>& a, const std::vector<ChannelGrant>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ChannelGrant& x, const ChannelGrant& y) { return same(x, y); });
}

OverloadStats as_lib(const refmac::OverloadStats& s) {
  return OverloadStats{s.demotions,     s.shed_demotions, s.promotions,
                       s.compactions,   s.retunes,        s.hinted_denies,
                       s.hint_delay_sum_s, s.invariant_violations};
}

::testing::AssertionResult same_state(const InitProtocol& lib, const refmac::InitProtocol& ref) {
  if (lib.num_grants() != ref.grants().size())
    return ::testing::AssertionFailure()
           << "grant count " << lib.num_grants() << " vs " << ref.grants().size();
  for (const auto& [id, g] : ref.grants()) {
    const ChannelGrant* mine = lib.grant(id);
    if (mine == nullptr || !same(*mine, g))
      return ::testing::AssertionFailure() << "grant of node " << id << " differs";
  }
  if (lib.allocator().allocations() != ref.allocator().allocations())
    return ::testing::AssertionFailure() << "allocator maps differ";
  if (!(lib.overload_stats() == as_lib(ref.overload_stats())))
    return ::testing::AssertionFailure() << "overload stats differ";
  return ::testing::AssertionSuccess();
}

/// Bearing near a random default TMA slot (inside or just outside the
/// 0.07 rad mismatch tolerance), or one no slot can serve.
double draw_bearing(Rng& rng) {
  if (rng.chance(0.1)) return 1.2;
  return std::asin(0.125 * rng.uniform_int(-4, 4)) + rng.uniform(-0.09, 0.09);
}

/// Rates on the demotion ladder's power-of-two grid (so halvings land on
/// earlier requests' widths) mixed with arbitrary ones; a few are <= 0.
double draw_rate(Rng& rng) {
  const int pick = rng.uniform_int(0, 19);
  if (pick == 0) return 0.0;
  if (pick == 1) return -1e6;
  if (pick < 12) return 2.5e6 * static_cast<double>(1 << rng.uniform_int(0, 5));
  return rng.uniform(2e6, 90e6);
}

/// Number of grant holders other than `self` sitting on `ch`.
int holders_on(const std::map<std::uint16_t, ChannelGrant>& grants, const ChannelAllocation& ch,
               std::uint16_t self) {
  int n = 0;
  for (const auto& [id, g] : grants) n += (id != self && g.channel == ch) ? 1 : 0;
  return n;
}

void run_lane(const Lane& lane, Coverage& cov) {
  for (int ep = 0; ep < lane.episodes; ++ep) {
    Rng rng = Rng::stream(lane.seed, static_cast<std::uint64_t>(ep));
    const double band_hz = rng.uniform(lane.min_band_hz, lane.max_band_hz);
    const double band_high_hz = lane.band_low_hz + band_hz;
    InitConfig cfg;
    refmac::InitConfig ref_cfg;
    cfg.sdm_capacity = ref_cfg.sdm_capacity = rng.uniform_int(2, 3);
    if (lane.tight_sdm) {
      cfg.min_bearing_separation_rad = ref_cfg.min_bearing_separation_rad = 0.1;
      cfg.max_harmonic_mismatch_rad = ref_cfg.max_harmonic_mismatch_rad = 0.2;
    }
    if (lane.overload) {
      cfg.overload.enabled = ref_cfg.overload.enabled = true;
      cfg.overload.min_rate_bps = ref_cfg.overload.min_rate_bps = rng.chance(0.2) ? 0.0 : 2.5e6;
      cfg.overload.shedding = ref_cfg.overload.shedding = rng.chance(0.8);
    }
    InitProtocol lib(FdmAllocator(lane.band_low_hz, band_high_hz, 1e6), rf::Vco{}, cfg);
    refmac::InitProtocol ref(refmac::FdmAllocator(lane.band_low_hz, band_high_hz, 1e6), rf::Vco{},
                             ref_cfg);

    for (int op = 0; op < lane.ops_per_episode; ++op) {
      const std::string where = "episode " + std::to_string(ep) + " op " + std::to_string(op);
      const auto id = static_cast<std::uint16_t>(rng.uniform_int(1, kMaxId));
      const refmac::OverloadStats before = ref.overload_stats();
      const std::map<std::uint16_t, ChannelGrant> grants_before = ref.grants();
      const int kind = rng.uniform_int(0, 99);
      if (kind < 45) {
        const ChannelRequest req{id, draw_rate(rng), draw_bearing(rng),
                                 static_cast<std::uint8_t>(rng.uniform_int(0, 3))};
        const double gap_before = ref.allocator().largest_gap_hz();
        const SideChannelMessage want = ref.handle(req);
        ASSERT_TRUE(same(lib.handle(req), want)) << where << ": handle";
        if (const auto* g = std::get_if<ChannelGrant>(&want); g && !grants_before.contains(id)) {
          if (holders_on(grants_before, g->channel, id) >= 2) ++cov.sdm_join;
          for (const auto& [other, og] : grants_before)
            if (other != id && og.channel == g->channel &&
                ref.grants().at(other).sdm_harmonic != og.sdm_harmonic)
              ++cov.sdm_convert;
        }
        if (const auto* d = std::get_if<ChannelDeny>(&want)) {
          if (d->retry_after_s > 0.0) ++cov.hinted_deny;
          // A gap fit the demand, yet a plain-FDM AP denied: the VCO
          // could not reach the channel it would have been given.
          if (!lane.overload && req.rate_bps > 0.0 &&
              gap_before >= required_bandwidth_hz(req.rate_bps))
            ++cov.vco_deny;
        }
      } else if (kind < 65) {
        ASSERT_EQ(lib.release(id), ref.release(id)) << where << ": release";
      } else if (kind < 77) {
        const double rate = draw_rate(rng);
        const SideChannelMessage want = ref.modify_rate(id, rate);
        ASSERT_TRUE(same(lib.modify_rate(id, rate), want)) << where << ": modify_rate";
        if (std::holds_alternative<ChannelDeny>(want) && grants_before.contains(id) &&
            ref.grants().contains(id) && same(ref.grants().at(id), grants_before.at(id)))
          ++cov.reinstate;
      } else if (kind < 82) {
        ASSERT_EQ(lib.compact_spectrum(), ref.compact_spectrum()) << where << ": compact";
      } else if (kind < 90) {
        ASSERT_TRUE(same(lib.promote_demoted(), ref.promote_demoted())) << where << ": promote";
      } else {
        ASSERT_TRUE(same(lib.take_retunes(), ref.take_retunes())) << where << ": retunes";
      }
      ASSERT_EQ(lib.granted_rate_bps(id), ref.granted_rate_bps(id)) << where;
      ASSERT_TRUE(same_state(lib, ref)) << where;
      ASSERT_EQ(lib.audit(), placement_violations(ref.allocator())) << where << ": audit";

      const refmac::OverloadStats& after = ref.overload_stats();
      cov.compaction += after.compactions > before.compactions && kind < 45 ? 1 : 0;
      cov.demotion += after.demotions > before.demotions ? 1 : 0;
      cov.shed += after.shed_demotions > before.shed_demotions ? 1 : 0;
      cov.promotion += after.promotions > before.promotions ? 1 : 0;
    }
    ASSERT_TRUE(same(lib.take_retunes(), ref.take_retunes())) << "episode " << ep << " end";
  }
}

TEST(InitProtocolLockstep, OverloadOffMatchesReference) {
  Coverage cov;
  run_lane(Lane{.seed = 0x1A17}, cov);
  if (HasFatalFailure()) return;
  EXPECT_GT(cov.sdm_join, 0);
  EXPECT_GT(cov.sdm_convert, 0);
  EXPECT_GT(cov.reinstate, 0);
  EXPECT_EQ(cov.hinted_deny, 0);  // plain denies only while overload is off
}

TEST(InitProtocolLockstep, OverloadOnMatchesReference) {
  Coverage cov;
  run_lane(Lane{.overload = true, .seed = 0x0E7D}, cov);
  if (HasFatalFailure()) return;
  EXPECT_GT(cov.sdm_join, 0);
  EXPECT_GT(cov.sdm_convert, 0);
  EXPECT_GT(cov.compaction, 0);
  EXPECT_GT(cov.demotion, 0);
  EXPECT_GT(cov.shed, 0);
  EXPECT_GT(cov.promotion, 0);
  EXPECT_GT(cov.hinted_deny, 0);
  EXPECT_GT(cov.reinstate, 0);
}

TEST(InitProtocolLockstep, BandBeyondVcoRangeMatchesReference) {
  // The band's top 50 MHz lies above the node VCO's 24.25 GHz ceiling:
  // channels placed there are rolled back and the request denied.
  Coverage cov;
  run_lane(Lane{.band_low_hz = 24.15e9,
                .min_band_hz = 150e6,
                .max_band_hz = 150e6,
                .episodes = 40,
                .seed = 0x0FCE},
           cov);
  if (HasFatalFailure()) return;
  EXPECT_GT(cov.vco_deny, 0);
}

TEST(InitProtocolLockstep, TightSdmGeometryMatchesReference) {
  // Bearings 0.1 rad apart may share and a slot serves 0.2 rad either
  // side, so an incumbent's solo slot can be the newcomer's best one and
  // the newcomer must take its second-best slot.
  Coverage cov;
  run_lane(Lane{.tight_sdm = true, .episodes = 100, .seed = 0x7165}, cov);
  if (HasFatalFailure()) return;
  EXPECT_GT(cov.sdm_join, 0);
  EXPECT_GT(cov.sdm_convert, 0);
}

}  // namespace
}  // namespace mmx::mac
