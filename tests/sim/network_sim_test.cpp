#include "mmx/sim/network_sim.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <vector>

#include "mmx/channel/blockage.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/common/units.hpp"
#include "mmx/sim/stats.hpp"

namespace mmx::sim {
namespace {

NetworkSimulator paper_testbed() {
  // 6 x 4 m room, AP on one side facing inward (paper §9.2).
  return NetworkSimulator(channel::Room(6.0, 4.0), channel::Pose{{5.5, 2.0}, kPi});
}

TEST(NetworkSim, AddNodeGrantsChannel) {
  NetworkSimulator net = paper_testbed();
  const auto id = net.add_node({{1.0, 2.0}, 0.0}, 10e6);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(net.num_nodes(), 1u);
  EXPECT_NEAR(net.grant(*id).channel.bandwidth_hz, 12.5e6, 1.0);
}

TEST(NetworkSim, LinkSnrReasonableInRoom) {
  NetworkSimulator net = paper_testbed();
  const auto id = net.add_node({{1.0, 2.0}, 0.0}, 10e6);
  const OtamLink l = net.link(*id);
  // ~4.5 m LoS boresight: strong double-digit SNR.
  EXPECT_GT(l.snr_db, 15.0);
  EXPECT_LT(l.snr_db, 45.0);
  EXPECT_LT(l.joint_ber, 1e-6);
}

TEST(NetworkSim, OtamBeatsFixedBeamUnderBlockage) {
  // The Fig. 10 effect in miniature.
  NetworkSimulator net = paper_testbed();
  const auto id = net.add_node({{1.0, 2.0}, deg_to_rad(40.0)}, 10e6);
  channel::park_blocker_on_los(net.room(), {1.0, 2.0}, {5.5, 2.0});
  const OtamLink otam = net.link(*id);
  const OtamLink fixed = net.fixed_beam_link(*id);
  EXPECT_LT(otam.joint_ber, fixed.joint_ber + 1e-15);
}

TEST(NetworkSim, BearingAtAp) {
  NetworkSimulator net = paper_testbed();
  const auto id = net.add_node({{1.0, 2.0}, 0.0}, 1e6);
  // Node due -x of the AP; AP faces -x (orientation pi) -> bearing ~0.
  EXPECT_NEAR(net.bearing_at_ap(*id), 0.0, 1e-9);
}

TEST(NetworkSim, MoveNodeChangesLink) {
  NetworkSimulator net = paper_testbed();
  const auto id = net.add_node({{4.5, 2.0}, 0.0}, 1e6);
  const double snr_near = net.link(*id).snr_db;
  net.set_node_pose(*id, {{0.5, 2.0}, 0.0});
  const double snr_far = net.link(*id).snr_db;
  EXPECT_GT(snr_near, snr_far);
}

TEST(NetworkSim, TwentyNodesAllGetService) {
  // §9.5 scale: 20 simultaneous nodes at 25 MHz-class demands -> FDM
  // fills, SDM absorbs the rest.
  Rng rng(1);
  NetworkSimulator net = paper_testbed();
  int granted = 0;
  for (int i = 0; i < 20; ++i) {
    const channel::Pose pose{{rng.uniform(0.5, 4.8), rng.uniform(0.5, 3.5)},
                             rng.uniform(-1.0, 1.0)};
    if (net.add_node(pose, 20e6)) ++granted;
  }
  EXPECT_GE(granted, 12);  // most nodes; SDM admission rejects unservable bearings
}

TEST(NetworkSim, SinrDegradesGracefullyWithLoad) {
  // Fig. 13 shape: average SINR decreases only slightly from 1 to 20
  // simultaneous transmitters and stays high.
  Rng rng(2);
  NetworkSimulator net = paper_testbed();
  std::vector<double> avg_by_k;
  for (int k = 0; k < 20; ++k) {
    const channel::Pose pose{{rng.uniform(0.5, 4.8), rng.uniform(0.5, 3.5)},
                             rng.uniform(-1.0, 1.0)};
    net.add_node(pose, 20e6);
    const auto sinr = net.sinr_all_db();
    if (sinr.empty()) continue;
    std::vector<double> vals;
    for (const auto& [id, s] : sinr) vals.push_back(s);
    avg_by_k.push_back(mean(vals));
  }
  ASSERT_GE(avg_by_k.size(), 10u);
  // High average throughout...
  EXPECT_GT(avg_by_k.back(), 15.0);
  // ...with only graceful degradation from the single-node case.
  EXPECT_LT(avg_by_k.front() - avg_by_k.back(), 15.0);
}

TEST(NetworkSim, RemoveNodeFreesResources) {
  NetworkSimulator net = paper_testbed();
  const auto a = net.add_node({{1.0, 2.0}, 0.0}, 180e6);
  ASSERT_TRUE(a);
  net.remove_node(*a);
  EXPECT_EQ(net.num_nodes(), 0u);
  const auto b = net.add_node({{2.0, 2.0}, 0.0}, 180e6);
  EXPECT_TRUE(b.has_value());
  EXPECT_EQ(net.grant(*b).sdm_harmonic, 0);
}

TEST(NetworkSim, ValidatesPositions) {
  NetworkSimulator net = paper_testbed();
  EXPECT_THROW(net.add_node({{10.0, 2.0}, 0.0}, 1e6), std::invalid_argument);
  const auto id = net.add_node({{1.0, 2.0}, 0.0}, 1e6);
  EXPECT_THROW(net.set_node_pose(*id, {{-1.0, 0.0}, 0.0}), std::invalid_argument);
  EXPECT_THROW(net.link(999), std::out_of_range);
  EXPECT_THROW(NetworkSimulator(channel::Room(6.0, 4.0), channel::Pose{{7.0, 2.0}, 0.0}),
               std::invalid_argument);
}

TEST(NetworkSim, RevokeGrantKeepsNodeResident) {
  NetworkSimulator net = paper_testbed();
  const channel::Pose pose{{1.0, 2.0}, 0.0};
  const auto id = net.add_node(pose, 10e6);
  ASSERT_TRUE(id);
  EXPECT_TRUE(net.revoke_grant(*id));
  EXPECT_FALSE(net.revoke_grant(*id));  // already unassociated
  // The spectrum is gone; the node is still resident and measurable.
  EXPECT_THROW(net.grant(*id), std::out_of_range);
  EXPECT_EQ(net.init().num_grants(), 0u);
  EXPECT_EQ(net.init().allocator().num_allocations(), 0u);
  EXPECT_EQ(net.num_nodes(), 1u);
  EXPECT_EQ(net.node_pose(*id), pose);
  EXPECT_GT(net.link(*id).snr_db, 15.0);
  // Tracked-only and unknown ids hold nothing to revoke.
  const std::uint16_t tracked = net.add_tracked_node({{2.0, 1.0}, 0.0});
  EXPECT_FALSE(net.revoke_grant(tracked));
  EXPECT_FALSE(net.revoke_grant(999));
}

TEST(NetworkSim, ReapInactiveTakesOnlySilentGrantedNodes) {
  NetworkSimulator net = paper_testbed();
  const auto silent_a = net.add_node({{1.0, 1.0}, 0.0}, 10e6);
  const auto recent = net.add_node({{1.0, 2.0}, 0.0}, 10e6);
  const auto never_noted = net.add_node({{1.0, 3.0}, 0.0}, 10e6);
  const std::uint16_t tracked = net.add_tracked_node({{2.0, 1.0}, 0.0});
  const auto revoked = net.add_node({{2.0, 2.0}, 0.0}, 10e6);
  const auto silent_b = net.add_node({{2.0, 3.0}, 0.0}, 10e6);
  ASSERT_TRUE(silent_a && recent && never_noted && revoked && silent_b);
  // Noted in descending id order: the result order must come from the ids.
  net.note_activity(*silent_b, 0.0);
  net.note_activity(*revoked, 0.0);
  net.note_activity(tracked, 0.0);
  net.note_activity(*recent, 0.5);
  net.note_activity(*silent_a, 0.0);
  ASSERT_TRUE(net.revoke_grant(*revoked));

  // Silent for exactly the timeout counts as silent.
  const std::vector<std::uint16_t> reaped = net.reap_inactive(1.0, 1.0);
  EXPECT_EQ(reaped, (std::vector<std::uint16_t>{*silent_a, *silent_b}));
  EXPECT_EQ(net.num_nodes(), 4u);
  EXPECT_THROW(net.node_pose(*silent_a), std::out_of_range);
  EXPECT_THROW(net.node_pose(*silent_b), std::out_of_range);
  EXPECT_EQ(net.init().num_grants(), 2u);  // recent + never_noted
  EXPECT_NO_THROW(net.grant(*recent));
  EXPECT_NO_THROW(net.grant(*never_noted));
  EXPECT_NO_THROW(net.node_pose(tracked));
  EXPECT_NO_THROW(net.node_pose(*revoked));
  EXPECT_TRUE(net.reap_inactive(1.0, 1.0).empty());
  EXPECT_THROW(net.reap_inactive(1.0, 0.0), std::invalid_argument);
}

TEST(NetworkSim, NodeIdExhaustionThrowsInsteadOfWrapping) {
  // Every registration consumes an id, removed or not. A wrapped id (0,
  // then 1 again) would alias a live node's slot and its grant, so once
  // all 65,535 nonzero ids are issued registration must fail loudly.
  NetworkSimulator net = paper_testbed();
  const channel::Pose pose{{1.0, 2.0}, 0.0};
  for (std::uint32_t i = 1; i <= 65'535; ++i) {
    const std::uint16_t id = net.add_tracked_node(pose);
    ASSERT_EQ(id, i);
    net.remove_node(id);
  }
  EXPECT_THROW(net.add_tracked_node(pose), std::length_error);
  EXPECT_THROW(net.add_node(pose, 10e6), std::length_error);
  EXPECT_EQ(net.num_nodes(), 0u);
  EXPECT_EQ(net.init().num_grants(), 0u);
}

}  // namespace
}  // namespace mmx::sim
