#include "mmx/sim/link_budget.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "mmx/common/units.hpp"

namespace mmx::sim {
namespace {

TEST(LinkBudget, RxPowerArithmetic) {
  LinkBudget lb;
  // |h| = -60 dB, tx 10 dBm, impl loss 18 -> rx = -68 dBm.
  const double rx = lb.rx_power_dbm(std::complex<double>{1e-3, 0.0});
  EXPECT_NEAR(rx, 10.0 - 60.0 - 18.0, 1e-9);
}

TEST(LinkBudget, DeadLinkClamped) {
  LinkBudget lb;
  EXPECT_LE(lb.rx_power_dbm({0.0, 0.0}), -250.0);
}

TEST(LinkBudget, CalibrationPointNear1m) {
  // Sanity for the single calibration constant: a 1 m LoS boresight link
  // (antenna gains ~9 + 5 dBi, FSPL 60 dB) should land in the mid-30s of
  // SNR, matching the paper's "up to 35 dB" (§6.1) and Fig. 12's ceiling.
  LinkBudget lb;
  const double h_db = 9.0 + 5.0 - friis_path_loss_db(1.0, 24.125e9);
  const double snr = lb.snr_db(std::polar(db_to_amp(h_db), 0.0));
  EXPECT_GT(snr, 30.0);
  EXPECT_LT(snr, 45.0);
}

TEST(LinkBudget, RangeClaimAt18m) {
  // Fig. 12: facing node at 18 m still gets >= 15 dB.
  LinkBudget lb;
  const double h_db = 9.0 + 5.0 - friis_path_loss_db(18.0, 24.125e9);
  const double snr = lb.snr_db(std::polar(db_to_amp(h_db), 0.0));
  EXPECT_GT(snr, 13.0);
}

TEST(LinkBudget, OtamEvaluation) {
  LinkBudget lb;
  rf::SpdtSwitch sw;
  channel::BeamGains g;
  g.h1 = {1e-3, 0.0};   // strong beam
  g.h0 = {2.5e-4, 0.0}; // 12 dB weaker
  const OtamLink link = lb.evaluate_otam(g, sw);
  EXPECT_GT(link.rx1_dbm, link.rx0_dbm);
  EXPECT_NEAR(link.contrast_db, 12.0, 0.5);
  EXPECT_LT(link.joint_ber, 1e-9);  // plenty of margin at these levels
  EXPECT_LE(link.joint_ber, link.ask_ber);
  EXPECT_LE(link.joint_ber, link.fsk_ber);
}

TEST(LinkBudget, EqualLevelsKillAskButNotFsk) {
  LinkBudget lb;
  rf::SpdtSwitch sw;
  channel::BeamGains g;
  g.h1 = {1e-3, 0.0};
  g.h0 = {1e-3, 0.0};
  const OtamLink link = lb.evaluate_otam(g, sw);
  EXPECT_GT(link.ask_ber, 0.4);  // coin flip
  EXPECT_LT(link.fsk_ber, 1e-9);
  EXPECT_LT(link.joint_ber, 1e-9);  // §6.3: joint saves the link
}

TEST(LinkBudget, FixedBeamBaselineDiesInBeamNull) {
  LinkBudget lb;
  rf::SpdtSwitch sw;
  channel::BeamGains g;
  g.h1 = {1e-6, 0.0};  // Beam 1 nulled (AP at 30 degrees, or blocked LoS)
  g.h0 = {1e-3, 0.0};
  const OtamLink base = lb.evaluate_fixed_beam(g);
  const OtamLink otam = lb.evaluate_otam(g, sw);
  EXPECT_LT(base.snr_db, 0.0);
  EXPECT_GT(otam.snr_db, 20.0);
  EXPECT_GT(base.joint_ber, 0.01);
  EXPECT_LT(otam.joint_ber, 1e-9);
}

TEST(LinkBudget, AveragingImprovesBer) {
  LinkBudget lb;
  rf::SpdtSwitch sw;
  channel::BeamGains g;
  g.h1 = {4e-5, 0.0};
  g.h0 = {1e-5, 0.0};
  const OtamLink l1 = lb.evaluate_otam(g, sw, 1);
  const OtamLink l16 = lb.evaluate_otam(g, sw, 16);
  EXPECT_LT(l16.ask_ber, l1.ask_ber);
}

TEST(LinkBudget, NoiseFloorIsTheReceiverChains) {
  // The floor is computed once at construction; it must be the chain's
  // value bit for bit, for the default and a non-default receiver.
  LinkBudgetSpec custom;
  custom.receiver.lna_nf_db = 3.5;
  custom.receiver.mixer_loss_db = 7.0;
  custom.receiver.noise_bandwidth_hz = 12.5e6;
  for (const LinkBudgetSpec& spec : {LinkBudgetSpec{}, custom})
    EXPECT_EQ(LinkBudget(spec).noise_floor_dbm(),
              rf::ReceiverChain(spec.receiver).noise_floor_dbm());
  EXPECT_NE(LinkBudget(custom).noise_floor_dbm(), LinkBudget().noise_floor_dbm());
}

TEST(LinkBudget, BadSpecThrows) {
  LinkBudgetSpec s;
  s.implementation_loss_db = -1.0;
  EXPECT_THROW(LinkBudget{s}, std::invalid_argument);
  LinkBudget lb;
  channel::BeamGains g;
  EXPECT_THROW(lb.evaluate_fixed_beam(g, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace mmx::sim
