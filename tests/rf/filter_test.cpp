#include <gtest/gtest.h>

#include "mmx/common/units.hpp"
#include "mmx/rf/filter.hpp"

namespace mmx::rf {
namespace {

TEST(CoupledLineFilter, CenterInsertionLossMatchesPaper) {
  // Paper §8.2: centre 24 GHz, passband insertion loss 5 dB.
  CoupledLineFilter f;
  EXPECT_NEAR(f.gain_db(24.0e9), -5.0, 1e-9);
}

TEST(CoupledLineFilter, SymmetricAboutCenter) {
  CoupledLineFilter f;
  EXPECT_NEAR(f.gain_db(23.5e9), f.gain_db(24.5e9), 1e-9);
}

TEST(CoupledLineFilter, PassbandFlatStopbandSteep) {
  CoupledLineFilter f;
  // Inside the ISM band: within ~3 dB of centre loss.
  EXPECT_GT(f.gain_db(24.2e9), -8.0);
  // 3 GHz out: heavily rejected.
  EXPECT_LT(f.gain_db(27.0e9), -40.0);
  // WiFi/LTE bands: essentially blocked.
  EXPECT_LT(f.gain_db(5.8e9), -80.0);
}

TEST(CoupledLineFilter, EdgeSolverConsistent) {
  CoupledLineFilter f;
  const double lo = f.lower_edge_hz(20.0);
  const double hi = f.upper_edge_hz(20.0);
  EXPECT_LT(lo, 24.0e9);
  EXPECT_GT(hi, 24.0e9);
  // Response at the computed edges is IL + 20 dB.
  EXPECT_NEAR(f.gain_db(lo), -25.0, 0.1);
  EXPECT_NEAR(f.gain_db(hi), -25.0, 0.1);
}

TEST(CoupledLineFilter, HigherOrderSteeperSkirt) {
  CoupledLineFilterSpec s3;
  s3.order = 3;
  CoupledLineFilterSpec s5 = s3;
  s5.order = 5;
  CoupledLineFilter f3(s3);
  CoupledLineFilter f5(s5);
  EXPECT_LT(f5.gain_db(26.0e9), f3.gain_db(26.0e9));
}

TEST(CoupledLineFilter, BadSpecThrows) {
  CoupledLineFilterSpec s;
  s.bandwidth_hz = 0.0;
  EXPECT_THROW(CoupledLineFilter{s}, std::invalid_argument);
  CoupledLineFilterSpec s2;
  s2.order = 0;
  EXPECT_THROW(CoupledLineFilter{s2}, std::invalid_argument);
  CoupledLineFilter f;
  EXPECT_THROW(f.lower_edge_hz(0.0), std::invalid_argument);
}

}  // namespace
}  // namespace mmx::rf
