#include <gtest/gtest.h>

#include <cmath>

#include "mmx/common/rng.hpp"
#include "mmx/common/units.hpp"
#include "mmx/dsp/noise.hpp"
#include "mmx/dsp/tone.hpp"
#include "signal_measure.hpp"

namespace mmx::dsp {
namespace {

using measure::estimate_snr_db;

TEST(Noise, PowerMatchesRequest) {
  Rng rng(1);
  const Cvec n = awgn(200000, 0.5, rng);
  EXPECT_NEAR(mean_power(n), 0.5, 0.01);
}

TEST(Noise, ZeroPowerGivesZeros) {
  Rng rng(1);
  const Cvec n = awgn(100, 0.0, rng);
  EXPECT_DOUBLE_EQ(mean_power(n), 0.0);
}

TEST(Noise, NegativePowerThrows) {
  Rng rng(1);
  EXPECT_THROW(awgn(10, -1.0, rng), std::invalid_argument);
  Cvec x(10);
  EXPECT_THROW(add_awgn(x, -1.0, rng), std::invalid_argument);
}

TEST(Noise, IqBalance) {
  Rng rng(2);
  const Cvec n = awgn(200000, 1.0, rng);
  double pi = 0.0;
  double pq = 0.0;
  for (const Complex& s : n) {
    pi += s.real() * s.real();
    pq += s.imag() * s.imag();
  }
  pi /= static_cast<double>(n.size());
  pq /= static_cast<double>(n.size());
  EXPECT_NEAR(pi, 0.5, 0.01);
  EXPECT_NEAR(pq, 0.5, 0.01);
}

TEST(Noise, AddAwgnSnrProducesRequestedSnr) {
  Rng rng(3);
  Cvec x = tone(1e6, 100e3, 100000);
  Cvec clean = x;
  add_awgn_snr(x, 12.0, rng);
  EXPECT_NEAR(estimate_snr_db(x, clean), 12.0, 0.5);
}

TEST(Measure, SnrInsensitiveToGainAndPhase) {
  Rng rng(4);
  Cvec ref = tone(1e6, 70e3, 50000);
  Cvec rx(ref.size());
  const Complex g = 0.02 * Complex{std::cos(1.1), std::sin(1.1)};
  for (std::size_t i = 0; i < ref.size(); ++i) rx[i] = g * ref[i];
  add_awgn(rx, std::norm(g) * db_to_lin(-15.0), rng);  // 15 dB below signal
  EXPECT_NEAR(estimate_snr_db(rx, ref), 15.0, 0.5);
}

TEST(Measure, PerfectMatchClampsHigh) {
  const Cvec x = tone(1e6, 10e3, 128);
  EXPECT_GE(estimate_snr_db(x, x), 190.0);
}

TEST(Measure, MismatchedSizesThrow) {
  Cvec a(10);
  Cvec b(11);
  EXPECT_THROW(estimate_snr_db(a, b), std::invalid_argument);
  EXPECT_THROW(estimate_snr_db(Cvec{}, Cvec{}), std::invalid_argument);
}

TEST(Measure, ZeroReferenceThrows) {
  Cvec a(10, Complex{1.0, 0.0});
  Cvec z(10, Complex{});
  EXPECT_THROW(estimate_snr_db(a, z), std::invalid_argument);
}

class SnrSweep : public ::testing::TestWithParam<double> {};

TEST_P(SnrSweep, EstimatorTracksTrueSnr) {
  Rng rng(42);
  Cvec x = tone(1e6, 33e3, 65536);
  const Cvec clean = x;
  add_awgn_snr(x, GetParam(), rng);
  EXPECT_NEAR(estimate_snr_db(x, clean), GetParam(), 0.6);
}

INSTANTIATE_TEST_SUITE_P(Levels, SnrSweep,
                         ::testing::Values(-10.0, -5.0, 0.0, 5.0, 10.0, 20.0, 30.0, 40.0));

}  // namespace
}  // namespace mmx::dsp
