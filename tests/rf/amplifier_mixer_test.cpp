#include <gtest/gtest.h>

#include <cmath>

#include "mmx/common/units.hpp"
#include "mmx/dsp/tone.hpp"
#include "mmx/dsp/types.hpp"
#include "mmx/rf/amplifier.hpp"
#include "mmx/rf/mixer.hpp"

namespace mmx::rf {
namespace {

TEST(Amplifier, SmallSignalGain) {
  Rng rng(1);
  Amplifier lna = make_hmc751_lna(25e6);
  // -60 dBm input tone, well below compression.
  dsp::Cvec x = dsp::tone(100e6, 1e6, 10000);
  dsp::set_mean_power(x, dbm_to_watt(-60.0));
  const dsp::Cvec y = lna.process(x, rng);
  const double gain_db = lin_to_db(dsp::mean_power(y) / dsp::mean_power(x));
  EXPECT_NEAR(gain_db, 25.0, 0.3);
}

TEST(Amplifier, NoiseFigureDegradesSnrByNf) {
  Rng rng(2);
  const double bw = 25e6;
  Amplifier lna = make_hmc751_lna(bw);
  // Input exactly at thermal floor + 20 dB: output SNR should be
  // ~20 - NF = 18 dB (input itself is noiseless here, so the only noise
  // is the LNA's (F-1)kTB plus the implicit kTB we account in the check).
  const double kTB = kBoltzmann * kT0Kelvin * bw;
  dsp::Cvec x = dsp::tone(100e6, 1e6, 200000);
  dsp::set_mean_power(x, kTB * db_to_lin(20.0));
  const dsp::Cvec clean = x;
  const dsp::Cvec y = lna.process(x, rng);
  // Measure noise as the residual around the scaled clean signal.
  const double added_noise = lna.input_noise_power_w();
  EXPECT_NEAR(lin_to_db(added_noise / kTB), lin_to_db(db_to_lin(2.0) - 1.0), 0.2);
  EXPECT_GT(dsp::mean_power(y), 0.0);
}

TEST(Amplifier, SaturatesAboveP1db) {
  Rng rng(3);
  Amplifier lna = make_hmc751_lna(25e6);
  // Input that would linearly produce +25 dBm out (15 dB over P1dB).
  dsp::Cvec x = dsp::tone(100e6, 1e6, 1000);
  dsp::set_mean_power(x, dbm_to_watt(0.0));
  const dsp::Cvec y = lna.process(x, rng);
  // Output power clamps near the 10 dBm saturation level.
  EXPECT_LT(watt_to_dbm(dsp::mean_power(y)), 11.0);
}

// Amplifier::process draws its input-referred noise through dsp::awgn;
// the samples must equal the per-sample loop it replaced, which drew
// Complex{gaussian(sigma), gaussian(sigma)} inline. Odd length, entered
// with a spare pending, and tones on both sides of compression.
TEST(Amplifier, NoiseMatchesPerSampleGaussianLoop) {
  Amplifier lna = make_hmc751_lna(25e6);
  dsp::Cvec x = dsp::tone(100e6, 1e6, 1001);
  dsp::set_mean_power(x, dbm_to_watt(-60.0));
  for (std::size_t i = 500; i < x.size(); ++i) x[i] *= 1e3;  // +0 dBm: saturates
  Rng a(21);
  Rng b(21);
  EXPECT_EQ(a.gaussian(), b.gaussian());
  const dsp::Cvec y = lna.process(x, a);

  const double amp_gain = std::sqrt(lna.power_gain());
  const double sigma = std::sqrt(lna.input_noise_power_w() / 2.0);
  const double sat_amp = std::sqrt(dbm_to_watt(lna.spec().p1db_out_dbm));
  ASSERT_EQ(y.size(), x.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    dsp::Complex s = x[i] + dsp::Complex{b.gaussian(sigma), b.gaussian(sigma)};
    s *= amp_gain;
    const double mag = std::abs(s);
    if (mag > 0.0) {
      const double compressed = sat_amp * std::tanh(mag / sat_amp);
      s *= compressed / mag;
    }
    diffs += s != y[i];
  }
  EXPECT_EQ(diffs, 0u);
  EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Amplifier, BadArgsThrow) {
  AmplifierSpec s;
  s.noise_figure_db = -1.0;
  EXPECT_THROW(Amplifier(AmplifierSpec{s}, 1e6), std::invalid_argument);
  EXPECT_THROW(Amplifier(AmplifierSpec{}, 0.0), std::invalid_argument);
}

TEST(Mixer, SubharmonicDoublesLo) {
  // Paper §8.2: 10 GHz PLL, doubled internally, downconverts 24 GHz to
  // 4 GHz IF.
  SubharmonicMixer mx;
  EXPECT_DOUBLE_EQ(mx.effective_lo_hz(10e9), 20e9);
  EXPECT_DOUBLE_EQ(mx.if_frequency_hz(24e9, 10e9), 4e9);
}

TEST(Mixer, IfStaysInUsrpRange) {
  // Any ISM-band carrier must land below the CBX daughterboard's 6 GHz.
  SubharmonicMixer mx;
  for (double f = kIsmLowHz; f <= kIsmHighHz; f += 10e6) {
    EXPECT_LT(mx.if_frequency_hz(f, 10e9), 6e9);
  }
}

TEST(Mixer, ConversionLossApplied) {
  SubharmonicMixer mx;
  dsp::Cvec x(100, dsp::Complex{1.0, 0.0});
  const dsp::Cvec y = mx.process(x);
  EXPECT_NEAR(lin_to_db(dsp::mean_power(y) / dsp::mean_power(x)), -9.0, 1e-9);
}

TEST(Mixer, BadArgsThrow) {
  MixerSpec s;
  s.conversion_loss_db = -1.0;
  EXPECT_THROW(SubharmonicMixer{s}, std::invalid_argument);
  SubharmonicMixer mx;
  EXPECT_THROW(mx.if_frequency_hz(0.0, 10e9), std::invalid_argument);
  EXPECT_THROW(mx.if_frequency_hz(24e9, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace mmx::rf
