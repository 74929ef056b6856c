#include <gtest/gtest.h>

#include <cmath>

#include "mmx/common/rng.hpp"
#include "mmx/dsp/fft.hpp"
#include "mmx/dsp/noise.hpp"
#include "mmx/dsp/resample.hpp"
#include "mmx/dsp/tone.hpp"

namespace mmx::dsp {
namespace {

TEST(Resample, DecimatePreservesInBandTone) {
  const double fs = 1e6;
  const Cvec x = tone(fs, 20e3, 8192);
  const Cvec y = decimate(x, 4);
  EXPECT_EQ(y.size(), x.size() / 4);
  // Tone frequency unchanged in Hz at the new rate.
  const std::span<const Complex> tail(y.data() + 256, y.size() - 256);
  EXPECT_NEAR(estimate_tone_frequency(tail, fs / 4.0), 20e3, 100.0);
}

TEST(Resample, DecimateSuppressesAlias) {
  const double fs = 1e6;
  // 230 kHz would alias to -20 kHz after /4 (new fs = 250 kHz); the
  // anti-alias filter must kill it first.
  const Cvec x = tone(fs, 230e3, 8192);
  const Cvec y = decimate(x, 4);
  const std::span<const Complex> tail(y.data() + 256, y.size() - 256);
  EXPECT_LT(mean_power(tail), 0.01);
}

TEST(Resample, UpsamplePreservesToneAndLevel) {
  const double fs = 1e6;
  const Cvec x = tone(fs, 20e3, 2048);
  const Cvec y = upsample(x, 4);
  EXPECT_EQ(y.size(), x.size() * 4);
  const std::span<const Complex> tail(y.data() + 1024, y.size() - 1024);
  EXPECT_NEAR(estimate_tone_frequency(tail, fs * 4.0), 20e3, 100.0);
  EXPECT_NEAR(mean_power(tail), 1.0, 0.05);
}

TEST(Resample, FactorOneIsCopy) {
  Rng rng(2);
  const Cvec x = awgn(100, 1.0, rng);
  const Cvec d = decimate(x, 1);
  const Cvec u = upsample(x, 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(d[i], x[i]);
    EXPECT_EQ(u[i], x[i]);
  }
}

TEST(Resample, ZeroFactorThrows) {
  Cvec x(10);
  EXPECT_THROW(decimate(x, 0), std::invalid_argument);
  EXPECT_THROW(upsample(x, 0), std::invalid_argument);
}

TEST(Resample, RationalPreservesToneFrequency) {
  // 3/2 resampling of a 20 kHz tone at 1 Msps -> 1.5 Msps, tone unmoved.
  const double fs = 1e6;
  const Cvec x = tone(fs, 20e3, 8192);
  const Cvec y = resample_rational(x, 3, 2);
  EXPECT_NEAR(static_cast<double>(y.size()),
              static_cast<double>(x.size()) * 3.0 / 2.0, 3.0);
  const std::span<const Complex> tail(y.data() + 512, y.size() - 512);
  EXPECT_NEAR(estimate_tone_frequency(tail, fs * 3.0 / 2.0), 20e3, 200.0);
}

TEST(Resample, RationalDownConversion) {
  // 2/5: 1 Msps -> 400 ksps; a 120 kHz tone stays below the new Nyquist
  // and survives with its level.
  const double fs = 1e6;
  const Cvec x = tone(fs, 120e3, 16384);
  const Cvec y = resample_rational(x, 2, 5);
  const std::span<const Complex> tail(y.data() + 512, y.size() - 512);
  EXPECT_NEAR(estimate_tone_frequency(tail, fs * 2.0 / 5.0), 120e3, 300.0);
  EXPECT_NEAR(mean_power(tail), 1.0, 0.1);
}

TEST(Resample, RationalIdentityAndValidation) {
  Rng rng(6);
  const Cvec x = awgn(256, 1.0, rng);
  const Cvec y = resample_rational(x, 4, 4);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
  EXPECT_THROW(resample_rational(x, 0, 2), std::invalid_argument);
  EXPECT_THROW(resample_rational(x, 2, 0), std::invalid_argument);
}

TEST(Resample, FrequencyShiftMovesTone) {
  const double fs = 1e6;
  const Cvec x = tone(fs, 10e3, 4096);
  const Cvec y = frequency_shift(x, 100e3, fs);
  EXPECT_NEAR(estimate_tone_frequency(y, fs), 110e3, 200.0);
  // Shift is unitary: power preserved.
  EXPECT_NEAR(mean_power(y), mean_power(x), 1e-9);
}

TEST(Resample, FrequencyShiftInverse) {
  const double fs = 1e6;
  const Cvec x = tone(fs, 10e3, 1024);
  const Cvec y = frequency_shift(frequency_shift(x, 50e3, fs), -50e3, fs);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-9);
}

}  // namespace
}  // namespace mmx::dsp
