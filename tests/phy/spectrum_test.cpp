// Occupied-bandwidth measurement tests: the OTAM waveform must fit its
// granted channel.
#include <gtest/gtest.h>

#include "mmx/common/rng.hpp"
#include "mmx/dsp/tone.hpp"
#include "mmx/phy/otam.hpp"
#include "signal_measure.hpp"

namespace mmx::phy {
namespace {

PhyConfig test_cfg() {
  PhyConfig cfg;
  cfg.symbol_rate_hz = 1e6;
  cfg.samples_per_symbol = 32;  // finer tone resolution per symbol
  cfg.fsk_freq0_hz = -2e6;
  cfg.fsk_freq1_hz = 2e6;
  return cfg;
}

TEST(Spectrum, ToneObwIsNarrow) {
  const double fs = 16e6;
  const dsp::Cvec x = dsp::tone(fs, 2e6, 8192);
  const auto obw = measure::occupied_bandwidth(x, fs);
  EXPECT_NEAR(obw.center_hz, 2e6, 20e3);
  EXPECT_LT(obw.bandwidth_hz, 100e3);
}

TEST(Spectrum, OtamSignalFitsGrantedChannel) {
  // The regulatory check the allocator relies on: an OTAM transmission at
  // rate R with tones at +/-2R stays inside a bandwidth of ~R/0.8 plus
  // the tone spread — comfortably inside a 12.5 MHz channel for 1 Mbaud
  // test parameters scaled accordingly.
  Rng rng(4);
  PhyConfig cfg = test_cfg();
  rf::SpdtSwitch sw;
  Bits bits;
  for (int i = 0; i < 500; ++i) bits.push_back(rng.uniform_int(0, 1));
  const OtamChannel ch{{0.7, 0.0}, {1.0, 0.0}};
  const auto rx = otam_synthesize(bits, cfg, ch, sw);
  const auto obw = measure::occupied_bandwidth(rx, cfg.sample_rate_hz(), 0.99);
  // Tones at +/-2 MHz with ~1 MHz OOK skirts: everything within ~7 MHz.
  EXPECT_LT(obw.bandwidth_hz, 7e6);
  EXPECT_GT(measure::power_in_band(rx, cfg.sample_rate_hz(), -3.5e6, 3.5e6), 0.98);
}

TEST(Spectrum, Validation) {
  dsp::Cvec tiny(16);
  EXPECT_THROW(measure::occupied_bandwidth(tiny, 1e6), std::invalid_argument);
  dsp::Cvec x = dsp::tone(1e6, 1e5, 256);
  EXPECT_THROW(measure::occupied_bandwidth(x, 1e6, 1.0), std::invalid_argument);
  EXPECT_THROW(measure::power_in_band(x, 1e6, 2e5, 1e5), std::invalid_argument);
  const dsp::Cvec zeros(256, dsp::Complex{});
  EXPECT_THROW(measure::occupied_bandwidth(zeros, 1e6), std::invalid_argument);
}

}  // namespace
}  // namespace mmx::phy
