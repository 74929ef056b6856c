#include "mmx/rf/amplifier.hpp"

#include <cmath>
#include <stdexcept>

#include "mmx/common/units.hpp"
#include "mmx/dsp/noise.hpp"

namespace mmx::rf {

Amplifier::Amplifier(AmplifierSpec spec, double noise_bandwidth_hz)
    : spec_(spec), noise_bandwidth_hz_(noise_bandwidth_hz) {
  if (spec_.noise_figure_db < 0.0)
    throw std::invalid_argument("Amplifier: noise figure must be >= 0 dB");
  if (noise_bandwidth_hz <= 0.0)
    throw std::invalid_argument("Amplifier: noise bandwidth must be > 0");
}

double Amplifier::power_gain() const { return db_to_lin(spec_.gain_db); }

double Amplifier::input_noise_power_w() const {
  const double f = db_to_lin(spec_.noise_figure_db);
  return kBoltzmann * kT0Kelvin * noise_bandwidth_hz_ * (f - 1.0);
}

dsp::Cvec Amplifier::process(std::span<const dsp::Complex> in, Rng& rng) const {
  const double amp_gain = std::sqrt(power_gain());
  const double sat_amp = std::sqrt(dbm_to_watt(spec_.p1db_out_dbm));
  // Input-referred noise: one dsp::awgn block (I then Q per sample, the
  // same draws as per-sample gaussian(sigma) pairs), overwritten in place.
  dsp::Cvec out = dsp::awgn(in.size(), input_noise_power_w(), rng);
  for (std::size_t i = 0; i < in.size(); ++i) {
    dsp::Complex s = in[i] + out[i];
    s *= amp_gain;
    // Soft limiter: amplitude compressed through tanh normalized to the
    // saturation level; linear within ~6 dB below P1dB.
    const double mag = std::abs(s);
    if (mag > 0.0) {
      const double compressed = sat_amp * std::tanh(mag / sat_amp);
      s *= compressed / mag;
    }
    out[i] = s;
  }
  return out;
}

Amplifier make_hmc751_lna(double noise_bandwidth_hz) {
  return Amplifier(AmplifierSpec{.gain_db = 25.0,
                                 .noise_figure_db = 2.0,
                                 .p1db_out_dbm = 10.0,
                                 .power_draw_w = 0.17},
                   noise_bandwidth_hz);
}

}  // namespace mmx::rf
