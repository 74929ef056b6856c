// Voltage-controlled oscillator model.
//
// Models the HMC533 used by the mmX node (paper §8.1, Fig. 7): tuning
// voltage 3.5-4.9 V sweeps the carrier 23.95-24.25 GHz, covering the
// whole 24 GHz ISM band, with +12 dBm output power. The controller does
// FSK by nudging the tuning voltage (paper §6.3), so the model exposes
// both directions of the tuning curve.
#pragma once

#include "mmx/common/rng.hpp"

namespace mmx::rf {

struct VcoSpec {
  double v_min = 3.5;            ///< lowest usable tuning voltage [V]
  double v_max = 4.9;            ///< highest usable tuning voltage [V]
  double f_min_hz = 23.95e9;     ///< frequency at v_min [Hz]
  double f_max_hz = 24.25e9;     ///< frequency at v_max [Hz]
  double output_power_dbm = 12.0;  ///< carrier output power (HMC533: +12 dBm)
  double power_draw_w = 0.9;     ///< DC power draw [W]
  /// Curvature of the tuning characteristic: 0 = perfectly linear. Real
  /// varactors flatten toward the ends of the range; Fig. 7 shows a
  /// gentle S-shape. 0.12 reproduces that visually.
  double curvature = 0.12;
  /// RMS frequency jitter [Hz] representing close-in phase noise.
  double freq_jitter_hz = 0.0;
  /// Temperature coefficient [Hz/K]: free-running VCOs drift ~-1 MHz/K
  /// class figures.
  double temp_coefficient_hz_per_k = -1.0e6;
  /// Calibration temperature [K] at which the tuning curve is exact.
  double temp_ref_k = 298.0;
};

/// Static tuning-curve model with an exact inverse.
class Vco {
 public:
  explicit Vco(VcoSpec spec = {});

  /// Carrier frequency [Hz] for a tuning voltage. Throws if the voltage is
  /// outside [v_min, v_max].
  double frequency_hz(double tuning_v) const;

  /// Tuning voltage producing a requested frequency (inverse of
  /// `frequency_hz`). Throws if the frequency is outside the VCO range.
  double voltage_for(double freq_hz) const;

  /// Local tuning sensitivity Kv = df/dV [Hz/V] at a voltage.
  double sensitivity_hz_per_v(double tuning_v) const;

  /// True if `freq_hz` is reachable.
  bool covers(double freq_hz) const;

  /// Frequency with jitter applied (uses spec.freq_jitter_hz).
  double frequency_with_jitter_hz(double tuning_v, Rng& rng) const;

  /// Frequency at an ambient temperature [K]: the tuning curve shifted by
  /// the temperature coefficient. The AP's CFO estimator sees exactly
  /// this offset.
  double frequency_at_temperature_hz(double tuning_v, double temp_k) const;

  const VcoSpec& spec() const { return spec_; }

 private:
  /// Monotonic normalized tuning shape: maps u in [0,1] to [0,1].
  double shape(double u) const;
  double shape_inverse(double s) const;

  VcoSpec spec_;
};

}  // namespace mmx::rf
