// Measurement oracles for tests of live DSP/PHY code: SNR against a known
// reference block, occupied bandwidth and in-band power fraction. Kept
// out of src/ because no simulation path needs them.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <utility>

#include "mmx/common/units.hpp"
#include "mmx/dsp/fft.hpp"
#include "mmx/dsp/types.hpp"

namespace mmx::measure {

using dsp::Complex;
using dsp::Rvec;

/// SNR [dB] of `received` against a known `reference` block, after fitting
/// a single complex gain (so absolute level and phase don't matter).
/// Returns a clamped 200 dB for a numerically perfect match.
inline double estimate_snr_db(std::span<const Complex> received,
                              std::span<const Complex> reference) {
  if (received.size() != reference.size() || received.empty())
    throw std::invalid_argument("estimate_snr_db: blocks must be equal-sized and non-empty");
  // Least-squares complex gain aligning the reference to the received block,
  // then SNR = |g.ref|^2 / |rx - g.ref|^2.
  Complex num{0.0, 0.0};
  double den = 0.0;
  for (std::size_t i = 0; i < received.size(); ++i) {
    num += received[i] * std::conj(reference[i]);
    den += std::norm(reference[i]);
  }
  if (den == 0.0) throw std::invalid_argument("estimate_snr_db: zero reference");
  const Complex g = num / den;
  double sig = 0.0;
  double err = 0.0;
  for (std::size_t i = 0; i < received.size(); ++i) {
    const Complex fit = g * reference[i];
    sig += std::norm(fit);
    err += std::norm(received[i] - fit);
  }
  if (err == 0.0) return 200.0;  // numerically noiseless; clamp
  return lin_to_db(sig / err);
}

/// Power spectrum reordered to ascending frequency with a matching
/// frequency axis.
inline std::pair<Rvec, Rvec> sorted_spectrum(std::span<const Complex> x, double fs) {
  const Rvec p = dsp::power_spectrum(x);
  const std::size_t n = p.size();
  Rvec power(n);
  Rvec freq(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Map bin k to its (negative-aware) frequency, then shift so index 0
    // is the most negative frequency.
    const std::size_t shifted = (k + n / 2) % n;
    power[k] = p[shifted];
    freq[k] = dsp::bin_frequency(shifted, n, fs);
  }
  return {power, freq};
}

struct ObwResult {
  double low_hz;        ///< lower edge of the occupied band
  double high_hz;       ///< upper edge
  double bandwidth_hz;  ///< high - low
  double center_hz;     ///< power centroid
};

/// x%-occupied bandwidth (default 99%): the narrowest frequency interval
/// (by trimming equal power tails) containing `fraction` of the signal
/// power. Needs >= 64 samples.
inline ObwResult occupied_bandwidth(std::span<const Complex> x, double sample_rate_hz,
                                    double fraction = 0.99) {
  if (x.size() < 64) throw std::invalid_argument("occupied_bandwidth: need >= 64 samples");
  if (fraction <= 0.0 || fraction >= 1.0)
    throw std::invalid_argument("occupied_bandwidth: fraction must be in (0, 1)");
  const auto [power, freq] = sorted_spectrum(x, sample_rate_hz);

  double total = 0.0;
  double centroid = 0.0;
  for (std::size_t k = 0; k < power.size(); ++k) {
    total += power[k];
    centroid += power[k] * freq[k];
  }
  if (total <= 0.0) throw std::invalid_argument("occupied_bandwidth: zero-power signal");
  centroid /= total;

  // Trim (1-fraction)/2 of the power from each tail.
  const double tail = total * (1.0 - fraction) / 2.0;
  std::size_t lo = 0;
  double acc = 0.0;
  while (lo < power.size() && acc + power[lo] < tail) acc += power[lo++];
  std::size_t hi = power.size() - 1;
  acc = 0.0;
  while (hi > lo && acc + power[hi] < tail) acc += power[hi--];

  return {freq[lo], freq[hi], freq[hi] - freq[lo], centroid};
}

/// Fraction of the signal power inside [low_hz, high_hz].
inline double power_in_band(std::span<const Complex> x, double sample_rate_hz, double low_hz,
                            double high_hz) {
  if (low_hz >= high_hz) throw std::invalid_argument("power_in_band: low must be < high");
  const auto [power, freq] = sorted_spectrum(x, sample_rate_hz);
  double total = 0.0;
  double in_band = 0.0;
  for (std::size_t k = 0; k < power.size(); ++k) {
    total += power[k];
    if (freq[k] >= low_hz && freq[k] <= high_hz) in_band += power[k];
  }
  if (total <= 0.0) throw std::invalid_argument("power_in_band: zero-power signal");
  return in_band / total;
}

}  // namespace mmx::measure
