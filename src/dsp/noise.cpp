#include "mmx/dsp/noise.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mmx/common/units.hpp"

namespace mmx::dsp {

namespace {

// Feeds `x` block by block with I/Q Gaussian pairs of per-component
// sigma sqrt(power_lin / 2), drawn through Rng::gaussian_n into a stack
// buffer (no allocation). `apply(sample, i, q)` sees the draws in the
// order per-sample `gaussian(sigma)` calls (I, then Q) would return them.
template <typename Apply>
void for_each_noise_sample(std::span<Complex> x, double power_lin, Rng& rng, Apply apply) {
  const double sigma = std::sqrt(power_lin / 2.0);
  constexpr std::size_t kBlock = 256;  // complex samples per gaussian_n call
  double g[2 * kBlock];
  for (std::size_t at = 0; at < x.size(); at += kBlock) {
    const std::size_t len = std::min(kBlock, x.size() - at);
    rng.gaussian_n(std::span<double>(g, 2 * len), sigma);
    for (std::size_t k = 0; k < len; ++k) apply(x[at + k], g[2 * k], g[2 * k + 1]);
  }
}

}  // namespace

void awgn_into(std::span<Complex> out, double power_lin, Rng& rng) {
  if (power_lin < 0.0) throw std::invalid_argument("awgn: power must be >= 0");
  for_each_noise_sample(out, power_lin, rng,
                        [](Complex& s, double i, double q) { s = Complex{i, q}; });
}

Cvec awgn(std::size_t n, double power_lin, Rng& rng) {
  Cvec out(n);
  awgn_into(out, power_lin, rng);
  return out;
}

void add_awgn(std::span<Complex> x, double power_lin, Rng& rng) {
  if (power_lin < 0.0) throw std::invalid_argument("add_awgn: power must be >= 0");
  for_each_noise_sample(x, power_lin, rng,
                        [](Complex& s, double i, double q) { s += Complex{i, q}; });
}

void add_awgn_snr(std::span<Complex> x, double snr_db, Rng& rng) {
  const double sig = mean_power(x);
  add_awgn(x, sig / db_to_lin(snr_db), rng);
}

}  // namespace mmx::dsp
