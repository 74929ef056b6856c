#include "noise_ref.hpp"

#include <cmath>
#include <stdexcept>

#include "mmx/common/units.hpp"
#include "mmx/dsp/types.hpp"

namespace mmx::refdsp {

using dsp::mean_power;

void awgn_into(std::span<Complex> out, double power_lin, Rng& rng) {
  if (power_lin < 0.0) throw std::invalid_argument("awgn: power must be >= 0");
  const double sigma = std::sqrt(power_lin / 2.0);
  for (Complex& s : out) s = Complex{rng.gaussian(sigma), rng.gaussian(sigma)};
}

Cvec awgn(std::size_t n, double power_lin, Rng& rng) {
  Cvec out(n);
  awgn_into(out, power_lin, rng);
  return out;
}

void add_awgn(std::span<Complex> x, double power_lin, Rng& rng) {
  if (power_lin < 0.0) throw std::invalid_argument("add_awgn: power must be >= 0");
  const double sigma = std::sqrt(power_lin / 2.0);
  for (Complex& s : x) s += Complex{rng.gaussian(sigma), rng.gaussian(sigma)};
}

void add_awgn_snr(std::span<Complex> x, double snr_db, Rng& rng) {
  const double sig = mean_power(x);
  add_awgn(x, sig / db_to_lin(snr_db), rng);
}

}  // namespace mmx::refdsp
