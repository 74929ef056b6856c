#include "mmx/dsp/types.hpp"

#include <cmath>
#include <stdexcept>

namespace mmx::dsp {

double mean_power(std::span<const Complex> x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (const Complex& s : x) acc += std::norm(s);
  return acc / static_cast<double>(x.size());
}

double rms(std::span<const Complex> x) { return std::sqrt(mean_power(x)); }

void set_mean_power(std::span<Complex> x, double target_power_lin) {
  const double p = mean_power(x);
  if (p == 0.0) return;
  const double g = std::sqrt(target_power_lin / p);
  for (Complex& s : x) s *= g;
}

void add_into(std::span<Complex> a, std::span<const Complex> b) {
  if (a.size() != b.size()) throw std::invalid_argument("add_into: size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

Rvec magnitudes(std::span<const Complex> x) {
  Rvec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::abs(x[i]);
  return out;
}

}  // namespace mmx::dsp
