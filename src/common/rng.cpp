#include "mmx/common/rng.hpp"

#include <algorithm>

namespace mmx {

void Rng::gaussian_n(std::span<double> out, double sigma) {
  constexpr double mean = 0.0;  // kept so the sum rounds as gaussian()'s does (-0.0 + 0.0)
  const std::size_t n = out.size();
  std::size_t i = 0;
  if (n > 0 && have_spare_) {
    have_spare_ = false;
    out[i++] = mean + sigma * spare_;
  }
  constexpr std::size_t kChunk = 256;  // accepted pairs per pass (10 KB of stack)
  constexpr std::int64_t kHalf = std::int64_t{1} << 52;
  std::uint64_t words[2 * kChunk];
  double us[kChunk];
  double vs[kChunk];
  double ss[kChunk];
  while (i < n) {
    const std::size_t left = n - i;
    const std::size_t pairs = std::min(kChunk, (left + 1) / 2);
    // Rejection sampling, one round per engine fill: a round that still
    // needs `want` pairs must try at least `want` candidates, so it draws
    // exactly 2 * want words and never more than the scalar loop would.
    // Every candidate is written at slot `got`, which only advances when
    // the candidate is accepted.
    std::size_t got = 0;
    while (got < pairs) {
      const std::size_t want = pairs - got;
      engine_.fill(std::span<std::uint64_t>(words, 2 * want));
      for (std::size_t c = 0; c < want; ++c) {
        // uniform(-1.0, 1.0) is -1 + k * 2^-52 for k = word >> 11, and
        // both of its roundings are exact; (k - 2^52) * 2^-52 is the same
        // value (+0.0 included) in one conversion and one multiply.
        const std::int64_t iu = static_cast<std::int64_t>(words[2 * c] >> 11) - kHalf;
        const std::int64_t iv = static_cast<std::int64_t>(words[2 * c + 1] >> 11) - kHalf;
        const double u = static_cast<double>(iu) * 0x1.0p-52;
        const double v = static_cast<double>(iv) * 0x1.0p-52;
        const double s = u * u + v * v;
        us[got] = u;
        vs[got] = v;
        ss[got] = s;
        // s == 0.0 exactly when u == v == 0 (u * u cannot underflow).
        got += static_cast<std::size_t>((s < 1.0) & ((iu | iv) != 0));
      }
    }
    const bool odd_tail = 2 * pairs > left;
    const std::size_t full = pairs - static_cast<std::size_t>(odd_tail);
    for (std::size_t k = 0; k < full; ++k) {
      const double m = std::sqrt(-2.0 * std::log(ss[k]) / ss[k]);
      const double spare = vs[k] * m;
      out[i] = mean + sigma * us[k] * m;
      out[i + 1] = mean + sigma * spare;
      i += 2;
    }
    if (odd_tail) {
      const double m = std::sqrt(-2.0 * std::log(ss[full]) / ss[full]);
      spare_ = vs[full] * m;
      have_spare_ = true;
      out[i++] = mean + sigma * us[full] * m;
    }
  }
}

}  // namespace mmx
