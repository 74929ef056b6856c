// Lockstep tests of the dsp AWGN generators (drawn through
// Rng::gaussian_n) against the frozen scalar generators on the frozen
// refrng::Rng (tests/reference/noise_ref.*): every sample bit-identical,
// and the generator left in the same state.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mmx/common/rng.hpp"
#include "mmx/dsp/noise.hpp"
#include "mmx/dsp/tone.hpp"
#include "noise_ref.hpp"

namespace mmx::dsp {
namespace {

// Around the 256-sample stack block (one 256-pair gaussian_n chunk) and
// its multiples, plus one frame of the fig11 operating point (1004
// symbols x 16 samples).
const std::size_t kLengths[] = {0,   1,   2,   3,   127, 128, 129,  255,
                                256, 257, 511, 512, 513, 1000, 16064};

std::size_t count_diffs(std::span<const Complex> a, std::span<const Complex> b) {
  if (a.size() != b.size()) return a.size() + b.size();
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diffs += std::bit_cast<std::uint64_t>(a[i].real()) != std::bit_cast<std::uint64_t>(b[i].real());
    diffs += std::bit_cast<std::uint64_t>(a[i].imag()) != std::bit_cast<std::uint64_t>(b[i].imag());
  }
  return diffs;
}

// Both generators continue identically after the call under test.
std::size_t state_diffs(Rng& a, refrng::Rng& r) {
  std::size_t diffs = 0;
  for (int i = 0; i < 3; ++i)
    diffs += std::bit_cast<std::uint64_t>(a.gaussian(0.9, -1.0)) !=
             std::bit_cast<std::uint64_t>(r.gaussian(0.9, -1.0));
  return diffs + (a.uniform() != r.uniform());
}

struct Generators {
  Rng lib;
  refrng::Rng ref;
  Generators(std::uint64_t seed, bool spare_pending) : lib(seed), ref(seed) {
    // One scalar draw leaves the second variate of its pair pending.
    if (spare_pending) {
      EXPECT_EQ(lib.gaussian(), ref.gaussian());
    }
  }
};

class AwgnLockstep : public ::testing::TestWithParam<bool> {};

TEST_P(AwgnLockstep, AddAwgnMatchesReference) {
  for (const double power : {1.0, 0.0, 2.5e-9}) {
    for (const std::size_t n : kLengths) {
      Generators g(Rng::derive_seed(7, n), GetParam());
      Cvec lib = tone(16e6, 1.5e6, n);
      Cvec ref = lib;
      add_awgn(lib, power, g.lib);
      refdsp::add_awgn(ref, power, g.ref);
      EXPECT_EQ(count_diffs(lib, ref), 0u) << "n=" << n << " power=" << power;
      EXPECT_EQ(state_diffs(g.lib, g.ref), 0u) << "n=" << n;
    }
  }
}

TEST_P(AwgnLockstep, AwgnIntoAndAwgnMatchReference) {
  for (const std::size_t n : kLengths) {
    Generators g(Rng::derive_seed(8, n), GetParam());
    Cvec lib(n, Complex{5.0, -5.0});  // awgn_into overwrites, never adds
    Cvec ref(n);
    awgn_into(lib, 2.5, g.lib);
    refdsp::awgn_into(ref, 2.5, g.ref);
    EXPECT_EQ(count_diffs(lib, ref), 0u) << "n=" << n;
    EXPECT_EQ(count_diffs(awgn(n, 0.3, g.lib), refdsp::awgn(n, 0.3, g.ref)), 0u) << "n=" << n;
    EXPECT_EQ(state_diffs(g.lib, g.ref), 0u) << "n=" << n;
  }
}

TEST_P(AwgnLockstep, AddAwgnSnrMatchesReference) {
  for (const double snr_db : {-5.0, 0.0, 20.0}) {
    for (const std::size_t n : kLengths) {
      Generators g(Rng::derive_seed(9, n), GetParam());
      Cvec lib = tone(16e6, -2e6, n);
      Cvec ref = lib;
      add_awgn_snr(lib, snr_db, g.lib);
      refdsp::add_awgn_snr(ref, snr_db, g.ref);
      EXPECT_EQ(count_diffs(lib, ref), 0u) << "n=" << n << " snr=" << snr_db;
      EXPECT_EQ(state_diffs(g.lib, g.ref), 0u) << "n=" << n;
    }
  }
}

TEST_P(AwgnLockstep, NegativePowerThrowsWithoutDrawing) {
  Generators g(11, GetParam());
  Cvec lib(10);
  Cvec ref(10);
  EXPECT_THROW(add_awgn(lib, -1.0, g.lib), std::invalid_argument);
  EXPECT_THROW(refdsp::add_awgn(ref, -1.0, g.ref), std::invalid_argument);
  EXPECT_THROW(awgn_into(lib, -1.0, g.lib), std::invalid_argument);
  EXPECT_THROW(refdsp::awgn_into(ref, -1.0, g.ref), std::invalid_argument);
  EXPECT_EQ(state_diffs(g.lib, g.ref), 0u);
}

INSTANTIATE_TEST_SUITE_P(SparePending, AwgnLockstep, ::testing::Bool());

}  // namespace
}  // namespace mmx::dsp
