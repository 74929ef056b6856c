// Lockstep tests of the library Rng (in-repo MT19937-64 engine, batched
// gaussian_n) against std::mt19937_64 and the frozen refrng::Rng
// (tests/reference/rng_ref.hpp): every draw must be bit-identical.
#include "mmx/common/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <climits>
#include <cstdint>
#include <random>
#include <vector>

#include "rng_ref.hpp"

static_assert(sizeof(mmx::Rng) == sizeof(mmx::refrng::Rng));
static_assert(sizeof(mmx::Mt19937_64) == sizeof(std::mt19937_64));  // mmx-analyze: allow(rng-discipline) -- the libstdc++ engine is the oracle
static_assert(std::uniform_random_bit_generator<mmx::Mt19937_64>);

namespace mmx {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// 0, the benchmark seed, 2^64-1 and eight counter-derived stream seeds.
std::vector<std::uint64_t> seeds() {
  std::vector<std::uint64_t> s = {0, 4242, ~std::uint64_t{0}};
  for (std::uint64_t k = 0; k < 8; ++k) s.push_back(Rng::derive_seed(4242, k));
  return s;
}

TEST(RngLockstep, EngineMatchesStdMt19937_64) {
  constexpr std::size_t kDraws = 10'000'000;
  for (const std::uint64_t seed : seeds()) {
    Mt19937_64 mine(seed);
    std::mt19937_64 ref(seed);  // mmx-analyze: allow(rng-discipline) -- the libstdc++ engine is the oracle
    std::size_t first_diff = kDraws;
    for (std::size_t i = 0; i < kDraws; ++i) {
      if (mine() != ref()) {
        first_diff = i;
        break;
      }
    }
    EXPECT_EQ(first_diff, kDraws) << "seed " << seed;
  }
}

// Each draw method on its own, then all of them interleaved, so spare
// hand-offs between gaussian() and the other draws are covered.
TEST(RngLockstep, DrawSequencesMatchReference) {
  constexpr int kOps = 200'000;
  for (const std::uint64_t seed : seeds()) {
    Rng a(seed);
    refrng::Rng b(seed);
    int diffs = 0;
    for (int i = 0; i < kOps; ++i) diffs += bits(a.uniform()) != bits(b.uniform());
    for (int i = 0; i < kOps; ++i)
      diffs += bits(a.uniform(-3.0, 5.5)) != bits(b.uniform(-3.0, 5.5));
    for (int i = 0; i < kOps; ++i) diffs += a.uniform_int(0, 4) != b.uniform_int(0, 4);
    for (int i = 0; i < kOps; ++i)
      diffs += a.uniform_int(INT_MIN, INT_MAX) != b.uniform_int(INT_MIN, INT_MAX);
    for (int i = 0; i < kOps; ++i) diffs += bits(a.gaussian()) != bits(b.gaussian());
    for (int i = 0; i < kOps; ++i) diffs += a.chance(0.3) != b.chance(0.3);
    for (int i = 0; i < kOps; ++i) {
      const double sigma = 0.25 * (i % 7);
      switch (i % 6) {
        case 0: diffs += bits(a.uniform(-1.0, 1.0)) != bits(b.uniform(-1.0, 1.0)); break;
        case 1: diffs += a.uniform_int(-1000, 1'000'000) != b.uniform_int(-1000, 1'000'000); break;
        case 2: diffs += bits(a.gaussian(sigma, -2.5)) != bits(b.gaussian(sigma, -2.5)); break;
        case 3: diffs += a.chance(0.5) != b.chance(0.5); break;
        case 4: diffs += bits(a.gaussian(sigma)) != bits(b.gaussian(sigma)); break;
        default: diffs += a.uniform_int(3, 3) != b.uniform_int(3, 3); break;
      }
    }
    Rng fa = a.fork();
    refrng::Rng fb = b.fork();
    for (int i = 0; i < 1000; ++i) diffs += bits(fa.gaussian()) != bits(fb.gaussian());
    for (int i = 0; i < 1000; ++i) diffs += bits(a.uniform()) != bits(b.uniform());
    Rng sa = Rng::stream(seed, 17);
    refrng::Rng sb = refrng::Rng::stream(seed, 17);
    for (int i = 0; i < 1000; ++i) diffs += bits(sa.uniform()) != bits(sb.uniform());
    EXPECT_EQ(diffs, 0) << "seed " << seed;
  }
}

// gaussian_n(out, sigma) against out.size() scalar gaussian(sigma) calls
// on both the library and the reference, at every length through several
// 256-pair chunks, entered with and without a spare pending. The draws
// after the batch (another sigma and a mean, then a uniform) check the
// state left behind, including the spare an odd tail leaves.
TEST(RngLockstep, GaussianNMatchesScalarCallsAtEveryLength) {
  constexpr std::size_t kMaxLen = 1100;
  std::vector<double> batch(kMaxLen);
  for (const bool spare_pending : {false, true}) {
    for (std::size_t n = 0; n <= kMaxLen; ++n) {
      const std::uint64_t seed = Rng::derive_seed(99, n);
      Rng a(seed);
      Rng b(seed);
      refrng::Rng r(seed);
      if (spare_pending) {
        const double ga = a.gaussian(0.7);
        ASSERT_EQ(bits(ga), bits(b.gaussian(0.7)));
        ASSERT_EQ(bits(ga), bits(r.gaussian(0.7)));
      }
      a.gaussian_n(std::span<double>(batch.data(), n), 1.9);
      std::size_t diffs = 0;
      for (std::size_t k = 0; k < n; ++k) {
        const double want = r.gaussian(1.9);
        diffs += bits(batch[k]) != bits(b.gaussian(1.9));
        diffs += bits(batch[k]) != bits(want);
      }
      for (int k = 0; k < 3; ++k) {
        const double want = r.gaussian(0.3, 4.0);
        diffs += bits(a.gaussian(0.3, 4.0)) != bits(want);
        diffs += bits(b.gaussian(0.3, 4.0)) != bits(want);
      }
      diffs += bits(a.uniform()) != bits(r.uniform());
      ASSERT_EQ(diffs, 0u) << "length " << n << (spare_pending ? " with" : " without")
                           << " a spare pending";
    }
  }
}

// Batches of varying sigma (zero included) and odd lengths back to back,
// interleaved with scalar calls: each spare must be scaled by the sigma
// of the call that consumes it, as with scalar gaussian().
TEST(RngLockstep, GaussianNInterleavedSigmasMatchReference) {
  const double sigmas[] = {1.0, 0.0, 3.5, 1e-6, 0.5, 2.0};
  std::vector<double> batch(700);
  for (const std::uint64_t seed : seeds()) {
    Rng a(seed);
    refrng::Rng r(seed);
    refrng::Rng lengths(seed ^ 0x5a5a);
    std::size_t diffs = 0;
    for (int round = 0; round < 300; ++round) {
      const double sigma = sigmas[round % 6];
      const std::size_t n = static_cast<std::size_t>(lengths.uniform_int(0, 699));
      a.gaussian_n(std::span<double>(batch.data(), n), sigma);
      for (std::size_t k = 0; k < n; ++k) diffs += bits(batch[k]) != bits(r.gaussian(sigma));
      if (round % 3 == 0) diffs += bits(a.gaussian(0.8, 1.0)) != bits(r.gaussian(0.8, 1.0));
    }
    EXPECT_EQ(diffs, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mmx
