// Lockstep differential fuzz for mac::FdmAllocator (ctest label: overload).
//
// The library allocator keeps its channels in a gap index (position and
// fit treaps); the oracle in tests/reference/ is the frozen pre-index
// allocator that copies and sorts the occupied set on every query. Both
// are driven with the same random allocate / release / restore /
// transfer / compact / policy-switch sequence, and after every op they
// must agree bit for bit on the op's result, the allocation map and every
// derived figure (largest gap, fragmentation, free bandwidth, compacted
// headroom), while the library's audit() finds its index consistent
// (placement_checks.hpp).
// Each lane asserts it reached every op's interesting outcomes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "fdm_allocator_ref.hpp"
#include "mmx/common/rng.hpp"
#include "mmx/mac/allocator.hpp"
#include "placement_checks.hpp"

namespace mmx::mac {
namespace {

struct Lane {
  AllocPolicy policy = AllocPolicy::kFirstFit;
  double guard_hz = 1e6;
  int max_id = 40;
  double max_bw_hz = 60e6;  ///< widths drawn up to this on a 250 MHz band
  int episodes = 300;
  int ops_per_episode = 400;
  std::uint64_t seed = 0;
};

struct Coverage {
  int hole_fills = 0;  ///< allocations placed below the highest channel
  int full_denies = 0;
  int compactions = 0;
  int restores = 0;
  int refused_restores = 0;
  int transfers = 0;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult same_state(const FdmAllocator& lib, const refmac::FdmAllocator& ref) {
  if (lib.allocations() != ref.allocations())
    return ::testing::AssertionFailure() << "allocation maps differ";
  if (!same_bits(lib.largest_gap_hz(), ref.largest_gap_hz()))
    return ::testing::AssertionFailure()
           << "largest_gap_hz " << lib.largest_gap_hz() << " vs " << ref.largest_gap_hz();
  if (!same_bits(lib.fragmentation(), ref.fragmentation()))
    return ::testing::AssertionFailure()
           << "fragmentation " << lib.fragmentation() << " vs " << ref.fragmentation();
  if (!same_bits(lib.free_bandwidth_hz(), ref.free_bandwidth_hz()))
    return ::testing::AssertionFailure() << "free_bandwidth_hz differs";
  if (!same_bits(lib.compacted_headroom_hz(), ref.compacted_headroom_hz()))
    return ::testing::AssertionFailure() << "compacted_headroom_hz differs";
  if (const std::uint64_t bad = lib.audit(); bad != placement_violations(ref))
    return ::testing::AssertionFailure()
           << "audit found " << bad << ", placement checks alone " << placement_violations(ref);
  return ::testing::AssertionSuccess();
}

/// Widths on a power-of-two grid (equal gaps, so best-fit ties toward
/// the low edge are exercised) mixed with arbitrary ones.
double draw_bw(Rng& rng, double max_bw_hz) {
  if (rng.chance(0.5)) return max_bw_hz / static_cast<double>(1 << rng.uniform_int(0, 5));
  return rng.uniform(0.2e6, max_bw_hz);
}

void run_lane(const Lane& lane, Coverage& cov) {
  constexpr double kLow = 24.0e9;
  constexpr double kHigh = 24.25e9;
  for (int ep = 0; ep < lane.episodes; ++ep) {
    Rng rng = Rng::stream(lane.seed, static_cast<std::uint64_t>(ep));
    FdmAllocator lib(kLow, kHigh, lane.guard_hz, lane.policy);
    refmac::FdmAllocator ref(kLow, kHigh, lane.guard_hz, lane.policy);
    // Channels seen so far: restore candidates that are often free again.
    std::vector<ChannelAllocation> seen;
    auto draw_id = [&] { return static_cast<std::uint16_t>(rng.uniform_int(1, lane.max_id)); };

    for (int op = 0; op < lane.ops_per_episode; ++op) {
      const std::string where = "episode " + std::to_string(ep) + " op " + std::to_string(op);
      const int kind = rng.uniform_int(0, 99);
      if (kind < 45) {
        const std::uint16_t id = draw_id();
        if (ref.lookup(id)) {
          ASSERT_EQ(lib.release(id), ref.release(id)) << where << ": release before allocate";
        }
        const double bw = draw_bw(rng, lane.max_bw_hz);
        const double top_before = ref.largest_gap_hz();
        const auto want = ref.allocate(id, bw);
        ASSERT_EQ(lib.allocate(id, bw), want) << where << ": allocate";
        if (want) {
          seen.push_back(*want);
          bool below_some = false;
          for (const auto& [other, ch] : ref.allocations())
            below_some = below_some || (other != id && ch.low_hz() > want->high_hz());
          cov.hole_fills += below_some ? 1 : 0;
        } else if (top_before < bw) {
          ++cov.full_denies;
        }
      } else if (kind < 70) {
        const std::uint16_t id = draw_id();
        ASSERT_EQ(lib.release(id), ref.release(id)) << where << ": release";
      } else if (kind < 82) {
        const std::uint16_t id = draw_id();
        ChannelAllocation ch;
        if (!seen.empty() && rng.chance(0.8)) {
          ch = seen[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(seen.size()) - 1))];
        } else {
          ch.bandwidth_hz = draw_bw(rng, lane.max_bw_hz);
          ch.center_hz = rng.uniform(kLow, kHigh);
        }
        const bool want = ref.restore(id, ch);
        ASSERT_EQ(lib.restore(id, ch), want) << where << ": restore";
        (want ? cov.restores : cov.refused_restores) += 1;
      } else if (kind < 92) {
        const std::uint16_t from = draw_id();
        const std::uint16_t to = draw_id();
        const bool want = ref.transfer(from, to);
        ASSERT_EQ(lib.transfer(from, to), want) << where << ": transfer";
        cov.transfers += want ? 1 : 0;
      } else if (kind < 98) {
        const std::vector<RetuneEvent> want = ref.compact();
        ASSERT_EQ(lib.compact(), want) << where << ": compact";
        cov.compactions += want.empty() ? 0 : 1;
      } else {
        const AllocPolicy flip = ref.policy() == AllocPolicy::kFirstFit ? AllocPolicy::kBestFit
                                                                        : AllocPolicy::kFirstFit;
        ref.set_policy(flip);
        lib.set_policy(flip);
      }
      ASSERT_TRUE(same_state(lib, ref)) << where;
    }
  }
}

void expect_covered(const Coverage& cov) {
  EXPECT_GT(cov.hole_fills, 0);
  EXPECT_GT(cov.full_denies, 0);
  EXPECT_GT(cov.compactions, 0);
  EXPECT_GT(cov.restores, 0);
  EXPECT_GT(cov.refused_restores, 0);
  EXPECT_GT(cov.transfers, 0);
}

TEST(AllocatorLockstep, FirstFitWithGuardMatchesReference) {
  Coverage cov;
  run_lane(Lane{.seed = 0xA110C1}, cov);
  if (HasFatalFailure()) return;
  expect_covered(cov);
}

TEST(AllocatorLockstep, BestFitWithGuardMatchesReference) {
  Coverage cov;
  run_lane(Lane{.policy = AllocPolicy::kBestFit, .seed = 0xA110C2}, cov);
  if (HasFatalFailure()) return;
  expect_covered(cov);
}

TEST(AllocatorLockstep, FirstFitWithoutGuardMatchesReference) {
  Coverage cov;
  run_lane(Lane{.guard_hz = 0.0, .seed = 0xA110C3}, cov);
  if (HasFatalFailure()) return;
  expect_covered(cov);
}

TEST(AllocatorLockstep, BestFitWithoutGuardMatchesReference) {
  Coverage cov;
  run_lane(Lane{.policy = AllocPolicy::kBestFit, .guard_hz = 0.0, .seed = 0xA110C4}, cov);
  if (HasFatalFailure()) return;
  expect_covered(cov);
}

TEST(AllocatorLockstep, DeepIndexMatchesReference) {
  // 400 ids of narrow channels: a few hundred residents, so the treaps
  // are many levels deep and every descent takes both turns.
  Coverage cov;
  run_lane(Lane{.policy = AllocPolicy::kBestFit,
                .max_id = 400,
                .max_bw_hz = 2e6,
                .episodes = 12,
                .ops_per_episode = 4000,
                .seed = 0xA110C5},
           cov);
  if (HasFatalFailure()) return;
  expect_covered(cov);
}

}  // namespace
}  // namespace mmx::mac
