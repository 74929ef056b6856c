// The placement half of FdmAllocator::audit() recomputed from an oracle's
// allocation map, for the lockstep fuzzes: a channel outside the band, or
// one starting inside the guard above its lower neighbour, counts once
// (1e-6 Hz tolerance, as the overload paths' invariant check has always
// used). Such findings can occur on legal states — restore() accepts a
// channel up to ~1e-9 of the band inside a guard, and compaction's exact
// slide can land one ulp (~4e-6 Hz at 24 GHz) inside — so the fuzzes
// demand audit() == this count: the index part of the audit must be 0.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mmx/mac/allocator.hpp"

namespace mmx::mac {

template <class Allocator>
std::uint64_t placement_violations(const Allocator& a) {
  std::vector<ChannelAllocation> used;
  for (const auto& [id, ch] : a.allocations()) used.push_back(ch);
  std::sort(used.begin(), used.end(),
            [](const auto& x, const auto& y) { return x.low_hz() < y.low_hz(); });
  constexpr double kEps = 1e-6;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (used[i].low_hz() < a.band_low_hz() - kEps || used[i].high_hz() > a.band_high_hz() + kEps)
      ++bad;
    if (i > 0 && used[i].low_hz() + kEps < used[i - 1].high_hz() + a.guard_hz()) ++bad;
  }
  return bad;
}

}  // namespace mmx::mac
