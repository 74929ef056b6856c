// Frozen reference copy of mac::FdmAllocator from before the gap index
// (every allocate / largest_gap_hz / fragmentation call copies and sorts
// the occupied set; compact sorts again). Kept verbatim apart from the
// namespace; the plain value types (ChannelAllocation, AllocPolicy,
// RetuneEvent) and required_bandwidth_hz are the library's, so results
// compare with ==. The allocator lockstep fuzz
// (tests/mac/allocator_lockstep_test.cpp), refmac::InitProtocol and
// bench/micro_mac run on it. Do not edit: a change here weakens the
// oracle.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "mmx/mac/allocator.hpp"

namespace mmx::refmac {

using mac::AllocPolicy;
using mac::ChannelAllocation;
using mac::RetuneEvent;

class FdmAllocator {
 public:
  /// Band [low, high] with `guard_hz` kept between adjacent channels.
  FdmAllocator(double band_low_hz, double band_high_hz, double guard_hz = 1e6,
               AllocPolicy policy = AllocPolicy::kFirstFit);

  /// Allocate per the configured policy. Returns nullopt when no
  /// contiguous gap fits (compact() may still make room — see
  /// compacted_headroom_hz()).
  std::optional<ChannelAllocation> allocate(std::uint16_t node_id, double bandwidth_hz);

  /// Release a node's channel; false if the node held none.
  bool release(std::uint16_t node_id);

  /// Re-insert exactly `ch` for `node_id` (undo of a release; the exact
  /// modify_rate restore path). False if the node already holds a
  /// channel or `ch` would leave the band or violate a guard.
  bool restore(std::uint16_t node_id, const ChannelAllocation& ch);

  /// Hand `from`'s channel to `to` unchanged (SDM ownership succession:
  /// when a shared channel's allocator owner leaves, a remaining member
  /// adopts the spectrum instead of it being freed under them). False if
  /// `from` holds nothing or `to` already holds a channel.
  bool transfer(std::uint16_t from, std::uint16_t to);

  /// Slide every channel down-band (ascending frequency order: first
  /// channel to the band edge, each next one guard-distance above its
  /// predecessor) so all free spectrum coalesces into one top-of-band
  /// gap. Bandwidths never change. Returns one RetuneEvent per moved
  /// channel, in ascending frequency order — the AP turns these into
  /// re-tune notifications over the side channel. Deterministic.
  std::vector<RetuneEvent> compact();

  std::optional<ChannelAllocation> lookup(std::uint16_t node_id) const;

  /// Total un-allocated spectrum: band width minus the sum of allocated
  /// bandwidths, i.e. the sum of all raw gap widths. Deliberately blind
  /// to fragmentation and guards — a demand of this size may still be
  /// unplaceable; see largest_gap_hz() and fragmentation().
  double free_bandwidth_hz() const;

  /// Largest single allocatable channel right now (respects guards
  /// against both gap neighbours; band edges need no guard). 0 when the
  /// band is full or every gap is narrower than its guard overhead; the
  /// full band width when empty.
  double largest_gap_hz() const;

  /// How much of the free spectrum is unusable as one block:
  /// 1 - widest_raw_gap / free_bandwidth. 0 when the band is empty or
  /// all free spectrum is contiguous; -> 1 as the free space shatters.
  /// 0 when nothing is free (a full band is not fragmented). Raw gap
  /// widths (guards not subtracted) keep the ratio consistent with
  /// free_bandwidth_hz().
  double fragmentation() const;

  /// Largest channel allocatable after a compact(): the single
  /// top-of-band gap a fully slid band leaves, minus the one guard the
  /// new channel needs against its down-band neighbour. This is the
  /// admission controller's "would compaction help?" test.
  double compacted_headroom_hz() const;

  std::size_t num_allocations() const { return by_node_.size(); }
  const std::map<std::uint16_t, ChannelAllocation>& allocations() const { return by_node_; }

  AllocPolicy policy() const { return policy_; }
  void set_policy(AllocPolicy p) { policy_ = p; }

  double band_low_hz() const { return low_; }
  double band_high_hz() const { return high_; }
  double guard_hz() const { return guard_; }

 private:
  /// Occupied intervals sorted by low edge.
  std::vector<ChannelAllocation> sorted_used() const;

  double low_;
  double high_;
  double guard_;
  AllocPolicy policy_;
  std::map<std::uint16_t, ChannelAllocation> by_node_;
};

}  // namespace mmx::refmac
