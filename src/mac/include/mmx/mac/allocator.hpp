// FDM channel allocation (paper §7a).
//
// "mmX divides the available spectrum between nodes depending on their
// data rate demand... The channels are specified by the AP to each node
// in the initialization stage." The allocator manages the 250 MHz ISM
// band as a 1-D free list with guard bands, sized per node from its rate
// demand and the modulation's spectral efficiency.
//
// Under churn the band fragments: departures punch holes first-fit
// placement cannot reuse for wider demands. The overload-control path
// (docs/ROBUSTNESS.md) therefore adds best-fit placement and an explicit
// compact() that slides every grant down-band — both deterministic, so
// an AP replaying the same request sequence produces the same spectrum
// map bit for bit.
//
// The occupied channels are kept permanently sorted in a gap index: two
// treaps over one slot per channel, one by position (low edge) carrying
// the subtree's widest gap, one by (gap width, position). First-fit,
// best-fit and largest_gap_hz() are O(log n) descents, and every gap is
// the same floating-point expression the historical sort-and-walk
// computed, so the chosen channels match it bit for bit (pinned by the
// allocator lockstep fuzz against tests/reference/).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

namespace mmx::mac {

struct ChannelAllocation {
  double center_hz = 0.0;
  double bandwidth_hz = 0.0;

  double low_hz() const { return center_hz - bandwidth_hz / 2.0; }
  double high_hz() const { return center_hz + bandwidth_hz / 2.0; }
  bool operator==(const ChannelAllocation&) const = default;
};

/// Bandwidth a node needs for `rate_bps` with OTAM's ASK-FSK modulation.
/// OOK-style signalling occupies ~(1/efficiency) Hz per bit/s, plus the
/// FSK tone spread.
double required_bandwidth_hz(double rate_bps, double spectral_efficiency = 0.8);

/// Gap-selection policy. kFirstFit is the historical behavior (lowest
/// fitting gap) and stays the default so pre-overload request sequences
/// replay bit-identically; kBestFit takes the tightest fitting gap
/// (ties broken toward the band's low edge), which keeps large gaps
/// intact under churn and is what the overload controller enables.
enum class AllocPolicy : std::uint8_t { kFirstFit, kBestFit };

/// One channel moved by compact(): the holder must re-tune from `from`
/// to `to` (same bandwidth, lower center).
struct RetuneEvent {
  std::uint16_t node_id = 0;
  ChannelAllocation from;
  ChannelAllocation to;
  bool operator==(const RetuneEvent&) const = default;
};

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

  /// Inconsistencies between the gap index and a recomputation from
  /// allocations() (order, low edges, every gap, the widest-gap
  /// augmentation, the fit order, the top-of-band gap), plus channels
  /// that leave the band or overlap a neighbour's guard. 0 when sound.
  std::uint64_t audit() const;

 private:
  /// One occupied channel in the gap index. `gap` is the usable width of
  /// the gap just below the channel: (low - guard) - cursor, where cursor
  /// is the predecessor's high edge plus the guard, or the band's low
  /// edge for the lowest channel.
  struct Slot {
    double low = 0.0;      ///< ChannelAllocation::low_hz(), the position key
    double gap = 0.0;
    double max_gap = 0.0;  ///< widest `gap` in this slot's position subtree
    std::int32_t left = -1;  ///< position treap: (low, id)
    std::int32_t right = -1;
    std::int32_t fit_left = -1;  ///< fit treap: (gap, low, id)
    std::int32_t fit_right = -1;
    std::uint16_t id = 0;
  };

  // Treap operations, on the position treap (kFit = false) or the fit
  // treap (kFit = true).
  template <bool kFit>
  std::int32_t& left_of(std::int32_t t);
  template <bool kFit>
  std::int32_t& right_of(std::int32_t t);
  template <bool kFit>
  bool before(std::int32_t a, std::int32_t b) const;
  template <bool kFit>
  std::pair<std::int32_t, std::int32_t> split(std::int32_t t, std::int32_t key);
  template <bool kFit>
  std::int32_t merge(std::int32_t a, std::int32_t b);
  template <bool kFit>
  std::int32_t insert(std::int32_t t, std::int32_t x);
  template <bool kFit>
  std::int32_t erase(std::int32_t t, std::int32_t x);
  /// Recompute max_gap on the position path from `t` down to `x`.
  void repull(std::int32_t t, std::int32_t x);
  void pull(std::int32_t t);

  /// Slot holding (low, id) in the position treap; -1 if none.
  std::int32_t find_slot(double low, std::uint16_t id) const;
  /// Neighbours of slot `x` by position (x itself need not be linked).
  std::int32_t predecessor(std::int32_t x) const;
  std::int32_t successor(std::int32_t x) const;
  /// Highest channel's slot; -1 when the band is empty.
  std::int32_t last_slot() const;
  /// Where the gap above slot `t` starts (its high edge plus the guard);
  /// the band's low edge for t = -1.
  double cursor_after(std::int32_t t) const;
  /// Re-key slot `x` (or the top-of-band gap for x = -1) to the gap that
  /// now starts at `cursor`.
  void set_gap_below(std::int32_t x, double cursor);
  void index_insert(std::uint16_t node_id, const ChannelAllocation& ch);
  void index_erase(std::uint16_t node_id, const ChannelAllocation& ch);
  void rebuild_index();
  /// Slots in position (kFit = false) or fit order.
  template <bool kFit>
  std::vector<std::int32_t> in_order() const;

  double low_;
  double high_;
  double guard_;
  AllocPolicy policy_;
  std::map<std::uint16_t, ChannelAllocation> by_node_;
  std::deque<Slot> slots_;
  std::vector<std::int32_t> free_slots_;
  std::int32_t pos_root_ = -1;
  std::int32_t fit_root_ = -1;
  /// Usable gap between the highest channel and the band's top edge (no
  /// guard there); the whole band when empty.
  double top_gap_ = 0.0;
};

}  // namespace mmx::mac
