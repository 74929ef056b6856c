// Memoized per-node link state — the layer that makes "billions of
// things" reachable in wall-clock terms.
//
// NetworkSimulator re-traces rays on every gains()/link() call; at 10^4
// nodes that is the entire simulation budget. The cache keys each node's
// ray-traced result on (node pose, Room::epoch()) and invalidates with
// *exact* coherence:
//
//   - A pose change invalidates that node and nobody else (entries store
//     the pose they were computed at; a mismatch is a miss).
//   - A structural change (new reflector/partition) drops everything —
//     walls reshape every path.
//   - A blocker add/move/clear invalidates exactly the entries whose
//     wall-only paths the old or new disc touches. Blockers attenuate
//     paths but never create or bend them, so the blocker-free path set
//     (a trace with apply_blockers = false) is a sound superset of every
//     path a blocker configuration can influence: a disc that misses all
//     of its segments (node -> reflection points -> AP) provably leaves
//     the node's gains bit-identical, and the entry is revalidated for
//     free.
//
// Each entry stores that wall-only set as one PathRecord per path: the
// route (bounce walls, reflection points) and the pose-only beam term
// (Friis + atmospheric dB, phasor, AP element and beam fields). Both
// depend only on walls and pose, so a blocker delta marks the entry
// stale rather than erasing it, and its refill is a rescore, not a
// trace: re-apply the current blockers to each stored route, drop the
// paths over the loss cap, and sum the survivors' terms in stored order
// (channel::rescore_beam_gains). The new gains are committed into the
// existing entry in place. Only a full fill (new node, new pose, new
// walls) traces.
//
// Cached results are therefore bit-identical to uncached ones — the same
// guarantee the parallel sweep engine gives (docs/PARALLELISM.md), pinned
// by tests/sim/link_cache_test.cpp and docs/SCALING.md.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mmx/channel/beam_channel.hpp"
#include "mmx/channel/room.hpp"
#include "mmx/sim/link_budget.hpp"

namespace mmx::sim {

/// Per-instance counters. publish_obs() mirrors the totals onto the
/// global `mmx::obs` registry (`link_cache.*` counters, exported by the
/// bench harness's --obs dump) in one bulk add per run — the hit path
/// itself carries no instrumentation, so lookups cost the same with
/// observability enabled as disabled (the <2% budget in
/// docs/OBSERVABILITY.md).
struct LinkCacheStats {
  std::uint64_t hits = 0;         ///< lookups served from a valid entry
  std::uint64_t misses = 0;       ///< lookups that had to recompute
  std::uint64_t refills = 0;      ///< entries filled by batched refresh
  std::uint64_t revalidated = 0;  ///< entries kept across a geometry epoch
  std::uint64_t invalidated = 0;  ///< entries dropped (geometry or pose)

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }

  /// Add these totals onto the global obs counters (`link_cache.hits`,
  /// `.misses`, `.refills`, `.revalidated`, `.invalidated`). No-op when
  /// collection is disabled.
  void publish_obs() const;
};

class LinkCache {
 public:
  struct Entry {
    channel::Pose pose;                      ///< node pose the entry was computed at
    channel::BeamGains gains{};              ///< ray-traced per-beam channel gains
    std::vector<channel::PathRecord> paths;  ///< wall-only path superset (see header)
    OtamLink otam{};                         ///< memoized evaluate_otam result
    OtamLink fixed{};                        ///< memoized evaluate_fixed_beam result
    bool has_otam = false;
    bool has_fixed = false;
    /// Gains invalidated by a blocker delta. The path records are still
    /// valid (walls and pose unchanged), so a refill rescores them.
    bool stale = false;
  };

  /// `ap_position` is the far end of every cached path: with each entry's
  /// pose and reflection points it gives the segments a blocker delta
  /// is tested against.
  explicit LinkCache(Vec2 ap_position) : ap_(ap_position) {}

  /// Bring the cache in sync with `room`'s current epoch: no-op when the
  /// epoch is unchanged, otherwise drop exactly the entries the geometry
  /// delta can affect (see file header for the coherence argument).
  void reconcile(const channel::Room& room);

  /// Valid entry for (id, pose), or the stored one brought up to date.
  /// On a miss (absent, stale, or computed at another pose) a stale entry
  /// at the same pose takes `rescore(entry)` as its new gains in place;
  /// any other miss is replaced by `fill()`. Counts one hit or one miss.
  /// Call reconcile() first. A template, so the hit path (the
  /// simulator's link()/gains() hot path) builds no std::function.
  template <typename Fill, typename Rescore>
  Entry& ensure(std::uint16_t id, const channel::Pose& pose, Fill&& fill, Rescore&& rescore);

  /// True if a lookup for (id, pose) would hit. No stats side effects —
  /// this is the batched-refresh probe.
  bool valid(std::uint16_t id, const channel::Pose& pose) const;

  /// The entry stored for `id` (stale or not), nullptr if absent. No
  /// stats side effects; read-only, safe to call from refill workers.
  const Entry* find(std::uint16_t id) const;

  /// Commit a batch-computed full fill (counts toward `stats().refills`).
  void store_refill(std::uint16_t id, Entry entry);

  /// Commit a batch-rescored stale entry in place: new gains, the stored
  /// pose and path records kept (counts toward `stats().refills`).
  void store_rescore(std::uint16_t id, const channel::BeamGains& gains);

  void erase(std::uint16_t id);
  void clear();

  std::size_t size() const { return live_; }
  const LinkCacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  struct DirtyDisc {
    Vec2 center;
    double radius = 0.0;
  };

  /// True if any dirty disc touches a segment of the entry's wall-only
  /// paths (exact test behind a conservative bounding-box reject).
  bool touches(const Entry& entry, std::span<const DirtyDisc> dirty) const;
  void snapshot(const channel::Room& room);

  /// Pooled entry storage. NetworkSimulator issues ids densely and never
  /// reuses them, so churn pushes ids far past the live count: only the
  /// 4-byte index_ grows to the id horizon, while an erased entry's slot
  /// goes back on free_ for the next insert, so slots_ stays as large as
  /// the most entries ever live at once. A hit is two array reads (index,
  /// then slot) — at 10^4 entries a node-based map spends more time
  /// chasing pointers than the lookup saves.
  struct Slot {
    Entry entry;
    bool present = false;
  };
  /// Stored slot of `id`, nullptr if absent.
  Slot* slot_of(std::uint16_t id) {
    return id < index_.size() && index_[id] != 0 ? &slots_[index_[id] - 1] : nullptr;
  }
  const Slot* slot_of(std::uint16_t id) const {
    return id < index_.size() && index_[id] != 0 ? &slots_[index_[id] - 1] : nullptr;
  }
  /// Store `entry` for the absent id `id`, reusing a freed slot if any.
  Entry& insert(std::uint16_t id, Entry entry);

  Vec2 ap_;
  std::vector<std::uint32_t> index_;  ///< id -> slots_ position + 1; 0 = absent
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< slots_ positions of erased entries
  std::size_t live_ = 0;  ///< number of present slots
  bool primed_ = false;  ///< snapshot taken at least once
  std::uint64_t seen_epoch_ = 0;
  std::size_t seen_walls_ = 0;
  std::vector<channel::Blocker> seen_blockers_;
  LinkCacheStats stats_;
};

template <typename Fill, typename Rescore>
LinkCache::Entry& LinkCache::ensure(std::uint16_t id, const channel::Pose& pose, Fill&& fill,
                                    Rescore&& rescore) {
  Slot* slot = slot_of(id);
  if (slot != nullptr && slot->entry.pose == pose) {
    if (!slot->entry.stale) {
      ++stats_.hits;
      return slot->entry;
    }
    ++stats_.misses;
    slot->entry.gains = rescore(static_cast<const Entry&>(slot->entry));
    slot->entry.stale = false;
    return slot->entry;
  }
  ++stats_.misses;
  if (slot == nullptr) return insert(id, fill());
  if (!slot->entry.stale) ++stats_.invalidated;  // pose moved under a live entry
  slot->entry = fill();
  return slot->entry;
}

}  // namespace mmx::sim
