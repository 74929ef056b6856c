#include "mmx/sim/link_cache.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "mmx/obs/obs.hpp"

namespace mmx::sim {

void LinkCacheStats::publish_obs() const {
  MMX_OBS_COUNT("link_cache.hits", hits);
  MMX_OBS_COUNT("link_cache.misses", misses);
  MMX_OBS_COUNT("link_cache.refills", refills);
  MMX_OBS_COUNT("link_cache.revalidated", revalidated);
  MMX_OBS_COUNT("link_cache.invalidated", invalidated);
}

void LinkCache::snapshot(const channel::Room& room) {
  seen_epoch_ = room.epoch();
  seen_walls_ = room.walls().size();
  seen_blockers_ = room.blockers();
  primed_ = true;
}

bool LinkCache::touches(const Entry& entry, std::span<const DirtyDisc> dirty) const {
  for (const channel::PathRecord& r : entry.paths) {
    std::array<Vec2, 4> waypoint{};
    std::size_t count = 0;
    waypoint[count++] = entry.pose.position;
    const channel::PathKind kind = r.route.kind();
    if (kind != channel::PathKind::kLineOfSight) {
      waypoint[count++] = r.route.via;
      if (kind == channel::PathKind::kDoubleReflected) waypoint[count++] = r.route.via2;
    }
    waypoint[count++] = ap_;
    for (std::size_t i = 0; i + 1 < count; ++i) {
      const Vec2 a = waypoint[i];
      const Vec2 b = waypoint[i + 1];
      // A disc the exact test hits has a point within its radius on the
      // segment, so it overlaps the segment's bounding box. The slack
      // (far above the ~1e-16 relative rounding of the exact test's
      // closest point and distance) keeps the reject conservative: it
      // only skips discs the exact test would miss, so the invalidation
      // decisions are unchanged.
      const double slack =
          1e-9 * (1.0 + std::abs(a.x) + std::abs(a.y) + std::abs(b.x) + std::abs(b.y));
      const double minx = std::min(a.x, b.x) - slack;
      const double maxx = std::max(a.x, b.x) + slack;
      const double miny = std::min(a.y, b.y) - slack;
      const double maxy = std::max(a.y, b.y) + slack;
      for (const DirtyDisc& d : dirty) {
        const double reach = d.radius * (1.0 + 1e-9);
        if (d.center.x + reach < minx || d.center.x - reach > maxx ||
            d.center.y + reach < miny || d.center.y - reach > maxy)
          continue;
        if (segment_hits_disc(a, b, d.center, d.radius)) return true;
      }
    }
  }
  return false;
}

void LinkCache::reconcile(const channel::Room& room) {
  if (!primed_) {
    snapshot(room);
    return;
  }
  if (room.epoch() == seen_epoch_) return;

  if (room.walls().size() != seen_walls_) {
    // Structural change: every path may have moved.
    clear();
    snapshot(room);
    return;
  }

  // Blocker delta: old and new discs of every changed blocker are the
  // only regions whose crossings (and hence losses) can have changed.
  std::vector<DirtyDisc> dirty;
  const auto& now = room.blockers();
  const std::size_t common = std::min(now.size(), seen_blockers_.size());
  for (std::size_t i = 0; i < common; ++i) {
    const channel::Blocker& was = seen_blockers_[i];
    if (was.center == now[i].center && was.radius == now[i].radius &&
        was.loss_db == now[i].loss_db)
      continue;
    dirty.push_back({was.center, was.radius});
    dirty.push_back({now[i].center, now[i].radius});
  }
  for (std::size_t i = common; i < now.size(); ++i) dirty.push_back({now[i].center, now[i].radius});
  for (std::size_t i = common; i < seen_blockers_.size(); ++i)
    dirty.push_back({seen_blockers_[i].center, seen_blockers_[i].radius});

  for (Slot& slot : slots_) {
    if (!slot.present) continue;
    Entry& entry = slot.entry;
    if (entry.stale) continue;  // already invalid; nothing new to learn
    if (touches(entry, dirty)) {
      // Path records stay (walls and pose unchanged); only gains are dirty.
      entry.stale = true;
      entry.has_otam = false;
      entry.has_fixed = false;
      ++stats_.invalidated;
    } else {
      ++stats_.revalidated;
    }
  }
  snapshot(room);
}

bool LinkCache::valid(std::uint16_t id, const channel::Pose& pose) const {
  const Slot* slot = slot_of(id);
  return slot != nullptr && !slot->entry.stale && slot->entry.pose == pose;
}

const LinkCache::Entry* LinkCache::find(std::uint16_t id) const {
  const Slot* slot = slot_of(id);
  return slot == nullptr ? nullptr : &slot->entry;
}

LinkCache::Entry& LinkCache::insert(std::uint16_t id, Entry entry) {
  std::uint32_t pos = 0;
  if (free_.empty()) {
    pos = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{std::move(entry), /*present=*/true});
  } else {
    pos = free_.back();
    free_.pop_back();
    slots_[pos] = Slot{std::move(entry), /*present=*/true};
  }
  if (id >= index_.size()) index_.resize(id + 1);
  index_[id] = pos + 1;
  ++live_;
  return slots_[pos].entry;
}

void LinkCache::store_refill(std::uint16_t id, Entry entry) {
  ++stats_.refills;
  if (Slot* slot = slot_of(id))
    slot->entry = std::move(entry);
  else
    insert(id, std::move(entry));
}

void LinkCache::store_rescore(std::uint16_t id, const channel::BeamGains& gains) {
  Slot* slot = slot_of(id);
  if (slot == nullptr) throw std::logic_error("LinkCache: rescore of an absent entry");
  ++stats_.refills;
  slot->entry.gains = gains;
  slot->entry.stale = false;
}

void LinkCache::erase(std::uint16_t id) {
  Slot* slot = slot_of(id);
  if (slot == nullptr) return;
  *slot = Slot{};  // releases the path records now, not at reuse
  free_.push_back(index_[id] - 1);
  index_[id] = 0;
  --live_;
  ++stats_.invalidated;
}

void LinkCache::clear() {
  stats_.invalidated += live_;
  index_.clear();
  slots_.clear();
  free_.clear();
  live_ = 0;
}

}  // namespace mmx::sim
