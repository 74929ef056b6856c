#include "mmx/mac/allocator.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmx::mac {

double required_bandwidth_hz(double rate_bps, double spectral_efficiency) {
  if (rate_bps <= 0.0) throw std::invalid_argument("required_bandwidth_hz: rate must be > 0");
  if (spectral_efficiency <= 0.0)
    throw std::invalid_argument("required_bandwidth_hz: efficiency must be > 0");
  return rate_bps / spectral_efficiency;
}

namespace {

/// Treap priority of a slot: a bijective mix of its node id, so priorities
/// are distinct, deterministic and independent of the position order.
std::uint32_t priority(std::uint16_t id) {
  std::uint32_t x = id * 0x9E3779B1u;
  x ^= x >> 16;
  x *= 0x85EBCA6Bu;
  x ^= x >> 13;
  return x;
}

}  // namespace

FdmAllocator::FdmAllocator(double band_low_hz, double band_high_hz, double guard_hz,
                           AllocPolicy policy)
    : low_(band_low_hz), high_(band_high_hz), guard_(guard_hz), policy_(policy) {
  if (band_low_hz >= band_high_hz) throw std::invalid_argument("FdmAllocator: empty band");
  if (guard_hz < 0.0) throw std::invalid_argument("FdmAllocator: guard must be >= 0");
  top_gap_ = high_ - low_;
}

template <bool kFit>
std::int32_t& FdmAllocator::left_of(std::int32_t t) {
  return kFit ? slots_[t].fit_left : slots_[t].left;
}

template <bool kFit>
std::int32_t& FdmAllocator::right_of(std::int32_t t) {
  return kFit ? slots_[t].fit_right : slots_[t].right;
}

template <bool kFit>
bool FdmAllocator::before(std::int32_t a, std::int32_t b) const {
  const Slot& x = slots_[a];
  const Slot& y = slots_[b];
  if (kFit && x.gap != y.gap) return x.gap < y.gap;
  if (x.low != y.low) return x.low < y.low;
  return x.id < y.id;
}

void FdmAllocator::pull(std::int32_t t) {
  Slot& s = slots_[t];
  s.max_gap = s.gap;
  if (s.left >= 0) s.max_gap = std::max(s.max_gap, slots_[s.left].max_gap);
  if (s.right >= 0) s.max_gap = std::max(s.max_gap, slots_[s.right].max_gap);
}

// Split `t` into the slots ordered before `key` and the rest.
template <bool kFit>
std::pair<std::int32_t, std::int32_t> FdmAllocator::split(std::int32_t t, std::int32_t key) {
  if (t < 0) return {-1, -1};
  if (before<kFit>(t, key)) {
    const auto [a, b] = split<kFit>(right_of<kFit>(t), key);
    right_of<kFit>(t) = a;
    if (!kFit) pull(t);
    return {t, b};
  }
  const auto [a, b] = split<kFit>(left_of<kFit>(t), key);
  left_of<kFit>(t) = b;
  if (!kFit) pull(t);
  return {a, t};
}

template <bool kFit>
std::int32_t FdmAllocator::merge(std::int32_t a, std::int32_t b) {
  if (a < 0) return b;
  if (b < 0) return a;
  if (priority(slots_[a].id) > priority(slots_[b].id)) {
    right_of<kFit>(a) = merge<kFit>(right_of<kFit>(a), b);
    if (!kFit) pull(a);
    return a;
  }
  left_of<kFit>(b) = merge<kFit>(a, left_of<kFit>(b));
  if (!kFit) pull(b);
  return b;
}

template <bool kFit>
std::int32_t FdmAllocator::insert(std::int32_t t, std::int32_t x) {
  if (t < 0) return x;
  if (priority(slots_[x].id) > priority(slots_[t].id)) {
    const auto [a, b] = split<kFit>(t, x);
    left_of<kFit>(x) = a;
    right_of<kFit>(x) = b;
    if (!kFit) pull(x);
    return x;
  }
  if (before<kFit>(x, t))
    left_of<kFit>(t) = insert<kFit>(left_of<kFit>(t), x);
  else
    right_of<kFit>(t) = insert<kFit>(right_of<kFit>(t), x);
  if (!kFit) pull(t);
  return t;
}

// Unlink `x` (found by its current key); its links are reset so it can be
// re-inserted under a new key.
template <bool kFit>
std::int32_t FdmAllocator::erase(std::int32_t t, std::int32_t x) {
  if (t == x) {
    const std::int32_t joined = merge<kFit>(left_of<kFit>(x), right_of<kFit>(x));
    left_of<kFit>(x) = right_of<kFit>(x) = -1;
    return joined;
  }
  if (before<kFit>(x, t))
    left_of<kFit>(t) = erase<kFit>(left_of<kFit>(t), x);
  else
    right_of<kFit>(t) = erase<kFit>(right_of<kFit>(t), x);
  if (!kFit) pull(t);
  return t;
}

void FdmAllocator::repull(std::int32_t t, std::int32_t x) {
  if (t != x) repull(before<false>(x, t) ? slots_[t].left : slots_[t].right, x);
  pull(t);
}

std::int32_t FdmAllocator::find_slot(double low, std::uint16_t id) const {
  std::int32_t t = pos_root_;
  while (t >= 0) {
    const Slot& s = slots_[t];
    if (s.low == low && s.id == id) return t;
    t = (low < s.low || (low == s.low && id < s.id)) ? s.left : s.right;
  }
  return -1;
}

std::int32_t FdmAllocator::predecessor(std::int32_t x) const {
  std::int32_t best = -1;
  for (std::int32_t t = pos_root_; t >= 0;) {
    if (before<false>(t, x)) {
      best = t;
      t = slots_[t].right;
    } else {
      t = slots_[t].left;
    }
  }
  return best;
}

std::int32_t FdmAllocator::successor(std::int32_t x) const {
  std::int32_t best = -1;
  for (std::int32_t t = pos_root_; t >= 0;) {
    if (before<false>(x, t)) {
      best = t;
      t = slots_[t].left;
    } else {
      t = slots_[t].right;
    }
  }
  return best;
}

std::int32_t FdmAllocator::last_slot() const {
  std::int32_t t = pos_root_;
  while (t >= 0 && slots_[t].right >= 0) t = slots_[t].right;
  return t;
}

double FdmAllocator::cursor_after(std::int32_t t) const {
  return t < 0 ? low_ : by_node_.at(slots_[t].id).high_hz() + guard_;
}

void FdmAllocator::set_gap_below(std::int32_t x, double cursor) {
  if (x < 0) {
    top_gap_ = high_ - cursor;
    return;
  }
  fit_root_ = erase<true>(fit_root_, x);
  slots_[x].gap = (slots_[x].low - guard_) - cursor;
  fit_root_ = insert<true>(fit_root_, x);
  repull(pos_root_, x);
}

void FdmAllocator::index_insert(std::uint16_t node_id, const ChannelAllocation& ch) {
  std::int32_t x;
  if (free_slots_.empty()) {
    x = static_cast<std::int32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    x = free_slots_.back();
    free_slots_.pop_back();
    slots_[x] = Slot{};
  }
  slots_[x].low = ch.low_hz();
  slots_[x].id = node_id;
  const std::int32_t prev = predecessor(x);
  const std::int32_t next = successor(x);
  slots_[x].gap = (slots_[x].low - guard_) - cursor_after(prev);
  slots_[x].max_gap = slots_[x].gap;
  pos_root_ = insert<false>(pos_root_, x);
  fit_root_ = insert<true>(fit_root_, x);
  set_gap_below(next, ch.high_hz() + guard_);
}

void FdmAllocator::index_erase(std::uint16_t node_id, const ChannelAllocation& ch) {
  const std::int32_t x = find_slot(ch.low_hz(), node_id);
  pos_root_ = erase<false>(pos_root_, x);
  fit_root_ = erase<true>(fit_root_, x);
  set_gap_below(successor(x), cursor_after(predecessor(x)));
  free_slots_.push_back(x);
}

void FdmAllocator::rebuild_index() {
  slots_.clear();
  free_slots_.clear();
  pos_root_ = fit_root_ = -1;
  top_gap_ = high_ - low_;
  for (const auto& [id, ch] : by_node_) index_insert(id, ch);
}

template <bool kFit>
std::vector<std::int32_t> FdmAllocator::in_order() const {
  std::vector<std::int32_t> order;
  order.reserve(by_node_.size());
  std::vector<std::int32_t> stack;
  for (std::int32_t t = kFit ? fit_root_ : pos_root_; t >= 0 || !stack.empty();) {
    if (t >= 0) {
      stack.push_back(t);
      t = kFit ? slots_[t].fit_left : slots_[t].left;
    } else {
      t = stack.back();
      stack.pop_back();
      order.push_back(t);
      t = kFit ? slots_[t].fit_right : slots_[t].right;
    }
  }
  return order;
}

std::optional<ChannelAllocation> FdmAllocator::allocate(std::uint16_t node_id,
                                                        double bandwidth_hz) {
  if (bandwidth_hz <= 0.0) throw std::invalid_argument("FdmAllocator: bandwidth must be > 0");
  if (by_node_.contains(node_id))
    throw std::invalid_argument("FdmAllocator: node already holds a channel");

  // The gap to fill: the slot whose gap-below it is, or -1 for the
  // top-of-band gap. First fit takes the lowest fitting gap; best fit the
  // tightest one, ties toward the low edge (the top gap is the highest,
  // so it wins only when strictly tighter) — both pure functions of the
  // occupied set, so replays stay bit-identical.
  std::int32_t at = -1;
  if (policy_ == AllocPolicy::kFirstFit) {
    for (std::int32_t t = pos_root_; t >= 0 && slots_[t].max_gap >= bandwidth_hz;) {
      const Slot& s = slots_[t];
      if (s.left >= 0 && slots_[s.left].max_gap >= bandwidth_hz) {
        t = s.left;
      } else if (s.gap >= bandwidth_hz) {
        at = t;
        break;
      } else {
        t = s.right;
      }
    }
  } else {
    for (std::int32_t t = fit_root_; t >= 0;) {
      if (slots_[t].gap >= bandwidth_hz) {
        at = t;
        t = slots_[t].fit_left;
      } else {
        t = slots_[t].fit_right;
      }
    }
    if (at >= 0 && top_gap_ >= bandwidth_hz && top_gap_ < slots_[at].gap) at = -1;
  }
  if (at < 0 && top_gap_ < bandwidth_hz) return std::nullopt;
  const double cursor = cursor_after(at < 0 ? last_slot() : predecessor(at));
  ChannelAllocation ch{cursor + bandwidth_hz / 2.0, bandwidth_hz};
  by_node_[node_id] = ch;
  index_insert(node_id, ch);
  return ch;
}

bool FdmAllocator::release(std::uint16_t node_id) {
  const auto it = by_node_.find(node_id);
  if (it == by_node_.end()) return false;
  index_erase(node_id, it->second);
  by_node_.erase(it);
  return true;
}

bool FdmAllocator::restore(std::uint16_t node_id, const ChannelAllocation& ch) {
  if (by_node_.contains(node_id)) return false;
  if (ch.bandwidth_hz <= 0.0) return false;
  // Slack scaled to the band magnitude: at 24 GHz one ulp is ~4e-6 Hz,
  // so an absolute epsilon would spuriously reject a channel sitting
  // exactly at guard distance from its neighbour (the common case — the
  // exact bits a prior allocate() produced). ~24 Hz of slack at 24 GHz
  // is far below any guard or channel width.
  const double kEps = 1e-9 * std::max(1.0, high_);
  if (ch.low_hz() < low_ - kEps || ch.high_hz() > high_ + kEps) return false;
  for (const auto& [id, other] : by_node_) {
    const bool below = ch.high_hz() + guard_ <= other.low_hz() + kEps;
    const bool above = other.high_hz() + guard_ <= ch.low_hz() + kEps;
    if (!below && !above) return false;
  }
  by_node_[node_id] = ch;
  index_insert(node_id, ch);
  return true;
}

bool FdmAllocator::transfer(std::uint16_t from, std::uint16_t to) {
  const auto it = by_node_.find(from);
  if (it == by_node_.end() || by_node_.contains(to)) return false;
  const ChannelAllocation ch = it->second;
  // Same channel, new owner: every gap recomputes to the same bits.
  index_erase(from, ch);
  by_node_.erase(it);
  by_node_[to] = ch;
  index_insert(to, ch);
  return true;
}

std::vector<RetuneEvent> FdmAllocator::compact() {
  std::vector<RetuneEvent> moved;
  // Moves below this are re-derivation noise (one ulp at the band's top
  // edge is ~4e-6 Hz at 24 GHz), not spectrum worth a re-tune round trip.
  const double kMinMoveHz = 1e-9 * std::max(1.0, high_);
  double cursor = low_;
  // Owners in ascending frequency order; channels cannot overlap, so the
  // order is unambiguous.
  for (const std::int32_t t : in_order<false>()) {
    const std::uint16_t id = slots_[t].id;
    ChannelAllocation& ch = by_node_.at(id);
    const ChannelAllocation to{cursor + ch.bandwidth_hz / 2.0, ch.bandwidth_hz};
    if (ch.center_hz - to.center_hz > kMinMoveHz) {
      moved.push_back({id, ch, to});
      ch = to;
    }
    cursor += to.bandwidth_hz + guard_;
  }
  if (!moved.empty()) rebuild_index();
  return moved;
}

std::optional<ChannelAllocation> FdmAllocator::lookup(std::uint16_t node_id) const {
  const auto it = by_node_.find(node_id);
  if (it == by_node_.end()) return std::nullopt;
  return it->second;
}

double FdmAllocator::free_bandwidth_hz() const {
  double used = 0.0;
  for (const auto& [id, ch] : by_node_) used += ch.bandwidth_hz;
  return (high_ - low_) - used;
}

double FdmAllocator::largest_gap_hz() const {
  // Empty band: the top gap is high - low (no guard at the edges). Full
  // band: every usable width is <= 0 and the 0.0 floor wins. Both
  // documented in the header.
  double best = std::max(0.0, top_gap_);
  if (pos_root_ >= 0) best = std::max(best, slots_[pos_root_].max_gap);
  return best;
}

double FdmAllocator::fragmentation() const {
  // Raw gap widths (no guard subtraction): their sum is exactly
  // free_bandwidth_hz(), which keeps the ratio well-defined.
  double widest = 0.0;
  double free = 0.0;
  double cursor = low_;
  for (const std::int32_t t : in_order<false>()) {
    const ChannelAllocation& ch = by_node_.at(slots_[t].id);
    const double gap = std::max(0.0, ch.low_hz() - cursor);
    widest = std::max(widest, gap);
    free += gap;
    cursor = std::max(cursor, ch.high_hz());
  }
  const double top = std::max(0.0, high_ - cursor);
  widest = std::max(widest, top);
  free += top;
  if (free <= 0.0) return 0.0;  // a full band is not fragmented
  return 1.0 - widest / free;
}

double FdmAllocator::compacted_headroom_hz() const {
  if (by_node_.empty()) return high_ - low_;
  double used = 0.0;
  for (const auto& [id, ch] : by_node_) used += ch.bandwidth_hz;
  // Packed: n channels consume n-1 inter-channel guards; an appended
  // channel pays one more against the packed block.
  const double n = static_cast<double>(by_node_.size());
  return std::max(0.0, (high_ - low_) - used - n * guard_);
}

std::uint64_t FdmAllocator::audit() const {
  // Position order, low edges, gaps and the widest-gap augmentation
  // against a fresh walk of the channels, plus the placement checks.
  constexpr double kEps = 1e-6;
  const std::vector<std::int32_t> by_pos = in_order<false>();
  std::uint64_t bad = by_pos.size() == by_node_.size() ? 0 : 1;
  double cursor = low_;
  const ChannelAllocation* prev = nullptr;
  for (std::size_t i = 0; i < by_pos.size(); ++i) {
    const Slot& s = slots_[by_pos[i]];
    if (i > 0 && !before<false>(by_pos[i - 1], by_pos[i])) ++bad;
    double max_gap = s.gap;
    if (s.left >= 0) max_gap = std::max(max_gap, slots_[s.left].max_gap);
    if (s.right >= 0) max_gap = std::max(max_gap, slots_[s.right].max_gap);
    if (s.max_gap != max_gap) ++bad;
    const auto it = by_node_.find(s.id);
    if (it == by_node_.end()) {
      ++bad;
      continue;
    }
    const ChannelAllocation& ch = it->second;
    if (s.low != ch.low_hz() || s.gap != (ch.low_hz() - guard_) - cursor) ++bad;
    if (ch.low_hz() < low_ - kEps || ch.high_hz() > high_ + kEps) ++bad;
    if (prev != nullptr && ch.low_hz() + kEps < prev->high_hz() + guard_) ++bad;
    cursor = ch.high_hz() + guard_;
    prev = &ch;
  }
  if (top_gap_ != high_ - cursor) ++bad;
  // The fit treap holds the same slots in (gap, low, id) order.
  const std::vector<std::int32_t> by_fit = in_order<true>();
  if (by_fit.size() != by_node_.size()) ++bad;
  for (std::size_t i = 1; i < by_fit.size(); ++i)
    if (!before<true>(by_fit[i - 1], by_fit[i])) ++bad;
  return bad;
}

}  // namespace mmx::mac
