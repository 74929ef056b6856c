#include "mmx/mac/init_protocol.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "mmx/obs/obs.hpp"

namespace mmx::mac {

std::vector<HarmonicSlot> default_sdm_slots() {
  // sin(theta_m) = m * delay / spacing = 0.125 m for the default
  // progressive TMA (delay 0.0625, d = lambda/2): nine slots on a ~7
  // degree pitch covering +/-30 degrees.
  std::vector<HarmonicSlot> slots;
  for (int m : {0, 1, -1, 2, -2, 3, -3, 4, -4}) slots.push_back({m, std::asin(0.125 * m)});
  return slots;
}

RejoinBackoff::RejoinBackoff(BackoffConfig cfg) : cfg_(cfg) {
  if (cfg.base_s <= 0.0) throw std::invalid_argument("RejoinBackoff: base_s must be > 0");
  if (cfg.factor < 1.0) throw std::invalid_argument("RejoinBackoff: factor must be >= 1");
  if (cfg.cap_s < cfg.base_s)
    throw std::invalid_argument("RejoinBackoff: cap_s must be >= base_s");
  if (cfg.jitter_frac < 0.0 || cfg.jitter_frac >= 1.0)
    throw std::invalid_argument("RejoinBackoff: jitter_frac must be in [0, 1)");
}

double RejoinBackoff::next_delay_s(Rng& rng, double hint_s) {
  double delay = cfg_.base_s;
  for (int i = 0; i < attempt_; ++i) {
    delay *= cfg_.factor;
    if (delay >= cfg_.cap_s) {
      delay = cfg_.cap_s;
      break;
    }
  }
  ++attempt_;
  // The AP's deny hint floors the schedule: the AP has seen the whole
  // band's occupancy, the node only its own attempt count. The hint may
  // exceed cap_s — under heavy overload that is the point.
  if (hint_s > delay) delay = hint_s;
  if (cfg_.jitter_frac > 0.0)
    delay *= rng.uniform(1.0 - cfg_.jitter_frac, 1.0 + cfg_.jitter_frac);
  return delay;
}

InitProtocol::InitProtocol(FdmAllocator allocator, rf::Vco node_vco, InitConfig cfg)
    : allocator_(std::move(allocator)), node_vco_(node_vco), cfg_(std::move(cfg)) {
  if (cfg_.spectral_efficiency <= 0.0)
    throw std::invalid_argument("InitProtocol: spectral efficiency must be > 0");
  if (cfg_.fsk_fraction <= 0.0 || cfg_.fsk_fraction >= 0.5)
    throw std::invalid_argument("InitProtocol: fsk_fraction must be in (0, 0.5)");
  if (cfg_.sdm_capacity < 1)
    throw std::invalid_argument("InitProtocol: sdm_capacity must be >= 1");
  if (cfg_.sdm_slots.empty()) cfg_.sdm_slots = default_sdm_slots();
  if (cfg_.overload.enabled) {
    if (cfg_.overload.min_rate_bps < 0.0)
      throw std::invalid_argument("InitProtocol: overload min_rate_bps must be >= 0");
    allocator_.set_policy(AllocPolicy::kBestFit);
  }
}

ChannelGrant InitProtocol::make_grant(std::uint16_t node_id, const ChannelAllocation& ch,
                                      int harmonic) const {
  ChannelGrant g;
  g.node_id = node_id;
  g.channel = ch;
  g.sdm_harmonic = harmonic;
  const double df = cfg_.fsk_fraction * ch.bandwidth_hz;
  g.vco_tune_v0 = node_vco_.voltage_for(ch.center_hz - df);
  g.vco_tune_v1 = node_vco_.voltage_for(ch.center_hz + df);
  return g;
}

ChannelGrant InitProtocol::admit(const ChannelRequest& request, const ChannelAllocation& ch,
                                 int harmonic) {
  const ChannelGrant g = make_grant(request.node_id, ch, harmonic);
  nodes_[request.node_id] = NodeRecord{g, request.bearing_rad, request.rate_bps, request.priority,
                                       best_free_slot({}, request.bearing_rad)};
  return g;
}

std::optional<ChannelAllocation> InitProtocol::allocate_reachable(std::uint16_t node_id,
                                                                  double bandwidth_hz,
                                                                  bool* unreachable) {
  const auto ch = allocator_.allocate(node_id, bandwidth_hz);
  if (!ch) return std::nullopt;
  // The node's VCO must be able to reach both tones.
  if (!node_vco_.covers(ch->low_hz()) || !node_vco_.covers(ch->high_hz())) {
    allocator_.release(node_id);
    if (unreachable != nullptr) *unreachable = true;
    return std::nullopt;
  }
  return ch;
}

SideChannelMessage InitProtocol::handle(const ChannelRequest& request) {
  if (request.rate_bps <= 0.0) return ChannelDeny{request.node_id};
  if (const ChannelGrant* g = grant(request.node_id)) return *g;  // idempotent

  const double bw = required_bandwidth_hz(request.rate_bps, cfg_.spectral_efficiency);
  bool unreachable = false;
  if (const auto ch = allocate_reachable(request.node_id, bw, &unreachable))
    return admit(request, *ch, 0);
  if (unreachable) return ChannelDeny{request.node_id};
  const SideChannelMessage sdm = try_sdm(request);
  if (std::get_if<ChannelGrant>(&sdm) || !cfg_.overload.enabled) return sdm;
  return handle_overload(request, bw);
}

SideChannelMessage InitProtocol::handle_overload(const ChannelRequest& request,
                                                 double bandwidth_hz) {
  const OverloadConfig& ov = cfg_.overload;
  // (a) Fragmentation is the only obstacle to the full demand: compact
  // the band and retry at the requested rate.
  if (allocator_.largest_gap_hz() < bandwidth_hz &&
      allocator_.compacted_headroom_hz() >= bandwidth_hz) {
    compact_spectrum();
    if (const auto ch = allocate_reachable(request.node_id, bandwidth_hz))
      return admit(request, *ch, 0);
  }
  // (b) Rate demotion: walk the halving ladder below the request and
  // admit at the largest step that fits. promote_demoted() grows the
  // grant back later.
  if (ov.min_rate_bps > 0.0 && request.rate_bps > ov.min_rate_bps) {
    const double floor_bw = required_bandwidth_hz(ov.min_rate_bps, cfg_.spectral_efficiency);
    if (allocator_.largest_gap_hz() < floor_bw && allocator_.compacted_headroom_hz() >= floor_bw)
      compact_spectrum();
    if (const auto g = admit_demoted(request, request.rate_bps / 2.0)) return *g;
  }
  // (c) Shedding: shrink strictly-lower-priority incumbents to the floor
  // so the newcomer fits at (at least) its own floor.
  if (ov.shedding && ov.min_rate_bps > 0.0 && request.rate_bps >= ov.min_rate_bps) {
    const double floor_bw = required_bandwidth_hz(ov.min_rate_bps, cfg_.spectral_efficiency);
    if (shed_for(request, floor_bw)) {
      if (const auto g = admit_demoted(request, request.rate_bps)) return *g;
    }
  }
  // (d) Deny, with a deterministic backoff hint derived from occupancy
  // and deny pressure (no AP-side randomness: the node adds its own
  // jitter from its counter-derived stream via RejoinBackoff).
  const double hint = deny_hint_s();
  ++deny_streak_;
  ++overload_stats_.hinted_denies;
  overload_stats_.hint_delay_sum_s += hint;
  const double band = allocator_.band_high_hz() - allocator_.band_low_hz();
  MMX_OBS_GAUGE_SET("mac.spectrum.occupancy_pct",
                    100.0 * (1.0 - allocator_.free_bandwidth_hz() / band));
  MMX_OBS_GAUGE_SET("mac.admission.deny_pressure", deny_streak_);
  MMX_OBS_COUNT("mac.overload.hinted_denies", 1);
  return ChannelDeny{request.node_id, hint};
}

std::optional<ChannelGrant> InitProtocol::admit_demoted(const ChannelRequest& request,
                                                        double start_rate_bps) {
  const OverloadConfig& ov = cfg_.overload;
  double rate = start_rate_bps;
  while (true) {
    if (rate < ov.min_rate_bps) rate = ov.min_rate_bps;
    const double bw = required_bandwidth_hz(rate, cfg_.spectral_efficiency);
    if (bw <= allocator_.largest_gap_hz()) {
      if (const auto ch = allocate_reachable(request.node_id, bw)) {
        const ChannelGrant g = admit(request, *ch, 0);
        if (rate < request.rate_bps) {
          ++overload_stats_.demotions;
          MMX_OBS_COUNT("mac.overload.demotions", 1);
        }
        return g;
      }
    }
    if (rate <= ov.min_rate_bps) return std::nullopt;
    rate /= 2.0;
  }
}

double InitProtocol::deny_hint_s() const {
  const double band = allocator_.band_high_hz() - allocator_.band_low_hz();
  const double occ =
      band > 0.0 ? std::clamp(1.0 - allocator_.free_bandwidth_hz() / band, 0.0, 1.0) : 1.0;
  // Quadratic in occupancy (gentle until the band is nearly full), plus a
  // linear deny-pressure term so a storm spreads retries further apart
  // the longer it lasts. Saturates at kDenyHintMaxS.
  const double pressure = static_cast<double>(std::min<std::uint64_t>(deny_streak_, 32));
  const double hint = kDenyHintBaseS * (1.0 + 15.0 * occ * occ + 0.25 * pressure);
  return std::min(kDenyHintMaxS, hint);
}

bool InitProtocol::shed_for(const ChannelRequest& request, double needed_hz) {
  const double floor_bw = needed_hz;
  // Candidate victims: unshared FDM owners of strictly lower priority
  // holding more than the floor. Deterministic order — priority
  // ascending, node id breaking ties.
  std::vector<std::pair<std::uint8_t, std::uint16_t>> victims;
  double reclaimable = 0.0;
  for (const auto& [id, ch] : allocator_.allocations()) {
    const auto rec = nodes_.find(id);
    if (rec == nodes_.end()) continue;
    if (channel_shared(ch)) continue;  // a shared channel's width is the group's
    const std::uint8_t prio = rec->second.priority;
    if (prio >= request.priority) continue;
    if (ch.bandwidth_hz <= floor_bw + 1e-6) continue;
    victims.push_back({prio, id});
    reclaimable += ch.bandwidth_hz - floor_bw;
  }
  // Only shed when it is guaranteed to admit the newcomer (post-compact).
  if (allocator_.compacted_headroom_hz() + reclaimable + 1e-9 < needed_hz) return false;
  std::sort(victims.begin(), victims.end());
  for (const auto& [prio, id] : victims) {
    if (allocator_.compacted_headroom_hz() >= needed_hz) break;
    const auto cur = allocator_.lookup(id);
    if (!cur) continue;
    allocator_.release(id);
    const auto shrunk = allocate_reachable(id, floor_bw);
    if (!shrunk) {
      allocator_.restore(id, *cur);
      continue;
    }
    ChannelGrant& g = nodes_.at(id).grant;
    g = make_grant(id, *shrunk, 0);
    pending_retunes_.push_back(g);
    ++overload_stats_.shed_demotions;
    ++overload_stats_.retunes;
    MMX_OBS_COUNT("mac.overload.shed_demotions", 1);
  }
  if (allocator_.largest_gap_hz() < needed_hz && allocator_.compacted_headroom_hz() >= needed_hz)
    compact_spectrum();
  overload_stats_.invariant_violations += audit();
  return allocator_.largest_gap_hz() >= needed_hz;
}

std::size_t InitProtocol::compact_spectrum() {
  const std::vector<RetuneEvent> moved = allocator_.compact();
  if (moved.empty()) return 0;
  ++overload_stats_.compactions;
  MMX_OBS_COUNT("mac.overload.compactions", 1);
  retune_moved(moved);
  overload_stats_.invariant_violations += audit();
  return moved.size();
}

void InitProtocol::retune_moved(const std::vector<RetuneEvent>& moved) {
  // Every grant on a moved channel follows it — the allocator owner and
  // any SDM group members sharing the channel keep their harmonics, only
  // the tones move. Re-tunes are queued channel by channel in ascending
  // frequency, node id order within a channel. Channels only slide down
  // past free spectrum, so no channel's new place is another's old one
  // and one pass over the records sees every grant at most once.
  std::map<ChannelAllocation, std::size_t, ChannelOrder> event_of;
  for (std::size_t i = 0; i < moved.size(); ++i) event_of.emplace(moved[i].from, i);
  std::vector<std::pair<std::size_t, std::uint16_t>> hits;
  for (const auto& [id, rec] : nodes_)
    if (const auto it = event_of.find(rec.grant.channel); it != event_of.end())
      hits.emplace_back(it->second, id);
  std::sort(hits.begin(), hits.end());
  for (const auto& [event, id] : hits) {
    ChannelGrant& g = nodes_.at(id).grant;
    g = make_grant(id, moved[event].to, g.sdm_harmonic);
    pending_retunes_.push_back(g);
    ++overload_stats_.retunes;
  }
  for (SharedChannel& sc : shared_) {
    const auto it = event_of.find(sc.channel);
    if (it == event_of.end()) continue;
    shared_channels_.erase(shared_channels_.find(sc.channel));
    sc.channel = moved[it->second].to;
    shared_channels_.insert(sc.channel);
  }
}

std::vector<ChannelGrant> InitProtocol::promote_demoted() {
  std::vector<ChannelGrant> promoted;
  if (!cfg_.overload.enabled) return promoted;
  for (auto& [id, rec] : nodes_) {
    const double want_rate = rec.requested_rate_bps;
    const ChannelAllocation cur = rec.grant.channel;
    if (channel_shared(cur)) continue;  // group width is fixed by its members
    const auto owned = allocator_.lookup(id);
    if (!owned || !(*owned == cur)) continue;
    const double want_bw = required_bandwidth_hz(want_rate, cfg_.spectral_efficiency);
    if (cur.bandwidth_hz + 1e-6 >= want_bw) continue;  // not demoted
    // Walk the halving ladder down from the requested rate and take the
    // largest step that still beats the current width (the freed slot can
    // merge with a neighbouring gap); put the original back untouched if
    // nothing fits.
    allocator_.release(id);
    std::optional<ChannelAllocation> ch;
    for (double rate = want_rate; ; rate /= 2.0) {
      const double bw = required_bandwidth_hz(rate, cfg_.spectral_efficiency);
      if (bw <= cur.bandwidth_hz + 1e-6) break;  // no longer a promotion
      if (bw <= allocator_.largest_gap_hz()) {
        ch = allocate_reachable(id, bw);
        break;
      }
    }
    if (!ch) {
      allocator_.restore(id, cur);
      continue;
    }
    rec.grant = make_grant(id, *ch, rec.grant.sdm_harmonic);
    pending_retunes_.push_back(rec.grant);
    promoted.push_back(rec.grant);
    ++overload_stats_.promotions;
    ++overload_stats_.retunes;
    MMX_OBS_COUNT("mac.overload.promotions", 1);
  }
  if (!promoted.empty()) overload_stats_.invariant_violations += audit();
  return promoted;
}

std::vector<ChannelGrant> InitProtocol::take_retunes() {
  return std::exchange(pending_retunes_, {});
}

const ChannelGrant* InitProtocol::grant(std::uint16_t node_id) const {
  const auto it = nodes_.find(node_id);
  return it == nodes_.end() ? nullptr : &it->second.grant;
}

std::optional<double> InitProtocol::granted_rate_bps(std::uint16_t node_id) const {
  const ChannelGrant* g = grant(node_id);
  if (g == nullptr) return std::nullopt;
  return g->channel.bandwidth_hz * cfg_.spectral_efficiency;
}

std::uint64_t InitProtocol::audit() const {
  std::uint64_t bad = allocator_.audit();
  for (const auto& [id, rec] : nodes_)
    bad += rec.solo_slot == best_free_slot({}, rec.bearing_rad) ? 0 : 1;
  std::multiset<ChannelAllocation, ChannelOrder> channels;
  for (const SharedChannel& sc : shared_) channels.insert(sc.channel);
  bad += channels == shared_channels_ ? 0 : 1;
  return bad;
}

void InitProtocol::add_shared(SharedChannel group) {
  shared_channels_.insert(group.channel);
  shared_.push_back(std::move(group));
}

std::optional<int> InitProtocol::best_free_slot(std::span<const Member> used,
                                                double bearing_rad) const {
  std::optional<int> best;
  double best_err = cfg_.max_harmonic_mismatch_rad;
  for (const HarmonicSlot& slot : cfg_.sdm_slots) {
    if (std::any_of(used.begin(), used.end(),
                    [&](const Member& m) { return m.harmonic == slot.harmonic; }))
      continue;
    const double err = std::abs(bearing_rad - slot.angle_rad);
    if (err <= best_err) {
      best_err = err;
      best = slot.harmonic;
    }
  }
  return best;
}

SideChannelMessage InitProtocol::try_sdm(const ChannelRequest& request) {
  // Every slot query below draws from a subset of the TMA slots, so a
  // bearing no slot serves on its own can neither join nor convert.
  const std::optional<int> solo = best_free_slot({}, request.bearing_rad);
  if (!solo) return ChannelDeny{request.node_id};
  const double bw = required_bandwidth_hz(request.rate_bps, cfg_.spectral_efficiency);
  // Join an existing shared pool or convert an FDM holder's channel into
  // a shared one — member channels must be at least as wide as requested,
  // bearings must be separable, and a TMA harmonic must steer close
  // enough to the newcomer's bearing.
  auto separable = [&](const Member& m) {
    return std::abs(m.bearing_rad - request.bearing_rad) >= cfg_.min_bearing_separation_rad;
  };

  // 1) Existing shared channels with a suitable free harmonic.
  for (SharedChannel& sc : shared_) {
    if (sc.channel.bandwidth_hz + 1e-6 < bw) continue;
    if (static_cast<int>(sc.members.size()) >= cfg_.sdm_capacity) continue;
    if (!std::all_of(sc.members.begin(), sc.members.end(), separable)) continue;
    const auto slot = best_free_slot(sc.members, request.bearing_rad);
    if (!slot) continue;
    sc.members.push_back({request.node_id, request.bearing_rad, *slot});
    return admit(request, sc.channel, *slot);
  }

  // 2) Convert a wide-enough FDM-only channel into a shared one: the
  // lowest-id holder that qualifies. The incumbent keeps transmitting as
  // before; the AP re-points it onto its solo slot and gives the newcomer
  // another. Next to an incumbent on harmonic h the newcomer's best slot
  // is its solo slot, or, when that is h, the best slot without h.
  const Member solo_member{request.node_id, request.bearing_rad, *solo};
  const std::optional<int> second = best_free_slot({&solo_member, 1}, request.bearing_rad);
  auto rec = nodes_.begin();
  for (const auto& [holder, ch] : allocator_.allocations()) {
    if (ch.bandwidth_hz + 1e-6 < bw) continue;
    while (rec != nodes_.end() && rec->first < holder) ++rec;
    if (rec == nodes_.end()) break;  // no record for this or any later holder
    if (rec->first != holder) continue;
    NodeRecord& incumbent = rec->second;
    if (!incumbent.solo_slot) continue;
    if (std::abs(incumbent.bearing_rad - request.bearing_rad) < cfg_.min_bearing_separation_rad)
      continue;
    const std::optional<int> new_slot = *incumbent.solo_slot == *solo ? second : solo;
    if (!new_slot) continue;
    if (channel_shared(ch)) continue;

    add_shared({ch,
                {{holder, incumbent.bearing_rad, *incumbent.solo_slot},
                 {request.node_id, request.bearing_rad, *new_slot}}});
    // Update the incumbent's grant with its (possibly nonzero) harmonic.
    incumbent.grant = make_grant(holder, ch, *incumbent.solo_slot);
    return admit(request, ch, *new_slot);
  }
  return ChannelDeny{request.node_id};
}

SideChannelMessage InitProtocol::modify_rate(std::uint16_t node_id, double new_rate_bps) {
  const auto it = nodes_.find(node_id);
  if (it == nodes_.end()) return ChannelDeny{node_id};
  // Snapshot everything needed to reinstate the node exactly on failure:
  // its record (grant with channel, harmonic and VCO voltages; bearing,
  // requested rate, priority), the allocator entry, and SDM membership.
  const NodeRecord old = it->second;
  const std::optional<ChannelAllocation> owned = allocator_.lookup(node_id);
  const bool was_member = std::any_of(shared_.begin(), shared_.end(), [&](const SharedChannel& sc) {
    return std::any_of(sc.members.begin(), sc.members.end(),
                       [&](const Member& m) { return m.id == node_id; });
  });

  release(node_id);
  const auto reply =
      handle(ChannelRequest{node_id, new_rate_bps, old.bearing_rad, old.priority});
  if (std::get_if<ChannelGrant>(&reply)) return reply;

  // Could not satisfy the new demand: reinstate the previous grant
  // exactly instead of re-running admission on the old rate (which could
  // land the node elsewhere in the band).
  const Member member{node_id, old.bearing_rad, old.grant.sdm_harmonic};
  // If the old channel still backs a live shared group (ownership moved
  // to a surviving member on release), rejoin it as a member.
  const auto group = std::find_if(shared_.begin(), shared_.end(), [&](const SharedChannel& sc) {
    return sc.channel == old.grant.channel;
  });
  if (was_member && group != shared_.end()) {
    group->members.push_back(member);
    nodes_[node_id] = old;
    return ChannelDeny{node_id};
  }
  if (owned && !allocator_.restore(node_id, *owned)) {
    // The freed spot was consumed during the failed attempt (possible
    // only when overload compaction ran). Keep the node's rate by
    // placing the same width wherever it fits now and the node's VCO
    // reaches.
    if (const auto ch = allocate_reachable(node_id, old.grant.channel.bandwidth_hz)) {
      NodeRecord& rec = nodes_[node_id] = old;
      rec.grant = make_grant(node_id, *ch, old.grant.sdm_harmonic);
      pending_retunes_.push_back(rec.grant);
      ++overload_stats_.retunes;
    }
    return ChannelDeny{node_id};  // spectrum gone entirely: the node must rejoin
  }
  nodes_[node_id] = old;
  if (was_member) add_shared({old.grant.channel, {member}});
  return ChannelDeny{node_id};
}

std::size_t InitProtocol::serve(SideChannel& channel, Rng& rng) {
  std::size_t n = 0;
  while (auto msg = channel.poll_at_ap()) {
    if (const auto* req = std::get_if<ChannelRequest>(&*msg)) {
      channel.ap_to_node(handle(*req), rng);
      ++n;
    }
  }
  // Deliver re-tune notifications (compaction / shedding / promotion).
  // Empty unless overload control ran, so legacy serve loops are
  // draw-for-draw identical.
  for (const ChannelGrant& g : take_retunes()) channel.ap_to_node(g, rng);
  return n;
}

bool InitProtocol::release(std::uint16_t node_id) {
  // SDM ownership succession (overload mode): when the allocator owner
  // of a shared channel leaves, hand the spectrum to the lowest-id
  // surviving member instead of freeing it under the group. The legacy
  // path keeps the historical (buggy, but golden-pinned) free.
  if (cfg_.overload.enabled) {
    if (const auto owned = allocator_.lookup(node_id)) {
      for (const SharedChannel& sc : shared_) {
        if (!(sc.channel == *owned)) continue;
        std::uint16_t successor = 0;
        bool found = false;
        for (const Member& m : sc.members)
          if (m.id != node_id && (!found || m.id < successor)) {
            successor = m.id;
            found = true;
          }
        if (found) allocator_.transfer(node_id, successor);
        break;
      }
    }
  }
  const bool had = nodes_.erase(node_id) > 0;
  allocator_.release(node_id);
  for (SharedChannel& sc : shared_)
    std::erase_if(sc.members, [&](const Member& m) { return m.id == node_id; });
  std::erase_if(shared_, [&](const SharedChannel& sc) {
    if (!sc.members.empty()) return false;
    shared_channels_.erase(shared_channels_.find(sc.channel));
    return true;
  });
  // Freed spectrum relieves deny pressure.
  if (had) deny_streak_ = 0;
  return had;
}

}  // namespace mmx::mac
