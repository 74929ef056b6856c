#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "mmx/channel/blockage.hpp"
#include "mmx/mac/rate_control.hpp"
#include "mmx/sim/event_queue.hpp"

namespace perfbench {

using namespace mmx;

namespace {

// Mirrors the library scenario's per-thing state (scale_scenario.cpp).
struct Thing {
  Thing(Rng r, double initial_rate_bps, mac::RateControlConfig rc, mac::ArqConfig arq_cfg,
        mac::BackoffConfig backoff_cfg)
      : rng(r), rate(initial_rate_bps, rc), arq(arq_cfg), backoff(backoff_cfg) {}

  Rng rng;
  mac::RateController rate;
  mac::ArqSender arq;
  mac::RejoinBackoff backoff;
  channel::Pose pose{};
  std::uint16_t id = 0;
  std::uint16_t next_seq = 0;
  bool associated = false;
  bool resident = false;
  bool down = false;
  bool in_outage = false;
  std::uint64_t outage_start_round = 0;
  std::uint64_t next_tx_round = 0;
  int giveup_streak = 0;
  sim::EventQueue::EventId rejoin_timer = sim::EventQueue::kInvalidEvent;
};

constexpr double kMarginM = 0.5;  // keep poses off the walls

}  // namespace

// The scenario state, built in the constructor (set-up) and driven by
// run(). Handlers capture `this`, so the object never moves.
class ScaleReplay {
 public:
  ScaleReplay(const sim::ScaleConfig& cfg, std::uint64_t seed, Tracer& tracer,
              ReplayCounters& counters);
  ScaleReplay(const ScaleReplay&) = delete;
  ScaleReplay& operator=(const ScaleReplay&) = delete;

  void run() { ctr_.events_dispatched += q_.run_until(c_.duration_s); }
  sim::ScaleReport finish();

 private:
  static sim::SimConfig sim_config(const sim::ScaleConfig& c) {
    sim::SimConfig s = c.sim;
    s.link_cache = c.use_cache;
    return s;
  }

  channel::Pose random_pose(Rng& rng) const;
  void record_recovery(Thing& t);
  void begin_outage(Thing& t);
  void unregister(Thing& t);
  void remove(std::uint16_t id);
  void register_thing(Thing& thing, std::size_t idx, const channel::Pose& pose);
  void schedule_rejoin(std::size_t idx);
  void attempt_rejoin(std::size_t idx);
  void join(std::size_t i);
  void arm_faults();
  void churn_tick();
  void measure_round();

  const sim::ScaleConfig& c_;
  const sim::FaultConfig& fc_;
  std::uint64_t seed_;
  Tracer& tr_;
  ReplayCounters& ctr_;
  channel::Pose ap_;
  sim::NetworkSimulator sim_;
  Rng crowd_rng_;
  Rng churn_rng_;
  channel::WalkingCrowd crowd_;
  mac::RateControlConfig rc_;
  sim::ScaleReport rep_;
  std::vector<Thing> things_;
  sim::EventQueue q_;
  std::vector<std::uint32_t> id_to_thing_;
  std::vector<std::uint16_t> fade_depth_;
  sim::FaultInjector injector_;
  std::size_t retry_cursor_ = 0;
  double snr_sum_db_ = 0.0;
  double ber_sum_ = 0.0;
  std::vector<sim::OtamLink> round_links_;  // this round's link reads, by thing
};

ScaleReplay::ScaleReplay(const sim::ScaleConfig& cfg, std::uint64_t seed, Tracer& tracer,
                         ReplayCounters& counters)
    : c_(cfg),
      fc_(cfg.faults),
      seed_(seed),
      tr_(tracer),
      ctr_(counters),
      ap_{{cfg.room_width_m / 2.0, cfg.room_height_m / 2.0}, 0.0},
      sim_(channel::Room(cfg.room_width_m, cfg.room_height_m), ap_, sim_config(cfg)),
      crowd_rng_(Rng::stream(seed, 0)),
      churn_rng_(Rng::stream(seed, 1)),
      crowd_(sim_.room(), cfg.walkers, cfg.walker_speed_mps, crowd_rng_),
      rc_{.min_rate_bps = cfg.node_rate_bps / 4.0,
          .max_rate_bps = cfg.node_rate_bps,
          .recovery_step_bps = cfg.node_rate_bps / 8.0},
      fade_depth_(cfg.faults.enabled ? cfg.nodes : 0, 0),
      injector_{sim::FaultPlan::compile(cfg.faults, cfg.duration_s, seed)} {
  if (c_.sim.init.overload.enabled)
    throw std::invalid_argument("replay_scale: overload-control configs are not replayed");
  if (c_.nodes == 0 || c_.measure_interval_s <= 0.0 || c_.churn_interval_s <= 0.0)
    throw std::invalid_argument("replay_scale: invalid scale config");
  things_.reserve(c_.nodes);

  // Same scheduling order as the library (FIFO tie-break at equal
  // timestamps): joins, fault plan, churn ticks, measurement ticks.
  for (std::size_t i = 0; i < c_.nodes; ++i) {
    const double t = c_.join_window_s * static_cast<double>(i + 1) / static_cast<double>(c_.nodes);
    q_.schedule_at(t, [this, i] { join(i); });
  }
  if (fc_.enabled) arm_faults();
  for (double t = c_.churn_interval_s; t <= c_.duration_s; t += c_.churn_interval_s)
    q_.schedule_at(t, [this] { churn_tick(); });
  for (double t = c_.measure_interval_s; t <= c_.duration_s; t += c_.measure_interval_s)
    q_.schedule_at(t, [this] { measure_round(); });
}

channel::Pose ScaleReplay::random_pose(Rng& rng) const {
  const Vec2 p{rng.uniform(kMarginM, c_.room_width_m - kMarginM),
               rng.uniform(kMarginM, c_.room_height_m - kMarginM)};
  const double aim = (ap_.position - p).angle() + rng.uniform(-0.3, 0.3);
  return channel::Pose{p, aim};
}

void ScaleReplay::record_recovery(Thing& t) {
  t.backoff.reset();
  t.giveup_streak = 0;
  if (!t.in_outage) return;
  t.in_outage = false;
  ++rep_.faults.recoveries;
  rep_.faults.recovery_rounds_sum += rep_.measure_rounds - t.outage_start_round;
}

void ScaleReplay::begin_outage(Thing& t) {
  if (t.in_outage) return;
  t.in_outage = true;
  t.outage_start_round = rep_.measure_rounds;
}

void ScaleReplay::remove(std::uint16_t id) {
  Span s(tr_, Layer::kRelease);
  sim_.remove_node(id);
}

void ScaleReplay::unregister(Thing& t) {
  if (!t.resident) return;
  if (t.id < id_to_thing_.size()) id_to_thing_[t.id] = 0;
  remove(t.id);
  t.resident = false;
  t.associated = false;
}

void ScaleReplay::register_thing(Thing& thing, std::size_t idx, const channel::Pose& pose) {
  ++rep_.joins;
  thing.pose = pose;
  sim::NetworkSimulator::Admission adm;
  {
    Span s(tr_, Layer::kAdmit, &ctr_.admit_s);
    adm = sim_.admit(pose, c_.node_rate_bps, 1);
  }
  if (adm.id) {
    thing.id = *adm.id;
    thing.associated = true;
    ++rep_.granted;
    ++ctr_.admit_granted;
  } else {
    Span s(tr_, Layer::kTrack);
    thing.id = sim_.add_tracked_node(pose);
    thing.associated = false;
    ++rep_.denied;
  }
  thing.resident = true;
  if (!fc_.enabled) return;
  if (thing.id >= id_to_thing_.size()) id_to_thing_.resize(thing.id + 1u, 0);
  id_to_thing_[thing.id] = static_cast<std::uint32_t>(idx) + 1;
  sim_.note_activity(thing.id, q_.now());
  if (thing.associated) {
    record_recovery(thing);
    if (thing.rejoin_timer != sim::EventQueue::kInvalidEvent) {
      q_.cancel(thing.rejoin_timer);
      thing.rejoin_timer = sim::EventQueue::kInvalidEvent;
    }
  }
}

void ScaleReplay::schedule_rejoin(std::size_t idx) {
  Thing& t = things_[idx];
  if (t.rejoin_timer != sim::EventQueue::kInvalidEvent) return;
  const double delay_s = t.backoff.next_delay_s(t.rng, 0.0);
  t.rejoin_timer = q_.schedule_in(delay_s, [this, idx] {
    Span s(tr_, Layer::kFaults);
    attempt_rejoin(idx);
  });
}

void ScaleReplay::attempt_rejoin(std::size_t idx) {
  Thing& t = things_[idx];
  t.rejoin_timer = sim::EventQueue::kInvalidEvent;
  if (t.down || t.associated) return;
  ++rep_.faults.rejoin_attempts;
  if (t.resident) unregister(t);
  register_thing(t, idx, t.pose);
  if (!t.associated) schedule_rejoin(idx);
}

void ScaleReplay::join(std::size_t i) {
  Span s(tr_, Layer::kJoin);
  channel::Pose pose;
  {
    // The first draw from a freshly seeded stream runs the engine's state
    // refill (~2 us, most of a join's own cost), so it stays in this span.
    Span init(tr_, Layer::kInit);
    Rng thing_rng = Rng::stream(seed_, 2 + i);
    mac::ArqConfig arq_cfg;
    mac::BackoffConfig backoff_cfg;
    if (fc_.enabled) {
      arq_cfg = fc_.arq;
      backoff_cfg = fc_.rejoin_backoff;
      if (fc_.timeout_skew_frac > 0.0)
        arq_cfg.timeout_s *=
            thing_rng.uniform(1.0 - fc_.timeout_skew_frac, 1.0 + fc_.timeout_skew_frac);
    }
    things_.emplace_back(thing_rng, c_.node_rate_bps, rc_, arq_cfg, backoff_cfg);
    pose = random_pose(things_.back().rng);
  }
  register_thing(things_.back(), things_.size() - 1, pose);
}

void ScaleReplay::arm_faults() {
  sim::FaultHooks hooks;
  hooks.storm_begin = [this](Rng& rng, double fade_s) {
    Span s(tr_, Layer::kFaults);
    ++rep_.faults.storms;
    if (things_.empty()) return;
    auto faded = std::make_shared<std::vector<std::uint32_t>>();
    for (std::size_t i = 0; i < things_.size(); ++i) {
      if (rng.chance(fc_.storm_fraction)) {
        ++fade_depth_[i];
        faded->push_back(static_cast<std::uint32_t>(i));
      }
    }
    q_.schedule_in(fade_s, [this, faded] {
      Span end(tr_, Layer::kFaults);
      for (const std::uint32_t i : *faded) --fade_depth_[i];
    });
  };
  hooks.power_cycle = [this](Rng& rng, double down_s) {
    Span s(tr_, Layer::kFaults);
    if (things_.empty()) return;
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(things_.size()) - 1));
    Thing& t = things_[idx];
    if (t.down) return;
    ++rep_.faults.power_cycles;
    t.down = true;
    if (t.rejoin_timer != sim::EventQueue::kInvalidEvent) {
      q_.cancel(t.rejoin_timer);
      t.rejoin_timer = sim::EventQueue::kInvalidEvent;
    }
    if (t.associated) {
      // Silent death: the grant stays at the AP until reaped.
      begin_outage(t);
      if (t.id < id_to_thing_.size()) id_to_thing_[t.id] = 0;
      t.resident = false;
      t.associated = false;
    } else if (t.resident) {
      unregister(t);
    }
    q_.schedule_in(down_s, [this, idx] {
      Span wake(tr_, Layer::kFaults);
      things_[idx].down = false;
      attempt_rejoin(idx);
    });
  };
  hooks.revoke = [this](Rng& rng) {
    Span s(tr_, Layer::kFaults);
    std::vector<std::uint32_t> candidates;
    for (std::size_t i = 0; i < things_.size(); ++i)
      if (things_[i].associated) candidates.push_back(static_cast<std::uint32_t>(i));
    if (candidates.empty()) return;
    const std::size_t idx = candidates[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(candidates.size()) - 1))];
    Thing& t = things_[idx];
    ++rep_.faults.revocations;
    {
      Span release(tr_, Layer::kRelease);
      sim_.revoke_grant(t.id);
    }
    t.associated = false;
    begin_outage(t);
    schedule_rejoin(idx);
  };
  injector_.arm(q_, std::move(hooks));
}

void ScaleReplay::churn_tick() {
  Span s(tr_, Layer::kChurn);
  {
    Span crowd(tr_, Layer::kCrowd);
    crowd_.update(c_.churn_interval_s, crowd_rng_);
  }
  ++rep_.blocker_updates;
  if (things_.empty()) return;

  const auto slice = [&](double frac) {
    return static_cast<std::size_t>(std::llround(frac * static_cast<double>(things_.size())));
  };

  {
    Span moves(tr_, Layer::kCrowd);
    for (std::size_t k = 0; k < slice(c_.move_fraction); ++k) {
      Thing& thing = things_[static_cast<std::size_t>(
          churn_rng_.uniform_int(0, static_cast<int>(things_.size()) - 1))];
      const channel::Pose pose = random_pose(thing.rng);
      if (fc_.enabled && !thing.resident) continue;
      sim_.set_node_pose(thing.id, pose);
      thing.pose = pose;
      ++rep_.moves;
    }
  }

  const std::size_t n_leave = slice(c_.leave_fraction);
  for (std::size_t k = 0; k < n_leave; ++k) {
    const auto victim = static_cast<std::size_t>(
        churn_rng_.uniform_int(0, static_cast<int>(things_.size()) - 1));
    Thing& thing = things_[victim];
    if (fc_.enabled && (thing.down || !thing.resident)) continue;
    if (fc_.enabled)
      unregister(thing);
    else
      remove(thing.id);
    ++rep_.leaves;
    register_thing(thing, victim, random_pose(thing.rng));
  }

  // Denied things retry the spectrum the departures freed.
  std::size_t retries = n_leave;
  for (std::size_t scanned = 0; retries > 0 && scanned < things_.size(); ++scanned) {
    const std::size_t ti = retry_cursor_++ % things_.size();
    Thing& thing = things_[ti];
    if (thing.associated) continue;
    if (fc_.enabled && (thing.down || !thing.resident)) continue;
    const channel::Pose pose = sim_.node_pose(thing.id);
    if (fc_.enabled)
      unregister(thing);
    else
      remove(thing.id);
    register_thing(thing, ti, pose);
    --retries;
  }
}

void ScaleReplay::measure_round() {
  Span s(tr_, Layer::kRound, &ctr_.round_s);
  ++rep_.measure_rounds;

  if (fc_.enabled) {
    std::vector<std::uint16_t> reaped;
    {
      Span reap(tr_, Layer::kReap);
      reaped = sim_.reap_inactive(q_.now(), fc_.reap_timeout_s);
    }
    for (const std::uint16_t id : reaped) {
      ++rep_.faults.reaped;
      const std::uint32_t slot = id < id_to_thing_.size() ? id_to_thing_[id] : 0;
      if (slot == 0) continue;  // zombie: owner is gone
      Thing& t = things_[slot - 1];
      id_to_thing_[id] = 0;
      t.resident = false;
      if (t.associated) {
        t.associated = false;
        begin_outage(t);
      }
      if (!t.down) schedule_rejoin(slot - 1);
    }
  }

  {
    Span refresh(tr_, Layer::kRefresh, &ctr_.refresh_s);
    const std::size_t n = sim_.refresh_cache(c_.refresh_threads);
    rep_.cache_refills += n;
    ctr_.refresh_entries += n;
  }

  // Link reads for every polled thing, in thing order (the SNR/BER sums
  // accumulate in the library's order).
  round_links_.resize(things_.size());
  {
    Span link(tr_, Layer::kLink);
    for (std::size_t i = 0; i < things_.size(); ++i) {
      const Thing& thing = things_[i];
      if (fc_.enabled && !thing.resident) continue;
      const sim::OtamLink l = c_.use_cache ? sim_.link(thing.id) : sim_.link_uncached(thing.id);
      round_links_[i] = l;
      ++rep_.link_evals;
      ++ctr_.link_calls;
      snr_sum_db_ += l.snr_db;
      ber_sum_ += l.joint_ber;
    }
  }

  Span arq(tr_, Layer::kArq);
  for (std::size_t i = 0; i < things_.size(); ++i) {
    Thing& thing = things_[i];
    if (fc_.enabled && !thing.resident) continue;
    if (!thing.associated) continue;
    const sim::OtamLink& l = round_links_[i];

    if (thing.arq.next_action() == mac::ArqSender::Action::kIdle)
      thing.arq.offer(thing.next_seq++);
    if (thing.arq.next_action() != mac::ArqSender::Action::kTransmit) continue;
    if (fc_.enabled && rep_.measure_rounds < thing.next_tx_round) continue;
    if (thing.arq.attempts() > 0) ++ctr_.arq_retx;
    thing.arq.on_transmitted();
    ++ctr_.arq_frames;
    if (fc_.enabled) sim_.note_activity(thing.id, q_.now());
    double p_frame = std::pow(1.0 - l.joint_ber, c_.frame_bits);
    if (fc_.enabled && fade_depth_[i] > 0) p_frame *= fc_.storm_delivery_frac;
    const bool delivered = thing.rng.chance(p_frame);
    bool acked = delivered;
    if (acked && fc_.ack_loss_frac > 0.0 && thing.rng.chance(fc_.ack_loss_frac)) {
      acked = false;
      ++rep_.faults.acks_lost;
    }
    if (acked && fc_.ack_corrupt_frac > 0.0 && thing.rng.chance(fc_.ack_corrupt_frac)) {
      thing.arq.on_ack(static_cast<std::uint16_t>(thing.arq.current_seq() + 0x8000u));
      acked = false;
      ++rep_.faults.acks_corrupted;
    }
    if (acked) {
      thing.arq.on_ack(thing.arq.current_seq());
      thing.rate.on_success();
      thing.giveup_streak = 0;
      thing.next_tx_round = 0;
      continue;
    }
    thing.arq.on_timeout();
    thing.rate.on_failure();
    if (!fc_.enabled) continue;
    if (thing.arq.next_action() == mac::ArqSender::Action::kTransmit) {
      const double wait_s = thing.arq.current_timeout_s();
      thing.next_tx_round =
          rep_.measure_rounds +
          std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(std::llround(wait_s / c_.measure_interval_s)));
    } else {
      // Gave the payload up; a streak escalates to a full re-acquisition.
      ++thing.giveup_streak;
      thing.next_tx_round = rep_.measure_rounds + 1;
      if (fc_.arq_giveups_to_rejoin > 0 && thing.giveup_streak >= fc_.arq_giveups_to_rejoin) {
        ++rep_.faults.escalations;
        begin_outage(thing);
        unregister(thing);
        schedule_rejoin(i);
      }
    }
  }
}

sim::ScaleReport ScaleReplay::finish() {
  rep_.cache = sim_.cache_stats();
  double rate_sum_bps = 0.0;
  std::size_t rate_count = 0;
  for (const Thing& thing : things_) {
    rep_.arq.transmissions += thing.arq.stats().transmissions;
    rep_.arq.delivered += thing.arq.stats().delivered;
    rep_.arq.gave_up += thing.arq.stats().gave_up;
    rep_.arq.duplicate_acks += thing.arq.stats().duplicate_acks;
    if (thing.associated) {
      rate_sum_bps += thing.rate.rate_bps();
      ++rate_count;
    }
  }
  if (rep_.link_evals > 0) {
    rep_.mean_snr_db = snr_sum_db_ / static_cast<double>(rep_.link_evals);
    rep_.mean_joint_ber = ber_sum_ / static_cast<double>(rep_.link_evals);
  }
  if (rate_count > 0) rep_.mean_rate_bps = rate_sum_bps / static_cast<double>(rate_count);
  const std::uint64_t resolved = rep_.arq.delivered + rep_.arq.gave_up;
  if (resolved > 0)
    rep_.delivery_ratio =
        static_cast<double>(rep_.arq.delivered) / static_cast<double>(resolved);
  return rep_;
}

sim::ScaleReport replay_scale(const sim::ScaleConfig& cfg, std::uint64_t seed, Tracer& tracer,
                              ReplayCounters& counters) {
  std::unique_ptr<ScaleReplay> replay;
  {
    Span s(tracer, Layer::kSetup);
    replay = std::make_unique<ScaleReplay>(cfg, seed, tracer, counters);
  }
  {
    Span s(tracer, Layer::kEvents);
    replay->run();
  }
  sim::ScaleReport rep;
  {
    Span s(tracer, Layer::kReport);
    rep = replay->finish();
  }
  Span s(tracer, Layer::kTeardown);
  replay.reset();
  return rep;
}

double time_scale_setup(const sim::ScaleConfig& cfg, std::uint64_t seed) {
  Tracer tracer;
  ReplayCounters counters;
  const Clock::time_point t0 = Clock::now();
  auto replay = std::make_unique<ScaleReplay>(cfg, seed, tracer, counters);
  return seconds_since(t0);
}

}  // namespace perfbench
