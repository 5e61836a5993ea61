#include "fd/detector.hpp"

namespace gmpx::fd {

const char* to_string(DetectorKind k) {
  switch (k) {
    case DetectorKind::kOracle: return "oracle";
    case DetectorKind::kHeartbeat: return "heartbeat";
    case DetectorKind::kPhi: return "phi";
  }
  return "?";
}

bool parse_detector(const std::string& name, DetectorKind& out) {
  if (name == "oracle") out = DetectorKind::kOracle;
  else if (name == "heartbeat") out = DetectorKind::kHeartbeat;
  else if (name == "phi") out = DetectorKind::kPhi;
  else return false;
  return true;
}

void OracleFd::on_crash(ProcessId p, Tick t) {
  if (!opts_.enabled) return;
  // F1: every surviving process detects the crash within a bounded delay.
  // RNG draws happen in deterministic id order, so a seed names the run.
  sim::SimWorld& world = *env_.world;
  for (ProcessId q : *env_.ids) {
    if (q == p || world.crashed(q)) continue;
    Tick d = opts_.min_delay + world.rng().below(opts_.max_delay - opts_.min_delay + 1);
    world.at(t + d, [this, q, p] {
      if (Context* ctx = env_.world->context_of(q)) {
        if (gmp::GmpNode* n = env_.node(q)) n->suspect(*ctx, p);
      }
    });
  }
}

PhiPolicy::PhiPolicy(const Options& o) : opts(o) {
  // Fixed at construction: the smallest margin the adaptive threshold can
  // ever put above a pair's mean gap (σ is floored at min_stddev).
  zmargin = static_cast<Tick>(
      std::ceil(phi_threshold_z(opts.threshold) * static_cast<double>(opts.min_stddev)));
}

void PhiPolicy::prepare(const sim::SimWorld& w) {
  // Future gaps under the current delay model are at least
  // interval - (max - min channel delay).
  const sim::DelayModel& d = w.delays();
  const Tick spread = d.max_delay > d.min_delay ? d.max_delay - d.min_delay : 0;
  benign_gap = opts.interval > spread ? opts.interval - spread : 1;
}

Tick PhiPolicy::bound(const Monitor& m, ProcessId q) const {
  // The mean and σ-floored fit can never drop the threshold below
  // min(smallest ring gap, benign gap) + z·min_stddev.
  const Tick mg = m.min_gap(q);
  const Tick floor_gap = (mg != 0 && mg < benign_gap) ? mg : benign_gap;
  Tick b = zmargin + floor_gap;
  if (b > opts.max_timeout) b = opts.max_timeout;
  // Until the fit is trusted the fixed bootstrap threshold governs; the
  // bound must not promise more than the smaller regime (mid-span samples
  // can flip a bootstrap pair to the adaptive threshold).
  if (m.samples(q) < opts.min_samples && opts.bootstrap_timeout < b) b = opts.bootstrap_timeout;
  return b;
}

template <typename Policy>
void TimeoutDetector<Policy>::bind(Env env) {
  FailureDetector::bind(std::move(env));
  // Route fast-path ping/ack frames straight to the destination's monitor.
  env_.world->set_background_sink(
      [this](ProcessId from, ProcessId to, uint32_t kind) {
        on_background_packet(from, to, kind);
      });
  // The batched ping wave: one environment-owned background timer per
  // interval replaces n per-node re-arming timers.  Environment ownership
  // matters — a process-owned timer would die with its owner's crash and
  // silence every other monitor.
  next_wave_ = env_.world->now() + opts_.interval;
  env_.world->set_environment_timer(opts_.interval, [this] { wave(); });
}

template <typename Policy>
void TimeoutDetector<Policy>::reset() {
  for (auto& m : monitors_) monitor_pool_.push_back(std::move(m));
  monitors_.clear();
  monitor_by_id_.clear();
  next_wave_ = kNeverTick;  // bind() re-establishes the cadence
}

template <typename Policy>
void TimeoutDetector<Policy>::wave() {
  sim::SimWorld& world = *env_.world;
  bool any_alive = false;
  // Registration order (= deterministic cluster id order).  Each monitor's
  // ping fan ships as one batched frame: one heap event and one delay draw
  // per sender per interval instead of one per ping.
  for (auto& m : monitors_) {
    const ProcessId id = m->node().id();
    if (Context* ctx = world.context_of(id)) {
      targets_.clear();
      m->tick_collect(*ctx, targets_);
      if (!targets_.empty()) world.send_background_wave(id, targets_, gmp::kind::kHeartbeat);
    }
    if (!world.crashed(id)) any_alive = true;
  }
  // Re-arm while anyone is left; once the whole deployment is dead the
  // queue must drain completely (pinned by the dead-group heartbeat test).
  if (any_alive) {
    next_wave_ = world.now() + opts_.interval;
    env_.world->set_environment_timer(opts_.interval, [this] { wave(); });
  } else {
    next_wave_ = kNeverTick;  // no cadence, no scans, no detections
  }
}

template <typename Policy>
typename TimeoutDetector<Policy>::Gate TimeoutDetector<Policy>::prepare(Tick wave0) const {
  const sim::SimWorld& w = *env_.world;
  // Every node once per query (a monitor exists for every registered
  // node), so the O(n²) pair walks read flags instead of re-resolving ids.
  peers_.assign(monitor_by_id_.size(), Peer{});
  for (const auto& m : monitors_) {
    const gmp::GmpNode& n = m->node();
    peers_[n.id()] = {&n, !w.crashed(n.id()) && !n.has_quit(), n.admitted()};
  }
  policy_.prepare(w);
  Gate g;
  g.certified = Policy::certifies(w.channel_faults());
  // Refresh lag: an admitted peer's wave ping arrives within one channel
  // delay; an unadmitted joiner answers mid's ping, a full round trip.
  // Reordered frames dodge the FIFO clamp and may land up to the
  // reordering slack later still.
  Tick per_frame = w.delays().max_delay;
  if (w.channel_faults().reorder_permille > 0) per_frame += w.channel_faults().reorder_slack;
  for (int joiner = 0; joiner < 2; ++joiner) {
    const Tick lag = joiner ? 2 * per_frame : per_frame;
    // Chain condition: successive guaranteed arrivals (one per wave, each
    // at most `lag` after its wave) must be dense enough that every scan
    // sees a refresh at most one threshold old.  Wave cadence makes that
    // exactly ceil(lag / interval) * interval <= bound — independent of
    // phase, so it holds for the whole span or not at all.  A delay span
    // hot enough to break the chain demotes pairs individually instead of
    // blinding the horizon.
    g.chain[joiner] = ((lag + opts_.interval - 1) / opts_.interval) * opts_.interval;
    // Initial window: scans before the first guaranteed refresh lands see
    // only the current staleness; if even the last of them cannot cross
    // the bound, the pair is quiet until the refresh, and steadily
    // refreshing thereafter.
    g.last_risky[joiner] = wave0 + (lag / opts_.interval) * opts_.interval;
  }
  return g;
}

template <typename Policy>
bool TimeoutDetector<Policy>::refreshable(ProcessId q, ProcessId mid) const {
  const sim::SimWorld& w = *env_.world;
  const Peer& qp = peer(q);
  if (!qp.live) return false;
  if (w.channel_blocked(q, mid)) return false;
  if (qp.admitted) {
    // q's own ping stream answers for it — towards the members of q's
    // view, and only while q has not isolated mid (S1: no pings to an
    // accused peer).
    return qp.node->view().contains(mid) && !qp.node->isolated().count(mid);
  }
  // A committed-but-unbootstrapped joiner cannot ping; it is audible only
  // as acks to mid's pings — which need mid to be an admitted pinger with
  // q in its view, the mid -> q channel open, and q not to have isolated
  // mid (its monitor drops isolated senders).
  const Peer& mp = peer(mid);
  if (!mp.node || !mp.admitted || !mp.node->view().contains(q)) return false;
  return !w.channel_blocked(mid, q) && !qp.node->isolated().count(mid);
}

template <typename Policy>
bool TimeoutDetector<Policy>::steady(const Gate& g, const Monitor& m, ProcessId q, ProcessId mid,
                                     Tick seen) const {
  // Fault spans are bounded and script-delimited, so a suspended
  // certification resumes — and with it the benign skip ratio — the moment
  // the span heals.
  if (!g.certified || !refreshable(q, mid)) return false;
  const int joiner = peer(q).admitted ? 0 : 1;
  const Tick bound = policy_.bound(m, q);
  return g.chain[joiner] <= bound && g.last_risky[joiner] <= seen + bound;
}

template <typename Policy>
Tick TimeoutDetector<Policy>::next_possible_detection(Tick now) const {
  if (next_wave_ == kNeverTick) return kNoDetection;  // deployment dead
  // Per-pair reasoning, valid under any delay model: a pair whose refresh
  // chain provably outpaces its threshold (steady) is exempt; every other
  // pair pins the horizon — a structurally-severed one at the first scan
  // that could see its silence past the threshold, a merely-unprovable one
  // (storm-hot chain, residual staleness, live fault axes) at the very
  // next wave, whose pings decide its fate and so must execute for real.
  // (Elided waves do skip their delay draws, so the RNG stream — and with
  // it post-skip interleavings — shifts against a skip-free execution:
  // traces diverge in timing while staying per-seed deterministic, the
  // documented wave-elision divergence.)
  const Tick wave0 = next_wave_ > now ? next_wave_ : now;
  const Gate g = prepare(wave0);
  Tick best = kNoDetection;
  for (const auto& m : monitors_) {
    const ProcessId mid = m->node().id();
    const Peer& mp = peers_[mid];
    if (!mp.live || !mp.admitted) continue;
    const gmp::GmpNode& node = *mp.node;
    for (ProcessId q : node.view().members()) {
      if (q == mid || node.isolated().count(q)) continue;  // scan never suspects these
      Tick seen = m->last_heard(q);
      if (seen == 0) seen = wave0;  // first sighting: grace starts at the next scan
      // A pair left residually stale by a just-ended storm is not steady
      // and stays a candidate, so the wave that would suspect it in a
      // skip-free run really executes (an elided in-flight arrival replay
      // can still clear it first).
      if (steady(g, *m, q, mid, seen)) continue;
      // The scan suspects at the first wave tick W with W - seen > threshold.
      const Tick threshold = policy_.threshold(*m, q);
      // Every candidate is >= wave0: once one pins it, nothing can beat it.
      // That covers a pair already past its threshold, and one not
      // provably steady but still fed by upkeep — whether the next wave's
      // in-flight pings refresh it in time is a question of random frame
      // timing the horizon must not second-guess.
      if (wave0 > seen + threshold || refreshable(q, mid)) return wave0;
      const Tick k = (seen + threshold - wave0) / opts_.interval + 1;
      const Tick fire = wave0 + k * opts_.interval;
      if (fire < best) best = fire;
    }
  }
  return best;
}

template <typename Policy>
void TimeoutDetector<Policy>::on_fast_forward(Tick from, Tick to) {
  (void)from;
  sim::SimWorld& w = *env_.world;
  // Re-establish the wave cadence if the pending wave event was elided,
  // preserving phase so candidate detections stay aligned with the ticks
  // the horizon promised.  w0 remembers the first elided wave tick: the
  // scans that would have run there have effects the hook must replay.
  const Tick w0 = next_wave_;
  const bool wave_elided = next_wave_ != kNeverTick && next_wave_ < to;
  if (wave_elided) {
    const Tick missed = (to - next_wave_ + opts_.interval - 1) / opts_.interval;
    next_wave_ += missed * opts_.interval;
    w.set_environment_timer(next_wave_ - to, [this] { wave(); });
  }
  // Replay what the elided traffic would have done to the proof-of-life
  // tables (the horizon only certifies spans whose steady pairs really
  // would have kept exchanging upkeep; everything else pinned the skip at
  // or before the wave that judges it):
  //   * a never-seen pair's grace period starts at the first elided scan
  //     (the real scan notes it on first sighting) — without this the
  //     horizon for a silent never-seen peer recedes forever and the run
  //     can never converge on its detection;
  //   * a steady pair is heard as of the skip target.
  // Only *steady* pairs are marked (same predicate as the horizon, against
  // the pre-skip cadence w0).  A residually-stale pair was a horizon
  // candidate, so the skip stopped at or before its possible suspicion —
  // its staleness must survive the skip for that wave to judge it exactly
  // as a skip-free run would.  Marks record no inter-arrival sample:
  // elided upkeep must not fabricate distribution data, and the policy's
  // bound already keeps an unfed fit above every silence the certified
  // span could show.  Nothing is marked when no wave was elided: in-flight
  // arrivals were already replayed at their true ticks and there was no
  // other traffic to model.
  if (!wave_elided) return;
  const Gate g = prepare(w0);
  for (auto& m : monitors_) {
    const ProcessId mid = m->node().id();
    const Peer& mp = peers_[mid];
    if (!mp.live) continue;
    const gmp::GmpNode& node = *mp.node;
    if (mp.admitted) {
      for (ProcessId q : node.view().members()) {
        if (q == mid || node.isolated().count(q)) continue;
        if (m->last_heard(q) == 0) m->mark_heard(q, w0);
        if (steady(g, *m, q, mid, m->last_heard(q))) m->mark_heard(q, to);
      }
    } else {
      // A committed-but-unbootstrapped joiner has no view to walk, but
      // members whose views contain it ping it every wave and its monitor
      // hears them even before admission.  The elided pings must refresh
      // its table too: otherwise the first post-admission scan would see
      // stale silences and suspect healthy members — suspicions a
      // skip-free run never fires.
      for (ProcessId q : *env_.ids) {
        if (q == mid || node.isolated().count(q)) continue;
        const Tick seen = m->last_heard(q) == 0 ? w0 : m->last_heard(q);
        if (steady(g, *m, q, mid, seen)) m->mark_heard(q, to);
      }
    }
  }
}

template <typename Policy>
void TimeoutDetector<Policy>::on_elided_background(ProcessId from, ProcessId to, uint32_t kind,
                                                   Tick when) {
  // Mirror on_background_packet's acceptance rules (dead/quit receivers
  // hear nothing, S1 drops isolated senders) but send nothing during a
  // skip.  The arrival happened at exactly `when` in a skip-free run too,
  // so the policy takes it in as a real one (φ samples it).  Arrivals
  // replay in unspecified order, so keep the freshest.
  Monitor* m = to < monitor_by_id_.size() ? monitor_by_id_[to] : nullptr;
  if (!m) return;
  if (env_.world->crashed(to)) return;
  const gmp::GmpNode& node = m->node();
  if (node.has_quit() || node.isolated().count(from)) return;
  if (when > m->last_heard(from)) Policy::take_arrival(*m, from, when);
  // The ack a live unadmitted receiver sends back (its only way to be
  // audible) must be modeled too, or eliding a ping to a joiner silently
  // deafens the *sender's* monitor — a residually-stale pair could then be
  // suspected at the frontier wave where a skip-free run is cleared by the
  // in-flight ack first.  The ack's own delay draw never happens, so the
  // sender is credited at the ping's arrival tick (at most one ack flight
  // early, within the documented timing quantization) and records no
  // sample.
  if (kind != gmp::kind::kHeartbeat || node.admitted()) return;
  if (env_.world->channel_blocked(to, from)) return;  // the ack would be held
  Monitor* back = from < monitor_by_id_.size() ? monitor_by_id_[from] : nullptr;
  if (!back) return;
  if (env_.world->crashed(from)) return;
  const gmp::GmpNode& sender = back->node();
  if (sender.has_quit() || sender.isolated().count(to)) return;
  if (when > back->last_heard(to)) back->mark_heard(to, when);
}

template <typename Policy>
void TimeoutDetector<Policy>::on_background_packet(ProcessId from, ProcessId to, uint32_t kind) {
  Monitor* m = to < monitor_by_id_.size() ? monitor_by_id_[to] : nullptr;
  if (!m) return;
  if (Context* ctx = env_.world->context_of(to)) m->on_background(*ctx, from, kind);
}

template <typename Policy>
Actor* TimeoutDetector<Policy>::wrap(gmp::GmpNode& inner) {
  std::unique_ptr<Monitor> m;
  if (!monitor_pool_.empty()) {
    m = std::move(monitor_pool_.back());
    monitor_pool_.pop_back();
    m->reset(&inner, opts_, /*self_arm=*/false);
  } else {
    m = std::make_unique<Monitor>(&inner, opts_, /*self_arm=*/false);
  }
  monitors_.push_back(std::move(m));
  Monitor* raw = monitors_.back().get();
  const ProcessId id = inner.id();
  if (id >= monitor_by_id_.size()) monitor_by_id_.resize(id + 1, nullptr);
  monitor_by_id_[id] = raw;
  return raw;
}

template class TimeoutDetector<HeartbeatPolicy>;
template class TimeoutDetector<PhiPolicy>;

std::unique_ptr<FailureDetector> make_detector(DetectorKind kind, const OracleOptions& oracle,
                                               const HeartbeatOptions& heartbeat,
                                               const PhiOptions& phi) {
  switch (kind) {
    case DetectorKind::kOracle: return std::make_unique<OracleFd>(oracle);
    case DetectorKind::kHeartbeat:
      return std::make_unique<TimeoutDetector<HeartbeatPolicy>>(heartbeat);
    case DetectorKind::kPhi: return std::make_unique<TimeoutDetector<PhiPolicy>>(phi);
  }
  return std::make_unique<OracleFd>(oracle);
}

}  // namespace gmpx::fd
