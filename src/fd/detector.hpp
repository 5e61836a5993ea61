// Pluggable failure-detection layer (the paper's F1 "observation").
//
// The paper deliberately leaves the detection mechanism open ("we are not
// concerned with the details of the mechanism") and only assumes it fires
// in finite time after a real crash.  A `FailureDetector` is the
// per-deployment policy object that decides *how* suspicions reach
// `GmpNode::suspect()`:
//
//   * OracleFd      — the scripted detector used by tests and benches: it
//     injects faulty_p(q) a bounded random delay after q really crashes.
//     Deterministic, never false, and free of detector message traffic, so
//     protocol complexity counts stay clean.
//   * TimeoutDetector<HeartbeatPolicy> — wraps every node in a
//     fd::HeartbeatFd ping/timeout monitor (fd/heartbeat.hpp).  Detection
//     is driven by real silence, so it may produce *false* suspicions under
//     delay storms and partitions — exactly the phenomenon the protocol
//     must (and does) tolerate.
//   * TimeoutDetector<PhiPolicy> — the same upkeep and skip horizon over
//     fd::PhiFd adaptive φ-accrual monitors (fd/phi.hpp).
//
// harness::Cluster owns one detector per deployment and gives it two
// integration points: `wrap()` may decorate each node's Actor before it is
// registered with the runtime, and `on_crash()` observes real crashes via
// the simulator's crash hook.  `background_kinds()` names the detector's
// own wire traffic so the simulator can (a) meter it separately from
// protocol messages and (b) treat it as background noise when deciding
// protocol quiescence (sim::SimWorld::run_until_protocol_idle).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fd/heartbeat.hpp"
#include "fd/phi.hpp"
#include "gmp/node.hpp"
#include "sim/world.hpp"

namespace gmpx::fd {

/// Which detector a deployment runs.  Threaded through ClusterOptions,
/// scenario::ExecOptions, the sweep grid and the gmpx_fuzz CLI.
enum class DetectorKind : uint8_t {
  kOracle,     ///< scripted crash-hook injection (deterministic, never false)
  kHeartbeat,  ///< real ping/timeout monitoring (may be false under delay)
  kPhi,        ///< adaptive φ-accrual monitoring (fd/phi.hpp)
};

/// Returns "oracle" / "heartbeat" / "phi".
const char* to_string(DetectorKind k);

/// Parse a detector name (as printed by to_string); false on unknown.
bool parse_detector(const std::string& name, DetectorKind& out);

/// Oracle tuning: F1's "detection occurs in finite time" with an explicit
/// bound.  `enabled = false` turns automatic injection off entirely, for
/// experiments that script every suspicion by hand.
struct OracleOptions {
  bool enabled = true;  ///< inject suspicions after real crashes
  Tick min_delay = 40;  ///< detection latency bounds
  Tick max_delay = 160;
  friend bool operator==(const OracleOptions&, const OracleOptions&) = default;
};

/// Per-deployment failure-detection policy.  One instance per cluster; the
/// cluster binds it to the deployment before registering any actor.
class FailureDetector {
 public:
  /// The deployment as the detector sees it.  `ids` and `node` stay valid
  /// (and `ids` keeps growing as joiners register) for the cluster lifetime.
  struct Env {
    sim::SimWorld* world = nullptr;
    std::function<gmp::GmpNode*(ProcessId)> node;  ///< nullptr when unknown
    const std::vector<ProcessId>* ids = nullptr;   ///< deterministic order
  };

  virtual ~FailureDetector() = default;

  /// Called by the cluster before any wrap()/on_crash() — once at
  /// construction, and again after every reset().
  virtual void bind(Env env) { env_ = std::move(env); }

  /// Rewind per-run state for a pooled cluster reuse (wrapper actors are
  /// recycled, scratch tables cleared with capacity kept).  bind() follows.
  virtual void reset() {}

  /// Decorate (or pass through) the actor registered with the runtime for
  /// `inner`.  The returned actor must stay valid for the cluster lifetime;
  /// the detector owns any wrapper it creates.
  virtual Actor* wrap(gmp::GmpNode& inner) { return &inner; }

  /// Observation hook: a real crash of `p` happened at tick `t` (fired from
  /// the simulator's crash hook, after the trace recorder).
  virtual void on_crash(ProcessId p, Tick t) {
    (void)p;
    (void)t;
  }

  /// Packet-kind range [lo, hi] of detector-internal wire traffic.  The
  /// cluster hands this to the simulator, which meters those kinds under a
  /// separate counter (protocol message totals stay clean) and classifies
  /// them as background events for protocol-quiescence detection.  The
  /// default empty range [1, 0] declares "no detector traffic".
  virtual std::pair<uint32_t, uint32_t> background_kinds() const { return {1, 0}; }

  /// Settle window for protocol-quiescence detection: how long the runtime
  /// must keep advancing through background events before concluding that
  /// no detection this implementation would still fire is pending.
  /// `worst_delay` is the largest per-message channel delay the run can be
  /// under (a packet that late in flight can still refresh a peer's proof
  /// of life).  Detectors without background machinery only need the
  /// generic slack.
  virtual Tick settle_window(Tick worst_delay) const { return worst_delay + 400; }

  /// Sentinel horizon: no detection this detector owns can ever fire.
  static constexpr Tick kNoDetection = kNeverTick;

  /// Earliest-effect horizon for the simulator's virtual-time fast-forward
  /// (sim::SimWorld::set_horizon_provider): a *lower bound* on the first
  /// tick at which this detector could still deliver a suspicion, given
  /// current monitor state.  kNoDetection certifies "never" — the runtime
  /// then concludes protocol quiescence without grinding a settle window.
  /// The default returns `now` ("unknown; a detection could fire at any
  /// moment"), which disables fast-forwarding entirely and keeps the
  /// legacy settle-window behaviour — correct for custom detectors that do
  /// not implement the contract.  Implementations that report real
  /// horizons must also implement on_fast_forward().
  virtual Tick next_possible_detection(Tick now) const { return now; }

  /// Fast-forward reconciliation: the runtime jumped the clock from `from`
  /// to `to`, eliding every background event in between (ping waves, ack
  /// frames, the detector's own wave timer).  Restore the detector's
  /// invariants as if the elided upkeep had run: re-arm the wave cadence
  /// (phase-preserved) and refresh the proof-of-life entries the elided
  /// traffic would have refreshed.  Must not produce foreground work.
  virtual void on_fast_forward(Tick from, Tick to) {
    (void)from;
    (void)to;
  }

  /// A skip elided a background frame that was already *in flight* — sent
  /// before the span, so it still lands in a skip-free run even across a
  /// partition cut or after its sender's death.  Replay its state effect
  /// (proof-of-life refresh at the true arrival tick) without sending
  /// anything; called once per elided arrival, in unspecified order,
  /// before on_fast_forward.
  virtual void on_elided_background(ProcessId from, ProcessId to, uint32_t kind, Tick when) {
    (void)from;
    (void)to;
    (void)kind;
    (void)when;
  }

 protected:
  Env env_;
};

/// Factory hook: ClusterOptions carries one of these so experiments can
/// plug in custom detector implementations without touching the harness.
using DetectorFactory = std::function<std::unique_ptr<FailureDetector>()>;

/// The scripted oracle (formerly hard-wired into harness::Cluster): every
/// survivor learns of a real crash within [min_delay, max_delay] ticks.
class OracleFd final : public FailureDetector {
 public:
  explicit OracleFd(OracleOptions opts) : opts_(opts) {}

  void on_crash(ProcessId p, Tick t) override;

  /// The oracle owns no background machinery: every suspicion it injects
  /// rides a foreground script event, which pins the skip frontier by
  /// itself.  Nothing background can ever fire.
  Tick next_possible_detection(Tick now) const override {
    (void)now;
    return kNoDetection;
  }

 private:
  OracleOptions opts_;
};

/// Heartbeat policy: a fixed per-pair silence threshold, and arrivals only
/// refresh proof of life.
struct HeartbeatPolicy {
  using Options = HeartbeatOptions;
  using Monitor = HeartbeatFd;

  explicit HeartbeatPolicy(const Options& o) : timeout(o.timeout) {}

  /// Per-query setup (nothing varies with the delay model).
  void prepare(const sim::SimWorld&) {}
  /// A refresh that may be dropped is not a guarantee: loss suspends
  /// steadiness.  Reordering only widens the refresh lag.
  static bool certifies(const sim::ChannelFaults& f) { return f.loss_permille == 0; }
  /// The silence a scan suspects past, now and at any later tick.
  Tick threshold(const Monitor&, ProcessId) const { return timeout; }
  Tick bound(const Monitor&, ProcessId) const { return timeout; }
  /// The largest threshold any pair can reach (sizes the settle window).
  Tick cap() const { return timeout; }
  static void take_arrival(Monitor& m, ProcessId q, Tick t) { m.mark_heard(q, t); }

  Tick timeout;
};

/// φ-accrual policy: the threshold moves with each pair's fitted
/// inter-arrival distribution, so steadiness is certified against a
/// monotone lower bound, and replayed arrivals feed the sample ring.
struct PhiPolicy {
  using Options = PhiOptions;
  using Monitor = PhiFd;

  explicit PhiPolicy(const Options& o);

  /// Per-query setup: the smallest gap a benign cadence sample can show
  /// under the current delay model.
  void prepare(const sim::SimWorld& w);
  /// Stricter than the heartbeat gate: ANY live fault axis suspends
  /// certification.  Loss breaks the refresh guarantee, and duplication /
  /// reordering perturb the inter-arrival samples themselves — the fit's
  /// future trajectory (and with it any silence bound) becomes unprovable.
  static bool certifies(const sim::ChannelFaults& f) { return !f.any(); }
  /// The pair's current fitted threshold.  A structurally severed pair may
  /// be judged by it: replayed in-flight samples can only delay the scan
  /// that suspects it, never conjure a suspicion.
  Tick threshold(const Monitor& m, ProcessId q) const { return m.suspect_after(q); }
  /// A lower bound on every value suspect_after(q) can take while benign
  /// cadence samples keep arriving: min(smallest ring gap, benign gap) +
  /// z·min_stddev.  Monotone under future samples — the property that
  /// keeps a certified span certified as elided arrivals are replayed into
  /// the ring.
  Tick bound(const Monitor& m, ProcessId q) const;
  Tick cap() const { return opts.max_timeout; }
  static void take_arrival(Monitor& m, ProcessId q, Tick t) { m.record_arrival(q, t); }

  Options opts;
  Tick zmargin = 0;     ///< ceil(z(threshold) · min_stddev), fixed at construction
  Tick benign_gap = 1;  ///< set by prepare()
};

/// The timeout detectors: one `Policy::Monitor` (fd::HeartbeatFd or
/// fd::PhiFd) per node, driven by the simulator.  The policy supplies the
/// only parts that differ — the per-pair silence threshold with its
/// monotone lower bound, and how a replayed arrival is taken in; the
/// upkeep and the skip horizon below are written once.
///
/// Under the simulator the detector batches and short-circuits its own
/// upkeep:
///   * one environment-owned *wave* timer per interval ticks every live
///     monitor in registration order, replacing n per-node re-arming
///     timers;
///   * ping/ack frames ride SimWorld's slab-free background path — the
///     event record carries (from, to, kind) inline and delivery dispatches
///     straight to the destination monitor, never building a Packet;
///   * monitors are recycled across reset()s (pooled cluster reuse);
///   * whole ping/settle spans collapse under the virtual-time
///     fast-forward: next_possible_detection() walks the (monitor, peer)
///     pairs and reports the first wave tick at which a silence could cross
///     its threshold, so the runtime can certify "no detection can fire
///     before tick T" and elide every wave in between (on_fast_forward
///     then re-arms the cadence and refreshes the pairs the elided pings
///     would have refreshed).  The reasoning is per pair: a delay span
///     whose every watched pair still has a provable refresh in flight
///     keeps skipping; only pairs whose refresh chain the current delay
///     model can no longer outpace pin the horizon, and never past the
///     next wave (whose pings decide their fate).  No candidate fires
///     before that wave, so the walk stops at the first pair that pins
///     it.  See tests/README.md "virtual time & skip horizons" for the
///     exact divergence this is allowed to introduce.
template <typename Policy>
class TimeoutDetector final : public FailureDetector {
 public:
  using Options = typename Policy::Options;
  using Monitor = typename Policy::Monitor;

  explicit TimeoutDetector(Options opts) : opts_(opts), policy_(opts) {}

  void bind(Env env) override;
  void reset() override;
  Actor* wrap(gmp::GmpNode& inner) override;

  std::pair<uint32_t, uint32_t> background_kinds() const override {
    return {gmp::kind::kHeartbeat, gmp::kind::kHeartbeatAck};
  }

  Tick next_possible_detection(Tick now) const override;
  void on_fast_forward(Tick from, Tick to) override;
  void on_elided_background(ProcessId from, ProcessId to, uint32_t kind, Tick when) override;

  /// A silence that began just before the window opened — possibly
  /// refreshed by a packet delayed by `worst_delay` — must still cross the
  /// largest threshold inside it, plus two ping periods and slack for the
  /// suspicion traffic itself.
  Tick settle_window(Tick worst_delay) const override {
    return policy_.cap() + 2 * opts_.interval + worst_delay + 400;
  }

 private:
  /// One node as the pair walks see it, sampled once per query.
  struct Peer {
    const gmp::GmpNode* node = nullptr;  ///< nullptr when unknown
    bool live = false;                   ///< neither crashed nor quit
    bool admitted = false;
  };
  /// Per-query steadiness invariants, indexed by the refresher's class:
  /// [0] an admitted pinger, [1] an unadmitted joiner that only acks.
  struct Gate {
    bool certified = false;  ///< the fault axes allow any certification
    Tick chain[2] = {0, 0};
    Tick last_risky[2] = {0, 0};
  };

  /// One batched monitor period: tick every live monitor, then re-arm while
  /// anyone is still alive (a fully dead deployment lets the queue drain).
  void wave();
  /// Fast-path delivery of a ping/ack to the destination's monitor.
  void on_background_packet(ProcessId from, ProcessId to, uint32_t kind);
  /// Fill peers_ and the policy's per-query state; returns the gate for
  /// scans judged at `wave0`.
  Gate prepare(Tick wave0) const;
  const Peer& peer(ProcessId id) const {
    static const Peer kUnknown;
    return id < peers_.size() ? peers_[id] : kUnknown;
  }
  /// Would `q` keep refreshing monitor `mid`'s proof of life across an
  /// event-free span?  Admitted peers refresh by pinging the members of
  /// *their* view; unadmitted joiners only by acking `mid`'s pings.  A
  /// severed channel, a quit peer, or S1 isolation in either direction
  /// breaks the stream.  Purely structural: whether the stream outpaces
  /// the threshold is steady()'s chain condition.  The horizon and the
  /// fast-forward refresh reason from this same rule.
  bool refreshable(ProcessId q, ProcessId mid) const;
  /// A refreshable pair is *steady* when neither its current staleness nor
  /// any future scan can cross the policy's lower-bound threshold before a
  /// guaranteed refresh lands (one channel delay after a wave for an
  /// admitted pinger, a full round trip for an unadmitted acker — plus the
  /// reordering slack when that fault axis is live).  Two conditions: the
  /// refresh *chain* must outpace the bound under the current delay model
  /// (false in storms hot enough to provoke false suspicions), and the
  /// *initial* window until the first guaranteed refresh must stay under
  /// it.  Steady pairs are exempt from the horizon and are refreshed by
  /// on_fast_forward; everything else stays a candidate so the wave that
  /// would judge it in a skip-free run really executes.  `seen` is the
  /// effective last-heard tick (grace substituted).
  bool steady(const Gate& g, const Monitor& m, ProcessId q, ProcessId mid, Tick seen) const;

  Options opts_;
  mutable Policy policy_;
  std::vector<std::unique_ptr<Monitor>> monitors_;
  std::vector<std::unique_ptr<Monitor>> monitor_pool_;  ///< recycled across runs
  std::vector<Monitor*> monitor_by_id_;  ///< dense id -> monitor (borrowed)
  std::vector<ProcessId> targets_;       ///< wave scratch: one sender's ping fan
  mutable std::vector<Peer> peers_;      ///< dense id -> per-query node sample
  /// Tick of the next pending wave (kNeverTick once the deployment died
  /// and the cadence self-cancelled).  Horizon arithmetic aligns candidate
  /// detections to this cadence; on_fast_forward re-arms it phase-preserved
  /// when the pending wave event was elided.
  Tick next_wave_ = kNeverTick;
};

/// Build the standard detector for `kind` from the matching options.
std::unique_ptr<FailureDetector> make_detector(DetectorKind kind, const OracleOptions& oracle,
                                               const HeartbeatOptions& heartbeat,
                                               const PhiOptions& phi);

}  // namespace gmpx::fd
