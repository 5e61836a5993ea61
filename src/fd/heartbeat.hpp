// F1 "observation" failure detection (paper S2.1): the realistic
// ping/timeout monitor.
//
// HeartbeatFd wraps a GmpNode as a decorating Actor: it intercepts
// heartbeat traffic, forwards everything else to the wrapped node, and
// feeds timeout-driven suspicions into GmpNode::suspect().  It may produce
// *false* suspicions under delay, which is exactly the phenomenon the
// protocol must (and does) tolerate.  The scripted alternative is
// fd::OracleFd (fd/detector.hpp), which only ever reports real crashes.
//
// Proof of life is the peer's own traffic: every admitted member pings
// every view member each interval, so the symmetric ping streams double as
// acknowledgements — an admitted receiver does not ack a ping (its own next
// ping says the same thing for free, halving detector traffic).  The one
// asymmetry is a committed-but-unbootstrapped joiner: it appears in views
// (so members monitor it) but cannot ping before its ViewTransfer arrives,
// so *unadmitted* processes ack pings to stay audible.  The worst benign
// silence is unchanged either way: one ping interval plus one channel
// delay.
//
// Runtime-neutral: the monitor is written against Context/Actor, so it runs
// unchanged over sim::SimWorld and net::TcpRuntime (see examples/tcp_group
// and tests/net_test).  Constructed stand-alone it arms its own per-node
// ping timer; under fd::TimeoutDetector (the simulator harness) the
// timers are *batched* — one environment-owned wave timer ticks every
// monitor per interval — and ping/ack frames ride the simulator's
// slab-free background fast path (Context::send_background).
//
// Tuning HeartbeatOptions against adversary storm profiles
// --------------------------------------------------------
// A peer is suspected after `timeout` ticks of silence; between pings the
// longest benign silence is roughly `interval + max channel delay` (the
// peer's previous ping plus one full ping period).  So:
//
//   * no false suspicions  — keep `timeout` comfortably above
//     `interval + max_delay` of the worst storm you consider benign.  The
//     defaults (interval 200, timeout 800) never fire under the baseline
//     DelayModel (max 16) or the generator's default storms (max ~260).
//   * provoke false suspicions — storms must hold per-message delays above
//     `timeout - interval` for longer than `timeout` ticks.  The scenario
//     generator's heartbeat calibration (scenario::tuned_for_heartbeat)
//     raises its storm ceiling to ~2x the timeout for exactly this reason:
//     with the stock 250-tick ceiling a heartbeat run would never exercise
//     the false-suspicion machinery the detector axis exists to fuzz.
//   * detection latency — a real crash is noticed `timeout` to
//     `timeout + interval` ticks after the last proof of life, plus one
//     channel delay for the SuspectReport.  bench_viewchange_latency
//     measures the end-to-end effect per storm intensity.
#pragma once

#include <vector>

#include "common/runtime.hpp"
#include "gmp/messages.hpp"
#include "gmp/node.hpp"

namespace gmpx::fd {

/// Heartbeat/timeout options.  Timeouts drive suspicion only — never
/// correctness (the paper's "time as an approximate tool" caveat).
struct HeartbeatOptions {
  Tick interval = 200;  ///< ping period
  Tick timeout = 800;   ///< silence threshold before faulty_p(q)
  friend bool operator==(const HeartbeatOptions&, const HeartbeatOptions&) = default;
};

/// Decorating actor: one monitor per process.
class HeartbeatFd final : public Actor {
 public:
  /// `self_arm` selects the drive mode: true (default) arms a per-node ping
  /// timer (runtime-neutral stand-alone use); false leaves pacing to an
  /// external driver calling tick() — fd::TimeoutDetector's batched wave.
  HeartbeatFd(gmp::GmpNode* inner, HeartbeatOptions opts, bool self_arm = true)
      : inner_(inner), opts_(opts), self_arm_(self_arm) {}

  void on_start(Context& ctx) override {
    inner_->on_start(ctx);
    if (self_arm_ && !inner_->has_quit()) arm(ctx);
  }

  void on_packet(Context& ctx, const Packet& p) override {
    if (p.kind == gmp::kind::kHeartbeat || p.kind == gmp::kind::kHeartbeatAck) {
      on_background(ctx, p.from, p.kind);
      return;
    }
    // Any protocol message is proof of life too.
    note_alive(p.from, ctx.now());
    inner_->on_packet(ctx, p);
    // Exclusion / lost-majority quits happen inside the forwarded call:
    // cancel the pending ping timer right away (generation-counter slab
    // makes this O(1)) so a finished process leaves no re-arming event
    // behind and the run can quiesce.
    if (inner_->has_quit()) disarm(ctx);
  }

  /// Detector-traffic entry point, shared by the packet path above and the
  /// simulator's slab-free background fast path.
  void on_background(Context& ctx, ProcessId from, uint32_t kind) {
    // S1: no traffic is accepted from an isolated sender, pings included.
    if (inner_->isolated().count(from) || inner_->has_quit()) return;
    note_alive(from, ctx.now());
    // An admitted receiver's own ping stream answers for it; only a process
    // that cannot ping yet (pre-bootstrap joiner) must ack to be heard.
    if (kind == gmp::kind::kHeartbeat && !inner_->admitted()) {
      ctx.send_background(from, gmp::kind::kHeartbeatAck);
    }
  }

  /// One monitor period: check every view member for silence past the
  /// timeout, suspect the silent ones, ping the rest.  Public so an
  /// external driver (the detector's wave) can pace all monitors with a
  /// single timer; in self-arm mode an internal timer calls it.
  void tick(Context& ctx) {
    scan(ctx, [&ctx](ProcessId q) { ctx.send_background(q, gmp::kind::kHeartbeat); });
  }

  /// Wave-driven variant: append this period's ping targets to `out`
  /// instead of sending — the driver ships them as one batched frame (the
  /// simulator's wave fast path delivers a sender's whole ping fan with a
  /// single event and a single delay draw).
  void tick_collect(Context& ctx, std::vector<ProcessId>& out) {
    scan(ctx, [&out](ProcessId q) { out.push_back(q); });
  }

  /// The wrapped protocol endpoint.
  gmp::GmpNode& node() { return *inner_; }
  const gmp::GmpNode& node() const { return *inner_; }

  /// Last proof of life from `q` (0 = never heard).  The detector's
  /// earliest-effect horizon is computed from these tables.
  Tick last_heard(ProcessId q) const { return heard(q); }

  /// Externally refresh `q`'s proof of life: the virtual-time fast-forward
  /// elides whole ping waves and then marks every pair that would have
  /// kept exchanging upkeep as heard at the skip target.
  void mark_heard(ProcessId q, Tick t) { note_alive(q, t); }

  /// Rebind to a (pooled) node for a fresh run, clearing per-run state but
  /// keeping buffer capacity.
  void reset(gmp::GmpNode* inner, HeartbeatOptions opts, bool self_arm) {
    inner_ = inner;
    opts_ = opts;
    self_arm_ = self_arm;
    timer_ = 0;
    last_heard_.clear();
    scratch_.clear();
  }

 private:
  /// The monitor period body shared by tick()/tick_collect(): silence
  /// checks drive suspect(); `ping` receives each peer to be pinged.
  template <typename Ping>
  void scan(Context& ctx, Ping&& ping) {
    if (inner_->has_quit()) return;  // no pings after quit_p
    if (!inner_->admitted()) return;
    const Tick now = ctx.now();
    // Snapshot the membership before walking it: suspect() can commit a
    // view change synchronously (a Mgr whose round awaited only the newly
    // suspected peer installs the next view inside the call), and that
    // reallocates the live members vector mid-iteration.  The scratch
    // buffer is reused across ticks, so steady state never allocates.
    scratch_.assign(inner_->view().members().begin(), inner_->view().members().end());
    for (ProcessId q : scratch_) {
      if (q == ctx.self() || inner_->isolated().count(q)) continue;
      const Tick seen = heard(q);
      if (seen == kNever) {
        // First sighting of this member: start its grace period now.
        note_alive(q, now);
      } else if (now - seen > opts_.timeout) {
        inner_->suspect(ctx, q);
        if (inner_->has_quit()) return;  // the suspicion cost us majority
        continue;  // no point pinging a suspect
      }
      ping(q);
    }
  }

  /// Flat proof-of-life table keyed by dense process id.  Tick 0 doubles as
  /// "never heard": a packet genuinely arriving at tick 0 merely restarts
  /// that peer's grace period on the first ping tick, which is harmless.
  static constexpr Tick kNever = 0;

  void note_alive(ProcessId q, Tick t) {
    if (q >= last_heard_.size()) last_heard_.resize(q + 1, kNever);
    last_heard_[q] = t;
  }

  Tick heard(ProcessId q) const { return q < last_heard_.size() ? last_heard_[q] : kNever; }

  void arm(Context& ctx) {
    timer_ = ctx.set_background_timer(opts_.interval, [this, &ctx] {
      timer_ = 0;
      tick(ctx);
      if (!inner_->has_quit()) arm(ctx);
    });
  }

  void disarm(Context& ctx) {
    if (timer_ != 0) {
      ctx.cancel_timer(timer_);
      timer_ = 0;
    }
  }

  gmp::GmpNode* inner_;
  HeartbeatOptions opts_;
  bool self_arm_;
  TimerId timer_ = 0;
  std::vector<Tick> last_heard_;     ///< dense id -> last proof of life
  std::vector<ProcessId> scratch_;   ///< tick()'s membership snapshot
};

}  // namespace gmpx::fd
