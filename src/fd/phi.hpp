// Adaptive φ-accrual failure detection (Hayashibara et al., "The φ accrual
// failure detector" — the mechanism behind Cassandra/Akka-style membership
// services descended from ISIS-era deployments).
//
// Where fd::HeartbeatFd suspects after a *fixed* silence threshold, PhiFd
// learns each peer's inter-arrival distribution (a fixed-size ring of the
// last `window` gaps, summarized by a normal approximation) and suspects
// when the *suspicion level*
//
//     φ(elapsed) = -log10( P[gap > elapsed] ),   gap ~ N(mean, stddev²)
//
// crosses a configurable threshold.  φ = 8 means "if this peer were alive,
// a silence this long would occur with probability 10⁻⁸ given its recent
// behaviour".  Because the distribution is learned per pair, the detector
// adapts: under a delay storm the observed gaps widen, the fitted normal
// widens with them, and the implied silence threshold grows — false
// suspicions stay rare where a fixed timeout would fire on every peer.
// Conversely on a quiet channel the threshold tightens toward
// `mean + z(φ)·min_stddev`, detecting real crashes faster than a
// conservative fixed timeout.
//
// Integer-time formulation: a φ threshold maps monotonically to a z-score
// z(φ) with Q(z) = 10^(-φ) (Q = standard normal upper tail), so "φ(elapsed)
// > threshold" is exactly "elapsed > mean + z(φ)·stddev".  PhiFd therefore
// caches one integer `suspect_after` tick count per peer, recomputed only
// when a sample arrives — scans, horizons and benches never touch libm.
//
// Tuning PhiOptions against storm and loss profiles
// -------------------------------------------------
// The effective per-peer silence threshold is
//
//     suspect_after ≈ mean(gaps) + z(threshold) · max(stddev(gaps), min_stddev)
//
// with z(8) ≈ 5.6, z(12) ≈ 7.0, z(5) ≈ 4.4.  Three regimes matter:
//
//   * benign channels — gaps sit at `interval ± channel jitter`, stddev
//     collapses to the `min_stddev` floor, and the threshold settles near
//     `interval + z·min_stddev` (≈ 340 ticks at the defaults): real
//     crashes are detected roughly twice as fast as the heartbeat
//     detector's fixed 800-tick timeout.
//   * delay storms — a storm of intensity D (per-message delays up to D)
//     spreads gaps to `interval ± D`; after ~`window/4` storm samples the
//     fitted threshold grows past `interval + z·0.4·D`, so storms that
//     make the fixed-timeout detector melt down (D ≳ timeout - interval,
//     i.e. ≥ 512 at the heartbeat defaults) leave φ-accrual quiet.
//     bench_viewchange_latency's φ row is the headline: view-change
//     latency stays flat in D while the heartbeat row degrades into
//     false-suspicion churn.  Raise `threshold` if the first few storm
//     scans (before the ring adapts) still fire; lower it to favour
//     detection latency on channels you trust.
//   * message loss — a loss rate p thins the arrival stream: gaps of
//     k·interval appear with probability p^(k-1), inflating both mean and
//     stddev.  The threshold self-calibrates to ≈ `interval/(1-p) +
//     z·stddev`, keeping the per-scan false-suspicion probability near
//     10^(-threshold) instead of the `p^(timeout/interval)` a fixed
//     timeout gives (≈ 5·10⁻⁴ per pair per scan at p = 0.15 and the
//     heartbeat defaults).  Under sustained loss keep `threshold` ≥ 8, or
//     accept meaningful false-suspicion rates — which is precisely what
//     the lossy fuzz profile exercises.
//
// `bootstrap_timeout` governs a pair until `min_samples` gaps arrive (a
// fresh pair has no distribution — treat it like a fixed-timeout monitor);
// `max_timeout` caps the adaptive threshold so a pathological sample set
// can never postpone real-crash detection unboundedly.
//
// Runtime-neutral like HeartbeatFd: stand-alone it arms its own per-node
// ping timer; under fd::TimeoutDetector the pacing is the batched
// environment wave and ping/ack frames ride the simulator's background
// fast path.  Unadmitted joiners ack pings to stay audible, exactly as in
// fd/heartbeat.hpp.
#pragma once

#include <cmath>
#include <vector>

#include "common/runtime.hpp"
#include "gmp/messages.hpp"
#include "gmp/node.hpp"

namespace gmpx::fd {

/// φ-accrual tuning.  Thresholds drive suspicion only — never correctness
/// (the paper's "time as an approximate tool" caveat).
struct PhiOptions {
  Tick interval = 200;      ///< ping period (shared wave cadence)
  double threshold = 8.0;   ///< suspect when φ(elapsed) exceeds this
  uint32_t window = 32;     ///< inter-arrival samples kept per pair
  uint32_t min_samples = 4; ///< ring size before the fit is trusted
  Tick min_stddev = 25;     ///< σ floor: keeps quiet channels from hair-triggering
  Tick bootstrap_timeout = 800;  ///< fixed threshold until the fit is trusted
  Tick max_timeout = 4000;       ///< adaptive-threshold cap (bounds detection latency)
  friend bool operator==(const PhiOptions&, const PhiOptions&) = default;
};

/// z-score equivalent of a φ threshold: the z with Q(z) = 10^(-phi), where
/// Q is the standard normal upper tail.  Monotone bisection on erfc — runs
/// once per detector construction, never on a hot path.
inline double phi_threshold_z(double phi) {
  double lo = 0.0, hi = 64.0;
  const double p = std::pow(10.0, -phi);
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (0.5 * std::erfc(mid / std::sqrt(2.0)) > p) lo = mid;
    else hi = mid;
  }
  return 0.5 * (lo + hi);
}

/// The suspicion level itself, for tests and telemetry (the monitor's hot
/// path uses the precomputed z form instead).
inline double phi_value(double elapsed, double mean, double stddev) {
  const double q = 0.5 * std::erfc((elapsed - mean) / (stddev * std::sqrt(2.0)));
  if (q <= 1e-300) return 300.0;  // erfc underflow: effectively certain
  return -std::log10(q);
}

/// Decorating actor: one adaptive monitor per process.
class PhiFd final : public Actor {
 public:
  /// `self_arm` as in HeartbeatFd: true arms a per-node ping timer, false
  /// leaves pacing to an external driver (fd::TimeoutDetector's wave).
  PhiFd(gmp::GmpNode* inner, PhiOptions opts, bool self_arm = true)
      : inner_(inner), opts_(opts), self_arm_(self_arm) {
    z_ = phi_threshold_z(opts_.threshold);
  }

  void on_start(Context& ctx) override {
    inner_->on_start(ctx);
    if (self_arm_ && !inner_->has_quit()) arm(ctx);
  }

  void on_packet(Context& ctx, const Packet& p) override {
    if (p.kind == gmp::kind::kHeartbeat || p.kind == gmp::kind::kHeartbeatAck) {
      on_background(ctx, p.from, p.kind);
      return;
    }
    // Any protocol message is proof of life too — but NOT a distribution
    // sample: the fit models the detector's own cadence, and a view-change
    // burst of near-simultaneous protocol messages would flood the ring
    // with tiny gaps, collapse the fitted threshold toward z·min_stddev,
    // and fire a false suspicion at the first quiet scan afterwards.
    mark_heard_fresh(p.from, ctx.now());
    inner_->on_packet(ctx, p);
    if (inner_->has_quit()) disarm(ctx);
  }

  /// Detector-traffic entry point, shared by the packet path and the
  /// simulator's slab-free background fast path.
  void on_background(Context& ctx, ProcessId from, uint32_t kind) {
    if (inner_->isolated().count(from) || inner_->has_quit()) return;
    record_arrival(from, ctx.now());
    if (kind == gmp::kind::kHeartbeat && !inner_->admitted()) {
      ctx.send_background(from, gmp::kind::kHeartbeatAck);
    }
  }

  /// One monitor period (external-driver entry points as in HeartbeatFd).
  void tick(Context& ctx) {
    scan(ctx, [&ctx](ProcessId q) { ctx.send_background(q, gmp::kind::kHeartbeat); });
  }
  void tick_collect(Context& ctx, std::vector<ProcessId>& out) {
    scan(ctx, [&out](ProcessId q) { out.push_back(q); });
  }

  gmp::GmpNode& node() { return *inner_; }
  const gmp::GmpNode& node() const { return *inner_; }

  /// Last proof of life from `q` (0 = never heard).
  Tick last_heard(ProcessId q) const {
    return q < pairs_.size() ? pairs_[q].last : 0;
  }

  /// Current per-pair silence threshold: bootstrap until the fit is
  /// trusted, then mean + z·max(σ, min_stddev) clamped to max_timeout.
  Tick suspect_after(ProcessId q) const {
    if (q >= pairs_.size() || pairs_[q].count < opts_.min_samples)
      return opts_.bootstrap_timeout;
    return pairs_[q].threshold;
  }

  /// Smallest inter-arrival gap currently in `q`'s ring (0 = no samples).
  /// The detector's skip horizon derives its conservative per-pair bound
  /// from this: future samples can never drag the fitted threshold below
  /// min(ring minimum, next benign gap) + z·min_stddev.
  Tick min_gap(ProcessId q) const { return q < pairs_.size() ? pairs_[q].min_gap : 0; }

  /// Sample count in `q`'s ring.
  uint32_t samples(ProcessId q) const { return q < pairs_.size() ? pairs_[q].count : 0; }

  /// Synthetic proof-of-life refresh from the fast-forward reconciliation:
  /// updates `last` WITHOUT recording an inter-arrival sample — elided
  /// upkeep must not fabricate distribution data (real elided arrivals are
  /// replayed through on_elided_background and DO sample).
  void mark_heard(ProcessId q, Tick t) { pair(q).last = t; }

  /// mark_heard, but never moves `last` backwards (packet paths can race
  /// replayed arrivals in unspecified order).
  void mark_heard_fresh(ProcessId q, Tick t) {
    Pair& p = pair(q);
    if (t > p.last) p.last = t;
  }

  /// Real (possibly replayed) arrival: refresh proof of life and feed the
  /// inter-arrival ring.
  void record_arrival(ProcessId q, Tick t) {
    Pair& p = pair(q);
    if (p.last != 0 && t > p.last) add_sample(p, t - p.last);
    if (t > p.last) p.last = t;
  }

  /// Rebind to a (pooled) node for a fresh run, clearing per-run state but
  /// keeping ring capacity.
  void reset(gmp::GmpNode* inner, PhiOptions opts, bool self_arm) {
    inner_ = inner;
    if (!(opts == opts_)) z_ = phi_threshold_z(opts.threshold);
    opts_ = opts;
    self_arm_ = self_arm;
    timer_ = 0;
    for (Pair& p : pairs_) {
      p.last = 0;
      p.count = 0;
      p.idx = 0;
      p.sum = 0;
      p.sumsq = 0;
      p.min_gap = 0;
      p.threshold = 0;
    }
    scratch_.clear();
  }

 private:
  /// Per-peer adaptive state: proof of life plus the inter-arrival ring
  /// summarized by running sum / sum-of-squares (O(1) refit per sample).
  struct Pair {
    Tick last = 0;
    uint32_t count = 0;
    uint32_t idx = 0;
    uint64_t sum = 0;
    uint64_t sumsq = 0;
    Tick min_gap = 0;
    Tick threshold = 0;  ///< cached suspect_after once count >= min_samples
    std::vector<Tick> ring;
  };

  template <typename Ping>
  void scan(Context& ctx, Ping&& ping) {
    if (inner_->has_quit()) return;
    if (!inner_->admitted()) return;
    const Tick now = ctx.now();
    // Snapshot the membership (suspect() can commit a view change and
    // reallocate the members vector mid-walk, as in HeartbeatFd).
    scratch_.assign(inner_->view().members().begin(), inner_->view().members().end());
    for (ProcessId q : scratch_) {
      if (q == ctx.self() || inner_->isolated().count(q)) continue;
      const Tick seen = last_heard(q);
      if (seen == 0) {
        pair(q).last = now;  // first sighting: grace starts now, no sample
      } else if (now - seen > suspect_after(q)) {
        inner_->suspect(ctx, q);
        if (inner_->has_quit()) return;
        continue;
      }
      ping(q);
    }
  }

  Pair& pair(ProcessId q) {
    if (q >= pairs_.size()) pairs_.resize(q + 1);
    Pair& p = pairs_[q];
    if (p.ring.size() != opts_.window) p.ring.assign(opts_.window, 0);
    return p;
  }

  void add_sample(Pair& p, Tick gap) {
    bool rescan_min = false;
    if (p.count == opts_.window) {
      const Tick old = p.ring[p.idx];
      p.sum -= old;
      p.sumsq -= static_cast<uint64_t>(old) * old;
      rescan_min = old == p.min_gap;
    } else {
      ++p.count;
    }
    p.ring[p.idx] = gap;
    p.idx = (p.idx + 1) % opts_.window;
    p.sum += gap;
    p.sumsq += static_cast<uint64_t>(gap) * gap;
    if (rescan_min) {
      Tick mn = kNeverTick;
      for (uint32_t i = 0; i < p.count; ++i) {
        const Tick g = p.ring[(p.idx + opts_.window - 1 - i) % opts_.window];
        if (g < mn) mn = g;
      }
      p.min_gap = mn;
    } else if (p.min_gap == 0 || gap < p.min_gap) {
      p.min_gap = gap;
    }
    if (p.count >= opts_.min_samples) {
      const double mean = static_cast<double>(p.sum) / p.count;
      double var = static_cast<double>(p.sumsq) / p.count - mean * mean;
      if (var < 0) var = 0;
      double sd = std::sqrt(var);
      const double floor_sd = static_cast<double>(opts_.min_stddev);
      if (sd < floor_sd) sd = floor_sd;
      const double t = std::ceil(mean + z_ * sd);
      p.threshold = t >= static_cast<double>(opts_.max_timeout)
                        ? opts_.max_timeout
                        : static_cast<Tick>(t);
    }
  }

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
  PhiOptions opts_;
  bool self_arm_;
  double z_ = 0.0;  ///< z-score form of opts_.threshold
  TimerId timer_ = 0;
  std::vector<Pair> pairs_;         ///< dense id -> adaptive monitor state
  std::vector<ProcessId> scratch_;  ///< scan()'s membership snapshot
};

}  // namespace gmpx::fd
