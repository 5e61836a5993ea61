// tcp_live: repeated 3-member groups on localhost, one net::TcpRuntime
// event-loop thread per member running fd::HeartbeatFd in real
// microseconds, all three recording into one shared Recorder.
//
// Each cycle starts a fresh group, lets heartbeats flow for three intervals
// plus a seeded phase offset, stops one member's runtime (the crash), and
// waits until both survivors install a view without it.  A round is four
// cycles: the Mgr, a non-Mgr, the Mgr, a non-Mgr (seeded choice of p1/p2),
// so the Mgr-crash (reconfiguration) and non-Mgr-crash (commit) spans are
// reported apart — mixed together their median is bimodal.
//
// Ports: a window of 128 three-port slots from 29000, below the Linux
// ephemeral range (32768+, where the runtimes' own outgoing connections
// take their local ports) and clear of the test suites' 21000/23000/25000
// windows.  A failed bind is a failed cycle, never retried.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "fd/heartbeat.hpp"
#include "gmp/node.hpp"
#include "net/tcp_runtime.hpp"

namespace perfbench {
namespace {

using gmpx::trace::Event;
using gmpx::trace::EventKind;

constexpr Tick kInterval = 20'000;  ///< heartbeat period, µs
constexpr Tick kTimeout = 100'000;  ///< silence before suspicion, µs
constexpr uint16_t kPortBase = 29000;
constexpr uint32_t kPortSlots = 128;
constexpr ProcessId kN = 3;
constexpr auto kConvergeWait = std::chrono::seconds(2);
constexpr int kSetups = 5;

/// Forwards to the member's heartbeat detector and notes, on the loop
/// thread, when each peer was last heard from (any frame is proof of life,
/// exactly as for the detector).  Read only after the loop thread is joined.
class Witness final : public gmpx::Actor {
 public:
  explicit Witness(gmpx::Actor* inner) : inner_(inner) {}
  void on_start(gmpx::Context& ctx) override { inner_->on_start(ctx); }
  void on_packet(gmpx::Context& ctx, const gmpx::Packet& p) override {
    if (p.from < kN) last_[p.from] = ctx.now();
    inner_->on_packet(ctx, p);
  }
  Tick last_heard(ProcessId q) const { return last_[q]; }

 private:
  gmpx::Actor* inner_;
  Tick last_[kN] = {};
};

struct Cycle {
  bool ok = false;
  std::string why;  ///< failure reason when !ok
  double start_us = 0, stop_us = 0;
  ViewChange vc;
};

/// One group lifetime.  victim == kNilId starts, warms and stops the group
/// without a crash (the set-up cycle).
Cycle run_cycle(ProcessId victim, Tick warm_us, uint16_t base_port, uint64_t jitter_seed,
                Report& r, Spans& spans) {
  Cycle out;
  const std::vector<ProcessId> members = {0, 1, 2};
  gmpx::trace::Recorder rec;
  rec.set_initial_membership(members);
  std::mutex mu;
  std::condition_variable cv;
  uint64_t recorded = 0;  // guarded by mu; bumped by the sink on every event
  rec.set_sink([&](const Event&) {
    {
      std::lock_guard lock(mu);
      ++recorded;
    }
    cv.notify_all();
  });

  std::map<ProcessId, gmpx::net::PeerAddress> peers;
  for (ProcessId p : members)
    peers[p] = {"127.0.0.1", static_cast<uint16_t>(base_port + p)};
  gmpx::net::TcpOptions opts;
  opts.epoch_us = gmpx::net::monotonic_now_us();
  std::vector<std::unique_ptr<gmpx::gmp::GmpNode>> nodes;
  std::vector<std::unique_ptr<gmpx::fd::HeartbeatFd>> fds;
  std::vector<std::unique_ptr<Witness>> witnesses;
  std::vector<std::unique_ptr<gmpx::net::TcpRuntime>> rts;
  for (ProcessId p : members) {
    gmpx::gmp::Config cfg;
    cfg.initial_members = members;
    cfg.recorder = &rec;
    nodes.push_back(std::make_unique<gmpx::gmp::GmpNode>(p, cfg));
    gmpx::fd::HeartbeatOptions hb;
    hb.interval = kInterval;
    hb.timeout = kTimeout;
    fds.push_back(std::make_unique<gmpx::fd::HeartbeatFd>(nodes.back().get(), hb));
    witnesses.push_back(std::make_unique<Witness>(fds.back().get()));
    opts.jitter_seed = jitter_seed * kN + p + 1;
    rts.push_back(
        std::make_unique<gmpx::net::TcpRuntime>(p, peers, witnesses.back().get(), &rec, opts));
  }
  auto stop_all = [&rts] {
    for (auto& rt : rts) rt->stop();
  };

  const uint64_t cycle_id = spans.next_id();
  const auto c0 = Clock::now();
  for (ProcessId p : members) {
    if (!rts[p]->start()) {
      stop_all();
      out.why = "cannot bind port " + std::to_string(base_port + p);
      return out;
    }
  }
  const auto c1 = Clock::now();
  out.start_us = micros_between(c0, c1);
  spans.add("net.start", spans.next_id(), cycle_id, c0, c1);
  std::this_thread::sleep_for(std::chrono::microseconds(warm_us));
  bool premature = false;
  rec.for_each_event([&premature](const Event& e) {
    premature = premature || e.kind == EventKind::kFaulty;
  });
  if (premature) {
    stop_all();
    out.why = "suspicion before the crash";
    return out;
  }
  if (victim == gmpx::kNilId) {
    stop_all();
    out.ok = true;
    spans.add("net.setup_cycle", cycle_id, 0, c0, Clock::now());
    return out;
  }

  const Tick crash = gmpx::net::monotonic_now_us() - opts.epoch_us;
  rec.crash(victim, crash);
  const auto s0 = Clock::now();
  rts[victim]->stop();
  const auto s1 = Clock::now();
  out.stop_us = micros_between(s0, s1);
  spans.add("net.stop", spans.next_id(), cycle_id, s0, s1);

  auto converged = [&] {
    int done = 0;
    bool after_crash = false;
    rec.for_each_event([&](const Event& e) {
      if (e.kind == EventKind::kCrash) after_crash = true;
      if (after_crash && e.kind == EventKind::kInstall && e.actor != victim &&
          !std::binary_search(e.members.begin(), e.members.end(), victim))
        done |= 1 << e.actor;
    });
    return done == (((1 << kN) - 1) & ~(1 << victim));
  };
  const auto deadline = Clock::now() + kConvergeWait;
  bool done = false;
  std::unique_lock lock(mu);
  for (;;) {
    const uint64_t seen = recorded;
    lock.unlock();
    if ((done = converged())) break;
    lock.lock();
    if (!cv.wait_until(lock, deadline, [&] { return recorded != seen; })) break;
  }
  if (lock.owns_lock()) lock.unlock();
  const auto w1 = Clock::now();
  spans.add("gmp.exclusion", spans.next_id(), cycle_id, s1, w1);
  stop_all();
  spans.add("net.cycle", cycle_id, 0, c0, Clock::now());
  if (!done) {
    out.why = "survivors did not exclude p" + std::to_string(victim) + " within 2 s";
    return out;
  }

  // Independent checks: identical survivor views without the victim, and
  // the first suspicion of it only after `timeout` of silence from it at
  // that survivor.  (The stop is no proxy for the victim's last heartbeat:
  // a late timer on a busy host can leave it more than one interval before
  // the stop, so "exclusion >= timeout - interval" does not hold there.)
  const std::string err = check_views(rec, true);
  if (!err.empty()) r.problem("p" + std::to_string(victim) + " crash: " + err);
  std::vector<ViewChange> vcs;
  view_change_samples(rec, nullptr, vcs);
  const gmpx::trace::ViewRecord fin = rec.frontier_view();
  if (vcs.size() != 1 || fin.members.size() != kN - 1 ||
      std::binary_search(fin.members.begin(), fin.members.end(), victim)) {
    r.problem("p" + std::to_string(victim) + " crash: survivors did not end on one view without it");
    return out;
  }
  out.vc = vcs[0];
  ProcessId first = gmpx::kNilId;
  rec.for_each_event([&](const Event& e) {
    if (first == gmpx::kNilId && e.kind == EventKind::kFaulty && e.target == victim)
      first = e.actor;
  });
  const Tick silence = out.vc.detect - witnesses[first]->last_heard(victim);
  if (silence <= kTimeout)
    r.problem("p" + std::to_string(first) + " suspected p" + std::to_string(victim) + " after " +
              std::to_string(silence) + " us of silence, not more than the timeout");
  out.ok = true;
  return out;
}

}  // namespace

Report run_tcp_live(const Args& a, Spans& spans) {
  Report r;
  gmpx::Rng rng(a.seed ^ 0x7c9e3779b97f4a7cull);
  uint32_t slot = static_cast<uint32_t>(a.seed % kPortSlots);
  auto next_port = [&slot] {
    slot = (slot + 1) % kPortSlots;
    return static_cast<uint16_t>(kPortBase + kN * slot);
  };

  std::vector<double> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    const auto t0 = Clock::now();
    const Cycle c = run_cycle(gmpx::kNilId, 3 * kInterval, next_port(), rng.next(), r, spans);
    setups.push_back(seconds_between(t0, Clock::now()));
    if (!c.ok) r.notes.push_back("set-up cycle failed: " + c.why);
  }
  r.metrics["setup_s"] = median(setups);

  std::vector<ViewChange> samples;
  Rounds plain, traced_rounds;
  std::vector<double> start_us, stop_us, detect_ms;
  const auto measure_start = Clock::now();
  for (bool traced = false;; traced = a.trace && !traced) {
    Spans off(false);
    const auto t0 = Clock::now();
    for (int k = 0; k < 4; ++k) {
      const ProcessId victim = k % 2 == 0 ? 0 : static_cast<ProcessId>(1 + rng.below(2));
      const Tick warm = 3 * kInterval + rng.below(kInterval);
      const Cycle c = run_cycle(victim, warm, next_port(), rng.next(), r, traced ? spans : off);
      ++r.attempted;
      if (!c.ok) {
        ++r.failed;
        r.notes.push_back("failed cycle: " + c.why);
        continue;
      }
      samples.push_back(c.vc);
      start_us.push_back(c.start_us);
      stop_us.push_back(c.stop_us);
      detect_ms.push_back(static_cast<double>(c.vc.detect - c.vc.crash) / 1000.0);
    }
    (traced ? traced_rounds : plain).add(4.0, seconds_between(t0, Clock::now()));
    if (seconds_between(measure_start, Clock::now()) >= a.seconds && !traced &&
        (!a.trace || !traced_rounds.empty()))
      break;
  }
  r.metrics["runs_per_s"] = plain.rate();
  r.notes.push_back("4 cycles per round, " + plain.note());
  report_view_changes(samples, r);
  std::vector<double> exclusion_ms;
  for (const ViewChange& vc : samples) exclusion_ms.push_back(static_cast<double>(vc.latency()) / 1000.0);
  if (!exclusion_ms.empty()) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "exclusion ms min/median/max %.3f/%.3f/%.3f",
                  percentile(exclusion_ms, 0), percentile(exclusion_ms, 0.5),
                  percentile(exclusion_ms, 1));
    r.notes.push_back(buf);
  }
  if (r.metrics.count("viewchange_ticks_p50")) {
    r.notes.push_back("exclusion_ms_p50 = " +
                      std::to_string(r.metrics["viewchange_ticks_p50"] / 1000.0) +
                      " ms, commit_us_p50 = " + std::to_string(r.metrics["commit_ticks_p50"]) +
                      " us, reconfig_us_p50 = " + std::to_string(r.metrics["reconfig_ticks_p50"]) +
                      " us (one tick = 1 us on TcpRuntime)");
  }
  if (a.trace) {
    r.metrics["bench.traced_runs_per_s"] = traced_rounds.rate();
    r.metrics["bench.trace_overhead"] = 1.0 - traced_rounds.rate() / plain.rate();
    double s = 0;
    for (double v : start_us) s += v;
    r.metrics["net.start_us"] = start_us.empty() ? 0.0 : s / static_cast<double>(start_us.size());
    s = 0;
    for (double v : stop_us) s += v;
    r.metrics["net.stop_us"] = stop_us.empty() ? 0.0 : s / static_cast<double>(stop_us.size());
    r.metrics["net.detect_ms_p50"] = median(detect_ms);
  }
  return r;
}

}  // namespace perfbench
