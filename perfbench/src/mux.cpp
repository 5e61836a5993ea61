// mux_soak: mux::run_mux plans with client sessions, over the oracle,
// heartbeat and φ detectors in turn, as the nightly mux sweep runs them.
//
// A round is three 2000-group plans:
//   * oracle, plan seed 1 — fixed whatever --seed is: its group 1308 holds
//     a known APP-R4 staleness fault (README "Known faults"), so every round
//     counts exactly one failed group;
//   * heartbeat and φ, plan seed --seed mod 8 (plans 0..7 are clean at this
//     size; other seeds show the same APP-R4 fault, see README "Known faults").
// A run is one group deployment created, run, judged and retired.
#include <algorithm>

#include "bench.hpp"
#include "harness/cluster.hpp"
#include "mux/group_mux.hpp"
#include "soak/host.hpp"
#include "soak/runner.hpp"

namespace perfbench {
namespace {

using gmpx::fd::DetectorKind;
using gmpx::harness::Cluster;
using gmpx::harness::ClusterOptions;
using gmpx::mux::GroupOutcome;
using gmpx::mux::MuxOptions;
using gmpx::mux::MuxResult;

constexpr size_t kGroups = 2000;
constexpr uint64_t kFaultyOraclePlan = 1;
constexpr uint64_t kCleanPlanSeeds = 8;
constexpr uint32_t kSampleEvery = 4;  ///< replay every k-th group (and every failed one) solo
/// The heartbeat plan: every group is replayed solo, and the view-change
/// metrics come from its groups alone — mixing detectors whose latencies
/// differ tenfold would put the median between the modes.
constexpr size_t kViewChangePlan = 1;
constexpr size_t kWarmGroups = 64;
constexpr int kSetups = 5;

struct PlanSpec {
  DetectorKind fd;
  uint64_t seed;
};

/// A group copied out of the mux's harvest callback for a solo replay.
struct Captured {
  size_t plan;
  uint32_t gid;
  gmpx::scenario::Schedule sched;
  gmpx::soak::Workload workload;
  uint64_t hash;
  bool ok;
};

MuxOptions plan_options(const PlanSpec& p) {
  MuxOptions m;
  m.groups = kGroups;
  m.exec.fd = p.fd;
  return m;
}

}  // namespace

Report run_mux_soak(const Args& a, Spans& spans) {
  Report r;
  const std::vector<PlanSpec> plans = {{DetectorKind::kOracle, kFaultyOraclePlan},
                                       {DetectorKind::kHeartbeat, a.seed % kCleanPlanSeeds},
                                       {DetectorKind::kPhi, a.seed % kCleanPlanSeeds}};

  // Set-up: the round's churn plans plus a small warm-up plan per detector.
  std::vector<double> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    const auto t0 = Clock::now();
    for (const PlanSpec& p : plans) {
      MuxOptions m = plan_options(p);
      (void)gmpx::mux::generate_mux_plan(p.seed, m);
      m.groups = kWarmGroups;
      (void)gmpx::mux::run_mux(p.seed, m);
    }
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  r.metrics["setup_s"] = median(setups);

  std::vector<MuxResult> first(plans.size());
  std::vector<Captured> sample, traced_groups;
  std::vector<uint8_t> harvested(kGroups);
  Rounds plain, ops_rounds, traced_rounds;
  double traced_mux_s = 0, traced_ops = 0;
  uint64_t traced_group_count = 0;
  MuxResult agg;  // per-layer sums over the traced round's plans
  int rounds = 0;
  const auto measure_start = Clock::now();
  for (bool traced = false;; traced = a.trace && !traced) {
    const bool first_round = rounds == 0;
    const bool capture_all = traced && traced_groups.empty();
    uint64_t groups = 0, ops = 0;
    double elapsed = 0;
    for (size_t k = 0; k < plans.size(); ++k) {
      MuxOptions m = plan_options(plans[k]);
      std::fill(harvested.begin(), harvested.end(), 0);
      m.on_group = [&](const GroupOutcome& g) {
        if (g.gid < harvested.size()) ++harvested[g.gid];
        const bool ok = g.exec.ok() && g.app_ok;
        if (capture_all ||
            (first_round && (k == kViewChangePlan || g.gid % kSampleEvery == 0 || !ok))) {
          (capture_all ? traced_groups : sample)
              .push_back({k, g.gid, g.schedule, g.workload, g.exec.trace_hash, ok});
        }
      };
      const auto t0 = Clock::now();
      const MuxResult res = gmpx::mux::run_mux(plans[k].seed, m);
      const auto t1 = Clock::now();
      elapsed += seconds_between(t0, t1);
      if (traced) spans.add("mux.run_mux", spans.next_id(), 0, t0, t1);
      for (uint32_t gid = 0; gid < kGroups; ++gid) {
        if (harvested[gid] != 1) {
          r.problem("plan " + std::to_string(k) + ": group " + std::to_string(gid) +
                    " harvested " + std::to_string(harvested[gid]) + " times");
        }
      }
      if (first_round) {
        first[k] = res;
        if (!res.first_failure.empty())
          r.notes.push_back("failed group in plan " + std::to_string(k) + ": " +
                            res.first_failure.substr(0, res.first_failure.find('\n')));
      } else if (res.trace_hash != first[k].trace_hash || res.failures != first[k].failures ||
                 res.ops_attempted != first[k].ops_attempted) {
        r.problem("plan " + std::to_string(k) + " did not repeat its first round");
      }
      groups += res.groups;
      ops += res.ops_attempted;
      r.attempted += res.groups;
      r.failed += res.failures;
      if (capture_all) {
        agg.turns += res.turns;
        agg.peak_resident = std::max(agg.peak_resident, res.peak_resident);
        agg.messages += res.messages;
        agg.fd_messages += res.fd_messages;
        agg.skipped_ticks += res.skipped_ticks;
        agg.sim_ticks += res.sim_ticks;
        agg.sync_passes += res.sync_passes;
        agg.ops_rejected += res.ops_rejected;
        agg.availability_sum += res.availability_sum;
        agg.availability_runs += res.availability_runs;
      }
    }
    if (traced) {
      traced_rounds.add(static_cast<double>(groups), elapsed);
      if (capture_all) {
        traced_mux_s = elapsed;
        traced_ops = static_cast<double>(ops);
        traced_group_count = groups;
      }
    } else {
      plain.add(static_cast<double>(groups), elapsed);
      ops_rounds.add(static_cast<double>(ops), elapsed);
    }
    ++rounds;
    if (seconds_between(measure_start, Clock::now()) >= a.seconds && !traced &&
        (!a.trace || !traced_rounds.empty()))
      break;
  }
  r.metrics["runs_per_s"] = plain.rate();
  r.notes.push_back("client_ops_per_s = " + std::to_string(ops_rounds.rate()) + " (1/s)");
  r.notes.push_back(std::to_string(kGroups * plans.size()) + " groups per round, " +
                    plain.note());

  // Checks (untimed): the sampled groups replayed alone through
  // soak::run_soak on one pooled cluster must reproduce the mux's per-group
  // trace hash and verdict; their traces feed the view-change samples.
  Cluster cluster{ClusterOptions{}};
  std::vector<ViewChange> samples;
  for (const Captured& g : sample) {
    const MuxOptions m = plan_options(plans[g.plan]);
    const gmpx::soak::SoakResult res =
        gmpx::soak::run_soak(g.sched, g.workload, m.exec, m.sopts, cluster);
    const std::string tag = "plan " + std::to_string(g.plan) + " group " + std::to_string(g.gid);
    if (res.exec.trace_hash != g.hash || res.ok() != g.ok) {
      r.problem(tag + ": solo replay differs from the mux (verdict " +
                std::string(res.ok() ? "ok" : "failed") + " vs " + (g.ok ? "ok" : "failed") + ")");
    }
    if (!res.ok()) continue;
    const std::string err = check_views(cluster.recorder(), res.exec.liveness_checked);
    if (!err.empty()) r.problem(tag + ": " + err);
    std::vector<ViewChange> vcs;
    sample_sim_run(cluster.recorder(), g.sched, m.exec, tag, vcs, r);
    if (g.plan == kViewChangePlan) samples.insert(samples.end(), vcs.begin(), vcs.end());
  }
  report_view_changes(samples, r);
  r.notes.push_back(std::to_string(sample.size()) + " groups replayed solo");

  if (a.trace && traced_group_count) {
    // Solo: the traced round's groups through soak::run_soak one at a time
    // on one pooled cluster; then again with the world's horizon provider
    // wrapped in a timer (StagedRun over the same soak host, as run_mux
    // drives it).
    double solo_us = 0, check_us = 0;
    uint64_t events = 0, horizon_calls = 0, skips = 0;
    double horizon_us = 0;
    for (const Captured& g : traced_groups) {
      const MuxOptions m = plan_options(plans[g.plan]);
      const auto t0 = Clock::now();
      const gmpx::soak::SoakResult res =
          gmpx::soak::run_soak(g.sched, g.workload, m.exec, m.sopts, cluster);
      const auto t1 = Clock::now();
      gmpx::trace::CheckOptions co;
      co.check_liveness = false;
      (void)gmpx::trace::check_gmp(cluster.recorder(), co);
      const auto t2 = Clock::now();
      solo_us += micros_between(t0, t1);
      check_us += micros_between(t1, t2);
      cluster.recorder().for_each_event([&events](const gmpx::trace::Event&) { ++events; });
      const uint64_t id = spans.next_id();
      spans.add("soak.run_soak", id, 0, t0, t1);
      spans.add("trace.check_gmp", spans.next_id(), id, t1, t2);
      if (res.exec.trace_hash != g.hash) r.problem("solo replay changed a group's trace hash");

      gmpx::soak::SoakHost host(g.workload, m.sopts);
      gmpx::scenario::ExecOptions e = m.exec;
      e.on_pre_start = [&](Cluster& c) {
        host.attach(c);
        Cluster* cp = &c;
        c.world().set_horizon_provider([cp, &horizon_calls, &horizon_us](Tick now) {
          const auto h0 = Clock::now();
          const Tick v = cp->detector().next_possible_detection(now);
          horizon_us += micros_between(h0, Clock::now());
          ++horizon_calls;
          return v;
        });
      };
      e.on_quiesced = [&host](Cluster& c, int pass) { return host.on_quiesced(c, pass); };
      cluster.reset(gmpx::scenario::cluster_options_for(g.sched, e));
      gmpx::scenario::StagedRun run(cluster, g.sched, e);
      run.advance(e.max_sim_events);
      skips += cluster.world().skips();
      if (run.result().trace_hash != g.hash)
        r.problem("timed-horizon replay changed a group's trace hash");
    }
    const double n = static_cast<double>(traced_group_count);
    const double mux_us = traced_mux_s * 1e6 / n;
    r.metrics["bench.traced_runs_per_s"] = traced_rounds.rate();
    r.metrics["bench.trace_overhead"] = 1.0 - traced_rounds.rate() / plain.rate();
    r.metrics["mux.us_per_group"] = mux_us;
    r.metrics["mux.solo_us_per_group"] = solo_us / n;
    r.metrics["mux.overhead_us_per_group"] = mux_us - solo_us / n;
    r.metrics["mux.turns_per_group"] = static_cast<double>(agg.turns) / n;
    r.metrics["mux.peak_resident"] = static_cast<double>(agg.peak_resident);
    r.metrics["soak.client_ops_per_s"] = traced_ops / traced_mux_s;
    r.metrics["soak.sync_passes_per_group"] = static_cast<double>(agg.sync_passes) / n;
    r.metrics["soak.ops_rejected_per_group"] = static_cast<double>(agg.ops_rejected) / n;
    r.metrics["soak.availability"] = agg.mean_availability();
    r.metrics["gmp.msgs_per_run"] = static_cast<double>(agg.messages) / n;
    r.metrics["fd.msgs_per_run"] = static_cast<double>(agg.fd_messages) / n;
    r.metrics["fd.skipped_tick_share"] =
        agg.sim_ticks ? static_cast<double>(agg.skipped_ticks) / static_cast<double>(agg.sim_ticks)
                      : 0.0;
    r.metrics["fd.horizon_us"] = horizon_us / n;
    r.metrics["fd.horizon_calls"] = static_cast<double>(horizon_calls) / n;
    r.metrics["fd.skip_yield"] =
        horizon_calls ? static_cast<double>(skips) / static_cast<double>(horizon_calls) : 0.0;
    r.metrics["trace.check_us"] = check_us / n;
    r.metrics["trace.events_per_run"] = static_cast<double>(events) / n;
  }
  return r;
}

}  // namespace perfbench
