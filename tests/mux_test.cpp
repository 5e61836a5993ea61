// GroupMux contracts (src/mux/group_mux.hpp): the multiplexer that packs
// many pooled group deployments into one process must be a *pure function*
// of (seed, options) — independent of turn slicing and of how slots are
// recycled — and must preserve every single-group invariant:
//
//   * slot lifecycle: a group gives its slot back the moment its run
//     concludes, the slot's Cluster is reset() for the next group, and the
//     pooled replay is byte-identical to a fresh-cluster replay of the same
//     schedule (the cluster reset contract, extended to conclude-then-create
//     churn);
//   * slicing: advancing runs in small interleaved slices changes nothing
//     (the run loops are resumable — the event sequence never depends on
//     where the pauses fall);
//   * oracle skip-freedom: oracle-detector groups quiesce by queue drain
//     (run_to_quiescence never consults the skip engine), so a mux over
//     the oracle axis reports zero skipped ticks/events;
//   * sweep integration: the `groupmux` profile goes through the same
//     canonical merge as every other profile, so --jobs is invisible in
//     the output.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mux/group_mux.hpp"
#include "scenario/executor.hpp"
#include "scenario/sweep.hpp"

using namespace gmpx;
using namespace gmpx::mux;

namespace {

/// Small plan that still exercises slot recycling: creates spread over a
/// window several lifetimes wide, so later groups reuse retired slots.
MuxOptions churny(bool sessions) {
  MuxOptions m;
  m.groups = 10;
  m.spawn_span = 600'000;
  m.min_lifetime = 60'000;
  m.max_lifetime = 120'000;
  m.with_sessions = sessions;
  return m;
}

}  // namespace

TEST(MuxPlan, DeterministicAndShaped) {
  const MuxOptions m = churny(true);
  const MuxPlan a = generate_mux_plan(42, m);
  const MuxPlan b = generate_mux_plan(42, m);
  const MuxPlan c = generate_mux_plan(43, m);
  ASSERT_EQ(a.groups.size(), m.groups);
  bool differs = false;
  for (size_t i = 0; i < m.groups; ++i) {
    EXPECT_EQ(a.groups[i].gid, i);
    EXPECT_EQ(a.groups[i].seed, b.groups[i].seed);
    EXPECT_EQ(a.groups[i].create_at, b.groups[i].create_at);
    EXPECT_EQ(a.groups[i].retire_at, b.groups[i].retire_at);
    EXPECT_LE(a.groups[i].create_at, m.spawn_span);
    const Tick life = a.groups[i].retire_at - a.groups[i].create_at;
    EXPECT_GE(life, m.min_lifetime);
    EXPECT_LE(life, m.max_lifetime);
    // Per-group fault shapes draw from the five single-group profiles only.
    EXPECT_NE(a.groups[i].profile, scenario::Profile::kGroupMux);
    if (a.groups[i].seed != c.groups[i].seed) differs = true;
  }
  EXPECT_TRUE(differs) << "different mux seeds must yield different plans";
}

TEST(Mux, SliceSizeIsInvisible) {
  // The cohort heap interleaves groups differently for every slice budget,
  // but groups never interact — the folded trace hash and every aggregate
  // must come out identical.
  MuxOptions coarse = churny(true);
  coarse.slice_events = 1'000'000;  // each group concludes in one turn
  MuxOptions fine = churny(true);
  fine.slice_events = 64;  // heavy interleaving
  const MuxResult a = run_mux(7, coarse);
  const MuxResult b = run_mux(7, fine);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.quiesced, b.quiesced);
  EXPECT_EQ(a.sim_ticks, b.sim_ticks);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.ops_attempted, b.ops_attempted);
  EXPECT_EQ(a.ops_rejected, b.ops_rejected);
  EXPECT_GT(b.turns, a.turns) << "the fine slicing should take more turns";
}

TEST(Mux, PooledRetireThenCreateMatchesFreshClusters) {
  // Capture every group's (schedule, verdict) from a pooled mux run whose
  // plan forces slot reuse, then replay each schedule on a *fresh* cluster
  // through the one-shot executor.  Any state leaking across a slot's
  // retire-then-create boundary shows up as a trace-hash mismatch.
  MuxOptions m = churny(false);  // protocol-only: execute() is the referee
  struct Seen {
    scenario::Schedule sched;
    uint64_t trace_hash;
    bool ok;
  };
  std::map<uint32_t, Seen> seen;
  m.on_group = [&seen](const GroupOutcome& g) {
    seen[g.gid] = Seen{g.schedule, g.exec.trace_hash, g.exec.ok()};
  };
  const MuxResult res = run_mux(11, m);
  EXPECT_EQ(res.failures, 0u) << res.first_failure;
  EXPECT_EQ(res.retired, m.groups);
  ASSERT_EQ(seen.size(), m.groups);
  ASSERT_LT(res.slots, m.groups)
      << "plan did not force slot reuse; widen spawn_span or shrink lifetimes";

  scenario::ExecOptions exec;  // defaults match MuxOptions::exec defaults
  for (const auto& [gid, s] : seen) {
    const scenario::ExecResult fresh = scenario::execute(s.sched, exec);
    EXPECT_EQ(fresh.trace_hash, s.trace_hash) << "gid " << gid;
    EXPECT_EQ(fresh.ok(), s.ok) << "gid " << gid;
  }
}

TEST(Mux, ConcludedGroupsHoldNoSlot) {
  // A concluded group stays resident until its retire tick but gives its
  // slot back at once.  At the default slice every group concludes in its
  // first turn, so one pooled slot serves the whole plan.
  const MuxOptions coarse = churny(true);
  const MuxResult a = run_mux(7, coarse);
  EXPECT_EQ(a.failures, 0u) << a.first_failure;
  EXPECT_EQ(a.turns, a.groups);
  EXPECT_EQ(a.slots, 1u);
  EXPECT_GT(a.peak_resident, 1u);

  // Fine slicing keeps several runs in flight at once, each holding a slot;
  // the pool still never outgrows the resident population, and which slot
  // a group lands in changes nothing.
  MuxOptions fine = churny(true);
  fine.slice_events = 64;
  const MuxResult b = run_mux(7, fine);
  EXPECT_GT(b.slots, 1u);
  EXPECT_LE(b.slots, b.peak_resident);
  EXPECT_EQ(b.peak_resident, a.peak_resident);
  EXPECT_EQ(b.trace_hash, a.trace_hash);
  EXPECT_EQ(b.failures, a.failures);
  EXPECT_EQ(b.ops_attempted, a.ops_attempted);
}

TEST(Mux, OracleAxisStaysSkipFree) {
  MuxOptions m = churny(true);
  m.exec.fd = fd::DetectorKind::kOracle;
  const MuxResult oracle = run_mux(3, m);
  EXPECT_EQ(oracle.failures, 0u) << oracle.first_failure;
  EXPECT_EQ(oracle.skipped_ticks, 0u);
  EXPECT_EQ(oracle.skipped_events, 0u);

  // The timeout axis under the same plan seed leans on the skip engine for
  // its idle spans — the whole reason mostly-idle groups are nearly free.
  m.exec.fd = fd::DetectorKind::kHeartbeat;
  const MuxResult hb = run_mux(3, m);
  EXPECT_EQ(hb.failures, 0u) << hb.first_failure;
  EXPECT_GT(hb.skipped_ticks, 0u);
}

TEST(Mux, SessionsDriveTrafficAcrossGroups) {
  MuxOptions m = churny(true);
  m.sessions = 4;
  const MuxResult res = run_mux(5, m);
  EXPECT_EQ(res.failures, 0u) << res.first_failure;
  // Every group carries sopts.ops client ops.
  EXPECT_EQ(res.ops_attempted, m.groups * m.sopts.ops);
  EXPECT_EQ(res.availability_runs, m.groups);
  EXPECT_GT(res.mean_availability(), 0.0);
}

TEST(MuxSweep, JobsAreInvisibleInSweepOutput) {
  // The groupmux profile rides the standard canonical merge: one mux run
  // per (detector, seed) grid item, reports byte-identical for any jobs
  // value.
  scenario::SweepOptions base;
  base.seed_lo = 0;
  base.seed_hi = 4;
  base.profiles = {scenario::Profile::kGroupMux};
  base.detectors = {fd::DetectorKind::kOracle, fd::DetectorKind::kHeartbeat};
  base.verbose = true;
  base.mux = churny(true);

  scenario::SweepOptions j1 = base;
  j1.jobs = 1;
  scenario::SweepOptions j8 = base;
  j8.jobs = 8;
  const scenario::SweepResult a = scenario::run_sweep(j1);
  const scenario::SweepResult b = scenario::run_sweep(j8);
  EXPECT_EQ(a.failures, 0u);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.failures, b.failures);
  ASSERT_EQ(a.run_log.size(), b.run_log.size());
  for (size_t i = 0; i < a.run_log.size(); ++i) {
    EXPECT_EQ(a.run_log[i].trace_hash, b.run_log[i].trace_hash) << "run " << i;
    EXPECT_EQ(a.run_log[i].groups, b.run_log[i].groups) << "run " << i;
    EXPECT_EQ(a.run_log[i].occupancy, b.run_log[i].occupancy) << "run " << i;
  }
}
