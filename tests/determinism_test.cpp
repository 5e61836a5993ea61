// Determinism regression suite: a seed names a run, forever.
//
// The simulator's contract is bit-reproducibility — every experiment and
// every fuzz failure is referenced by (profile, seed, options) alone.  These
// tests pin that contract at the two layers that matter: a single schedule
// executed twice yields an identical ExecResult (including a full trace
// fingerprint), and a sharded sweep yields byte-identical results for any
// --jobs value.
#include <gtest/gtest.h>

#include "harness/cluster.hpp"
#include "scenario/executor.hpp"
#include "scenario/generator.hpp"
#include "scenario/sweep.hpp"

using namespace gmpx;
using namespace gmpx::scenario;

namespace {

void expect_same_result(const ExecResult& a, const ExecResult& b) {
  EXPECT_EQ(a.quiesced, b.quiesced);
  EXPECT_EQ(a.liveness_checked, b.liveness_checked);
  EXPECT_EQ(a.end_tick, b.end_tick);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.final_view_size, b.final_view_size);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.check.violations, b.check.violations);
  // Virtual-time fast-forward telemetry is part of the deterministic
  // result: the same schedule must elide exactly the same spans.
  EXPECT_EQ(a.skipped_ticks, b.skipped_ticks);
  EXPECT_EQ(a.skipped_events, b.skipped_events);
  EXPECT_EQ(a.aborted_joins, b.aborted_joins);
}

}  // namespace

TEST(Determinism, SameSeedSameExecResult) {
  for (Profile p : {Profile::kMixed, Profile::kChurnHeavy, Profile::kPartitionHeavy,
                    Profile::kBurstCrash, Profile::kLossy}) {
    GeneratorOptions gen;
    gen.profile = p;
    for (uint64_t seed : {0ull, 7ull, 23ull}) {
      Schedule s = generate(seed, gen);
      ExecResult first = execute(s);
      ExecResult second = execute(s);
      SCOPED_TRACE(std::string(to_string(p)) + " seed=" + std::to_string(seed));
      expect_same_result(first, second);
      EXPECT_NE(first.trace_hash, 0u);  // the fingerprint actually hashed something
    }
  }
}

TEST(Determinism, SameSeedSameExecResultHeartbeatFd) {
  // The heartbeat detector adds ping traffic, storm-calibrated schedules
  // and protocol-quiescence detection to the run; none of it may cost
  // bit-reproducibility.
  for (Profile p : {Profile::kMixed, Profile::kChurnHeavy, Profile::kPartitionHeavy,
                    Profile::kBurstCrash, Profile::kLossy}) {
    ExecOptions exec;
    exec.fd = fd::DetectorKind::kHeartbeat;
    GeneratorOptions gen = tuned_for_heartbeat({}, exec.heartbeat);
    gen.profile = p;
    for (uint64_t seed : {0ull, 7ull, 23ull}) {
      Schedule s = generate(seed, gen);
      ExecResult first = execute(s, exec);
      ExecResult second = execute(s, exec);
      SCOPED_TRACE(std::string(to_string(p)) + "/heartbeat seed=" + std::to_string(seed));
      expect_same_result(first, second);
      EXPECT_EQ(first.fd_messages, second.fd_messages);
      // The detector really ran: either its upkeep was simulated for real,
      // or the fast-forward engine provably elided it (a run whose every
      // ping wave is skipped reports zero detector sends by design).
      EXPECT_GT(first.fd_messages + first.skipped_events, 0u);
      EXPECT_NE(first.trace_hash, 0u);
    }
  }
}

TEST(Determinism, SameSeedSameExecResultPhiFd) {
  // The adaptive detector folds observed inter-arrival history into its
  // thresholds, and the lossy profile folds per-frame fault draws into the
  // run RNG — every bit of both must replay.
  for (Profile p : {Profile::kMixed, Profile::kChurnHeavy, Profile::kPartitionHeavy,
                    Profile::kBurstCrash, Profile::kLossy}) {
    ExecOptions exec;
    exec.fd = fd::DetectorKind::kPhi;
    GeneratorOptions gen = tuned_for_phi({}, exec.phi);
    gen.profile = p;
    for (uint64_t seed : {0ull, 7ull, 23ull}) {
      Schedule s = generate(seed, gen);
      ExecResult first = execute(s, exec);
      ExecResult second = execute(s, exec);
      SCOPED_TRACE(std::string(to_string(p)) + "/phi seed=" + std::to_string(seed));
      expect_same_result(first, second);
      EXPECT_EQ(first.fd_messages, second.fd_messages);
      EXPECT_GT(first.fd_messages + first.skipped_events, 0u);
      EXPECT_NE(first.trace_hash, 0u);
    }
  }
}

TEST(Determinism, PooledClusterResetMatchesFreshCluster) {
  // The zero-alloc sweep reuses one cluster per worker via Cluster::reset();
  // that reuse must be *observationally identical* to building a fresh
  // deployment per run.  Execute every schedule both ways — fresh, and on a
  // long-lived pooled cluster whose state has been dirtied by all the
  // previous schedules — and require identical results (trace hash
  // included), for both detectors.
  for (fd::DetectorKind detector : {fd::DetectorKind::kOracle, fd::DetectorKind::kHeartbeat,
                                    fd::DetectorKind::kPhi}) {
    ExecOptions exec;
    exec.fd = detector;
    harness::Cluster pooled{harness::ClusterOptions{}};
    for (Profile p : {Profile::kMixed, Profile::kChurnHeavy, Profile::kPartitionHeavy,
                      Profile::kBurstCrash, Profile::kLossy}) {
      GeneratorOptions gen;
      gen.profile = p;
      if (detector == fd::DetectorKind::kHeartbeat) gen = tuned_for_heartbeat(gen, exec.heartbeat);
      if (detector == fd::DetectorKind::kPhi) gen = tuned_for_phi(gen, exec.phi);
      for (uint64_t seed : {1ull, 11ull, 29ull}) {
        Schedule s = generate(seed, gen);
        ExecResult fresh = execute(s, exec);
        ExecResult reused = execute(s, exec, pooled);
        SCOPED_TRACE(std::string(to_string(p)) + "/" + fd::to_string(detector) +
                     " seed=" + std::to_string(seed));
        expect_same_result(fresh, reused);
      }
    }
  }
}

TEST(Determinism, BurstMatchesSingleStepEveryProfileAndDetector) {
  // The burst dataplane drains whole same-tick batches (destination-sorted
  // prefetch, encode-once fan-out) where the legacy loop steps one event at
  // a time.  The contract is byte-identity: for every profile x detector
  // cell, the two replay modes must produce the same trace fingerprint,
  // verdict, telemetry, and tick-for-tick results.  This is the test that
  // lets the sweep default to burst mode without a determinism caveat.
  for (fd::DetectorKind detector : {fd::DetectorKind::kOracle, fd::DetectorKind::kHeartbeat,
                                    fd::DetectorKind::kPhi}) {
    ExecOptions burst_on;
    burst_on.fd = detector;
    ExecOptions burst_off = burst_on;
    burst_off.burst = false;
    bool any_burst = false;
    for (Profile p : {Profile::kMixed, Profile::kChurnHeavy, Profile::kPartitionHeavy,
                      Profile::kBurstCrash, Profile::kLossy}) {
      GeneratorOptions gen;
      gen.profile = p;
      if (detector == fd::DetectorKind::kHeartbeat) gen = tuned_for_heartbeat(gen, burst_on.heartbeat);
      if (detector == fd::DetectorKind::kPhi) gen = tuned_for_phi(gen, burst_on.phi);
      for (uint64_t seed : {0ull, 7ull, 23ull}) {
        Schedule s = generate(seed, gen);
        ExecResult batched = execute(s, burst_on);
        ExecResult stepped = execute(s, burst_off);
        SCOPED_TRACE(std::string(to_string(p)) + "/" + fd::to_string(detector) +
                     " seed=" + std::to_string(seed));
        expect_same_result(batched, stepped);
        EXPECT_EQ(batched.fd_messages, stepped.fd_messages);
        // The toggle is real: legacy mode never reports burst telemetry...
        EXPECT_EQ(stepped.bursts, 0u);
        EXPECT_EQ(stepped.burst_events, 0u);
        if (batched.bursts > 0) any_burst = true;
      }
    }
    if (detector == fd::DetectorKind::kOracle) {
      // ...and burst mode actually engaged on the oracle axis, whose whole
      // quiescence loop (run_until_idle) is burst-drained.
      EXPECT_TRUE(any_burst);
    } else {
      // Timeout-detector runs end via run_until_protocol_idle, which steps
      // per event by contract — a skip firing between same-tick events may
      // elide trailing background events that a cross-boundary burst would
      // have dispatched.  Zero bursts on these axes pins that contract.
      EXPECT_FALSE(any_burst) << fd::to_string(detector);
    }
  }
}

TEST(Determinism, GoldenTimeoutDetectorTraceHashes) {
  // Behaviour contract of the timeout detectors' skip horizon: a faster
  // horizon must return the same value at every query, so every trace must
  // stay bit-identical.  Fold the trace fingerprint of seeds 0:200 x all
  // five profiles per (detector, n) cell and compare against folds captured
  // from the reference implementation (the per-detector pair scans the
  // shared TimeoutDetector core replaced).
  struct Cell {
    fd::DetectorKind detector;
    size_t n;
    uint64_t fold;
  };
  const Cell cells[] = {
      {fd::DetectorKind::kHeartbeat, 5, 0x4926671027eecc9bull},
      {fd::DetectorKind::kHeartbeat, 9, 0x9e2b34d34322e3aeull},
      {fd::DetectorKind::kPhi, 5, 0xc021b2dfaa6d74feull},
      {fd::DetectorKind::kPhi, 9, 0x5cd97ebb667a04c8ull},
  };
  for (const Cell& cell : cells) {
    SweepOptions opts;
    opts.seed_lo = 0;
    opts.seed_hi = 200;
    opts.detectors = {cell.detector};
    opts.gen.n = cell.n;
    opts.jobs = 4;
    SweepResult r = run_sweep(opts);
    ASSERT_EQ(r.run_log.size(), 1000u);
    uint64_t fold = 14695981039346656037ull;  // FNV-1a over the per-run hashes
    for (const SweepRun& run : r.run_log) {
      fold ^= run.trace_hash;
      fold *= 1099511628211ull;
    }
    EXPECT_EQ(fold, cell.fold) << fd::to_string(cell.detector) << " n=" << cell.n;
  }
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity check that the fingerprint has discriminating power: across a
  // seed range at least one pair of traces must differ.
  GeneratorOptions gen;
  gen.profile = Profile::kMixed;
  uint64_t h0 = execute(generate(0, gen)).trace_hash;
  bool any_different = false;
  for (uint64_t seed = 1; seed < 8 && !any_different; ++seed) {
    any_different = execute(generate(seed, gen)).trace_hash != h0;
  }
  EXPECT_TRUE(any_different);
}

TEST(Determinism, SweepIdenticalAcrossJobCounts) {
  // Both detector axes ride the same sharded grid: the merged output must
  // not depend on the worker count for either.
  SweepOptions opts;
  opts.seed_lo = 0;
  opts.seed_hi = 40;
  opts.detectors = {fd::DetectorKind::kOracle, fd::DetectorKind::kHeartbeat,
                    fd::DetectorKind::kPhi};
  opts.verbose = true;  // force per-run report lines so output is non-trivial

  // Streaming sink: with jobs > 1 the per-worker SPSC rings feed the main
  // thread's prefix flush — on_run must still see every run exactly once,
  // in canonical grid order, for any worker count.
  std::vector<std::string> streamed_serial, streamed_sharded;
  auto streaming_sink = [](std::vector<std::string>& into) {
    return [&into](const SweepRun& run) {
      into.push_back(std::string(to_string(run.profile)) + "/" +
                     fd::to_string(run.detector) + "/" + std::to_string(run.seed));
    };
  };

  opts.jobs = 1;
  opts.on_run = streaming_sink(streamed_serial);
  SweepResult serial = run_sweep(opts);
  opts.jobs = 8;
  opts.on_run = streaming_sink(streamed_sharded);
  SweepResult sharded = run_sweep(opts);

  EXPECT_EQ(serial.runs, sharded.runs);
  EXPECT_EQ(serial.failures, sharded.failures);
  EXPECT_EQ(serial.output, sharded.output);  // byte-identical merged report
  EXPECT_EQ(streamed_serial.size(), serial.runs);
  EXPECT_EQ(streamed_serial, streamed_sharded);  // ring merge keeps canonical order
  ASSERT_EQ(serial.run_log.size(), sharded.run_log.size());
  bool heartbeat_ran = false;
  bool phi_ran = false;
  for (size_t i = 0; i < serial.run_log.size(); ++i) {
    const SweepRun& a = serial.run_log[i];
    const SweepRun& b = sharded.run_log[i];
    EXPECT_EQ(a.profile, b.profile);
    EXPECT_EQ(a.detector, b.detector);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.end_tick, b.end_tick);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.fd_messages, b.fd_messages);
    EXPECT_EQ(a.trace_hash, b.trace_hash);
    if (a.detector == fd::DetectorKind::kHeartbeat && a.fd_messages > 0) heartbeat_ran = true;
    if (a.detector == fd::DetectorKind::kPhi && a.fd_messages > 0) phi_ran = true;
  }
  EXPECT_TRUE(heartbeat_ran);
  EXPECT_TRUE(phi_ran);
}

TEST(Determinism, SweepFailurePathIdenticalAcrossJobCounts) {
  // The failure path (report rendering + minimization) must also merge
  // deterministically: inject the GMP-1 bug so most runs fail.
  SweepOptions opts;
  opts.seed_lo = 0;
  opts.seed_hi = 6;
  opts.profiles = {Profile::kChurnHeavy};
  opts.gen.max_events = 8;
  opts.exec.inject_bug_unrecorded_suspicion = true;

  opts.jobs = 1;
  SweepResult serial = run_sweep(opts);
  opts.jobs = 3;
  SweepResult sharded = run_sweep(opts);

  EXPECT_GT(serial.failures, 0u);  // the injected bug actually fired
  EXPECT_EQ(serial.failures, sharded.failures);
  EXPECT_EQ(serial.output, sharded.output);
  ASSERT_EQ(serial.run_log.size(), sharded.run_log.size());
  for (size_t i = 0; i < serial.run_log.size(); ++i) {
    EXPECT_EQ(serial.run_log[i].schedule_text, sharded.run_log[i].schedule_text);
    EXPECT_EQ(serial.run_log[i].minimized_text, sharded.run_log[i].minimized_text);
    EXPECT_EQ(serial.run_log[i].tag, sharded.run_log[i].tag);
  }
}
