// fuzz_oracle / fuzz_phi: the fuzz sweep's warm loop (generate -> pooled
// execute) over the five single-group adversary profiles, one thread.
//
// Every profile gets a seed window drawn from --seed.  An untimed check
// pass runs the whole window (checks, view-change samples, reference trace
// hashes); each timed round replays the same prefix of every profile's
// window, so rounds do identical work and the virtual-time metrics are a
// pure function of the seed.  Rounds repeat until --seconds have been
// measured; runs_per_s is their schedules over their wall time.
#include <optional>

#include "bench.hpp"
#include "harness/cluster.hpp"
#include "scenario/generator.hpp"

namespace perfbench {
namespace {

using gmpx::fd::DetectorKind;
using gmpx::harness::Cluster;
using gmpx::harness::ClusterOptions;
using gmpx::scenario::ExecOptions;
using gmpx::scenario::ExecResult;
using gmpx::scenario::GeneratorOptions;
using gmpx::scenario::Profile;
using gmpx::scenario::Schedule;

struct FuzzSpec {
  DetectorKind fd;
  size_t n;                       ///< initial group size
  uint64_t check_seeds;           ///< per profile: the check pass (view-change samples)
  uint64_t round_seeds;           ///< per profile: one timed round (a prefix of the above)
};

constexpr Profile kProfiles[] = {Profile::kMixed, Profile::kChurnHeavy, Profile::kPartitionHeavy,
                                 Profile::kBurstCrash, Profile::kLossy};
constexpr size_t kWarmRuns = 256;   ///< runs per set-up warm-up
constexpr int kSetups = 5;          ///< set-up repetitions (setup_s is their median)
constexpr uint64_t kFreshEvery = 64;  ///< every k-th item is replayed on a fresh cluster

struct Item {
  GeneratorOptions gen;
  uint64_t seed;
};

/// Timed horizon-provider wrapper state for one traced round.
struct HorizonMeter {
  uint64_t calls = 0;
  double us = 0;
};

/// Per-layer sums over the traced runs.
struct LayerSums {
  uint64_t runs = 0;
  double generate_us = 0, execute_us = 0, check_us = 0;
  uint64_t msgs = 0, fd_msgs = 0, events = 0, skips = 0, skipped_ticks = 0, end_ticks = 0;
  HorizonMeter horizon;
};

Report run_fuzz(const Args& a, const FuzzSpec& spec, Spans& spans) {
  Report r;
  ExecOptions exec;
  exec.fd = spec.fd;
  std::vector<Item> items;
  for (Profile p : kProfiles) {
    GeneratorOptions gen;
    gen.n = spec.n;
    gen.profile = p;
    // As the sweep does: storms hot enough to cross the φ threshold.
    if (spec.fd == DetectorKind::kPhi) gen = gmpx::scenario::tuned_for_phi(gen, exec.phi);
    for (uint64_t k = 0; k < spec.check_seeds; ++k)
      items.push_back({gen, a.seed * spec.check_seeds + k});
  }
  // Timed rounds replay the first round_seeds of every profile.
  std::vector<size_t> round;
  for (size_t i = 0; i < items.size(); ++i)
    if (i % spec.check_seeds < spec.round_seeds) round.push_back(i);

  // Set-up: a fresh pooled deployment warmed over the first runs.
  std::optional<Cluster> cluster;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    const auto t0 = Clock::now();
    cluster.reset();
    cluster.emplace(ClusterOptions{});
    for (size_t k = 0; k < kWarmRuns && k < round.size(); ++k) {
      const Item& it = items[round[k]];
      gmpx::scenario::execute(gmpx::scenario::generate(it.seed, it.gen), exec, *cluster);
    }
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  r.metrics["setup_s"] = median(setups);

  // Check pass (untimed): the benchmark's own trace checks, view-change
  // samples, fresh-cluster replays, and the reference trace hashes.
  std::vector<uint64_t> hashes(items.size());
  std::vector<uint8_t> ok(items.size());
  std::vector<ViewChange> samples;
  for (size_t i = 0; i < items.size(); ++i) {
    const Schedule sched = gmpx::scenario::generate(items[i].seed, items[i].gen);
    const ExecResult res = gmpx::scenario::execute(sched, exec, *cluster);
    hashes[i] = res.trace_hash;
    ok[i] = res.ok();
    const std::string tag = std::string(gmpx::scenario::to_string(items[i].gen.profile)) +
                            " seed " + std::to_string(items[i].seed);
    if (!res.ok()) {
      r.notes.push_back("failed run: " + tag + ": " + res.message());
      continue;
    }
    const std::string err = check_views(cluster->recorder(), res.liveness_checked);
    if (!err.empty()) r.problem(tag + ": " + err);
    sample_sim_run(cluster->recorder(), sched, exec, tag, samples, r);
    if (i % kFreshEvery == 0 && gmpx::scenario::execute(sched, exec).trace_hash != res.trace_hash)
      r.problem(tag + ": fresh-cluster replay changed the trace hash");
  }
  report_view_changes(samples, r);

  // Timed rounds.  Trace mode alternates plain and traced rounds so the
  // tracing overhead is measured against the same host conditions.
  Rounds plain, traced_rounds;
  LayerSums sums;
  bool spans_taken = false;
  const auto measure_start = Clock::now();
  for (bool traced = false;; traced = a.trace && !traced) {
    const auto t0 = Clock::now();
    for (const size_t i : round) {
      ExecResult res;
      if (!traced) {
        res = gmpx::scenario::execute(gmpx::scenario::generate(items[i].seed, items[i].gen),
                                      exec, *cluster);
      } else {
        const bool keep = !spans_taken;
        const uint64_t run_id = keep ? spans.next_id() : 0;
        const auto g0 = Clock::now();
        const Schedule sched = gmpx::scenario::generate(items[i].seed, items[i].gen);
        const auto g1 = Clock::now();
        // execute() by hand: reset the pooled cluster exactly as it does,
        // then swap in a timed horizon provider before driving StagedRun.
        cluster->reset(gmpx::scenario::cluster_options_for(sched, exec));
        Cluster* c = &*cluster;
        HorizonMeter* m = &sums.horizon;
        c->world().set_horizon_provider([c, m](Tick now) {
          const auto h0 = Clock::now();
          const Tick v = c->detector().next_possible_detection(now);
          m->us += micros_between(h0, Clock::now());
          ++m->calls;
          return v;
        });
        gmpx::scenario::StagedRun run(*cluster, sched, exec);
        run.advance(exec.max_sim_events);
        res = run.take_result();
        const auto g2 = Clock::now();
        gmpx::trace::CheckOptions co;
        co.check_liveness = false;
        (void)gmpx::trace::check_gmp(cluster->recorder(), co);
        const auto g3 = Clock::now();
        sums.runs += 1;
        sums.generate_us += micros_between(g0, g1);
        sums.execute_us += micros_between(g1, g2);
        sums.check_us += micros_between(g2, g3);
        sums.msgs += res.messages;
        sums.fd_msgs += res.fd_messages;
        sums.skips += c->world().skips();
        sums.skipped_ticks += res.skipped_ticks;
        sums.end_ticks += res.end_tick;
        c->recorder().for_each_event([&sums](const gmpx::trace::Event&) { ++sums.events; });
        if (keep) {
          spans.add("run", run_id, 0, g0, g3);
          spans.add("scenario.generate", spans.next_id(), run_id, g0, g1);
          spans.add("scenario.execute", spans.next_id(), run_id, g1, g2);
          spans.add("trace.check_gmp", spans.next_id(), run_id, g2, g3);
        }
      }
      ++r.attempted;
      if (!res.ok()) ++r.failed;
      if (res.trace_hash != hashes[i]) {
        r.problem(std::string(traced ? "traced" : "plain") + " round changed the trace hash of " +
                  gmpx::scenario::to_string(items[i].gen.profile) + " seed " +
                  std::to_string(items[i].seed));
      }
    }
    (traced ? traced_rounds : plain)
        .add(static_cast<double>(round.size()), seconds_between(t0, Clock::now()));
    if (traced) spans_taken = true;
    if (seconds_between(measure_start, Clock::now()) >= a.seconds && !traced &&
        (!a.trace || !traced_rounds.empty()))
      break;
  }
  uint64_t round_failing = 0;
  for (const size_t i : round) round_failing += !ok[i];
  if (r.failed != round_failing * (r.attempted / round.size()))
    r.problem("failed runs differ between the check pass and the timed rounds");

  r.metrics["runs_per_s"] = plain.rate();
  r.notes.push_back(std::to_string(items.size()) + " schedules checked, " +
                    std::to_string(round.size()) + " per timed round; " + plain.note());
  if (a.trace && sums.runs) {
    const double n = static_cast<double>(sums.runs);
    r.metrics["bench.traced_runs_per_s"] = traced_rounds.rate();
    r.metrics["bench.trace_overhead"] = 1.0 - traced_rounds.rate() / plain.rate();
    r.metrics["scenario.generate_us"] = sums.generate_us / n;
    r.metrics["sim.run_us"] = (sums.execute_us - sums.check_us) / n;
    r.metrics["gmp.msgs_per_run"] = static_cast<double>(sums.msgs) / n;
    r.metrics["fd.msgs_per_run"] = static_cast<double>(sums.fd_msgs) / n;
    r.metrics["fd.horizon_us"] = sums.horizon.us / n;
    r.metrics["fd.horizon_calls"] = static_cast<double>(sums.horizon.calls) / n;
    r.metrics["fd.skip_yield"] =
        sums.horizon.calls ? static_cast<double>(sums.skips) / static_cast<double>(sums.horizon.calls)
                           : 0.0;
    r.metrics["fd.skipped_tick_share"] =
        sums.end_ticks ? static_cast<double>(sums.skipped_ticks) / static_cast<double>(sums.end_ticks)
                       : 0.0;
    r.metrics["trace.check_us"] = sums.check_us / n;
    r.metrics["trace.events_per_run"] = static_cast<double>(sums.events) / n;
  }
  return r;
}

}  // namespace

Report run_fuzz_oracle(const Args& a, Spans& spans) {
  return run_fuzz(a, {DetectorKind::kOracle, 5, 8000, 1000}, spans);
}

Report run_fuzz_phi(const Args& a, Spans& spans) {
  return run_fuzz(a, {DetectorKind::kPhi, 9, 3000, 300}, spans);
}

}  // namespace perfbench
