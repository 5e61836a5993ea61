// GroupMux capacity (BENCH_groupmux.json): how many multiplexed group
// deployments one core sustains, and what the mux machinery costs against
// running the same deployments one at a time.
//
//   * BM_GroupMuxScale/N — one mux plan of N mostly-idle groups (bursty
//     reconfig + a sparse client-session trickle over a long per-group
//     horizon, heartbeat detection), run to completion on one thread.  The
//     headline row is N = 10000: ten thousand pooled deployments churned
//     through one process.  Counters:
//       groups_per_s — whole deployments concluded per second of wall time
//                      (the "groups sustained per core" figure: a group
//                      whose plan lifetime is L ticks is "sustained" when
//                      groups_per_s x L/tick_rate >= resident population —
//                      at these rates the pool is drained far faster than
//                      the plan horizon advances)
//       ops_per_s    — aggregate client session ops served per second
//       skip_ratio   — fast-forwarded / total simulated ticks: how close
//                      to free the idle spans are (the mostly-idle claim)
//       occupancy    — mean residency over the plan horizon, as a fraction
//                      of peak_resident
//       peak_resident— max deployments inside their [create, retire)
//                      window (the resident population, not the pool)
//       slots        — slot-pool high-water mark: max concurrently
//                      in-flight runs (a concluded group returns its slot
//                      at once, so this stays far below peak_resident)
//       failed       — groups with a dirty verdict (must be 0)
//
//   * BM_GroupMuxAB_Mux/N vs BM_GroupMuxAB_Serial/N — the A/B: the same
//     N-group plan executed (a) through the mux (pooled slots, sliced
//     cohort turns) and (b) as N independent one-shot deployments, each on
//     a freshly constructed Cluster — the "one cluster at a time" loop a
//     process-per-group fleet would cost, minus the OS overhead.  Both
//     sides replay byte-identical schedules (mux_test pins the trace-hash
//     equality); the delta is pure engine overhead: slab/arena reuse vs
//     rebuild, plus the cohort heap.  Protocol-only (no sessions) so the
//     comparison isolates the engines.
//
// Like every committed BENCH_*.json, numbers must come from a Release tree
// (the bench-report target refuses anything else).
#include <benchmark/benchmark.h>

#include <vector>

#include "mux/group_mux.hpp"
#include "scenario/executor.hpp"
#include "scenario/generator.hpp"

using namespace gmpx;

namespace {

/// Mostly-idle fleet shape: long per-group horizon, a burst of reconfig
/// events near the front, a trickle of client ops, heartbeat detection so
/// the skip engine owns the idle spans.
mux::MuxOptions fleet(size_t groups) {
  mux::MuxOptions m;
  m.groups = groups;
  m.sessions = 16;
  m.spawn_span = 400'000;
  m.min_lifetime = 120'000;
  m.max_lifetime = 360'000;
  m.gen.max_events = 6;  // bursty reconfig, then idle
  m.sopts.horizon = 150'000;
  m.sopts.ops = 8;
  m.exec.fd = fd::DetectorKind::kHeartbeat;
  return m;
}

void run_scale(benchmark::State& state) {
  const size_t groups = static_cast<size_t>(state.range(0));
  const mux::MuxOptions m = fleet(groups);
  uint64_t failures = 0, ops = 0, skipped = 0, sim_ticks = 0;
  double occupancy = 0.0;
  size_t peak = 0, slots = 0;
  uint64_t seed = 0;
  for (auto _ : state) {
    const mux::MuxResult r = mux::run_mux(++seed, m);
    failures += r.failures;
    ops += r.ops_attempted;
    skipped += r.skipped_ticks;
    sim_ticks += r.sim_ticks;
    occupancy = r.occupancy;
    peak = r.peak_resident;
    slots = r.slots;
    benchmark::DoNotOptimize(r.trace_hash);
  }
  state.counters["groups_per_s"] = benchmark::Counter(
      static_cast<double>(groups) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["ops_per_s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
  state.counters["skip_ratio"] = benchmark::Counter(
      sim_ticks ? static_cast<double>(skipped) / static_cast<double>(sim_ticks) : 0.0);
  state.counters["occupancy"] = benchmark::Counter(occupancy);
  state.counters["peak_resident"] = benchmark::Counter(static_cast<double>(peak));
  state.counters["slots"] = benchmark::Counter(static_cast<double>(slots));
  state.counters["failed"] = benchmark::Counter(static_cast<double>(failures));
}

/// A/B subject: the per-group schedules of one plan, captured once so both
/// sides replay identical inputs.
struct CapturedPlan {
  std::vector<scenario::Schedule> schedules;
  scenario::ExecOptions exec;
};

CapturedPlan capture(const mux::MuxOptions& m, uint64_t seed) {
  CapturedPlan cap;
  cap.exec = m.exec;
  mux::MuxOptions probe = m;
  probe.on_group = [&cap](const mux::GroupOutcome& g) { cap.schedules.push_back(g.schedule); };
  (void)mux::run_mux(seed, probe);
  return cap;
}

void run_ab(benchmark::State& state, bool through_mux) {
  const size_t groups = static_cast<size_t>(state.range(0));
  mux::MuxOptions m = fleet(groups);
  m.with_sessions = false;  // isolate the engines; no app layer on either side
  const CapturedPlan cap = through_mux ? CapturedPlan{} : capture(m, 1);
  uint64_t failures = 0;
  for (auto _ : state) {
    if (through_mux) {
      const mux::MuxResult r = mux::run_mux(1, m);
      failures += r.failures;
      benchmark::DoNotOptimize(r.trace_hash);
    } else {
      // One deployment at a time, each on a freshly built cluster — the
      // no-mux fleet: construct, replay, verdict, tear down, next.
      for (const scenario::Schedule& s : cap.schedules) {
        const scenario::ExecResult r = scenario::execute(s, cap.exec);
        if (!r.ok()) ++failures;
        benchmark::DoNotOptimize(r.trace_hash);
      }
    }
  }
  state.counters["groups_per_s"] = benchmark::Counter(
      static_cast<double>(groups) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["failed"] = benchmark::Counter(static_cast<double>(failures));
}

}  // namespace

static void BM_GroupMuxScale(benchmark::State& s) { run_scale(s); }
static void BM_GroupMuxAB_Mux(benchmark::State& s) { run_ab(s, true); }
static void BM_GroupMuxAB_Serial(benchmark::State& s) { run_ab(s, false); }

BENCHMARK(BM_GroupMuxScale)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GroupMuxAB_Mux)->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GroupMuxAB_Serial)->Arg(512)->Unit(benchmark::kMillisecond);
