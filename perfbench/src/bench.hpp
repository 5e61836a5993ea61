// Shared pieces of the end-to-end benchmark: arguments, the per-workload
// report, order statistics, wall-clock helpers, the in-memory span log and
// the benchmark's own (program-independent) checks over recorded traces.
//
// The benchmark drives the library only through its public headers and
// times those calls from outside; nothing here reaches into src/ internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "scenario/executor.hpp"
#include "scenario/schedule.hpp"
#include "trace/recorder.hpp"

namespace perfbench {

using gmpx::ProcessId;
using gmpx::Tick;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  ///< trace mode: where the span log is written
};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One workload's outcome.  `metrics` holds every figure the workload
/// measured, keyed by the names BENCHMARK.json lists; main() picks the
/// end-to-end or per-layer subset for the result line.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t problem_count = 0;
  std::vector<std::string> problems;  ///< first few failed checks
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;     ///< human-readable summary lines

  void problem(const std::string& what) {
    if (problems.size() < 16) problems.push_back(what);
    ++problem_count;
  }
  bool correct() const { return problem_count == 0; }
};

/// Order statistic with linear interpolation between closest ranks
/// (q in [0, 1]); NaN for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Timed rounds of one kind (plain or traced).  A run's throughput is all
/// their work over all their wall time; the per-round rates only feed the
/// summary line that shows the spread within the run.
struct Rounds {
  double work = 0, seconds = 0;
  std::vector<double> rates;
  void add(double w, double s) {
    work += w;
    seconds += s;
    rates.push_back(w / s);
  }
  bool empty() const { return rates.empty(); }
  double rate() const { return work / seconds; }
  /// "N rounds, per-round rate min/q1/median/q3/max a/b/c/d/e".
  std::string note() const;
};

/// Span log for the traced run: kept in memory, written out once at the
/// end as Chrome trace-event JSON (chrome://tracing, Perfetto).  A span
/// names a layer call; `parent` links it to the run or cycle it served.
class Spans {
 public:
  explicit Spans(bool on) : on_(on), origin_(Clock::now()) {}
  uint64_t next_id() { return ++last_id_; }
  void add(const char* name, uint64_t id, uint64_t parent, Clock::time_point start,
           Clock::time_point end);
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t id, parent;
    double start_us, dur_us;
  };
  static constexpr size_t kCap = 200'000;  ///< spans beyond this are counted, not kept
  bool on_;
  Clock::time_point origin_;
  uint64_t last_id_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Checks and view-change samples over a recorded trace.
// ---------------------------------------------------------------------------

/// Independent agreement check: processes installing the same version
/// install the same member set; each process's versions rise by exactly
/// one (an initial member's first install is version 1); with `liveness`,
/// every live member of the frontier view ends on that view and it holds
/// no crashed process.  Returns "" when all hold, else the first violation.
std::string check_views(const gmpx::trace::Recorder& rec, bool liveness);

/// One crash-driven view change.  Ticks are the recorder's clock: virtual
/// ticks in the simulator, microseconds since the epoch on TcpRuntime.
struct ViewChange {
  ProcessId victim = gmpx::kNilId;
  bool was_mgr = false;  ///< the victim held the Mgr role when it crashed
  Tick crash = 0;        ///< the recorded kCrash
  Tick detect = 0;       ///< first survivor kFaulty(victim) after the crash
  Tick installed = 0;    ///< last survivor's first install without the victim
  Tick latency() const { return installed - crash; }
  Tick commit() const { return installed - detect; }
};

/// Veto for a crash (victim, tick): true means the crash is not a sample.
using CrashVeto = std::function<bool(ProcessId, Tick)>;

/// Appends one sample per crash that counts (see README "View-change
/// samples"): nobody suspected the victim by the crash tick, the veto
/// passes, and every survivor (live member of the final frontier view that
/// held the victim in its view at the crash) installed a view without it.
void view_change_samples(const gmpx::trace::Recorder& rec, const CrashVeto& veto,
                         std::vector<ViewChange>& out);

/// Samples one simulated run's view changes into `out` (veto from its
/// schedule) and checks each against its detector's bound.  A sample below
/// the bound is a failed check, except on φ: its skip engine is known to
/// conjure such exclusions (README "Known faults"), so there they are
/// counted in fd.early_exclusions and named in a note instead.
void sample_sim_run(const gmpx::trace::Recorder& rec, const gmpx::scenario::Schedule& s,
                    const gmpx::scenario::ExecOptions& exec, const std::string& tag,
                    std::vector<ViewChange>& out, Report& r);

/// Folds view-change samples into the end-to-end metrics
/// (viewchange_ticks_p50/p99, commit_ticks_p50, reconfig_ticks_p50) and the
/// sample-count notes; a missing kind is a problem.
void report_view_changes(const std::vector<ViewChange>& samples, Report& r);

/// Peak resident set of this process, MiB.
double peak_rss_mib();

// Workloads.
Report run_fuzz_oracle(const Args& a, Spans& spans);
Report run_fuzz_phi(const Args& a, Spans& spans);
Report run_mux_soak(const Args& a, Spans& spans);
Report run_tcp_live(const Args& a, Spans& spans);

}  // namespace perfbench
