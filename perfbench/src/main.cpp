// End-to-end benchmark entry point.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Runs one workload (fuzz_oracle, fuzz_phi, mux_soak, tcp_live), prints a
// few human-readable summary lines, and ends with one JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (a layer a workload does not exercise reads 0).  The metric
// names and units mirror BENCHMARK.json.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"runs_per_s", "1/s"},          {"viewchange_ticks_p50", "ticks"},
    {"viewchange_ticks_p99", "ticks"}, {"commit_ticks_p50", "ticks"},
    {"reconfig_ticks_p50", "ticks"}, {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"scenario.generate_us", "us"},
    {"sim.run_us", "us"},
    {"gmp.msgs_per_run", "count"},
    {"fd.horizon_us", "us"},
    {"fd.horizon_calls", "count"},
    {"fd.skip_yield", "ratio"},
    {"fd.skipped_tick_share", "ratio"},
    {"fd.msgs_per_run", "count"},
    {"fd.early_exclusions", "count"},
    {"trace.check_us", "us"},
    {"trace.events_per_run", "count"},
    {"mux.us_per_group", "us"},
    {"mux.solo_us_per_group", "us"},
    {"mux.overhead_us_per_group", "us"},
    {"mux.turns_per_group", "count"},
    {"mux.peak_resident", "count"},
    {"soak.client_ops_per_s", "1/s"},
    {"soak.sync_passes_per_group", "count"},
    {"soak.ops_rejected_per_group", "count"},
    {"soak.availability", "ratio"},
    {"net.start_us", "us"},
    {"net.stop_us", "us"},
    {"net.detect_ms_p50", "ms"},
    {"bench.viewchange_samples", "count"},
    {"bench.traced_runs_per_s", "1/s"},
    {"bench.trace_overhead", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload fuzz_oracle|fuzz_phi|mux_soak|tcp_live --seed N\n"
               "                 --seconds S --trace 0|1 [--spans FILE]\n",
               why);
  std::exit(2);
}

/// Shortest decimal text that reads back as exactly `v`.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = *v && !*end;
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v, &end);
      have_seconds = *v && !*end && a.seconds > 0 && a.seconds <= 600;
    } else if (arg == "--trace") {
      have_trace = !std::strcmp(v, "0") || !std::strcmp(v, "1");
      a.trace = !std::strcmp(v, "1");
    } else if (arg == "--spans") {
      a.spans_path = v;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds (0 < S <= 600) and --trace 0|1 are required");

  perfbench::Spans spans(a.trace);
  Report r;
  if (a.workload == "fuzz_oracle") {
    r = perfbench::run_fuzz_oracle(a, spans);
  } else if (a.workload == "fuzz_phi") {
    r = perfbench::run_fuzz_phi(a, spans);
  } else if (a.workload == "mux_soak") {
    r = perfbench::run_mux_soak(a, spans);
  } else if (a.workload == "tcp_live") {
    r = perfbench::run_tcp_live(a, spans);
  } else {
    usage(("unknown workload " + a.workload).c_str());
  }
  r.metrics["peak_rss_mb"] = perfbench::peak_rss_mib();

  if (a.trace && !a.spans_path.empty() && !spans.write(a.spans_path))
    r.problem("cannot write the span log to " + a.spans_path);

  std::string metrics;
  auto emit = [&](const MetricDef& m, bool required) {
    const auto it = r.metrics.find(m.name);
    double v = it == r.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v) || (required && it == r.metrics.end())) {
      r.problem(std::string("metric ") + m.name + " was not measured");
      v = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + m.name + "\": {\"value\": " + number(v) + ", \"unit\": \"" +
               m.unit + "\"}";
  };
  if (a.trace) {
    for (const MetricDef& m : kPerLayer) emit(m, false);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m, true);
  }

  for (const std::string& n : r.notes) std::printf("%s: %s\n", a.workload.c_str(), n.c_str());
  for (const std::string& p : r.problems)
    std::printf("%s: CHECK FAILED: %s\n", a.workload.c_str(), p.c_str());
  if (r.problem_count > r.problems.size())
    std::printf("%s: ... %llu failed checks in all\n", a.workload.c_str(),
                static_cast<unsigned long long>(r.problem_count));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              r.correct() ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
