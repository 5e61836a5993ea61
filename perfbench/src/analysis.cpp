// Order statistics, the span log, and the benchmark's own checks over
// recorded traces (computed here from Recorder events, apart from the
// program's checkers and verdict).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include "bench.hpp"
#include "fd/detector.hpp"
#include "fd/phi.hpp"

namespace perfbench {

using gmpx::trace::Event;
using gmpx::trace::EventKind;

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string Rounds::note() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%zu rounds, per-round rate min/q1/median/q3/max %.1f/%.1f/%.1f/%.1f/%.1f",
                rates.size(), percentile(rates, 0), percentile(rates, 0.25), percentile(rates, 0.5),
                percentile(rates, 0.75), percentile(rates, 1));
  return buf;
}

void Spans::add(const char* name, uint64_t id, uint64_t parent, Clock::time_point start,
                Clock::time_point end) {
  if (!on_) return;
  if (spans_.size() >= kCap) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, id, parent, micros_between(origin_, start), micros_between(start, end)});
}

bool Spans::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"droppedSpans\":%llu,\"traceEvents\":[\n",
               static_cast<unsigned long long>(dropped_));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu}}\n",
                 i ? "," : "", s.name, s.start_us, s.dur_us, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::string check_views(const gmpx::trace::Recorder& rec, bool liveness) {
  const std::vector<ProcessId>& initial = rec.initial_membership();
  const std::set<ProcessId> initial_set(initial.begin(), initial.end());
  std::map<gmpx::ViewVersion, std::vector<ProcessId>> by_version;
  std::map<ProcessId, gmpx::ViewVersion> last_version;
  std::set<ProcessId> crashed;
  std::string err;
  rec.for_each_event([&](const Event& e) {
    if (!err.empty()) return;
    if (e.kind == EventKind::kCrash) crashed.insert(e.actor);
    if (e.kind != EventKind::kInstall) return;
    const auto [it, fresh] = by_version.try_emplace(e.version, e.members);
    if (!fresh && it->second != e.members) {
      err = "p" + std::to_string(e.actor) + " installed version " + std::to_string(e.version) +
            " with a member set another process installed differently";
      return;
    }
    const auto lv = last_version.find(e.actor);
    const bool first = lv == last_version.end();
    if (first ? initial_set.count(e.actor) && e.version != 1 : e.version != lv->second + 1) {
      err = "p" + std::to_string(e.actor) + " installed version " + std::to_string(e.version) +
            " after version " + (first ? std::string("0") : std::to_string(lv->second));
      return;
    }
    last_version[e.actor] = e.version;
  });
  if (!err.empty() || !liveness) return err;
  const gmpx::trace::ViewRecord frontier = rec.frontier_view();
  for (ProcessId m : frontier.members) {
    if (crashed.count(m)) {
      return "final view v" + std::to_string(frontier.version) + " holds crashed p" +
             std::to_string(m);
    }
    const auto lv = last_version.find(m);
    const gmpx::ViewVersion v = lv == last_version.end() ? 0 : lv->second;
    if (v != frontier.version) {
      return "survivor p" + std::to_string(m) + " ended on v" + std::to_string(v) +
             ", not the final view v" + std::to_string(frontier.version);
    }
  }
  return err;
}

void view_change_samples(const gmpx::trace::Recorder& rec, const CrashVeto& veto,
                         std::vector<ViewChange>& out) {
  const std::vector<Event> ev = rec.events();
  std::set<ProcessId> ever_crashed;
  for (const Event& e : ev)
    if (e.kind == EventKind::kCrash) ever_crashed.insert(e.actor);
  if (ever_crashed.empty()) return;
  const gmpx::trace::ViewRecord frontier = rec.frontier_view();
  const std::vector<ProcessId>& initial = rec.initial_membership();

  for (size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].kind != EventKind::kCrash) continue;
    const ProcessId q = ev[i].actor;
    const Tick c = ev[i].tick;
    if (veto && veto(q, c)) continue;
    // A suspicion of q recorded by the crash tick means the view change was
    // under way before the crash (a process that quits on losing its
    // majority records its crash in the same tick as the suspicions of it).
    bool suspected = false;
    for (const Event& e : ev)
      suspected = suspected || (e.kind == EventKind::kFaulty && e.target == q && e.tick <= c);
    if (suspected) continue;
    // Views and Mgr as of the crash.
    std::map<ProcessId, const std::vector<ProcessId>*> view;
    for (ProcessId p : initial) view[p] = &initial;
    ProcessId mgr = gmpx::kNilId;
    for (size_t j = 0; j < i; ++j) {
      const Event& e = ev[j];
      if (e.kind == EventKind::kInstall) view[e.actor] = &e.members;
      if (e.kind == EventKind::kBecameMgr) mgr = e.actor;
    }
    std::vector<ProcessId> survivors;
    for (ProcessId p : frontier.members) {
      if (p == q || ever_crashed.count(p)) continue;
      const auto v = view.find(p);
      if (v == view.end() || !std::binary_search(v->second->begin(), v->second->end(), q))
        continue;
      survivors.push_back(p);
    }
    if (survivors.empty()) continue;
    ViewChange s;
    s.victim = q;
    s.was_mgr = q == mgr;
    s.crash = c;
    bool complete = true;
    bool detected = false;
    for (ProcessId p : survivors) {
      bool found = false;
      for (size_t j = i + 1; j < ev.size() && !found; ++j) {
        const Event& e = ev[j];
        if (e.actor != p) continue;
        if (e.kind == EventKind::kFaulty && e.target == q && (!detected || e.tick < s.detect)) {
          s.detect = e.tick;
          detected = true;
        }
        if (e.kind == EventKind::kInstall &&
            !std::binary_search(e.members.begin(), e.members.end(), q)) {
          s.installed = std::max(s.installed, e.tick);
          found = true;
        }
      }
      complete = complete && found;
    }
    if (!complete) continue;
    if (!detected || s.detect > s.installed) s.detect = s.installed;
    out.push_back(s);
  }
}

namespace {

/// The smallest view-change sample a detector's settings allow, and how far
/// back its state remembers the network (the calm window a sample's crash
/// must have).  Oracle: min detection delay, no memory.  Heartbeat: timeout
/// - interval, memory timeout + interval.  φ: the fitted threshold on calm
/// channels (ring gaps >= interval - base jitter) minus one interval, memory
/// (window + 1) intervals plus the threshold cap.
struct DetectorBound {
  Tick min_sample = 0;
  Tick memory = 0;
};

DetectorBound detector_bound(const gmpx::scenario::ExecOptions& exec) {
  using gmpx::fd::DetectorKind;
  DetectorBound b;
  switch (exec.fd) {
    case DetectorKind::kOracle:
      b.min_sample = gmpx::fd::OracleOptions{}.min_delay;
      b.memory = 0;
      break;
    case DetectorKind::kHeartbeat:
      b.min_sample = exec.heartbeat.timeout - exec.heartbeat.interval;
      b.memory = exec.heartbeat.timeout + exec.heartbeat.interval;
      break;
    case DetectorKind::kPhi: {
      const gmpx::fd::PhiOptions& p = exec.phi;
      const gmpx::sim::DelayModel base{};
      const Tick calm_gap = p.interval - (base.max_delay - base.min_delay);
      const double z = gmpx::fd::phi_threshold_z(p.threshold);
      const Tick fitted =
          calm_gap + static_cast<Tick>(std::ceil(z * static_cast<double>(p.min_stddev)));
      const Tick threshold = std::min(p.bootstrap_timeout, fitted);
      b.min_sample = threshold > p.interval ? threshold - p.interval : 0;
      b.memory = (p.window + 1) * p.interval + p.max_timeout;
      break;
    }
  }
  return b;
}

/// Veto built from a simulated schedule: crashes of a process that a
/// scripted suspicion or leave involves, and crashes with a network fault
/// (partition, one-way cut, delay storm, channel-fault span) active within
/// `memory` ticks before the crash.
CrashVeto schedule_veto(const gmpx::scenario::Schedule& s, Tick memory) {
  using gmpx::scenario::EventType;
  struct Span {
    Tick lo, hi;
  };
  std::vector<Span> noisy;
  std::set<ProcessId> involved;
  for (const auto& e : s.events) {
    switch (e.type) {
      case EventType::kSuspect:
        involved.insert(e.target);
        involved.insert(e.observer);
        break;
      case EventType::kLeave:
        involved.insert(e.target);
        break;
      case EventType::kPartition:
      case EventType::kPartitionOneway: {
        Tick hi = gmpx::kNeverTick;
        if (e.duration > 0) {
          hi = e.at + e.duration;
        } else {
          for (const auto& h : s.events)
            if (h.type == EventType::kHeal && h.at >= e.at) hi = std::min(hi, h.at);
        }
        noisy.push_back({e.at, hi});
        break;
      }
      case EventType::kDelayStorm:
      case EventType::kFaults:
        noisy.push_back({e.at, e.at + e.duration});
        break;
      default:
        break;
    }
  }
  return [noisy = std::move(noisy), involved = std::move(involved), memory](ProcessId q,
                                                                            Tick c) {
    if (involved.count(q)) return true;
    for (const Span& sp : noisy)
      if (sp.lo <= c && (c < memory || sp.hi >= c - memory)) return true;
    return false;
  };
}

}  // namespace

void sample_sim_run(const gmpx::trace::Recorder& rec, const gmpx::scenario::Schedule& s,
                    const gmpx::scenario::ExecOptions& exec, const std::string& tag,
                    std::vector<ViewChange>& out, Report& r) {
  const DetectorBound bound = detector_bound(exec);
  const size_t first = out.size();
  view_change_samples(rec, schedule_veto(s, bound.memory), out);
  for (size_t k = first; k < out.size(); ++k) {
    if (out[k].latency() >= bound.min_sample) continue;
    const std::string what = tag + ": view change of p" + std::to_string(out[k].victim) +
                             " took " + std::to_string(out[k].latency()) +
                             " ticks, below the detector bound " + std::to_string(bound.min_sample);
    if (exec.fd != gmpx::fd::DetectorKind::kPhi) {
      r.problem(what);
    } else if (r.metrics["fd.early_exclusions"]++ < 3) {
      r.notes.push_back("early exclusion (known φ skip fault): " + what);
    }
  }
}

void report_view_changes(const std::vector<ViewChange>& samples, Report& r) {
  std::vector<double> all, commit, reconfig;
  for (const ViewChange& s : samples) {
    all.push_back(static_cast<double>(s.latency()));
    (s.was_mgr ? reconfig : commit).push_back(static_cast<double>(s.commit()));
  }
  if (all.empty() || commit.empty() || reconfig.empty()) {
    r.problem("view-change samples missing: " + std::to_string(commit.size()) + " non-Mgr, " +
              std::to_string(reconfig.size()) + " Mgr");
    return;
  }
  r.metrics["viewchange_ticks_p50"] = percentile(all, 0.5);
  r.metrics["viewchange_ticks_p99"] = percentile(all, 0.99);
  r.metrics["commit_ticks_p50"] = median(commit);
  r.metrics["reconfig_ticks_p50"] = median(reconfig);
  r.metrics["bench.viewchange_samples"] = static_cast<double>(all.size());
  if (const double early = r.metrics["fd.early_exclusions"]; early > 0)
    r.notes.push_back(std::to_string(static_cast<uint64_t>(early)) +
                      " view changes beat the detector bound (fd.early_exclusions)");
  r.notes.push_back("view-change samples: " + std::to_string(all.size()) + " (" +
                    std::to_string(commit.size()) + " non-Mgr crashes, " +
                    std::to_string(reconfig.size()) + " Mgr crashes)");
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
