#!/usr/bin/env python3
"""Collect, compare and judge the steadiness of perfbench runs.

  collect  Run the benchmark from one or two checkouts and append one JSON
           line per run to a file.  With two checkouts (parent first, then
           the change) every seed is a pair, and the side that runs first
           alternates from pair to pair.
             compare.py collect --out runs.jsonl --checkout PARENT --checkout CHANGE \\
                 --workloads all --seeds 1:11 [--seconds 20] [--trace 0]
  diff     Per workload and metric: each side's median and quartiles, and a
           verdict.  "improved" / "regressed" needs the change to win (lose)
           at least nine in ten pairs, ties counting for neither, and the
           medians to differ by more than the parent's interquartile range;
           anything else is "unresolved".  The last column says whether the
           change's median is worse than the parent's by more than the
           metric's bound in BENCHMARK.json.
             compare.py diff runs.jsonl
  steady   Rerun of one commit: each metric's spread (interquartile range
           over median) against its bound, and whether the share of failed
           operations is the same in every run.
             compare.py steady runs.jsonl

Quartiles are statistics.quantiles(values, n=4).  Each line of a runs file
is {"side", "checkout", "workload", "seed", "order", "result", "log"}, where
"result" is the benchmark's JSON result line and "log" the summary lines
printed before it (failed checks among them).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fuzz_oracle", "fuzz_phi", "mux_soak", "tcp_live")


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        metrics[m["name"]] = m
    return spec, metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def parse_seeds(text):
    lo, _, hi = text.partition(":")
    return range(int(lo), int(hi)) if hi else [int(lo)]


def run_one(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise SystemExit("run failed (%s, %s, seed %d): exit %d" %
                         (checkout, workload, seed, res.returncode))
    return json.loads(lines[-1]), lines[:-1]


def collect(args):
    checkouts = args.checkout or [os.path.dirname(HERE)]
    if len(checkouts) > 2:
        raise SystemExit("collect takes one or two checkouts")
    workloads = WORKLOADS if args.workloads == "all" else args.workloads.split(",")
    seconds = args.seconds
    if seconds is None:
        seconds = load_spec(checkouts[0])[0]["run_seconds"]
    with open(args.out, "a") as out:
        for workload in workloads:
            for order, seed in enumerate(parse_seeds(args.seeds)):
                sides = list(enumerate(checkouts))
                if order % 2 == 1:
                    sides.reverse()
                for side, checkout in sides:
                    result, log = run_one(checkout, workload, seed, seconds, args.trace)
                    line = {"side": "AB"[side], "checkout": checkout, "workload": workload,
                            "seed": seed, "order": order, "result": result, "log": log}
                    out.write(json.dumps(line) + "\n")
                    out.flush()
                    print("%s %s seed %d: correct=%s attempted=%d failed=%d" %
                          ("AB"[side], workload, seed, result["correct"], result["attempted"],
                           result["failed"]), file=sys.stderr)


def read_runs(path):
    runs = {}
    with open(path) as f:
        for text in f:
            if text.strip():
                line = json.loads(text)
                runs.setdefault((line["workload"], line["side"]), []).append(line)
    return runs


def better(metric, a, b):
    """+1 when b is better than a, -1 when worse, 0 on a tie."""
    if a == b:
        return 0
    higher = metric.get("better", "lower") == "higher"
    return 1 if (b > a) == higher else -1


def diff(args):
    _, metrics = load_spec(os.path.dirname(HERE))
    runs = read_runs(args.runs)
    print("%-11s %-28s %-34s %-34s %5s  %-10s %s" %
          ("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins",
           "verdict", "vs bound"))
    for workload in WORKLOADS:
        a_runs = runs.get((workload, "A"), [])
        b_runs = runs.get((workload, "B"), [])
        if not a_runs or not b_runs:
            continue
        b_by_seed = {r["seed"]: r for r in b_runs}
        pairs = [(r, b_by_seed[r["seed"]]) for r in a_runs if r["seed"] in b_by_seed]
        for name in a_runs[0]["result"]["metrics"]:
            m = metrics.get(name, {"better": "lower"})
            a_vals = [r["result"]["metrics"][name]["value"] for r in a_runs]
            b_vals = [r["result"]["metrics"][name]["value"] for r in b_runs]
            aq, bq = quartiles(a_vals), quartiles(b_vals)
            outcomes = [better(m, pa["result"]["metrics"][name]["value"],
                               pb["result"]["metrics"][name]["value"]) for pa, pb in pairs]
            wins, losses = outcomes.count(1), outcomes.count(-1)
            spread = aq[2] - aq[0]
            moved = abs(bq[1] - aq[1]) > spread
            verdict = "unresolved"
            if pairs and moved and wins >= 0.9 * len(pairs):
                verdict = "improved"
            elif pairs and moved and losses >= 0.9 * len(pairs):
                verdict = "regressed"
            bound = m.get("bound")
            beyond = ""
            if bound is not None and aq[1]:
                worse = (aq[1] - bq[1]) if m["better"] == "higher" else (bq[1] - aq[1])
                beyond = "BEYOND %.0f%%" % (100 * bound) if worse > bound * abs(aq[1]) else "within"
            print("%-11s %-28s %-34s %-34s %2d/%-2d  %-10s %s" %
                  (workload, name, "%.6g [%.6g, %.6g]" % (aq[1], aq[0], aq[2]),
                   "%.6g [%.6g, %.6g]" % (bq[1], bq[0], bq[2]), wins, len(pairs), verdict, beyond))
        for side, side_runs in (("parent", a_runs), ("change", b_runs)):
            shares = {r["result"]["failed"] / r["result"]["attempted"] for r in side_runs}
            print("%-11s %s failed share per run: %s" %
                  (workload, side, ", ".join("%.6g" % s for s in sorted(shares))))


def steady(args):
    _, metrics = load_spec(os.path.dirname(HERE))
    runs = read_runs(args.runs)
    ok = True
    print("%-11s %-28s %5s %14s %9s %7s  %s" %
          ("workload", "metric", "runs", "median", "iqr/med", "bound", "status"))
    for workload in WORKLOADS:
        side_runs = runs.get((workload, "A"), [])
        if not side_runs:
            continue
        for name in side_runs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in side_runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = metrics.get(name, {}).get("bound")
            status = "-"
            if bound is not None:
                status = ("steady" if spread <= bound / 3 else
                          "within bound" if spread <= bound else "TOO NOISY")
                if name != "setup_s" and spread > bound:
                    ok = False
            print("%-11s %-28s %5d %14.6g %8.2f%% %6s  %s" %
                  (workload, name, len(vals), med, 100 * spread,
                   "-" if bound is None else "%.0f%%" % (100 * bound), status))
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in side_runs}
        correct = all(r["result"]["correct"] for r in side_runs)
        ok = ok and correct and len(shares) == 1
        print("%-11s failed share: %s; all correct: %s" %
              (workload, ", ".join("%.6g" % s for s in sorted(shares)), correct))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--checkout", action="append", help="repository checkout (repeat for A/B)")
    c.add_argument("--workloads", default="all")
    c.add_argument("--seeds", default="1:11", help="LO:HI, half-open")
    c.add_argument("--seconds", type=int)
    c.add_argument("--trace", type=int, default=0, choices=(0, 1))
    d = sub.add_parser("diff")
    d.add_argument("runs")
    s = sub.add_parser("steady")
    s.add_argument("runs")
    args = ap.parse_args()
    if args.cmd == "collect":
        collect(args)
    elif args.cmd == "diff":
        diff(args)
    else:
        sys.exit(steady(args))


if __name__ == "__main__":
    main()
