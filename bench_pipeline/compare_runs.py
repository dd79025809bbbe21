#!/usr/bin/env python3
"""Collects bench_pipeline runs and compares two sets of them.

    # ten untraced runs per workload, seeds 1..10, into .bench_build/runs/a
    python3 bench_pipeline/compare_runs.py collect .bench_build/runs/a \
        --seeds 1-10

    # ten runs per workload of one seed: the run-to-run spread alone
    python3 bench_pipeline/compare_runs.py collect .bench_build/runs/s \
        --seeds 1 --repeat 10

    # one set: median, quartiles and spread of every (metric, workload)
    python3 bench_pipeline/compare_runs.py show .bench_build/runs/a

    # two sets: each side's median and quartiles, and whether B is no
    # worse than A by more than the metric's bound in BENCHMARK.json
    python3 bench_pipeline/compare_runs.py compare .bench_build/runs/a \
        .bench_build/runs/b

A run file is named <workload>-s<seed>[-r<repeat>]-t<trace>.json and holds
the result line run.py prints. Repeats go round every seed and workload
before the next one starts. Spread is (q3 - q1) / median with the quartiles
of statistics.quantiles(values, n=4). A metric is flagged "noisy" when its
spread exceeds a third of its bound and "UNSTABLE" when it exceeds the
bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_FILE = re.compile(r"^(?P<workload>[A-Za-z0-9_.]+)-s(?P<seed>\d+)"
                      r"(-r\d+)?-t(?P<trace>[01])\.json$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics[m["name"]] = m
    return spec, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    spec, _ = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    for repeat in range(args.repeat):
        for seed in parse_seeds(args.seeds):
            for workload in workloads:
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                lines = proc.stdout.splitlines()
                if proc.returncode != 0 or not lines:
                    print("%s seed %d failed (exit %d)" %
                          (workload, seed, proc.returncode), file=sys.stderr)
                    return 1
                tag = "-r%d" % repeat if repeat else ""
                name = "%s-s%d%s-t%d.json" % (workload, seed, tag, args.trace)
                with open(os.path.join(args.out, name), "w") as f:
                    f.write(lines[-1] + "\n")
                print("wrote", os.path.join(args.out, name))
    return 0


def load_runs(directory):
    """{(workload, metric): [values]} over every run file in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        m = RUN_FILE.match(name)
        if not m:
            continue
        with open(os.path.join(directory, name)) as f:
            result = json.loads(f.read().strip().splitlines()[-1])
        if not result.get("correct"):
            print("warning: %s reports correct=false" % name, file=sys.stderr)
        for metric, v in result["metrics"].items():
            runs.setdefault((m["workload"], metric), []).append(v["value"])
    return runs


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def flag(spread, bound):
    if bound is None:
        return ""
    if spread > bound:
        return "UNSTABLE"
    if spread > bound / 3:
        return "noisy"
    return ""


def show(args):
    _, spec = load_spec()
    runs = load_runs(args.a)
    print("%-20s %-32s %4s %14s %14s %14s %7s %6s" %
          ("workload", "metric", "n", "median", "q1", "q3", "spread",
           "bound"))
    for (workload, metric), values in sorted(runs.items()):
        median, q1, q3, spread = summarize(values)
        bound = spec.get(metric, {}).get("bound")
        print("%-20s %-32s %4d %14.6g %14.6g %14.6g %7.3f %6s %s" %
              (workload, metric, len(values), median, q1, q3, spread,
               "-" if bound is None else bound,
               flag(spread, bound)))
    return 0


def compare(args):
    _, spec = load_spec()
    a = load_runs(args.a)
    b = load_runs(args.b)
    failed = False
    print("%-20s %-24s %12s %7s %12s %7s %8s %6s  verdict" %
          ("workload", "metric", "median A", "sprd A", "median B",
           "sprd B", "worse", "bound"))
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        ma, _, _, sa = summarize(a[key])
        mb, _, _, sb = summarize(b[key])
        m = spec.get(metric, {})
        bound = m.get("bound")
        sign = -1.0 if m.get("better") == "higher" else 1.0
        worse = sign * (mb - ma) / ma if ma else 0.0
        verdict = "-"
        if bound is not None:
            verdict = "ok" if worse <= bound else "REGRESSION"
            failed = failed or worse > bound
            extra = flag(max(sa, sb), bound)
            if extra:
                verdict += " (" + extra + ")"
        print("%-20s %-24s %12.6g %7.3f %12.6g %7.3f %+8.3f %6s  %s" %
              (workload, metric, ma, sa, mb, sb, worse,
               "-" if bound is None else bound, verdict))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark into a directory")
    c.add_argument("out")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--repeat", type=int, default=1,
                   help="runs per (seed, workload)")
    c.add_argument("--workloads", nargs="*")
    c.add_argument("--seconds", type=float)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("show", help="summarize one set of runs")
    s.add_argument("a")
    p = sub.add_parser("compare", help="compare two sets of runs")
    p.add_argument("a")
    p.add_argument("b")
    args = ap.parse_args()
    return {"collect": collect, "show": show, "compare": compare}[args.cmd](
        args)


if __name__ == "__main__":
    sys.exit(main())
