#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

Runs perfbench/run.py k times per workload, one seed per run, and prints
for every end-to-end metric the median, the quartiles, the quartile spread
(Q3 - Q1) / median and the full range (max - min) / median, flagging any
spread above a third of the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --seeds 1-10 --out runs-a.json
    python3 perfbench/steady.py --seeds 101-110 --out runs-b.json
    python3 perfbench/steady.py --compare runs-a.json runs-b.json
    python3 perfbench/steady.py --seeds 1-3 --trace-runs 2 --out runs-t.json

--compare prints both saved sets' spreads, then, per workload and metric, how
far the second set's median moved from the first's in the metric's worse
direction, against its bound.
--trace-runs adds traced runs per workload and reports the per-layer
medians, including the tracing overhead (trace.overhead_pct: traced minus
untraced in-process replay time, as a share of untraced).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        sys.exit("run failed: %s seed %d trace %d (exit %d)"
                 % (workload, seed, trace, run.returncode))
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fingerprint = json.loads(lines[-2])["fingerprint"]
    if not result["correct"]:
        sys.exit("incorrect result: %s seed %d: %s" % (workload, seed, lines[-1]))
    return {"seed": seed, "trace": trace, "fingerprint": fingerprint,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(values):
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    scale = abs(med) if med else 1.0
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / scale,
            "range_share": (values[-1] - values[0]) / scale}


def report(runs, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload in sorted({r["workload"] for r in runs}):
        for trace, names in [(0, [m["name"] for m in spec["end_to_end"]]),
                             (1, [m["name"] for m in spec["per_layer"]])]:
            mine = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
            if not mine:
                continue
            print("\n%s (%s, %d runs, seeds %s)" % (
                workload, "traced" if trace else "untraced", len(mine),
                ",".join(str(r["seed"]) for r in mine)))
            print("  %-22s %14s %14s %14s %9s %9s %s" % (
                "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
            for name in names:
                s = summary([r["metrics"][name] for r in mine])
                bound = bounds.get(name, {}).get("bound")
                flag = ""
                if bound is not None and name != "setup_s":
                    flag = "OVER" if s["iqr_share"] > bound else (
                        "wide" if s["iqr_share"] > bound / 3 else "ok")
                print("  %-22s %14.6g %14.6g %14.6g %8.2f%% %8.2f%% %s %s" % (
                    name, s["median"], s["q1"], s["q3"], 100 * s["iqr_share"],
                    100 * s["range_share"], "" if bound is None else "%g" % bound, flag))


def compare(first, second, spec):
    worse_ok = True
    print("%-14s %-16s %14s %14s %9s %7s" % ("workload", "metric", "median A", "median B",
                                             "worse by", "bound"))
    for m in spec["end_to_end"]:
        for workload in sorted({r["workload"] for r in first}):
            a = statistics.median(r["metrics"][m["name"]] for r in first
                                  if r["workload"] == workload and r["trace"] == 0)
            b = statistics.median(r["metrics"][m["name"]] for r in second
                                  if r["workload"] == workload and r["trace"] == 0)
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            worse_ok = worse_ok and verdict == "ok"
            print("%-14s %-16s %14.6g %14.6g %8.2f%% %7g %s" % (
                workload, m["name"], a, b, 100 * worse, m["bound"], verdict))
    return worse_ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every workload in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,5,9")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace-runs", type=int, default=0,
                        help="traced runs per workload, on the first seeds")
    parser.add_argument("--out", help="save the runs as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two saved sets instead of running")
    args = parser.parse_args()
    spec = load_spec()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
            print("== %s" % path)
            report(sets[-1], spec)
        print()
        sys.exit(0 if compare(sets[0], sets[1], spec) else 1)

    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    runs = []
    for seed_index, seed in enumerate(seeds):
        for workload in workloads:
            traces = [0] + ([1] if seed_index < args.trace_runs else [])
            for trace in traces:
                run = run_once(workload, seed, seconds, trace)
                run["workload"] = workload
                runs.append(run)
                print("%s seed %d trace %d: %s" % (workload, seed, trace, json.dumps(
                    {k: round(v, 4) for k, v in run["metrics"].items()})), file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    print("fingerprint: %s" % json.dumps(
        {k: v for k, v in runs[0]["fingerprint"].items()
         if k in ("commit", "nproc", "cpu_features", "backend", "daemon_workers",
                  "daemon_threads")}))
    report(runs, spec)


if __name__ == "__main__":
    main()
