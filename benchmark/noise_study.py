#!/usr/bin/env python3
"""Run-to-run noise of the benchmark's end-to-end metrics.

Runs every workload --runs times, one untraced process at a time, exactly as
BENCHMARK.json's command does, and prints each end-to-end metric's median,
quartiles and spread (IQR / median) next to its bound, plus the un-gated
info metrics. Two kinds of set:

    --same-seed N   every run uses base seed N: the host noise that a
                    comparison of two builds on the same seeds sees
    (default)       runs use base seeds --first-seed, --first-seed+1, ...:
                    host noise plus how much the pass's seeds change it

With --compare, also prints how far the medians moved from an earlier set of
the same kind.

    python3 benchmark/noise_study.py --same-seed 1 --out build-bench/noise-same-a.json
    python3 benchmark/noise_study.py --same-seed 1 --out build-bench/noise-same-b.json \\
        --compare build-bench/noise-same-a.json

Run it from the repository root. A gated metric's spread must be at most
half its bound, so that the bound is at least twice the spread; a spread
that reaches a third of the bound is marked. setup_s has an absolute floor
as well: its quartiles, and a median's move, may differ by up to
max(bound x median, 2 ms). Exits 1 if a run fails, a spread is above half
its bound, or a compared median moved by more than its bound in the worse
direction.
"""
import argparse
import json
import statistics
import subprocess
import sys


RUN_FILE = "build-bench/noise-run.json"
SETUP_FLOOR_S = 0.002


def run_once(command, workload, seed, seconds):
    """The gated metrics of one run, plus its un-gated info metrics."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0", "--out", RUN_FILE]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    with open(RUN_FILE) as f:
        info = json.load(f)["info"]
    return {name: m["value"] for name, m in {**result["metrics"], **info}.items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def allowed(name, bound, median):
    """How far a metric may move from `median` before it counts as worse."""
    floor = SETUP_FLOOR_S if name == "setup_s" else 0.0
    return max(bound * median, floor)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", type=int, help="run every time with this base seed")
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--out", help="write the raw values and summaries here")
    ap.add_argument("--compare", help="an earlier --out file to compare medians with")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    if args.same_seed is not None:
        seeds = [args.same_seed] * args.runs
    else:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["workloads"]

    ok = True
    report = {"seeds": seeds, "workloads": {}}
    print(f"{'workload':18} {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}" + (f" {'drift':>7}" if earlier else ""))
    for w in workloads:
        values = {}
        for seed in seeds:
            got = run_once(bench["command"], w, seed, bench["run_seconds"])
            for name, value in got.items():
                values.setdefault(name, []).append(value)
        entry = {}
        for name, v in values.items():
            s = summary(v)
            entry[name] = dict(s, values=v)
            m = metrics.get(name)
            bound = f"{m['bound']:.0%}" if m else "info"
            line = (f"{w:18} {name:16} {s['median']:12.6g} {s['q1']:12.6g} "
                    f"{s['q3']:12.6g} {s['spread']:7.2%} {bound:>6}")
            if m:
                room = allowed(name, m["bound"], s["median"])
                if s["q3"] - s["q1"] > room / 2:
                    ok = False
                    line += "  spread > bound/2"
                elif s["q3"] - s["q1"] >= room / 3:
                    line += "  spread >= bound/3"
            if earlier and name in earlier[w]:
                before = earlier[w][name]["median"]
                drift = s["median"] - before
                worse = drift if not m or m["better"] == "lower" else -drift
                line += f" {drift / before:+7.2%}"
                if m and worse > allowed(name, m["bound"], before):
                    ok = False
                    line += "  worse than bound"
            print(line, flush=True)
        report["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
