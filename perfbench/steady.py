#!/usr/bin/env python3
"""Steadiness check for the served-path benchmark.

Runs the benchmark command from BENCHMARK.json several times per
workload, each time with another seed, and reports every metric's median
and quartile spread (IQR / median, quartiles as
statistics.quantiles(values, n=4) gives them) against its bound:

    python3 perfbench/steady.py --workload fig4_warm --runs 5
    python3 perfbench/steady.py --all --runs 10 --out steady-a.json
    python3 perfbench/steady.py --all --runs 10 --against steady-a.json

A spread above its bound fails the check, setup_s's too. With
--against, each metric's median is also compared with the median saved
by an earlier --out: a metric that got worse by more than its bound
fails. With --trace 1 the per-layer metrics are collected and summarised
without bounds. Every run must print the declared metrics, all of them
and no others, with "correct": true. Run it from anywhere; it works in
the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, trace, timeout):
    cmd = list(spec["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload} seed {seed}: unexpected keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if got != declared:
        raise SystemExit(
            f"{workload} seed {seed}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(declared - got)}, undeclared {sorted(got - declared)}"
        )
    return result


def spread(values):
    """IQR as a share of the median (0 for a constant metric)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def worse_by(metric, new, old):
    """How much `new` is worse than `old`, as a share of `old`."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--all", action="store_true", help="every workload in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--timeout", type=int, default=900)
    ap.add_argument("--out", help="save the medians (JSON) for a later --against")
    ap.add_argument("--against", help="medians saved by an earlier --out")
    args = ap.parse_args()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]] if args.all else args.workload
    if not workloads:
        ap.error("name a --workload or pass --all")
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    baseline = {}
    if args.against:
        with open(args.against) as f:
            baseline = json.load(f)

    failed = False
    saved = {}
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(spec, workload, seed, args.trace, args.timeout)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            first = metrics[0]["name"]
            print(f"[{workload}] run {i + 1}/{args.runs} seed {seed}: "
                  f"{result['attempted']} predictions, {first} "
                  f"{result['metrics'][first]['value']:.6g}", file=sys.stderr)
        saved[workload] = {}
        print(f"\n{workload} ({args.runs} runs)")
        print(f"  {'metric':40s} {'median':>14s} {'spread':>8s} {'bound':>6s}  verdict")
        for m in metrics:
            med, rel = spread(values[m["name"]])
            saved[workload][m["name"]] = med
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                if rel > bound:
                    verdict, failed = "SPREAD ABOVE BOUND", True
                else:
                    verdict = "steady" if rel < bound / 3 else "within bound"
                old = baseline.get(workload, {}).get(m["name"])
                if old is not None:
                    w = worse_by(m, med, old)
                    if w > bound:
                        verdict += f"; WORSE by {w:.1%}"
                        failed = True
                    else:
                        verdict += f"; vs saved {w:+.1%}"
            bound_s = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {m['name']:40s} {med:14.6g} {rel:8.1%} {bound_s:>6s}  {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
