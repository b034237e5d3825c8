#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py [--runs N] [--first-seed S] [--seconds T]
                                [--trace 0|1] [--save FILE] [--load FILE]
                                [--against FILE] [WORKLOAD ...]

For every workload (default: all in BENCHMARK.json) it runs the
benchmark command N times, seeds S..S+N-1, and prints for each metric
the median, the quartiles as `statistics.quantiles(values, n=4)` gives
them, and the interquartile distance as a share of the median, marked
`ok` below a third of the metric's bound, `WIDE` below the bound and
`OVER` beyond it. Counts that repeat exactly are marked `exact`.

`--save FILE` writes the values as JSON; `--load FILE` reads such a file
instead of running. `--against FILE` compares the medians with those of
a set saved earlier and marks `WORSE` every metric whose median got
worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    host = next((l for l in lines if l.startswith("host:")), "")
    return json.loads(lines[-1]), host


def measure(spec, workloads, opts):
    """{workload: {metric: [values]}} over the seeds."""
    values = {}
    for workload in workloads:
        per = values.setdefault(workload, {})
        for seed in range(opts.first_seed, opts.first_seed + opts.runs):
            result, host = run_once(spec["command"], workload, seed, opts.seconds, opts.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect")
            for name, m in result["metrics"].items():
                per.setdefault(name, []).append(m["value"])
            brief = {n: round(m["value"], 4) for n, m in result["metrics"].items()}
            print(f"{workload} seed {seed}: {brief if opts.trace == 0 else ''} {host}", flush=True)
    return values


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--save")
    parser.add_argument("--load")
    parser.add_argument("--against")
    opts = parser.parse_args()
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = opts.workloads or [w["name"] for w in spec["workloads"]]
    if opts.load:
        values = json.loads(Path(opts.load).read_text())
    else:
        values = measure(spec, workloads, opts)
    if opts.save:
        Path(opts.save).write_text(json.dumps(values, indent=1))
    earlier = json.loads(Path(opts.against).read_text()) if opts.against else {}
    for workload, per in values.items():
        print(f"== {workload}: {len(next(iter(per.values())))} runs")
        for name, vs in per.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = declared.get(name, {}).get("bound")
            mark = ""
            if bound is not None:
                mark = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            elif len(set(vs)) == 1:
                mark = "exact"
            line = (f"  {name:32} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                    f" spread {spread:7.2%}  bound/3 {'' if bound is None else f'{bound / 3:.2%}'} {mark}")
            old = earlier.get(workload, {}).get(name)
            if old and bound is not None:
                was = statistics.median(old)
                worse = (med - was) / was
                if declared[name]["better"] == "higher":
                    worse = -worse
                line += f"  worse by {worse:+.2%} {'WORSE' if worse > bound else 'ok'}"
            print(line)


if __name__ == "__main__":
    main()
