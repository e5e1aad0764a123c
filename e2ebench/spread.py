"""Repeat one workload over several seeds and print each metric's spread.

    python3 e2ebench/spread.py --workload serve --runs 10 --seconds 10

runs ``run.py`` once per seed (``--first-seed``, +1, ...), one run at a
time, and prints for every metric its median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them), range, and the
interquartile range as a share of the median next to the metric's bound
in ``BENCHMARK.json``.  Use it to re-derive the bounds on another
machine: a bound should be at least three times the spread seen here.
It also prints each run's failed share, which must be identical.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bounds() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: spread of the per-layer metrics instead")
    args = parser.parse_args(argv)

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append(result)
        values = " ".join(
            f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
        )
        print(f"seed {seed}: attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}; {values}",
              flush=True)

    bounds = _bounds()
    print(f"\n{args.workload}: {len(runs)} runs of {args.seconds:g} s")
    print(f"{'metric':24s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'min':>10s} {'max':>10s} {'iqr/med':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        share = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound and share > bound / 3:
            flag = "  over a third of the bound"
        print(f"{name:24s} {median:10.4f} {q1:10.4f} {q3:10.4f} "
              f"{min(values):10.4f} {max(values):10.4f} {share:8.3f} "
              f"{bound if bound is not None else '':>6}{flag}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
