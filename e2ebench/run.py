"""End-to-end, layer-by-layer benchmark of the raise -> lower -> optimize
-> codegen -> serve stack over the paper corpus.

    python3 e2ebench/run.py --workload cold-compile --seed 1 \\
        --seconds 10 --trace 0

runs one workload (``cold-compile``, ``warm-compile``, ``execute``,
``serve``) for ``--seconds`` seconds of whole rounds, checks every
operation's outputs against the float64 reference, prints a report,
and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced rounds and reports the per-layer metrics, the
tracing overhead, and a per-unit table; ``--chrome-trace FILE`` also
writes the spans as Chrome trace-event JSON.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUPS = 5

#: per-layer metric -> traced layer whose self time it reports (ms/op)
LAYER_METRICS = {
    "met.ms": "met",
    "tactics.ms": "tactics",
    "transforms.lower_ms": "transforms.lower",
    "transforms.llvm_ms": "transforms.llvm",
    "optimizer.ms": "optimizer",
    "ir.print_ms": "ir.print",
    "ir.parse_ms": "ir.parse",
    "codegen.ms": "codegen",
    "cache.load_ms": "cache.load",
    "cache.store_ms": "cache.store",
    "exec.ms": "exec",
}
#: per-layer counts (per operation) and their units
COUNT_METRICS = {
    "met.ir_ops": "ops",
    "tactics.raised_ops": "count",
    "ir.text_kb": "KB",
    "codegen.source_kb": "KB",
    "codegen.scalar_nests": "count",
    "cache.hits": "count",
    "cache.misses": "count",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(
        "cold-compile", "warm-compile", "execute", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chrome-trace", metavar="FILE",
                        help="with --trace 1, write the spans here")
    return parser.parse_args(argv)


def _bootstrap() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"e2ebench: no program sources at {SRC}; run from a checkout"
        )
    # One BLAS thread: the load stays within nproc threads, and the
    # process-wide kernel cache gets no disk tier outside the checkout.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("MLT_CACHE_DIR", None)
    sys.path[:0] = [SRC, HERE]


def _percentile(values, pct):
    import numpy as np

    return float(np.percentile(values, pct))


def tail_percentile(n: int, wanted: float) -> float:
    """``wanted``, or the highest lower percentile with at least ten
    samples beyond it when a run is too short for ``wanted``."""
    for pct in (wanted, 99.0, 95.0, 90.0, 75.0, 50.0):
        if pct <= wanted and n * (1 - pct / 100) >= 10:
            return pct
    return 50.0


def end_to_end(workload, results, setup_times):
    samples = [(u, s) for u, s, traced in results.samples if not traced]
    seconds = [s for _, s in samples]
    by_unit = {}
    for unit, s in samples:
        by_unit.setdefault(unit, []).append(s)
    geomean = math.exp(statistics.fmean(
        math.log(statistics.median(v)) for v in by_unit.values()))
    busy = results.wall_seconds or sum(seconds)
    pct = tail_percentile(len(seconds), workload.tail_percentile)
    if pct != workload.tail_percentile:
        print(f"note: {len(seconds)} samples; op_tail_ms is p{pct:g}, "
              f"not p{workload.tail_percentile:g}")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(seconds) / busy, "op/s"),
        "op_p50_ms": (statistics.median(seconds) * 1e3, "ms"),
        "op_tail_ms": (_percentile(seconds, pct) * 1e3, "ms"),
        "op_geomean_ms": (geomean * 1e3, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    return metrics


def per_layer(workload, results, tracer):
    selfs = tracer.self_times()
    ops = {op: unit for op, (unit, report) in tracer.ops.items() if report}
    n = max(len(ops), 1)
    metrics = {}
    for name, layer in LAYER_METRICS.items():
        total = sum(selfs.get(op, {}).get(layer, 0.0) for op in ops)
        metrics[name] = (total / n * 1e3, "ms")
    for name, unit_of in COUNT_METRICS.items():
        total = sum(tracer.counts.get(op, {}).get(name, 0.0) for op in ops)
        total += sum(
            workload.static_counts.get(unit, {}).get(name, 0.0)
            for unit in ops.values()
        )
        metrics[name] = (total / n, unit_of)
    split = results.serve_split
    metrics["serving.unit_ms"] = (
        statistics.fmean(u for u, _ in split) * 1e3 if split else 0.0, "ms")
    metrics["serving.overhead_ms"] = (
        statistics.fmean(o for _, o in split) * 1e3 if split else 0.0, "ms")
    metrics["trace.overhead_pct"] = (_trace_overhead(results), "%")
    return metrics


def _trace_overhead(results) -> float:
    """Geometric mean over units of traced / untraced median latency,
    as a percentage above 1.  Untraced rounds run with the wrappers
    detached, so this prices the wrappers and the recording together."""
    medians = {}
    for traced in (False, True):
        by_unit = {}
        for unit, s, t in results.samples:
            if t == traced:
                by_unit.setdefault(unit, []).append(s)
        medians[traced] = {u: statistics.median(v) for u, v in by_unit.items()}
    units = set(medians[False]) & set(medians[True])
    if not units:
        return 0.0
    ratio = math.exp(statistics.fmean(
        math.log(medians[True][u] / medians[False][u]) for u in units))
    return (ratio - 1) * 100


UNIT_COLUMNS = (
    ("exec", "exec"), ("met", "met"), ("tactics", "tact"),
    ("transforms.lower", "lower"), ("transforms.llvm", "llvm"),
    ("optimizer", "opt"), ("ir.print", "print"), ("ir.parse", "parse"),
    ("codegen", "cg"), ("cache.load", "c.load"), ("cache.store", "c.store"),
    ("serving.unit", "serve"),
)


def unit_rows(tracer):
    """unit -> (ops, {layer: mean self ms per op}) over traced ops."""
    selfs = tracer.self_times()
    rows = {}
    for op, (unit, report) in tracer.ops.items():
        if not report:
            continue
        count, sums = rows.setdefault(unit, [0, {}])
        rows[unit][0] = count + 1
        for layer, seconds in selfs.get(op, {}).items():
            sums[layer] = sums.get(layer, 0.0) + seconds
    return {
        unit: (count, {k: v / count * 1e3 for k, v in sums.items()})
        for unit, (count, sums) in rows.items()
    }


def print_unit_table(rows) -> None:
    header = f"{'unit':32s} {'ops':>4s}" + "".join(
        f" {short:>8s}" for _, short in UNIT_COLUMNS)
    print("per-unit self time, ms per operation (traced rounds):")
    print(header)
    for unit in sorted(rows):
        count, layers = rows[unit]
        print(f"{unit:32s} {count:4d}" + "".join(
            f" {layers.get(layer, 0.0):8.3f}" for layer, _ in UNIT_COLUMNS))


def print_sec5b(rows) -> None:
    """The §V-B compile-time study from the traced §V-B units: the
    paper's overhead (Affine -> LLVM, so raising plus lowering against
    lowering alone), and the same with the C frontend counted on both
    sides as ``benchmarks/bench_sec5b_compile_time.py`` does."""
    sums = {}
    for unit, (_, layers) in rows.items():
        variant = unit.rpartition("/")[2]
        for layer in ("met", "tactics", "transforms.llvm"):
            key = (variant, layer)
            sums[key] = sums.get(key, 0.0) + layers.get(layer, 0.0)
    plain = sums.get(("sec5b-plain", "transforms.llvm"), 0.0)
    if not plain:
        return
    tactics = sums[("sec5b-raised", "tactics")]
    lowered = sums[("sec5b-raised", "transforms.llvm")]
    raised = tactics + lowered
    print(
        f"sec5b: Affine->LLVM over the 16 paper kernels: lower only "
        f"{plain:.2f} ms; raise {tactics:.2f} ms + lower {lowered:.2f} ms "
        f"= {raised:.2f} ms: raising overhead "
        f"{100 * (raised / plain - 1):+.1f}% (paper: +12%)"
    )
    plain_met = sums[("sec5b-plain", "met")]
    raised_met = sums[("sec5b-raised", "met")]
    print(
        f"sec5b: with the C frontend on both sides "
        f"({plain_met:.2f} / {raised_met:.2f} ms): raising overhead "
        f"{100 * ((raised + raised_met) / (plain + plain_met) - 1):+.1f}%"
    )


def main(argv=None) -> int:
    args = _parse_args(argv)
    _bootstrap()
    import spans as tracing
    from workloads import WORKLOADS, Results

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
    results = Results()
    try:
        setup_times = []
        for _ in range(SETUPS):
            # Every set-up starts from a collected heap.
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        # Set-up's objects (inputs, references, compiled kernels) stay
        # alive for the whole run; keep them out of the collector's way.
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        rounds = 0
        while True:
            # Traced rounds go U T T U U T T U ..., so that drift over
            # the run weighs on traced and untraced rounds alike.
            traced = bool(args.trace) and rounds % 4 in (1, 2)
            if args.trace:
                # Untraced rounds run without the wrappers, as an
                # untraced run does.
                (tracer.attach if traced else tracer.detach)()
            tracer.active = traced
            workload.round(results, traced)
            tracer.active = False
            rounds += 1
            if (time.perf_counter() - start >= args.seconds
                    and (not args.trace or rounds % 2 == 0)):
                break
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}: seed {args.seed}, {rounds} rounds, "
          f"{results.attempted} operations, {results.failed} failed")
    for unit in sorted(results.failures):
        errors = results.failures[unit]
        print(f"FAILED {unit}: {len(errors)} operations; {errors[0]}")
    for violation in results.violations:
        print(f"PRECONDITION BROKEN {violation}")
    if args.trace:
        metrics = per_layer(workload, results, tracer)
        rows = unit_rows(tracer)
        print_unit_table(rows)
        print_sec5b(rows)
        if args.chrome_trace:
            with open(args.chrome_trace, "w") as handle:
                json.dump(tracer.chrome_events(), handle)
    else:
        metrics = end_to_end(workload, results, setup_times)
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:12.4f} {unit}")
    print(json.dumps({
        "correct": not results.violations,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
