"""The four workloads: what one operation is, and how a run is set up.

Every workload runs *rounds*: one round is one operation on each of
its units, in a fixed order, so that any unit that fails makes up the
same share of the operations of every run.  An operation is timed from
the benchmark's side; its outputs are then checked, outside the timed
region, against the float64 reference.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import hashlib
import importlib
import math
import os
import shutil
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import corpus
import reference
from corpus import Unit

import repro.execution.engine.codegen as codegen_mod
import repro.ir as ir_mod
import repro.ir.parser as parser_mod
import repro.met as met_mod
import repro.tactics as tactics_mod
import repro.transforms as transforms_mod
from repro.evaluation.pipelines import build_module
from repro.execution.engine import ExecutionEngine, KernelCache
from repro.execution.engine.disk_cache import DiskKernelCache
from repro.runtime.batch import module_cache_key
from repro.serving import ServeClient
from repro.serving.server import CompileServer, ServerConfig
from repro.serving.units import (
    configure_serving,
    normalize_request,
    reset_serving_state,
    serve_unit,
)

# The ``serve`` request mix.  The repository has no request trace, so
# the mix is an assumption, made to show what a cold compile costs the
# hot requests beside it.  A round sends one never-seen raw-C source per
# kernel (so every kernel's cold path runs, gemver's included) and the
# same number of hot requests for every corpus unit.  ``op_tail_ms`` on
# ``serve`` is p97 (``Serve.tail_percentile``).  The 3% of requests
# beyond it hold the cold requests and the hot requests a concurrent
# compile stretches by waiting for the GIL; with cold requests at 0.5%
# and the stretched ones at 0.5-1.5% (more on a loaded host), p97 falls
# on ordinary hot requests, not on that knee (README.md says which hot
# requests those are).

#: Largest share of cold (raw-C) requests in a ``serve`` round.
SERVE_COLD_SHARE = 0.005
#: Hot requests per corpus unit in one round: the fewest that keep the
#: 17 raw-C sources within ``SERVE_COLD_SHARE`` of the round (67).
SERVE_HOT_REPEATS = math.ceil(
    len(corpus.KERNELS) * (1 / SERVE_COLD_SHARE - 1)
    / (len(corpus.KERNELS) * len(corpus.PIPELINES))
)
#: Input seeds each corpus unit draws from.  The server makes a
#: request's inputs from its seed every time and caches nothing by
#: seed, so the pool changes no server work; it only bounds the number
#: of references the check computes.
SERVE_SEED_POOL = 4
#: Closed-loop connections of the ``serve`` load (= nproc here).
SERVE_CONNECTIONS = 2


def unit_seed(seed: int, *parts) -> int:
    """A stable per-unit input seed derived from the run's seed."""
    text = "/".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


@dataclass
class Case:
    """One unit with its inputs and expected outputs for this run."""

    unit: Unit
    seed: int
    inputs: List[np.ndarray] = field(default_factory=list)
    expected: List[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self.inputs = corpus.make_inputs(self.unit.shapes, self.seed)
        self.expected = reference.reference(self.unit.kernel, self.inputs)

    def fresh_args(self) -> List[np.ndarray]:
        return [a.copy() for a in self.inputs]


class Results:
    """Operation samples, failures and broken preconditions of one run."""

    def __init__(self):
        #: (unit name, seconds, traced)
        self.samples: List[Tuple[str, float, bool]] = []
        self.failures: Dict[str, List[str]] = {}
        #: Workload preconditions that did not hold (e.g. a warm
        #: operation that ran codegen): the run measured the wrong path.
        self.violations: List[str] = []
        #: Serve round trips split into unit time and serving overhead.
        self.serve_split: List[Tuple[float, float]] = []
        self.wall_seconds = 0.0

    def record(self, unit: str, seconds: float, error: Optional[str],
               traced: bool) -> None:
        self.samples.append((unit, seconds, traced))
        if error is not None:
            self.failures.setdefault(unit, []).append(error)

    def violation(self, what: str) -> None:
        if what not in self.violations:
            self.violations.append(what)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(len(v) for v in self.failures.values())


class OutputCapture:
    """Keeps the argument buffers the serving unit generates, so that a
    served execution's full outputs (not just its checksums) can be
    compared with the reference."""

    def __init__(self):
        oracle = importlib.import_module("repro.fuzzing.oracle")
        original = oracle.make_args
        self.last = None

        def capturing(shapes, seed):
            self.last = original(shapes, seed)
            return self.last

        oracle.make_args = capturing


def _timed(tracer, traced: bool, unit: str, fn):
    """Run ``fn`` as one operation; returns (result, seconds, error)."""
    ctx = tracer.op(unit) if traced else contextlib.nullcontext()
    with ctx:
        start = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # a crash is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return result, seconds, error


class Workload:
    name = ""
    #: Percentile reported as ``op_tail_ms``; chosen so that a run
    #: always has at least ten samples beyond it.
    tail_percentile = 95.0

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        #: unit name -> counts charged to every operation on that unit
        #: (the compile behind an ``execute`` call happens in setup).
        self.static_counts: Dict[str, Dict[str, float]] = {}

    def fresh_dir(self, *parts) -> str:
        path = os.path.join(self.workdir, *parts)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, results: Results, traced: bool) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# cold-compile / warm-compile
# ----------------------------------------------------------------------


def _sec5b_source(kernel: str) -> str:
    """§V-B units use the small corpus sizes, except that the two
    six-index contractions get extents 2..7: their LLVM-dialect code
    runs as a scalar state machine (~7 us per iteration), and at the
    small extents the output check alone would take 1.5 s."""
    if corpus.is_contraction(kernel):
        indices = corpus.contraction_indices(kernel)
        if len(indices) == 6:
            from repro.evaluation.kernels import contraction_source

            return contraction_source(
                kernel, {v: 2 + i for i, v in enumerate(indices)}
            )
    return corpus.small_source(kernel)


def compile_units() -> List[Unit]:
    units = corpus.serve_units("small")
    units += [
        Unit(kernel, variant, _sec5b_source(kernel))
        for variant in corpus.SEC5B_VARIANTS
        for kernel in corpus.PAPER_KERNELS
    ]
    return units


def _is_sec5b(unit: Unit) -> bool:
    return unit.pipeline in corpus.SEC5B_VARIANTS


def _sec5b_key(unit: Unit) -> str:
    return module_cache_key(unit.source, [unit.pipeline], "e2ebench-sec5b")


def _sec5b_caches(root: str):
    return (
        DiskKernelCache(os.path.join(root, "sec5b", "modules")),
        DiskKernelCache(os.path.join(root, "sec5b", "kernels")),
    )


def sec5b_cold(unit: Unit, root: str):
    """Lower one kernel to the LLVM dialect with or without raising,
    then persist its module text and its compiled kernel."""
    modules, kernels = _sec5b_caches(root)
    key = _sec5b_key(unit)
    module = met_mod.compile_c(unit.source)
    if unit.pipeline == "sec5b-raised":
        tactics_mod.raise_affine_to_linalg(module)
    transforms_mod.lower_to_llvm(module)
    modules.store_text(key, ir_mod.print_module(module))
    compiled = codegen_mod.compile_module(module, key)
    kernels.store(key, compiled)
    return compiled


def sec5b_warm(unit: Unit, root: str):
    """Load the persisted §V-B unit: module text, parse, kernel."""
    modules, kernels = _sec5b_caches(root)
    key = _sec5b_key(unit)
    text = modules.load_text(key)
    if text is None:
        raise RuntimeError("module text missing from the cache")
    # Like a warm serving unit, resolve the entry point's signature
    # from the parsed module.
    func = parser_mod.parse_module(text).lookup(unit.func)
    if func is None or [
        tuple(arg.type.shape) for arg in func.arguments
    ] != unit.shapes:
        raise RuntimeError(f"cached module has no @{unit.func}{unit.shapes}")
    compiled = kernels.load(key)
    if compiled is None:
        raise RuntimeError("kernel artifact missing from the cache")
    return compiled


class _CompileWorkload(Workload):
    """Shared by ``cold-compile`` and ``warm-compile``."""

    expected_cached = ""

    def __init__(self, seed: int, workdir: str, tracer):
        super().__init__(seed, workdir, tracer)
        self.capture = OutputCapture()

    def setup(self) -> None:
        self.cases = [
            Case(unit, unit_seed(self.seed, unit.name))
            for unit in compile_units()
        ]
        self.requests = {
            case.unit.name: {
                "op": "execute",
                "kernel": case.unit.kernel,
                "pipeline": case.unit.pipeline,
                "seed": case.seed,
            }
            for case in self.cases
            if not _is_sec5b(case.unit)
        }

    def _check_kernel(self, case: Case, compiled) -> Optional[str]:
        args = case.fresh_args()
        with self.tracer.paused():
            compiled.functions[case.unit.func](*args)
        return reference.check_buffers(case.expected, args)

    def _serve_op(self, case: Case, results: Results, traced: bool,
                  root: str) -> None:
        reset_serving_state()
        configure_serving(root)
        request = self.requests[case.unit.name]
        self.capture.last = None

        def op():
            return serve_unit(normalize_request(request))

        result, seconds, error = _timed(self.tracer, traced,
                                        case.unit.name, op)
        if error is None:
            if result.get("cached") != self.expected_cached:
                results.violation(
                    f"{case.unit.name}: served from {result.get('cached')!r}"
                    f", expected {self.expected_cached!r}"
                )
            if self.capture.last is None:
                error = "no kernel execution"
            else:
                error = reference.check_buffers(
                    case.expected, self.capture.last
                )
        results.record(case.unit.name, seconds, error, traced)

    def _sec5b_op(self, case: Case, results: Results, traced: bool,
                  root: str, step) -> None:
        compiled, seconds, error = _timed(
            self.tracer, traced, case.unit.name,
            lambda: step(case.unit, root),
        )
        if error is None:
            error = self._check_kernel(case, compiled)
        results.record(case.unit.name, seconds, error, traced)


class ColdCompile(_CompileWorkload):
    """One C source -> runnable kernel with every cache empty."""

    name = "cold-compile"
    expected_cached = "codegen"
    tail_percentile = 95.0

    def setup(self) -> None:
        # One untimed round warms what a long-lived server pays once
        # per process (lazy imports, the tactics library), not per
        # request.
        super().setup()
        self.round(Results(), traced=False)

    def round(self, results: Results, traced: bool) -> None:
        for case in self.cases:
            root = self.fresh_dir("cold")
            if _is_sec5b(case.unit):
                self._sec5b_op(case, results, traced, root, sec5b_cold)
            else:
                self._serve_op(case, results, traced, root)
        reset_serving_state()


class WarmCompile(_CompileWorkload):
    """The same units from a disk cache root that setup has filled."""

    name = "warm-compile"
    expected_cached = "cache"
    tail_percentile = 95.0

    def setup(self) -> None:
        super().setup()
        self.root = self.fresh_dir("warm")
        configure_serving(self.root)
        for case in self.cases:
            if _is_sec5b(case.unit):
                sec5b_cold(case.unit, self.root)
            else:
                serve_unit(normalize_request(self.requests[case.unit.name]))
        reset_serving_state()

    def round(self, results: Results, traced: bool) -> None:
        for case in self.cases:
            if _is_sec5b(case.unit):
                self._sec5b_op(case, results, traced, self.root,
                               sec5b_warm)
            else:
                self._serve_op(case, results, traced, self.root)
        reset_serving_state()


# ----------------------------------------------------------------------
# execute
# ----------------------------------------------------------------------


class Execute(Workload):
    """One call of a kernel compiled in setup, at mid sizes."""

    name = "execute"
    tail_percentile = 95.0

    def setup(self) -> None:
        self.cases = []
        self.engines = {}
        for unit in corpus.serve_units("mid"):
            with self.tracer.recording(unit.name) as counts:
                engine = ExecutionEngine(
                    build_module(unit.source, unit.pipeline),
                    pipeline=unit.pipeline,
                    opt_mode="full",
                    cache=KernelCache(),
                )
            # Each call runs the kernel this compile produced.
            self.static_counts[unit.name] = {
                name: counts.get(name, 0.0)
                for name in ("tactics.raised_ops", "codegen.scalar_nests")
            }
            self.engines[unit.name] = engine
            self.cases.append(Case(unit, unit_seed(self.seed, unit.name)))

    def round(self, results: Results, traced: bool) -> None:
        for case in self.cases:
            engine = self.engines[case.unit.name]
            args = case.fresh_args()
            _, seconds, error = _timed(
                self.tracer, traced, case.unit.name,
                lambda: engine.run(case.unit.func, *args),
            )
            if error is None:
                error = reference.check_buffers(case.expected, args)
            results.record(case.unit.name, seconds, error, traced)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


@dataclass
class _Request:
    unit: str
    kernel: str
    message: dict
    shapes: List[Tuple[int, ...]]
    hot: bool


class Serve(Workload):
    """Closed-loop request round trips to an inline ``CompileServer``.

    Every round's load starts on a server that has just been started
    on a fresh cache root and prewarmed, so the cache each request sees
    (the raw-C compiles add about 120 pass-cache files per round) does
    not depend on how many rounds the host finishes in a run.
    """

    name = "serve"
    #: Beyond p99 lie the cold compiles and the hot requests they
    #: stretch, a count that swings from run to run; p97 stays clear.
    tail_percentile = 97.0

    def __init__(self, seed: int, workdir: str, tracer):
        super().__init__(seed, workdir, tracer)
        self.loop = asyncio.new_event_loop()
        # Inline mode runs cold units on the loop's default executor:
        # one worker keeps the process at nproc threads.
        self.executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="e2ebench-serve"
        )
        self.loop.set_default_executor(self.executor)
        self.server = None
        self.clients = []
        self.rounds = 0
        self.records = []
        self.expected = {}
        self.fresh = False
        self.units = corpus.serve_units("small")
        self.hot_units = {unit.name for unit in self.units}

    def setup(self) -> None:
        self.loop.run_until_complete(self._restart())
        self.fresh = True

    async def _restart(self) -> None:
        await self._stop()
        reset_serving_state()
        root = self.fresh_dir("serve")
        self.socket = os.path.relpath(os.path.join(root, "s.sock"))
        self.server = CompileServer(
            ServerConfig(cache_dir=os.path.join(root, "cache"), jobs=0)
        )
        await self.server.start_unix(self.socket)
        self.clients = [
            await ServeClient.connect_unix(self.socket)
            for _ in range(SERVE_CONNECTIONS)
        ]
        response = await self.clients[0].prewarm(
            [{"kernel": u.kernel, "pipeline": u.pipeline}
             for u in self.units]
        )
        if not response.get("ok"):
            raise RuntimeError(f"prewarm failed: {response.get('error')}")

    async def _stop(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.server is not None:
            await self.server.shutdown()
            self.server = None

    def _make_round(self) -> List[_Request]:
        rng = np.random.default_rng(unit_seed(self.seed, "round",
                                              self.rounds))
        requests = []
        for unit in self.units:
            for _ in range(SERVE_HOT_REPEATS):
                seed = unit_seed(self.seed, unit.name,
                                 int(rng.integers(SERVE_SEED_POOL)))
                requests.append(_Request(
                    unit.name, unit.kernel,
                    {"op": "execute", "kernel": unit.kernel,
                     "pipeline": unit.pipeline, "seed": seed},
                    unit.shapes, True,
                ))
        for kernel in corpus.KERNELS:
            # The round number in the function name keeps every raw-C
            # source new to the server, whatever extents were drawn.
            source = corpus.seeded_source(kernel, rng)
            func, args = corpus.signature(source)
            source = source.replace(f"void {func}(",
                                    f"void {func}_r{self.rounds}(", 1)
            func = f"{func}_r{self.rounds}"
            requests.append(_Request(
                f"{kernel}/raw-c", kernel,
                {"op": "execute", "source": source, "passes": [],
                 "func": func, "seed": int(rng.integers(2**31))},
                [shape for _, shape in args], False,
            ))
        order = rng.permutation(len(requests))
        self.rounds += 1
        return [requests[i] for i in order]

    def round(self, results: Results, traced: bool) -> None:
        if not self.fresh:
            with self.tracer.paused():
                self.loop.run_until_complete(self._restart())
        self.fresh = False
        requests = self._make_round()
        start = time.perf_counter()
        self.loop.run_until_complete(self._load(deque(requests), traced))
        results.wall_seconds += time.perf_counter() - start
        # Checked now, while the load is stopped, so that responses do
        # not pile up on the heap and slow later rounds' collections.
        self._check(results)

    async def _load(self, queue: deque, traced: bool) -> None:
        async def connection(client):
            while queue:
                request = queue.popleft()
                ctx = (self.tracer.op(request.unit) if traced
                       else contextlib.nullcontext())
                with ctx as span:
                    message = request.message
                    self.tracer.expect_request(
                        (message.get("kernel") or message.get("source"),
                         message.get("pipeline"), message["seed"]),
                        span,
                    )
                    start = time.perf_counter()
                    response = await client.request(message)
                    seconds = time.perf_counter() - start
                    if response.get("cached") == "hot":
                        self.tracer.count("cache.hits", 1)
                self.records.append((request, response, seconds, traced))

        await asyncio.gather(*(connection(c) for c in self.clients))

    def _check(self, results: Results) -> None:
        """Check every response of the round that has just run."""
        expected_cache = self.expected
        for request, response, seconds, traced in self.records:
            seed = request.message["seed"]
            key = (request.message.get("source") or request.unit, seed)
            if key not in expected_cache:
                inputs = corpus.make_inputs(request.shapes, seed)
                expected_cache[key] = reference.reference(
                    request.kernel, inputs)
            if not response.get("ok"):
                error = f"{response.get('code')}: {response.get('error')}"
            else:
                error = reference.check_checksums(
                    expected_cache[key], response.get("checksums"))
                cached = response.get("cached")
                if cached != ("hot" if request.hot else "codegen"):
                    results.violation(
                        f"{request.unit}: served from {cached!r}")
                if traced:
                    unit_s = response.get("seconds", 0.0)
                    results.serve_split.append((unit_s, seconds - unit_s))
            results.record(request.unit, seconds, error, traced)
        self.records = []
        # Raw-C sources never come back; keep only the corpus units'.
        for key in [k for k in expected_cache if k[0] not in self.hot_units]:
            del expected_cache[key]

    def close(self) -> None:
        self.loop.run_until_complete(self._stop())
        self.loop.close()
        self.executor.shutdown(wait=True)


WORKLOADS = {
    cls.name: cls for cls in (ColdCompile, WarmCompile, Execute, Serve)
}
