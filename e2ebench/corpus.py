"""The benchmark's units: which kernels, at which sizes, through which
pipelines, with which inputs.

Sources come from the repository's own corpus generators
(``repro.evaluation.kernels``); everything else here -- sizes for the
``execute`` workload, the seeded extents of the ``serve`` raw-C
variants, argument shapes and input data -- is decided by the benchmark
so that the program under test receives only generated sources and
inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.evaluation import kernels as K

#: The §V / Figure 9 paper kernels plus doitgen, in a fixed order.
PAPER_KERNELS: Tuple[str, ...] = tuple(sorted(K.PAPER_BENCHMARKS))
KERNELS: Tuple[str, ...] = PAPER_KERNELS + ("doitgen",)
PIPELINES: Tuple[str, ...] = ("baseline", "mlt-linalg", "mlt-blas")

#: The two §V-B variants: each paper kernel lowered to the LLVM dialect
#: without and with Multi-Level Tactics raising.
SEC5B_VARIANTS: Tuple[str, ...] = ("sec5b-plain", "sec5b-raised")

#: ``execute`` sizes, between each generator's small and LARGE sizes:
#: large enough that the generated code's quality shows, small enough
#: that the slowest unit (scalar fallbacks) stays in the tens of ms.
MID_SIZES: Dict[str, tuple] = {
    "atax": (400, 440),
    "bicg": (440, 400),
    "gemver": (100,),
    "gesummv": (100,),
    "mvt": (400,),
    "2mm": (128, 136, 144, 152),
    "3mm": (112, 120, 128, 136, 144),
    "gemm": (160, 176, 192),
    "conv2d-nchw": (1, 4, 26, 26, 4, 3, 3),
    "doitgen": (48, 40, 56),
}
#: Contraction extents for ``execute``, by number of distinct indices.
MID_CONTRACTION_EXTENT = {4: 40, 5: 20, 6: 12}

_GENERATORS = {
    "atax": K.atax_source,
    "bicg": K.bicg_source,
    "gemver": K.gemver_source,
    "gesummv": K.gesummv_source,
    "mvt": K.mvt_source,
    "2mm": K.two_mm_source,
    "3mm": K.three_mm_source,
    "gemm": K.gemm_source,
    "conv2d-nchw": K.conv2d_nchw_source,
    "doitgen": K.doitgen_source,
}

#: Small-size parameters of every generator, used as the base of the
#: seeded raw-C extents of the ``serve`` workload.
_SMALL_SIZES: Dict[str, tuple] = {
    "atax": (13, 17),
    "bicg": (13, 17),
    "gemver": (14,),
    "gesummv": (15,),
    "mvt": (13,),
    "2mm": (8, 9, 11, 12),
    "3mm": (8, 9, 10, 11, 12),
    "gemm": (10, 11, 12),
    "conv2d-nchw": (1, 3, 8, 8, 4, 3, 3),
    "doitgen": (5, 6, 7),
}

_PARAM_RE = re.compile(r"float\s+(\w+)((?:\[\d+\])+)")
_FUNC_RE = re.compile(r"void\s+(\w+)\s*\(([^)]*)\)")


def is_contraction(kernel: str) -> bool:
    return kernel not in _GENERATORS


def contraction_indices(kernel: str) -> List[str]:
    return sorted({v for part in kernel.split("-") for v in part})


def mid_source(kernel: str) -> str:
    if is_contraction(kernel):
        indices = contraction_indices(kernel)
        extent = MID_CONTRACTION_EXTENT[len(indices)]
        return K.contraction_source(kernel, {v: extent for v in indices})
    return _GENERATORS[kernel](*MID_SIZES[kernel])


def small_source(kernel: str) -> str:
    """The corpus small size -- the source ``mlt-serve`` expands a
    ``{"kernel": ...}`` request to."""
    return K.get_kernel(kernel).small()


def seeded_source(kernel: str, rng: np.random.Generator) -> str:
    """A never-seen raw-C variant: the kernel's generator at extents
    drawn around its small size."""
    if is_contraction(kernel):
        indices = contraction_indices(kernel)
        return K.contraction_source(
            kernel,
            {v: 5 + i + int(rng.integers(0, 4)) for i, v in enumerate(indices)},
        )
    params = list(_SMALL_SIZES[kernel])
    if kernel == "conv2d-nchw":
        # (n, c, h, w, f, kh, kw): vary channels, image and filter count.
        for pos in (1, 2, 3, 4):
            params[pos] += int(rng.integers(0, 4))
    else:
        params = [p + int(rng.integers(0, 6)) for p in params]
    return _GENERATORS[kernel](*params)


def signature(source: str) -> Tuple[str, List[Tuple[str, Tuple[int, ...]]]]:
    """(function name, [(argument name, shape)]) read from the C text."""
    match = _FUNC_RE.search(source)
    if match is None:
        raise ValueError("no C function signature in source")
    args = [
        (name, tuple(int(d) for d in re.findall(r"\d+", dims)))
        for name, dims in _PARAM_RE.findall(match.group(2))
    ]
    return match.group(1), args


def make_inputs(shapes, seed: int) -> List[np.ndarray]:
    """The serving protocol's input synthesis for ``seed``: one float32
    array per argument, uniform in [0, 0.5), drawn in argument order."""
    rng = np.random.default_rng(seed)
    return [rng.random(shape, dtype=np.float32) * 0.5 for shape in shapes]


@dataclass
class Unit:
    """One kernel x pipeline at one size; ``name`` is its report row."""

    kernel: str
    pipeline: str
    source: str
    func: str = field(init=False)
    shapes: List[Tuple[int, ...]] = field(init=False)

    def __post_init__(self):
        self.func, args = signature(self.source)
        self.shapes = [shape for _, shape in args]

    @property
    def name(self) -> str:
        return f"{self.kernel}/{self.pipeline}"


def serve_units(sizes: str = "small") -> List[Unit]:
    """Every kernel through every Figure-9 execution pipeline."""
    make = small_source if sizes == "small" else mid_source
    return [
        Unit(kernel, pipeline, make(kernel))
        for pipeline in PIPELINES
        for kernel in KERNELS
    ]


def sec5b_units() -> List[Unit]:
    return [
        Unit(kernel, variant, small_source(kernel))
        for variant in SEC5B_VARIANTS
        for kernel in PAPER_KERNELS
    ]
