"""Tests of the benchmark's own reference and checker.

    python3 -m pytest e2ebench/test_reference.py

The float64 reference must agree with the repository's interpreter
running the un-optimized MET output of every kernel source the
workloads compile, and the checker must reject a perturbed output.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import corpus  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from repro.execution import Interpreter  # noqa: E402
from repro.met import compile_c  # noqa: E402


def _sources():
    rng = np.random.default_rng(7)
    for kernel in corpus.KERNELS:
        yield f"{kernel}/small", kernel, corpus.small_source(kernel)
        yield f"{kernel}/raw-c", kernel, corpus.seeded_source(kernel, rng)
    for unit in workloads.compile_units():
        if unit.pipeline == "sec5b-plain":
            yield f"{unit.kernel}/sec5b", unit.kernel, unit.source


@pytest.mark.parametrize(
    "kernel,source", [(k, s) for _, k, s in _sources()],
    ids=[name for name, _, _ in _sources()],
)
def test_reference_matches_interpreter(kernel, source):
    func, args = corpus.signature(source)
    inputs = corpus.make_inputs([shape for _, shape in args], seed=3)
    actual = [a.copy() for a in inputs]
    Interpreter(compile_c(source)).run(func, *actual)
    expected = reference.reference(kernel, inputs)
    assert reference.check_buffers(expected, actual) is None


def test_checker_rejects_a_perturbed_buffer():
    source = corpus.small_source("gemm")
    _, args = corpus.signature(source)
    inputs = corpus.make_inputs([shape for _, shape in args], seed=5)
    expected = reference.reference("gemm", inputs)
    outputs = [e.astype(np.float32) for e in expected]
    assert reference.check_buffers(expected, outputs) is None
    assert reference.check_checksums(
        expected, [float(o.sum()) for o in outputs]) is None

    # One element 1% off fails the elementwise check; a checksum only
    # sees errors that move the buffer's sum by more than RTOL.
    outputs[2][3, 4] *= 1.01
    assert "arg 2" in reference.check_buffers(expected, outputs)
    outputs[2][3, 4] *= 2
    assert "arg 2" in reference.check_checksums(
        expected, [float(o.sum()) for o in outputs])
    assert reference.check_checksums(expected, None) is not None
    assert reference.check_buffers(expected, outputs[:2]) is not None
