"""Independent float64 reference for every kernel the workloads run,
and the checker that compares a program's outputs with it.

Each reference is written from the kernel's mathematical definition
(the Polybench / contraction formula), in NumPy float64, over the same
float32 inputs the program receives.  Nothing here calls the program.
A kernel writes its arguments in place, so a reference returns the
expected final value of *every* argument buffer, inputs included.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: Elementwise tolerance of a float32 result against the float64
#: reference.  Every corpus kernel sums non-negative products, so there
#: is no cancellation: the float32 error of a length-K reduction stays
#: below K * 2**-24 relative, and K <= 2000 here.
RTOL = 1e-3
ATOL = 1e-6


def _atax(A, x, y, tmp):
    tmp = A @ x
    return [A, x, A.T @ tmp, tmp]


def _bicg(A, s, q, p, r):
    return [A, A.T @ r, A @ p, p, r]


def _gemver(A, u1, v1, u2, v2, w, x, y):
    A = A + np.outer(u1, v1) + np.outer(u2, v2)
    x = x + A.T @ y
    w = w + A @ x
    return [A, u1, v1, u2, v2, w, x, y]


def _gesummv(A, B, x, y):
    return [A, B, x, A @ x + B @ x]


def _mvt(A, x1, x2, y1, y2):
    return [A, x1 + A @ y1, x2 + A.T @ y2, y1, y2]


def _two_mm(A, B, C, D):
    return [A, B, C, (A @ B) @ C]


def _three_mm(A, B, C, D, G):
    return [A, B, C, D, (A @ B) @ (C @ D)]


def _gemm(A, B, C):
    return [A, B, A @ B]


def _doitgen(A, C4, out):
    return [A, C4, np.einsum("rqs,sp->rqp", A, C4)]


def _conv2d(I, Kw, O):
    _, _, kh, kw = Kw.shape
    oh, ow = O.shape[2], O.shape[3]
    out = np.zeros(O.shape)
    for p in range(kh):
        for q in range(kw):
            window = I[:, :, p:p + oh, q:q + ow]
            out += np.einsum("bcyx,oc->boyx", window, Kw[:, :, p, q])
    return [I, Kw, out]


def _contraction(spec: str):
    out_idx, a_idx, b_idx = spec.split("-")

    def reference(A, B, C):
        return [A, B, C + np.einsum(f"{a_idx},{b_idx}->{out_idx}", A, B)]

    return reference


_REFERENCES: Dict[str, Callable] = {
    "atax": _atax,
    "bicg": _bicg,
    "gemver": _gemver,
    "gesummv": _gesummv,
    "mvt": _mvt,
    "2mm": _two_mm,
    "3mm": _three_mm,
    "gemm": _gemm,
    "doitgen": _doitgen,
    "conv2d-nchw": _conv2d,
}


def reference(kernel: str, inputs: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Expected final value of every argument of ``kernel`` (float64)."""
    fn = _REFERENCES.get(kernel) or _contraction(kernel)
    return [
        np.asarray(out, dtype=np.float64)
        for out in fn(*[np.asarray(a, dtype=np.float64) for a in inputs])
    ]


def check_buffers(
    expected: Sequence[np.ndarray], actual: Sequence[np.ndarray]
) -> Optional[str]:
    """``None`` when every buffer matches, else what is wrong."""
    if len(expected) != len(actual):
        return f"{len(actual)} buffers, expected {len(expected)}"
    for pos, (ref, out) in enumerate(zip(expected, actual)):
        out = np.asarray(out, dtype=np.float64)
        if out.shape != ref.shape:
            return f"arg {pos}: shape {out.shape}, expected {ref.shape}"
        err = np.abs(out - ref)
        bad = err > ATOL + RTOL * np.abs(ref)
        if bad.any():
            rel = float(np.max(err / np.maximum(np.abs(ref), ATOL)))
            return (
                f"arg {pos}: {int(bad.sum())}/{ref.size} elements wrong, "
                f"max rel err {rel:.3g}"
            )
    return None


def check_checksums(
    expected: Sequence[np.ndarray], checksums: Optional[Sequence[float]]
) -> Optional[str]:
    """Served results carry one sum per argument buffer."""
    if checksums is None:
        return "no checksums in response"
    if len(checksums) != len(expected):
        return f"{len(checksums)} checksums, expected {len(expected)}"
    for pos, (ref, got) in enumerate(zip(expected, checksums)):
        want = float(ref.sum())
        if abs(got - want) > ATOL * ref.size + RTOL * abs(want):
            return f"arg {pos}: checksum {got:.6g}, expected {want:.6g}"
    return None
