"""Host overhead measurement: the paper's experiments on *this* machine.

Each function builds the TeaLeaf operator for an ``n x n`` deck, runs the
relevant kernel loop protected and unprotected, and reports the relative
runtime overhead — the same quantity the paper's Figs. 4-9 plot.  The
kernel loop is a faithful CG-iteration body (SpMV + two dots + three
axpys) rather than a full solve, so measurements are stable and scale
with grid size, not condition number.
"""

from __future__ import annotations

import numpy as np

from repro.csr.build import five_point_operator
from repro.csr.matrix import CSRMatrix
from repro.harness.timing import overhead_ratio, time_callable
from repro.protect.engine import DeferredVerificationEngine
from repro.protect.matrix import ProtectedCSRMatrix
from repro.protect.policy import CheckPolicy
from repro.protect.vector import ProtectedVector


def tealeaf_like_matrix(n: int = 256, seed: int = 0) -> CSRMatrix:
    """A TeaLeaf-shaped operator: n x n grid, 5 stored entries per row."""
    rng = np.random.default_rng(seed)
    kx = rng.uniform(0.5, 2.0, (n, n))
    ky = rng.uniform(0.5, 2.0, (n, n))
    return five_point_operator(n, n, kx, ky, 0.25)


def _cg_iteration_body(matvec, x, r, p):
    """One CG-shaped kernel mix: SpMV + 2 dots + 3 axpy-scale updates."""
    w = matvec(p)
    alpha = float(np.dot(r, r)) / float(np.dot(p, w))
    x = x + alpha * p
    r = r - alpha * w
    beta = float(np.dot(r, r))
    p = r + (beta + 1e-30) * p
    return x, r, p


def measure_element_overheads(
    n: int = 256, schemes=("sed", "secded64", "secded128", "crc32c"),
    iters: int = 4, repeats: int = 5,
) -> dict[str, float]:
    """Fig. 4 on the host: CSR-element protection overhead per scheme."""
    matrix = tealeaf_like_matrix(n)
    x = np.random.default_rng(1).standard_normal(matrix.n_cols)

    def baseline():
        for _ in range(iters):
            matrix.matvec(x)

    t_base = time_callable(baseline, repeats=repeats)
    out = {}
    for scheme in schemes:
        pmat = ProtectedCSRMatrix(matrix, scheme, None)

        def run():
            engine = DeferredVerificationEngine(CheckPolicy(interval=1, correct=False))
            for _ in range(iters):
                engine.spmv(pmat, x)

        out[scheme] = overhead_ratio(time_callable(run, repeats=repeats), t_base)
    return out


def measure_rowptr_overheads(
    n: int = 256, schemes=("sed", "secded64", "secded128", "crc32c"),
    iters: int = 4, repeats: int = 5,
) -> dict[str, float]:
    """Fig. 5 on the host: row-pointer protection overhead per scheme."""
    matrix = tealeaf_like_matrix(n)
    x = np.random.default_rng(2).standard_normal(matrix.n_cols)

    def baseline():
        for _ in range(iters):
            matrix.matvec(x)

    t_base = time_callable(baseline, repeats=repeats)
    out = {}
    for scheme in schemes:
        pmat = ProtectedCSRMatrix(matrix, None, scheme)

        def run():
            engine = DeferredVerificationEngine(CheckPolicy(interval=1, correct=False))
            for _ in range(iters):
                engine.spmv(pmat, x)

        out[scheme] = overhead_ratio(time_callable(run, repeats=repeats), t_base)
    return out


def measure_vector_overheads(
    n: int = 256, schemes=("sed", "secded64", "secded128", "crc32c"),
    iters: int = 4, repeats: int = 5,
) -> dict[str, float]:
    """Fig. 9 on the host: dense-vector protection overhead per scheme."""
    matrix = tealeaf_like_matrix(n)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(matrix.n_cols)
    r0 = rng.standard_normal(matrix.n_cols)

    def baseline():
        x, r, p = x0.copy(), r0.copy(), r0.copy()
        for _ in range(iters):
            x, r, p = _cg_iteration_body(matrix.matvec, x, r, p)

    t_base = time_callable(baseline, repeats=repeats)
    out = {}
    for scheme in schemes:

        def run():
            px = ProtectedVector(x0, scheme)
            pr = ProtectedVector(r0, scheme)
            pp = ProtectedVector(r0, scheme)
            for _ in range(iters):
                p_val = pp.values()
                pp.check(correct=False)
                w = matrix.matvec(p_val)
                r_val = pr.values()
                pr.check(correct=False)
                alpha = float(np.dot(r_val, r_val)) / float(np.dot(p_val, w))
                px.check(correct=False)
                px.store(px.values() + alpha * p_val)
                r_new = r_val - alpha * w
                pr.store(r_new)
                beta = float(np.dot(r_new, r_new))
                pp.store(r_new + (beta + 1e-30) * p_val)

        out[scheme] = overhead_ratio(time_callable(run, repeats=repeats), t_base)
    return out


def measure_interval_curve(
    scheme: str, n: int = 256, intervals=(1, 2, 4, 8, 16, 32, 64, 128),
    iters: int = 16, repeats: int = 3,
) -> dict[int, float]:
    """Figs. 6-8 on the host: whole-matrix overhead vs check interval.

    Measures the engine's schedule, which is what every solve runs: a
    due access verifies the whole matrix, the others gather through the
    bounds-validated index snapshot, and one sweep ends the step.
    """
    matrix = tealeaf_like_matrix(n)
    x = np.random.default_rng(4).standard_normal(matrix.n_cols)

    def baseline():
        for _ in range(iters):
            matrix.matvec(x)

    t_base = time_callable(baseline, repeats=repeats)
    pmat = ProtectedCSRMatrix(matrix, scheme, scheme)
    out = {}
    for interval in intervals:

        def run():
            engine = DeferredVerificationEngine(
                CheckPolicy(interval=int(interval), correct=False)
            )
            for _ in range(iters):
                engine.spmv(pmat, x)
            engine.finalize()  # the end-of-step sweep, when checks were deferred

        out[int(interval)] = overhead_ratio(
            time_callable(run, repeats=repeats), t_base
        )
    return out


def measure_full_protection(
    n: int = 192, scheme: str = "secded64", repeats: int = 3,
    interval: int = 1, vector_interval: int | None = None,
    method: str = "cg",
) -> float:
    """T1(b) on the host: whole matrix + all vectors protected.

    ``interval``/``vector_interval`` select the deferred-verification
    schedule; the default of 1 is the paper's check-on-every-access mode.
    ``method`` picks any registered solver (the registry threads all of
    them through the engine, so the ablation covers Jacobi/Chebyshev's
    different kernel mixes too).
    """
    from repro.protect.config import ProtectionConfig
    from repro.solvers.registry import solve

    matrix = tealeaf_like_matrix(n)
    b = np.random.default_rng(5).standard_normal(matrix.n_rows)
    eps, iters = 1e-12, 60
    config = ProtectionConfig(
        element_scheme=scheme, rowptr_scheme=scheme, vector_scheme=scheme,
        interval=interval, vector_interval=vector_interval, correct=False,
    )

    t_base = time_callable(
        lambda: solve(matrix, b, method=method, eps=eps, max_iters=iters),
        repeats=repeats,
    )
    pmat = ProtectedCSRMatrix(matrix, scheme, scheme)
    t_prot = time_callable(
        lambda: solve(pmat, b, method=method, protection=config,
                      eps=eps, max_iters=iters),
        repeats=repeats,
    )
    return overhead_ratio(t_prot, t_base)


def measure_deferred_full_protection(
    n: int = 192, scheme: str = "secded64", repeats: int = 3,
    intervals=(1, 8, 16, 32), method: str = "cg",
) -> dict[int, float]:
    """Full-protection overhead vs deferred-verification interval.

    The engine's headline curve: how far dirty-window write buffering
    plus amortised checks push the T1(b) overhead down as the window
    widens.  The matrix and the unprotected baseline are measured once
    and shared by every interval so the curve's columns differ only in
    the schedule, not in baseline jitter.
    """
    from repro.protect.config import ProtectionConfig
    from repro.solvers.registry import solve

    matrix = tealeaf_like_matrix(n)
    b = np.random.default_rng(5).standard_normal(matrix.n_rows)
    eps, iters = 1e-12, 60

    t_base = time_callable(
        lambda: solve(matrix, b, method=method, eps=eps, max_iters=iters),
        repeats=repeats,
    )
    pmat = ProtectedCSRMatrix(matrix, scheme, scheme)
    out = {}
    for interval in intervals:
        config = ProtectionConfig(
            element_scheme=scheme, rowptr_scheme=scheme, vector_scheme=scheme,
            interval=int(interval), correct=False,
        )
        t_prot = time_callable(
            lambda cfg=config: solve(pmat, b, method=method, protection=cfg,
                                     eps=eps, max_iters=iters),
            repeats=repeats,
        )
        out[int(interval)] = overhead_ratio(t_prot, t_base)
    return out
