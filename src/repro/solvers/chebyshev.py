"""Chebyshev iteration (TeaLeaf's tl_use_chebyshev).

Requires spectral bounds of the SPD operator; TeaLeaf bootstraps them
from some CG iterations' Lanczos tridiagonal — reproduced here in
:func:`estimate_eigenvalue_bounds`.

:func:`protected_chebyshev_run` is the engine-threaded ABFT variant: the
x/d state vectors live in protected containers, every SpMV advances the
matrix check schedule, and the spectral bounds are estimated (when not
supplied) only after the up-front forced verification so a correctable
flip cannot poison the polynomial for the whole solve.
"""

from __future__ import annotations

import numpy as np

from repro.protect.engine import DeferredVerificationEngine
from repro.protect.matrix import ProtectedCSRMatrix
from repro.solvers.base import SolverResult, as_operator
from repro.solvers.toolkit import ProtectedIteration


def estimate_eigenvalue_bounds(A, *, iters: int = 30, seed: int = 7) -> tuple[float, float]:
    """Estimate (lambda_min, lambda_max) via the CG/Lanczos connection.

    Runs ``iters`` plain CG steps on a random RHS, assembles the Lanczos
    tridiagonal from the alpha/beta coefficients and returns its extreme
    eigenvalues (slightly widened, as TeaLeaf does, to be safe bounds).
    """
    op = as_operator(A)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(op.n)
    x = np.zeros(op.n)
    r = b.copy()
    p = r.copy()
    rr = float(np.dot(r, r))
    alphas, betas = [], []
    for _ in range(min(iters, op.n)):
        w = op.matvec(p)
        pw = float(np.dot(p, w))
        if pw <= 0.0:
            break
        alpha = rr / pw
        x += alpha * p
        r -= alpha * w
        rr_new = float(np.dot(r, r))
        beta = rr_new / rr
        alphas.append(alpha)
        betas.append(beta)
        if rr_new == 0.0:
            break
        p = r + beta * p
        rr = rr_new
    if not alphas:
        raise RuntimeError("could not take a single CG step for estimation")
    k = len(alphas)
    diag = np.empty(k)
    off = np.empty(max(k - 1, 0))
    diag[0] = 1.0 / alphas[0]
    for i in range(1, k):
        diag[i] = 1.0 / alphas[i] + betas[i - 1] / alphas[i - 1]
        off[i - 1] = np.sqrt(betas[i - 1]) / alphas[i - 1]
    tri = np.diag(diag)
    if k > 1:
        tri += np.diag(off, 1) + np.diag(off, -1)
    eigs = np.linalg.eigvalsh(tri)
    # Widen by 5% as a safety factor (TeaLeaf uses a similar fudge).
    return float(eigs[0] * 0.95), float(eigs[-1] * 1.05)


def chebyshev_solve(
    A,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    eig_min: float | None = None,
    eig_max: float | None = None,
    eps: float = 1e-15,
    max_iters: int = 10_000,
) -> SolverResult:
    """Chebyshev semi-iteration for SPD ``A``.

    ``eig_min``/``eig_max`` may be omitted; they are then estimated as
    TeaLeaf bootstraps them (:func:`estimate_eigenvalue_bounds`).
    """
    op = as_operator(A)
    if eig_min is None or eig_max is None:
        eig_min, eig_max = estimate_eigenvalue_bounds(op)
    if not 0 < eig_min < eig_max:
        raise ValueError("need 0 < eig_min < eig_max")
    theta = (eig_max + eig_min) / 2.0
    delta = (eig_max - eig_min) / 2.0
    sigma = theta / delta
    x = np.zeros(op.n) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - op.matvec(x)
    norms = [float(np.linalg.norm(r))]
    converged = norms[0] ** 2 < eps
    rho = 1.0 / sigma
    d = r / theta
    it = 0
    while not converged and it < max_iters:
        x += d
        r = b - op.matvec(x)
        norms.append(float(np.linalg.norm(r)))
        it += 1
        if norms[-1] ** 2 < eps:
            converged = True
            break
        rho_new = 1.0 / (2.0 * sigma - rho)
        d = rho_new * rho * d + (2.0 * rho_new / delta) * r
        rho = rho_new
    return SolverResult(
        x=x, iterations=it, converged=converged, residual_norms=norms,
        info={"eig_min": eig_min, "eig_max": eig_max},
    )


def protected_chebyshev_run(
    matrix: ProtectedCSRMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    eig_min: float | None = None,
    eig_max: float | None = None,
    eps: float = 1e-15,
    max_iters: int = 10_000,
    vector_scheme: str | None = "secded64",
    engine: DeferredVerificationEngine | None = None,
    session=None,
) -> SolverResult:
    """Fully protected Chebyshev driven by the deferred-verification engine.

    ``eig_min``/``eig_max`` may be omitted; they are then estimated from
    the decoded (just-verified) matrix, as TeaLeaf bootstraps them.
    """
    ctx = ProtectedIteration(
        matrix, engine=engine, vector_scheme=vector_scheme, session=session,
    )
    if eig_min is None or eig_max is None:
        eig_min, eig_max = estimate_eigenvalue_bounds(ctx.verified_operator())
    if not 0 < eig_min < eig_max:
        raise ValueError("need 0 < eig_min < eig_max")
    theta = (eig_max + eig_min) / 2.0
    delta = (eig_max - eig_min) / 2.0
    sigma = theta / delta
    x = ctx.wrap(np.zeros(ctx.n) if x0 is None else x0, "x")
    r_val = b - ctx.initial_spmv(ctx.read(x))
    norms = [float(np.linalg.norm(r_val))]
    converged = norms[0] ** 2 < eps
    rho = 1.0 / sigma
    d = ctx.wrap(r_val / theta, "d")
    it = 0
    ctx.maybe_checkpoint(it)

    def loop():
        nonlocal x, d, rho, it, converged
        while not converged and it < max_iters:
            ctx.begin_iteration()
            x_val = ctx.read(x) + ctx.read(d)
            x = ctx.write(x, x_val)
            r_val = b - ctx.spmv(x_val)
            norms.append(float(np.linalg.norm(r_val)))
            it += 1
            if norms[-1] ** 2 < eps:
                converged = True
                break
            rho_new = 1.0 / (2.0 * sigma - rho)
            d = ctx.write(
                d, rho_new * rho * ctx.read(d) + (2.0 * rho_new / delta) * r_val
            )
            rho = rho_new
            ctx.maybe_checkpoint(it)
        return x

    def restart(saved):
        # Restart the semi-iteration from the repaired / rolled-back
        # iterate: true residual, polynomial recurrence re-seeded.
        nonlocal d, rho, it, converged
        if saved is not None:
            it = int(saved["it"])
        r_val = b - ctx.spmv(ctx.read(x))
        norms.append(float(np.linalg.norm(r_val)))
        converged = norms[-1] ** 2 < eps
        rho = 1.0 / sigma
        d = ctx.write(d, r_val / theta)

    x_final = ctx.run(loop, restart)
    return SolverResult(
        x=x_final, iterations=it, converged=converged, residual_norms=norms,
        info=ctx.info(eig_min=eig_min, eig_max=eig_max),
    )
