"""Quickstart: protect a sparse system, flip bits, watch ABFT handle them.

Everything goes through the one protection API: a frozen
``ProtectionConfig`` says what is protected and when it is verified,
``repro.solve`` runs any solver method under it, and a
``ProtectionSession`` keeps one deferred-verification engine alive
across many solves.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro
from repro.bits.float_bits import f64_to_u64
from repro.csr import five_point_operator
from repro.errors import DetectedUncorrectableError
from repro.protect import ProtectedCSRMatrix, ProtectedVector, ProtectionConfig
from repro.solvers import JacobiPreconditioner


def main() -> None:
    # --- build a TeaLeaf-style operator: 2-D heat conduction, 5-point ---
    rng = np.random.default_rng(42)
    nx = ny = 32
    kx = rng.uniform(0.5, 2.0, (ny, nx))
    ky = rng.uniform(0.5, 2.0, (ny, nx))
    A = five_point_operator(nx, ny, kx, ky, dt_over_h2=0.4)
    x_true = rng.standard_normal(A.n_rows)
    b = A.matvec(x_true)
    print(f"operator: {A.shape}, nnz={A.nnz} (5 per row, TeaLeaf layout)")

    # --- wrap it in ABFT protection: zero extra storage ------------------
    pmat = ProtectedCSRMatrix(A, element_scheme="secded64", rowptr_scheme="secded64")
    print(f"protected: {pmat}")
    print("storage overhead: 0 bytes (redundancy lives in unused index bits)")

    # --- a single bit flip in the value array is corrected in place ------
    f64_to_u64(pmat.values)[1234] ^= np.uint64(1) << np.uint64(37)
    reports = pmat.check_all(correct=True)
    print(f"\nflipped bit 37 of element 1234 -> "
          f"corrected codewords: {reports['csr_elements'].n_corrected}")

    # --- protected vectors hide redundancy in mantissa LSBs --------------
    vec = ProtectedVector(b, scheme="secded64")
    noise = np.abs(vec.values() - b).max() / np.abs(b).max()
    print(f"\nvector protection noise (8 mantissa LSBs masked): {noise:.2e}")
    f64_to_u64(vec.raw)[10] ^= np.uint64(1) << np.uint64(51)
    report = vec.check()
    print(f"flipped mantissa bit of element 10 -> corrected: {report.n_corrected}")

    # --- one API, every solver method ------------------------------------
    # The paper's check-on-every-access mode and the deferred-engine
    # window are two presets of the same config; any registered method
    # (cg, ppcg, jacobi, chebyshev) runs under either.
    plain = repro.solve(A, b, method="cg", eps=1e-20)
    prot = repro.solve(A, b, method="cg", eps=1e-20,
                       protection=ProtectionConfig.paper_default())
    err = np.linalg.norm(prot.x - x_true) / np.linalg.norm(x_true)
    print(f"\nplain CG:      {plain.iterations} iterations")
    print(f"protected CG:  {prot.iterations} iterations "
          f"({prot.info['full_checks']} matrix checks), solution error {err:.2e}")

    # A preconditioner rides the same protected recurrence: its input is
    # a verified read, its output is committed through the engine.
    jacobi = JacobiPreconditioner(A.diagonal())
    pcg = repro.solve(A, b, method="cg", eps=1e-20, preconditioner=jacobi,
                      protection=ProtectionConfig.paper_default())
    print(f"protected Jacobi-preconditioned CG: {pcg.iterations} iterations "
          f"({pcg.info['full_checks']} matrix checks)")

    deferred = ProtectionConfig.deferred(window=16)
    print(f"\ndeferred window of 16 across every method "
          f"({', '.join(repro.available_methods())}):")
    for method in repro.available_methods():
        res = repro.solve(A, b, method=method, eps=1e-20, max_iters=20_000,
                          protection=deferred)
        print(f"  {method:>9}: {res.iterations:5d} iters, "
              f"{res.info['full_checks']:3d} full checks, "
              f"{res.info['bounds_checks']:5d} range checks, "
              f"{res.info['deferred_stores']:5d} buffered stores")

    # --- a session holds one engine across many solves -------------------
    with repro.ProtectionSession(deferred) as session:
        r1 = session.solve(A, b, method="cg", eps=1e-20)
        r2 = session.solve(A, b, r1.x, method="cg", eps=1e-20)
        print(f"\nsession: 2 solves ({r1.iterations} + {r2.iterations} iters) "
              f"on one engine, {session.pending_windows()} dirty windows "
              "open at the boundary")
    print(f"after end_step: {session.pending_windows()} dirty windows, "
          f"{session.stats.dirty_flushes} flushes total")

    # --- SED detects but cannot correct: the application decides ---------
    sed_config = ProtectionConfig(element_scheme="sed", rowptr_scheme="sed",
                                  vector_scheme=None)
    sed = ProtectedCSRMatrix(A, "sed", "sed")
    f64_to_u64(sed.values)[777] ^= np.uint64(1) << np.uint64(3)
    try:
        repro.solve(sed, b, method="cg", eps=1e-20, protection=sed_config)
    except DetectedUncorrectableError as exc:
        print(f"\nSED caught an uncorrectable error ({exc.region}); "
              "re-encoding and retrying (no checkpoint/restart needed):")
        retry = repro.solve(A, b, method="cg", eps=1e-20, protection=sed_config)
        print(f"  retry converged in {retry.iterations} iterations")


if __name__ == "__main__":
    main()
