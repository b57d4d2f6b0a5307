"""Blocked multi-RHS solves: column parity, fault isolation, serving.

The contracts pinned here (ISSUE 10):

* column ``j`` of a blocked solve — plain or protected, any preset with
  a group-1 vector scheme — is **bitwise identical** to the single-RHS
  solve of that column: same ``x``, same iteration count, same residual
  history;
* the kernels are rank-polymorphic — row ``j`` of a ``(k, n)`` product
  is bitwise the 1-D product on ``X[j]``, clean or damaged, on every
  scheme — so an injected matrix flip is corrected for all
  ``k`` products at once, and damage confined to one column of a
  blocked vector store is repaired without perturbing the siblings;
* the multi-RHS gather tile is persistent: a warm blocked verified
  product allocates nothing proportional to ``k * nnz``;
* methods without a blocked runner and method kwargs fall back to
  sequential per-column solves; an empty block is rejected by every
  entry the same way;
* the serving layer groups compatible batch jobs into one blocked solve
  (visible in ``blocked_k`` / ``stats.blocked_jobs``) without changing
  any job's record, event stream shape, or cached identity — and the
  pipelined ``solve_many`` lands a whole client batch in one window.
"""

import asyncio
import threading
import tracemalloc

import numpy as np
import pytest

import repro
from repro.bits.float_bits import f64_to_u64
from repro.csr.build import five_point_operator
from repro.errors import ConfigurationError
from repro.protect import (
    ProtectedBlockVector,
    ProtectedCSRMatrix,
    ProtectionConfig,
    ProtectionSession,
)
from repro.serve import workers as serve_workers
from repro.serve.cache import MatrixCache, SessionPool
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.server import SolveServer
from repro.serve.service import ServeConfig, SolveService
from repro.solvers import BlockResult, cg_solve


def make_matrix(n=12, seed=3):
    rng = np.random.default_rng(seed)
    kx = rng.uniform(0.5, 2.0, (n, n))
    ky = rng.uniform(0.5, 2.0, (n, n))
    return five_point_operator(n, n, kx, ky, 0.25)


def make_block_system(n=12, k=4, seed=3):
    A = make_matrix(n=n, seed=seed)
    B = np.random.default_rng(seed + 100).standard_normal((A.n_rows, k))
    return A, B


PROTECTED_PRESETS = [
    ("paper_default", lambda: ProtectionConfig.paper_default()),
    ("deferred16", lambda: ProtectionConfig.deferred(window=16)),
]


# ---------------------------------------------------------------------------
SCHEMES = ["sed", "secded64", "secded128", "crc32c"]


def report_key(reports):
    """What two verifications must agree on, region by region."""
    return {
        region: (r.ok, r.n_corrected, r.uncorrectable_indices().tolist())
        for region, r in reports.items()
    }


def rank_parity_cell(scheme, flips):
    """One cell of the rank-parity table.

    ``flips`` bits of one stored value are flipped, then the ``(k, n)``
    call and the 1-D call on each ``X[j]`` (each on a fresh matrix, so
    every call sees the same damage) must agree bitwise — products,
    ``y is None`` on a DUE, and reports — for ``spmv_verified``; and
    ``matvec_unchecked`` (which never verifies) must agree on the
    products.  Returns the blocked reports for scheme-specific asserts.
    """
    matrix = make_matrix(seed=5)
    X = np.random.default_rng(7).standard_normal((5, matrix.n_cols))

    def damaged():
        pmat = ProtectedCSRMatrix(matrix, scheme, scheme)
        for bit in flips:
            f64_to_u64(pmat.values)[17] ^= np.uint64(1) << np.uint64(bit)
        return pmat

    Y, reports = damaged().spmv_verified(X)
    for j in range(X.shape[0]):
        y, solo_reports = damaged().spmv_verified(X[j])
        assert report_key(solo_reports) == report_key(reports)
        if Y is None:
            assert y is None
        else:
            assert np.array_equal(Y[j], y)
    U = damaged().matvec_unchecked(X)
    for j in range(X.shape[0]):
        assert np.array_equal(U[j], damaged().matvec_unchecked(X[j]))
    return Y, reports


class TestKernelParity:
    """Rank is data: row j of a ``(k, n)`` call is bitwise the 1-D call
    on ``X[j]``, for every scheme."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_clean_blocked_product_matches_single(self, scheme):
        Y, reports = rank_parity_cell(scheme, ())
        assert Y is not None
        assert reports["row_pointer"].ok and reports["csr_elements"].ok

    def test_correctable_flip_repaired_for_all_columns(self):
        """One flip: corrected where the scheme corrects, for every
        column at once; two flips in one codeword: SECDED's DUE, no
        product.  Either way both ranks tell the same story."""
        matrix = make_matrix(seed=5)
        X = np.random.default_rng(7).standard_normal((5, matrix.n_cols))
        clean = np.stack([matrix.matvec(X[j]) for j in range(X.shape[0])])
        for scheme in SCHEMES:
            Y, reports = rank_parity_cell(scheme, (40,))
            if scheme.startswith("secded"):
                assert reports["csr_elements"].n_corrected == 1
                assert np.array_equal(Y, clean)
            Y, reports = rank_parity_cell(scheme, (40, 17))
            if scheme.startswith("secded"):
                assert Y is None and not reports["csr_elements"].ok

    def test_multi_gather_tile_is_allocation_free_when_warm(self):
        """A warm blocked verified product must not allocate a fresh
        ``(k, nnz)`` products array or ``k * chunk`` gather tile."""
        matrix = make_matrix(n=40)
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        k = 4
        X = np.random.default_rng(0).standard_normal((k, matrix.n_cols))
        out = np.empty((k, pmat.n_rows))
        pmat.spmv_verified(X, out=out)  # warm
        tracemalloc.start()
        for _ in range(3):
            Y, reports = pmat.spmv_verified(X, out=out)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert Y is out and reports["csr_elements"].ok
        # One (k, nnz) temporary would be k * nnz * 8 bytes; stay well under.
        assert peak < k * pmat.nnz * 8 / 2, f"peak {peak} bytes"


# ---------------------------------------------------------------------------
class TestBlockVector:
    def test_roundtrip_and_shape(self):
        block = np.random.default_rng(3).standard_normal((4, 33))
        pvec = ProtectedBlockVector(block, "secded64")
        assert pvec.block_shape == (4, 33)
        assert pvec.shape == (4, 33)
        decoded = pvec.values().reshape(pvec.shape)
        # secded64 keeps 56 mantissa bits: re-masking is idempotent and
        # uniform across columns.
        assert np.array_equal(
            decoded.reshape(-1), ProtectedBlockVector(decoded, "secded64").values()
        )

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigurationError):
            ProtectedBlockVector(np.zeros(8), "secded64")

    def test_column_damage_does_not_perturb_siblings(self):
        block = np.random.default_rng(5).standard_normal((3, 40))
        pvec = ProtectedBlockVector(block, "secded64")
        clean = pvec.values()
        # Flip a protected mantissa bit inside column 1's row only.
        flat_index = 1 * 40 + 7
        f64_to_u64(pvec.raw)[flat_index] ^= np.uint64(1) << np.uint64(33)
        report = pvec.check(correct=True)
        assert report.ok and report.n_corrected == 1
        assert np.array_equal(pvec.values(), clean)


# ---------------------------------------------------------------------------
class TestBlockedCGParity:
    def test_plain_columns_bitwise_match_single_rhs(self):
        A, B = make_block_system(k=5)
        res = repro.solve(A, B, eps=1e-18)
        assert isinstance(res, BlockResult)
        for j in range(B.shape[1]):
            solo = cg_solve(A, B[:, j], eps=1e-18)
            assert solo.x.tobytes() == res.x[:, j].tobytes()
            assert solo.iterations == res.iterations[j]
            assert solo.converged == bool(res.converged[j])
            assert solo.residual_norms == res.residual_norms[j]

    @pytest.mark.parametrize("name,make_config", PROTECTED_PRESETS)
    def test_protected_columns_bitwise_match_single_rhs(self, name, make_config):
        A, B = make_block_system(k=4)
        blocked = repro.solve(A, B, protection=make_config(), eps=1e-18)
        if name == "paper_default" and make_config().resolved_fused_verify():
            assert blocked.info["fused_products"] > 0
        for j in range(B.shape[1]):
            solo = repro.solve(A, B[:, j], protection=make_config(), eps=1e-18)
            assert solo.x.tobytes() == blocked.x[:, j].tobytes()
            assert solo.iterations == blocked.iterations[j]
            assert solo.residual_norms == blocked.residual_norms[j]

    def test_per_column_targets_freeze_stragglers(self):
        A, B = make_block_system(k=3)
        res = repro.solve(A, B, eps=[1e-4, 1e-18, 1e-10])
        assert res.converged.all()
        assert res.iterations[0] < res.iterations[2] < res.iterations[1]
        # The early-frozen column is exactly its solo loose-target solve.
        solo = cg_solve(A, B[:, 0], eps=1e-4)
        assert solo.x.tobytes() == res.x[:, 0].tobytes()

    def test_per_column_max_iters_caps_independently(self):
        A, B = make_block_system(k=2)
        res = repro.solve(A, B, eps=1e-18, max_iters=[3, 10_000])
        assert res.iterations[0] == 3 and not res.converged[0]
        assert res.converged[1]

    def test_injected_matrix_flip_corrected_without_perturbing_columns(self):
        """A correctable matrix upset before a blocked solve is repaired
        on the blocked product's traffic and every column still matches
        its clean solo solve bitwise."""
        A, B = make_block_system(k=3, seed=9)
        pmat = ProtectedCSRMatrix(A, "secded64", "secded64")
        f64_to_u64(pmat.values)[23] ^= np.uint64(1) << np.uint64(41)
        config = ProtectionConfig.paper_default()
        res = repro.solve(pmat, B, protection=config, eps=1e-18)
        assert res.info["corrected"] >= 1
        for j in range(B.shape[1]):
            solo = repro.solve(A, B[:, j],
                               protection=ProtectionConfig.paper_default(),
                               eps=1e-18)
            assert solo.x.tobytes() == res.x[:, j].tobytes()

    def test_session_blocked_solve_and_sweep(self):
        A, B = make_block_system(k=3)
        with ProtectionSession(ProtectionConfig.deferred(window=16)) as session:
            res = repro.solve(A, B, protection=session, eps=1e-18)
            session.end_step()
            solo = repro.solve(A, B[:, 1], protection=session, eps=1e-18)
            session.end_step()
        assert res.converged.all() and solo.converged

    def test_distributed_rejects_blocked_rhs(self):
        A, B = make_block_system(k=2)
        with pytest.raises(ConfigurationError):
            repro.solve(A, B, distributed=2)


# ---------------------------------------------------------------------------
class TestDispatchFallbacks:
    def test_non_cg_method_falls_back_sequentially(self):
        A, B = make_block_system(k=2)
        res = repro.solve(A, B, method="jacobi", eps=1e-10, max_iters=20_000)
        assert res.info.get("sequential_fallback") is True
        assert res.converged.all()

    def test_method_kwargs_fall_back_sequentially(self):
        from repro.solvers import JacobiPreconditioner

        A, B = make_block_system(k=2)
        res = repro.solve(A, B, eps=1e-12,
                          preconditioner=JacobiPreconditioner(A.diagonal()))
        assert res.info.get("sequential_fallback") is True
        assert res.converged.all()

    @pytest.mark.parametrize("extra", [
        {}, {"method": "jacobi"}, {"protection": ProtectionConfig.deferred(16)},
    ], ids=["blocked", "sequential", "protected"])
    def test_empty_block_rejected_by_every_entry(self, extra):
        A, _ = make_block_system()
        with pytest.raises(ConfigurationError, match="k >= 1"):
            repro.solve(A, np.zeros((A.n_rows, 0)), **extra)

    def test_column_accessor_shapes(self):
        A, B = make_block_system(k=3)
        res = repro.solve(A, B, eps=1e-12)
        col = res.column(2)
        assert col.x.shape == (A.n_rows,)
        assert isinstance(col.iterations, int)
        assert col.residual_norms == res.residual_norms[2]


# ---------------------------------------------------------------------------
def five_point_job(b_seed=0, grid=10, matrix_seed=3, protection="deferred",
                   **extra):
    job = {
        "matrix": {"kind": "five-point", "grid": grid, "seed": matrix_seed},
        "b": {"seed": b_seed}, "method": "cg", "eps": 1e-10,
        "protection": protection,
    }
    job.update(extra)
    return job


@pytest.fixture
def fresh_workers(monkeypatch):
    """Isolate each test from the process-global warm caches."""
    monkeypatch.setattr(serve_workers, "CACHE", MatrixCache())
    monkeypatch.setattr(serve_workers, "SESSIONS", SessionPool())
    return serve_workers


def run_service(jobs, **config):
    """Submit ``jobs`` to a fresh in-process service; return their records."""

    async def main():
        service = SolveService(ServeConfig(**config))
        await service.start()
        submits = [await service.submit(job) for job in jobs]
        records = [await service.result(s["job_id"]) for s in submits]
        events = {s["job_id"]: list(service._events[s["job_id"]]) for s in submits}
        status = service.status()
        await service.stop()
        return records, events, status

    return asyncio.run(main())


class TestServeBlockedBatches:
    def test_compatible_jobs_grouped_into_one_blocked_solve(self, fresh_workers):
        jobs = [five_point_job(b_seed=i) for i in range(4)]
        records, events, status = run_service(jobs, batch_window=0.05)
        assert all(r["status"] == "done" and r["converged"] for r in records)
        assert all(r.get("blocked_k") == 4 for r in records)
        assert status["stats"]["blocked_jobs"] == 4
        # Clean blocked jobs keep the canonical stream shape.
        for stream in events.values():
            assert [e["event"] for e in stream] == ["accepted", "started", "done"]

    def test_blocked_records_match_solo_serving(self, fresh_workers):
        jobs = [five_point_job(b_seed=i, return_x=True) for i in range(3)]
        blocked, _, _ = run_service(jobs, batch_window=0.05)
        serve_workers.CACHE, serve_workers.SESSIONS = MatrixCache(), SessionPool()
        solo_records = []
        for job in jobs:
            solo, _, _ = run_service([job])
            solo_records.extend(solo)
        for got, want in zip(blocked, solo_records):
            assert got["job_id"] == want["job_id"]
            assert got["iterations"] == want["iterations"]
            assert got["x"] == want["x"]

    def test_injection_jobs_stay_private_while_siblings_block(self, fresh_workers):
        inject = five_point_job(b_seed=9, protection="paper_default",
                                inject={"rate": 1e-9, "seed": 1})
        plain = [five_point_job(b_seed=i, protection="paper_default")
                 for i in range(2)]
        records, _, status = run_service([inject] + plain, batch_window=0.05)
        by_id = {r["job_id"]: r for r in records}
        assert all(r["status"] == "done" for r in records)
        injected = [r for r in by_id.values() if "injected" in r]
        assert len(injected) == 1 and "blocked_k" not in injected[0]
        assert status["stats"]["blocked_jobs"] == 2

    def test_single_job_batches_never_block(self, fresh_workers):
        records, _, status = run_service([five_point_job(b_seed=1)])
        assert records[0]["status"] == "done"
        assert "blocked_k" not in records[0]
        assert status["stats"]["blocked_jobs"] == 0

    def test_worker_stats_expose_per_process_cache(self, fresh_workers):
        jobs = [five_point_job(b_seed=i) for i in range(3)]
        _, _, status = run_service(jobs, batch_window=0.05)
        assert len(status["workers"]) == 1
        (worker,) = status["workers"].values()
        assert worker["batches"] >= 1
        assert worker["blocked_jobs"] == 3
        assert worker["cache"]["encodes"] == 1


class TestPipelinedSolveMany:
    @pytest.fixture
    def live_server(self, fresh_workers):
        holder, ready = {}, threading.Event()

        def runner():
            async def amain():
                server = SolveServer(SolveService(ServeConfig(batch_window=0.1)))
                holder["server"] = server
                _, holder["port"] = await server.start()
                ready.set()
                await server.serve_forever()

            asyncio.run(amain())

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        assert ready.wait(10), "server failed to start"
        yield holder
        try:
            ServeClient(port=holder["port"]).shutdown()
        except (ServeClientError, OSError):
            pass
        thread.join(10)

    def test_solve_many_lands_in_one_blocked_batch(self, live_server):
        client = ServeClient(port=live_server["port"])
        jobs = [five_point_job(b_seed=i) for i in range(4)]
        records = client.solve_many(jobs)
        assert [r["status"] for r in records] == ["done"] * 4
        # Pipelined submits coalesce in one window -> one blocked group.
        assert all(r.get("blocked_k") == 4 for r in records)
        status = client.status()
        assert status["stats"]["batches"] == 1
        assert status["stats"]["blocked_jobs"] == 4

    def test_solve_many_empty_batch(self, live_server):
        assert ServeClient(port=live_server["port"]).solve_many([]) == []
