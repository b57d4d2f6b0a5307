"""Batch solve runner: what the service's executor actually executes.

One :func:`run_batch` call is one batch — jobs sharing a matrix handle
and a protection config — served by this process's warm state:

* a module-global :class:`~repro.serve.cache.MatrixCache` and
  :class:`~repro.serve.cache.SessionPool`, so the encoded matrix and the
  deferred-verification session persist *across* batches for the life of
  the process (in-process execution shares one cache; each spawn-pool
  worker warms its own);
* each job is one :meth:`ProtectionSession.solve` against the shared
  encoded matrix, and the whole batch closes with a single
  ``session.end_step()`` — the paper's mandatory sweep, paid once per
  batch instead of once per solve;
* compatible CG jobs in a batch (same matrix, same protection, no
  injection, not distributed-routed) are grouped into **one blocked
  multi-RHS solve** (:mod:`repro.solvers.block`): the matrix is
  verified once per iteration for the whole group instead of once per
  job, while each job's record and event stream stay exactly what a
  solo solve would have produced.

The runner is addressed as ``"repro.serve.workers:run_batch"`` — the
importable-reference form :mod:`repro.sweeps.executor` requires — and
returns a JSON-serialisable record (per-job results + cache/session
stats) streamed back to the service via ``on_record``.

A vector DUE under an escalating recovery policy is repaired inside the
solve (the engine's transparent rebuild); the runner diffs the session's
:class:`~repro.recover.manager.RecoveryStats` around each job and turns
any delta into ``recovered`` events for the job's stream.  A DUE that
*aborts* a solve (the ``raise`` strategy) fails only that job: the
session released its regions when the error unwound, so the runner drops
the session, invalidates the possibly-corrupt encoded matrix, and later
jobs in the batch re-encode from the pristine raw build.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path

import numpy as np

from repro.errors import BoundsViolationError, DetectedUncorrectableError
from repro.serve.cache import MatrixCache, SessionPool
from repro.serve.jobs import build_rhs, protection_from_spec

#: Per-process warm state (one instance per serving/worker process).
CACHE = MatrixCache()
SESSIONS = SessionPool()

#: Environment hook mirroring the sweeps' ``SWEEP_PROBE_DIR``: when set,
#: every executed solve drops a marker file, so resume tests can assert
#: "no duplicate solves" as a filesystem fact rather than a log claim.
PROBE_ENV = "SERVE_PROBE_DIR"

_INTEGRITY_ERRORS = (DetectedUncorrectableError, BoundsViolationError)


def _probe(job_id: str) -> None:
    probe_dir = os.environ.get(PROBE_ENV)
    if probe_dir:
        with open(Path(probe_dir) / f"solved-{job_id}.ran", "a") as fh:
            fh.write("ran\n")


def _recovery_delta(session, before: dict | None) -> dict:
    if session.recovery is None:
        return {}
    after = dataclasses.asdict(session.recovery.stats)
    if before is None:
        return after
    return {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)}


def _recovery_snapshot(session) -> dict | None:
    if session.recovery is None:
        return None
    return dataclasses.asdict(session.recovery.stats)


def _result_record(job: dict, result, duration_s: float, session,
                   before: dict | None) -> dict:
    """Shape one job's result record (shared by solo and blocked paths)."""
    record = {
        "job_id": job["job_id"],
        "status": "done",
        "method": job["method"],
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "residual": float(result.final_residual),
        "x_norm": float(np.linalg.norm(result.x)),
        "duration_ms": duration_s * 1e3,
        "events": [],
    }
    delta = _recovery_delta(session, before)
    recovered = delta.get("rollbacks", 0) + delta.get("repopulates", 0) \
        + delta.get("vector_repairs", 0)
    if recovered or delta.get("dues"):
        record["recovered"] = int(recovered)
        record["events"].append({"event": "recovered", **delta})
    if job.get("return_x"):
        record["x"] = [float(v) for v in result.x]
    return record


def _solve_group(group: list[dict], session, matrix_arg) -> list[dict]:
    """Serve a group of compatible jobs as one blocked multi-RHS solve.

    The group shares the batch's matrix and protection by construction;
    the right-hand sides stack into one ``(n, k)`` block and per-job
    ``eps``/``max_iters`` ride the blocked runner's per-column targets,
    so every job gets exactly the answer its solo solve would produce
    while the matrix verification and kernel dispatch are paid once per
    iteration for the whole group.  Integrity errors propagate to the
    caller, which retries the group job-by-job so failure attribution
    stays per-job.
    """
    import repro

    n = matrix_arg.n_rows
    k = len(group)
    B = np.stack([build_rhs(job, n) for job in group], axis=1)
    X0 = None
    if any(job.get("x0") is not None for job in group):
        X0 = np.zeros((n, k), dtype=np.float64)
        for col, job in enumerate(group):
            if job.get("x0") is not None:
                X0[:, col] = np.asarray(job["x0"], dtype=np.float64)
    eps = [job["eps"] for job in group]
    max_iters = [job["max_iters"] for job in group]
    t0 = time.perf_counter()
    before = _recovery_snapshot(session)
    result = repro.solve(
        matrix_arg, B, X0, method="cg", eps=eps, max_iters=max_iters,
        protection=session,
    )
    duration = time.perf_counter() - t0
    records = []
    for col, job in enumerate(group):
        _probe(job["job_id"])
        record = _result_record(job, result.column(col), duration, session,
                                before)
        record["blocked_k"] = k
        records.append(record)
    # The recovery delta describes the whole block; report it once (on
    # the first job's stream) instead of k times.
    for record in records[1:]:
        record.pop("recovered", None)
        record["events"] = [e for e in record["events"]
                            if e.get("event") != "recovered"]
    return records


def _blockable(job: dict, dist_shards: int, dist_threshold: int) -> bool:
    """Whether a job may join a blocked multi-RHS group.

    Blocked groups cover the warm-session CG path only: injection jobs
    run on private matrices, distributed-routed jobs leave the process,
    and non-CG methods have no blocked runner.
    """
    if job["method"] != "cg" or job.get("inject") is not None:
        return False
    return not _routes_distributed(job, dist_shards, dist_threshold)


def _solve_one(job: dict, session, matrix_arg) -> dict:
    """Run one job's solve and shape its result record."""
    import repro

    b = build_rhs(job, matrix_arg.n_rows)
    x0 = np.asarray(job["x0"], dtype=np.float64) if job.get("x0") is not None else None
    t0 = time.perf_counter()
    before = _recovery_snapshot(session)
    result = repro.solve(
        matrix_arg, b, x0, method=job["method"],
        eps=job["eps"], max_iters=job["max_iters"], protection=session,
    )
    duration = time.perf_counter() - t0
    _probe(job["job_id"])
    return _result_record(job, result, duration, session, before)


def _solve_distributed(job: dict, config, n_shards: int) -> dict:
    """Serve one above-threshold job on the row-sharded solver.

    The distributed path takes the *raw* matrix (each shard re-encodes
    its own block under its own protection domain), so the shared
    encoded cache and warm sessions are bypassed — which is the point:
    this is the large-problem path :mod:`repro.serve` previously punted
    on.  The job record matches :func:`_solve_one`'s shape plus a
    ``distributed`` event carrying the shard/recovery counters.
    """
    from repro.dist.solve import distributed_solve

    raw = CACHE.raw(job["matrix"])
    b = build_rhs(job, raw.n_rows)
    x0 = np.asarray(job["x0"], dtype=np.float64) if job.get("x0") is not None else None
    t0 = time.perf_counter()
    result = distributed_solve(
        raw, b, x0, n_shards=n_shards, method=job["method"],
        protection=config if config is not None and config.enabled else None,
        eps=job["eps"], max_iters=job["max_iters"],
    )
    duration = time.perf_counter() - t0
    _probe(job["job_id"])
    stats = result.info["distributed"]
    record = {
        "job_id": job["job_id"],
        "status": "done",
        "method": job["method"],
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "residual": float(result.final_residual),
        "x_norm": float(np.linalg.norm(result.x)),
        "duration_ms": duration * 1e3,
        "events": [{"event": "distributed", **stats}],
    }
    if stats["respawns"]:
        record["recovered"] = int(stats["respawns"])
    if job.get("return_x"):
        record["x"] = [float(v) for v in result.x]
    return record


def _routes_distributed(job: dict, dist_shards: int, dist_threshold: int) -> bool:
    """Whether a job goes to the sharded solver: opted in, CG, and large.

    Injection jobs keep their private-matrix path, and non-CG methods
    stay single-process (the distributed driver is CG-only) — routing
    never changes what a below-threshold or unroutable job would do.
    """
    if dist_shards < 2 or job.get("inject") is not None:
        return False
    if job["method"] != "cg":
        return False
    return CACHE.raw(job["matrix"]).n_rows >= dist_threshold


def _solve_injected(job: dict, config) -> dict:
    """Fault-injection jobs: a live Poisson process over a *private* matrix.

    Injection mutates matrix storage, so these jobs never touch the
    shared cache — :func:`faulty_solve` encodes its own copy from the
    raw build and reports what the recovery layer did about the upsets.
    """
    from repro.faults.process import PoissonProcess, faulty_solve
    from repro.protect.config import ProtectionConfig

    inject = job["inject"]
    cfg = config if config is not None else ProtectionConfig.paper_default()
    raw = CACHE.raw(job["matrix"])
    b = build_rhs(job, raw.n_rows)
    process = PoissonProcess(
        float(inject["rate"]),
        rng=np.random.default_rng(int(inject.get("seed", 0))),
    )
    t0 = time.perf_counter()
    report = faulty_solve(
        raw, b, process, method=job["method"], config=cfg,
        eps=job["eps"], max_iters=job["max_iters"],
    )
    duration = time.perf_counter() - t0
    _probe(job["job_id"])
    result = report.result
    record = {
        "job_id": job["job_id"],
        "status": "done" if result is not None else "failed",
        "method": job["method"],
        "converged": bool(result.converged) if result is not None else False,
        "iterations": int(result.iterations) if result is not None else 0,
        "residual": float(result.final_residual) if result is not None else float("nan"),
        "x_norm": float(np.linalg.norm(result.x)) if result is not None else 0.0,
        "duration_ms": duration * 1e3,
        "injected": int(report.injected),
        "dues": int(report.detected_uncorrectable),
        "recovered": int(report.recovered),
        "events": [],
    }
    if report.injected:
        record["events"].append({
            "event": "injected", "upsets": int(report.injected),
            "iterations": list(report.injection_iterations),
        })
    if report.recovered:
        record["events"].append({
            "event": "recovered", "recoveries": int(report.recovered),
            "strategy": report.recovery,
        })
    if result is not None and job.get("return_x"):
        record["x"] = [float(v) for v in result.x]
    return record


def run_batch(*, jobs: list[dict], protection=None, throttle: float = 0.0,
              dist_shards: int = 0, dist_threshold: int = 4096,
              seed=None) -> dict:
    """Serve one batch of same-matrix jobs; the executor's task runner.

    Parameters
    ----------
    jobs:
        Canonical job dicts (see :func:`repro.serve.jobs.normalise_job`),
        all sharing one matrix handle and one protection spec — the
        batcher's grouping invariant.
    protection:
        The shared protection spec (``None`` / preset name / field dict).
    throttle:
        Artificial seconds of sleep per solve; load-shaping knob for
        demos and kill-mid-stream tests, never set in production.
        Throttled batches never block-group: the knob's contract is a
        paced, per-job cadence.
    dist_shards / dist_threshold:
        When ``dist_shards >= 2``, CG jobs on matrices of at least
        ``dist_threshold`` rows run on the row-sharded distributed
        solver instead of the warm single-process session (see
        :func:`_routes_distributed`); everything else is untouched.
    seed:
        Executor-owned seeding slot (unused: job randomness is explicit
        in each job's spec, so batches are reproducible by content).

    Two or more compatible jobs of a batch (see :func:`_blockable`) are
    served as one blocked multi-RHS solve — verification and dispatch
    paid once per iteration for the whole group, per-job records and
    event streams unchanged.  An integrity error inside a blocked group
    falls back to job-by-job solves so failures attribute to the job
    that hit them.
    """
    del seed
    records_by_id: dict[str, dict] = {}
    config = protection_from_spec(protection)
    matrix_spec = jobs[0]["matrix"]
    session = SESSIONS.get(matrix_spec, protection)
    blocked_jobs = 0

    def _matrix():
        """The warm matrix handle: encoded when the config protects it."""
        pmat = CACHE.encoded(matrix_spec, protection)
        return pmat if pmat is not None else CACHE.raw(matrix_spec)

    def _rewarm():
        """Drop the warm state a DUE poisoned; return a fresh session.

        The encoded matrix may retain the detected corruption, so later
        jobs re-encode from the pristine raw build.
        """
        SESSIONS.drop(matrix_spec, protection)
        CACHE.invalidate(matrix_spec, protection)
        return SESSIONS.get(matrix_spec, protection)

    group: list[dict] = []
    rest: list[dict] = jobs
    if throttle <= 0.0:
        group = [j for j in jobs
                 if _blockable(j, dist_shards, dist_threshold)]
        if len(group) >= 2:
            rest = [j for j in jobs if j not in group]
        else:
            group = []
    if group:
        try:
            for record in _solve_group(group, session, _matrix()):
                records_by_id[record["job_id"]] = record
            blocked_jobs = len(group)
        except _INTEGRITY_ERRORS:
            # Can't attribute a block-wide DUE to one job: drop the warm
            # state and retry the group job-by-job below.
            session = _rewarm()
            rest = jobs
        except Exception:
            rest = jobs

    for job in rest:
        if throttle > 0.0:
            time.sleep(throttle)
        try:
            if job.get("inject") is not None:
                records_by_id[job["job_id"]] = _solve_injected(job, config)
                continue
            if _routes_distributed(job, dist_shards, dist_threshold):
                records_by_id[job["job_id"]] = _solve_distributed(
                    job, config, dist_shards)
                continue
            records_by_id[job["job_id"]] = _solve_one(job, session, _matrix())
        except _INTEGRITY_ERRORS as exc:
            session = _rewarm()
            records_by_id[job["job_id"]] = {
                "job_id": job["job_id"], "status": "failed",
                "method": job["method"], "converged": False,
                "error": f"{type(exc).__name__}: {exc}",
                "events": [{"event": "due", "error": type(exc).__name__}],
            }
        except Exception as exc:  # malformed-but-admitted jobs fail alone
            records_by_id[job["job_id"]] = {
                "job_id": job["job_id"], "status": "failed",
                "method": job["method"], "converged": False,
                "error": f"{type(exc).__name__}: {exc}",
                "events": [],
            }
    # One mandatory sweep closes the whole batch's deferral window.
    session.end_step()
    return {
        "jobs": [records_by_id[job["job_id"]] for job in jobs],
        "batch_size": len(jobs),
        "blocked_jobs": blocked_jobs,
        "worker_pid": os.getpid(),
        "cache": dict(CACHE.stats),
        "sessions": dict(SESSIONS.stats),
    }
