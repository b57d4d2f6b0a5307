"""Job model for the solve service: validation, canonical identity, batching keys.

A job is a plain JSON-friendly dict — it crosses sockets, journals and
process boundaries — describing one linear solve: *which system* (a
matrix handle or a TeaLeaf deck), *how* to solve it (method, tolerances)
and *under what protection* (a :class:`~repro.protect.config.ProtectionConfig`
spec).  This module gives jobs three things the service needs:

* **validation** (:func:`validate_job`) — client-submitted jobs are
  untrusted input (Elliott/Hoemmen/Mueller, arXiv:1404.5552): shapes,
  finiteness and resource bounds are checked *before* any work is
  committed, so a malformed job is rejected at submit, not discovered
  mid-pool;
* **identity** (:func:`job_key`) — the sha256 of the canonical job JSON,
  mirroring the sweeps' cell-identity hashing: resubmitting the same job
  is a cache hit, and a journal keyed this way resumes without duplicate
  solves;
* **batching** (:func:`batch_key`) — jobs sharing a matrix and a
  protection config land in one batch, which one warm
  :class:`~repro.protect.session.ProtectionSession` serves with a single
  encoded matrix and a single mandatory end-of-batch sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from repro.errors import ConfigurationError
from repro.protect.config import ProtectionConfig

#: Protection presets a job may name instead of spelling out fields.
PROTECTION_PRESETS = ("off", "paper_default", "deferred", "matrix_only", "resilient")

#: Hard server-side resource bounds (see docs/serving.md, "Untrusted jobs").
MAX_ROWS = 1_000_000
MAX_SOLVE_ITERS = 200_000


class JobValidationError(ConfigurationError):
    """A submitted job failed its pre-admission bound checks."""


# ---------------------------------------------------------------------------
# protection specs
# ---------------------------------------------------------------------------
def protection_from_spec(spec) -> ProtectionConfig | None:
    """Resolve a job's ``protection`` field into a :class:`ProtectionConfig`.

    Accepts ``None`` (unprotected), a preset name from
    :data:`PROTECTION_PRESETS`, or a dict of config fields — optionally
    ``{"preset": name, **preset_kwargs}`` — with ``recovery`` given as a
    strategy string or a ``RecoveryPolicy`` field dict.  Any spec the
    config (or recovery policy) constructor rejects — unknown fields,
    out-of-range or mistyped values — raises :class:`JobValidationError`.
    """
    if spec is None or spec == "off":
        return None
    if isinstance(spec, str):
        if spec not in PROTECTION_PRESETS:
            raise JobValidationError(
                f"unknown protection preset {spec!r}; choose from {PROTECTION_PRESETS}"
            )
        return getattr(ProtectionConfig, spec)()
    if isinstance(spec, dict):
        spec = dict(spec)
        preset = spec.pop("preset", None)
        if preset is not None and preset not in PROTECTION_PRESETS:
            raise JobValidationError(
                f"unknown protection preset {preset!r}; "
                f"choose from {PROTECTION_PRESETS}"
            )
        recovery = spec.pop("recovery", None)
        try:
            if isinstance(recovery, dict):
                from repro.recover import RecoveryPolicy

                recovery = RecoveryPolicy(**recovery)
            if preset is not None:
                config = getattr(ProtectionConfig, preset)(**spec)
            else:
                config = ProtectionConfig(**spec)
            if recovery is not None:
                config = config.replace(recovery=recovery)
        except (ConfigurationError, TypeError, ValueError) as exc:
            raise JobValidationError(f"bad protection spec: {exc}") from exc
        return config
    raise JobValidationError(
        f"protection must be None, a preset name or a dict, not {type(spec).__name__}"
    )


def protection_canonical(spec) -> str:
    """One canonical JSON string per *resolved* protection config.

    Spelling variants (``"deferred"`` vs ``{"preset": "deferred"}`` vs
    the explicit field dict) canonicalise to the same string, so they
    batch together.
    """
    config = protection_from_spec(spec)
    if config is None:
        return "null"
    payload = dataclasses.asdict(config)
    if config.recovery is not None:
        payload["recovery"] = dataclasses.asdict(config.recovery)
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# matrix handles
# ---------------------------------------------------------------------------
def build_matrix(matrix_spec: dict):
    """Materialise a matrix handle into a :class:`~repro.csr.matrix.CSRMatrix`.

    Three handle kinds cover the service's sources:

    * ``{"kind": "csr", "values": [...], "colidx": [...], "rowptr": [...],
      "shape": [m, n]}`` — explicit CSR payload;
    * ``{"kind": "five-point", "grid": n, "seed": s, "dt": 0.3}`` — the
      campaign's conductivity-seeded 5-point operator (server-side
      assembly: the client ships ~3 ints, not O(nnz) floats);
    * ``{"kind": "deck", "text": "*tea..."}`` — a TeaLeaf input deck;
      the system is the deck's first implicit conduction step.
    """
    kind = matrix_spec.get("kind")
    if kind == "csr":
        from repro.csr.matrix import CSRMatrix

        return CSRMatrix(
            np.asarray(matrix_spec["values"], dtype=np.float64),
            np.asarray(matrix_spec["colidx"], dtype=np.uint32),
            np.asarray(matrix_spec["rowptr"], dtype=np.uint32),
            tuple(matrix_spec["shape"]),
        )
    if kind == "five-point":
        from repro.csr.build import five_point_operator

        grid = int(matrix_spec.get("grid", 32))
        rng = np.random.default_rng(int(matrix_spec.get("seed", 0)))
        shape = (grid, grid)
        return five_point_operator(
            grid, grid,
            rng.uniform(0.5, 2.0, shape), rng.uniform(0.5, 2.0, shape),
            float(matrix_spec.get("dt", 0.3)),
        )
    if kind == "deck":
        from repro.tealeaf.assembly import build_operator
        from repro.tealeaf.deck import parse_deck
        from repro.tealeaf.state import TeaLeafState

        deck = parse_deck(matrix_spec["text"])
        state = TeaLeafState(deck)
        return build_operator(state, deck.initial_timestep)
    raise JobValidationError(
        f"unknown matrix kind {kind!r}; choose from 'csr', 'five-point', 'deck'"
    )


def deck_rhs(matrix_spec: dict) -> np.ndarray:
    """The natural RHS of a deck handle: the initial temperature field."""
    from repro.tealeaf.deck import parse_deck
    from repro.tealeaf.state import TeaLeafState

    deck = parse_deck(matrix_spec["text"])
    return TeaLeafState(deck).u.ravel().copy()


def build_rhs(job: dict, n_rows: int) -> np.ndarray:
    """Materialise a job's ``b`` field against a matrix with ``n_rows`` rows.

    ``b`` may be an explicit list, ``{"seed": s}`` for a standard-normal
    draw (cheap wire format for load generators), or ``"deck"`` to use
    the deck handle's initial field.
    """
    b = job.get("b")
    if isinstance(b, dict) and "seed" in b:
        return np.random.default_rng(int(b["seed"])).standard_normal(n_rows)
    if b == "deck":
        rhs = deck_rhs(job["matrix"])
        if rhs.size != n_rows:
            raise JobValidationError("deck RHS size does not match the operator")
        return rhs
    arr = np.asarray(b, dtype=np.float64)
    if arr.shape != (n_rows,):
        raise JobValidationError(
            f"rhs has shape {arr.shape}, expected ({n_rows},)"
        )
    return arr


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def matrix_key(matrix_spec: dict) -> str:
    """Content hash of a matrix handle (the encoded-matrix cache key)."""
    return hashlib.sha256(_canonical(matrix_spec).encode()).hexdigest()


# ---------------------------------------------------------------------------
# job canonical form
# ---------------------------------------------------------------------------
#: Fields a job may carry; anything else is rejected at validation.
JOB_FIELDS = frozenset({
    "job_id", "matrix", "b", "x0", "method", "eps", "max_iters",
    "protection", "inject", "return_x", "tag",
})


def normalise_job(job: dict) -> dict:
    """Fill defaults and return the canonical (JSON-stable) job dict."""
    validate_job(job)
    out = {
        "matrix": job["matrix"],
        "b": job.get("b", "deck" if job["matrix"].get("kind") == "deck" else None),
        "method": job.get("method", "cg"),
        "eps": float(job.get("eps", 1e-12)),
        "max_iters": int(job.get("max_iters", 10_000)),
        "protection": job.get("protection"),
        "return_x": bool(job.get("return_x", False)),
    }
    for optional in ("x0", "inject", "tag"):
        if job.get(optional) is not None:
            out[optional] = job[optional]
    if out["b"] is None:
        raise JobValidationError("job needs an explicit 'b' (or a deck matrix)")
    if "job_id" in job and job["job_id"] is not None:
        out["job_id"] = str(job["job_id"])
    else:
        out["job_id"] = "job-" + job_key(out)[:12]
    return out


def job_key(job: dict) -> str:
    """The job's content identity: sha256 of its canonical JSON.

    ``job_id`` is excluded — it *derives* from this hash when the client
    does not supply one — so identical work always hashes identically.
    """
    payload = {k: v for k, v in job.items() if k != "job_id"}
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def batch_key(job: dict) -> str:
    """Group key: jobs in one batch share a matrix and a protection config.

    Fault-injection jobs mutate their matrix and therefore never share
    one — each gets a private group (keyed by its own identity).
    """
    if job.get("inject") is not None:
        return "inject-" + job_key(job)
    return hashlib.sha256(
        (matrix_key(job["matrix"]) + "|" + job["method"] + "|"
         + protection_canonical(job.get("protection"))).encode()
    ).hexdigest()


def validate_job(job: dict) -> None:
    """Bound-check an untrusted job before admission (raises on violation).

    The service treats submissions as selective-reliability inputs: the
    control plane is trusted, the payload is not.  Checks are structural
    and cheap — field allow-list, finite numerics, resource ceilings —
    and run before the job touches the journal, the cache or a worker.
    """
    if not isinstance(job, dict):
        raise JobValidationError("job must be a JSON object")
    unknown = set(job) - JOB_FIELDS
    if unknown:
        raise JobValidationError(f"unknown job field(s): {sorted(unknown)}")
    matrix = job.get("matrix")
    if not isinstance(matrix, dict) or "kind" not in matrix:
        raise JobValidationError("job needs a 'matrix' handle with a 'kind'")
    if matrix["kind"] == "csr":
        rows = len(matrix.get("rowptr", [])) - 1
        if rows < 1 or rows > MAX_ROWS:
            raise JobValidationError(f"csr matrix must have 1..{MAX_ROWS} rows")
        values = np.asarray(matrix.get("values", []), dtype=np.float64)
        if values.size and not np.all(np.isfinite(values)):
            raise JobValidationError("csr values must be finite")
    elif matrix["kind"] == "five-point":
        grid = int(matrix.get("grid", 32))
        if grid < 2 or grid * grid > MAX_ROWS:
            raise JobValidationError(f"five-point grid must satisfy 2 <= n^2 <= {MAX_ROWS}")
    elif matrix["kind"] == "deck":
        if not isinstance(matrix.get("text"), str):
            raise JobValidationError("deck matrix handle needs a 'text' field")
    else:
        raise JobValidationError(f"unknown matrix kind {matrix['kind']!r}")
    eps = float(job.get("eps", 1e-12))
    if not (eps > 0.0 and np.isfinite(eps)):
        raise JobValidationError("eps must be a positive finite float")
    max_iters = int(job.get("max_iters", 10_000))
    if not (1 <= max_iters <= MAX_SOLVE_ITERS):
        raise JobValidationError(f"max_iters must be 1..{MAX_SOLVE_ITERS}")
    b = job.get("b")
    if isinstance(b, (list, tuple)):
        arr = np.asarray(b, dtype=np.float64)
        if arr.size and not np.all(np.isfinite(arr)):
            raise JobValidationError("rhs must be finite")
    inject = job.get("inject")
    if inject is not None:
        if not isinstance(inject, dict) or "rate" not in inject:
            raise JobValidationError("inject spec needs at least a 'rate'")
        if not (0.0 < float(inject["rate"]) < 1.0):
            raise JobValidationError("inject rate must be in (0, 1)")
    # Resolving the protection spec validates it (bad schemes, negative
    # intervals, unknown presets) via ProtectionConfig's own checks.
    protection_from_spec(job.get("protection"))
