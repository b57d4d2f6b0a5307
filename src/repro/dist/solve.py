"""The coordinator: distributed CG over shard workers, death included.

The recurrence is the textbook one from
:func:`repro.solvers.cg.protected_cg_run`, re-cut along the process
boundary: vector updates happen inside the shards, the coordinator owns
only the scalars (``alpha``/``beta``/``rr``) and the halo routing.  One
CG iteration is three lockstep rounds —

1. ``spmv``   — ship each shard its p-halo, get partial ``p·w`` back;
2. ``update`` — broadcast ``alpha``, get partial ``r·r`` back;
3. ``pbound`` — broadcast ``beta``, get fresh p-boundaries back —

with every global scalar reduced by summing the per-shard partials in
shard-index order, an *ordered* allreduce: results are bitwise
deterministic for a fixed shard count, and differ from the
single-process solve only by float re-association (tolerance-level, see
docs/distributed.md).

Shard death (a worker process lost mid-round, whether injected through
``kill_plan`` or real) surfaces from the exchange layer's collect and is
handled here by the solve's
:class:`~repro.recover.policy.RecoveryPolicy`: ``"raise"`` (or no
policy) propagates :class:`~repro.errors.ShardDeathError`; the
checkpoint strategies respawn the dead worker from its pristine payload
— re-encoding the lost block — seed its x-slice from the coordinator's
checkpoint (``repopulate``: dead shard only, survivors keep their
iterate; ``rollback``: every shard restored, iteration counter reset)
and restart the recurrence from the resulting global iterate.  A
``status: "due"`` reply (a shard recovered a *local* DUE by itself)
triggers the same recurrence restart without any respawn.

``"erasure"`` is the fault-*oblivious* fourth response: the pool is
built from an encoded layout
(:func:`~repro.dist.partition.encode_partition`) carrying ``k`` extra
checksum shards, the coordinator takes **no** checkpoints, and a death
is healed in place — survivors are snapshotted, the dead shard's
``x``/``r``/``p``/``w`` are reconstructed algebraically
(:class:`~repro.recover.erasure.ErasureCodec`), the respawned worker is
seeded with them, and the interrupted round's replies are completed
from the seed reply, so the recurrence continues exactly where it was.
Because every survivor finished the round the dead shard missed (the
lockstep invariant) and CG's vector updates are linear in the global
scalars, the reconstruction lands on the dead shard's *post-round*
state — no rollback window, no replayed iterations.  A true-residual
restart remains as a guarded fallback for non-finite reconstructions.
"""

from __future__ import annotations

import numpy as np

from repro.dist.exchange import DEFAULT_ROUND_TIMEOUT, ShardPool, warm_pool
from repro.dist.partition import (
    ErasurePlan,
    PartitionPlan,
    encode_partition,
    partition_matrix,
)
from repro.errors import (
    BoundsViolationError,
    ConfigurationError,
    DetectedUncorrectableError,
    ShardDeathError,
)
from repro.recover.policy import RecoveryPolicy
from repro.solvers.base import SolverResult

#: The solver state every shard snapshots/seeds during an erasure heal.
_STATE_FIELDS = ("x", "r", "p", "w")

#: Worker error names the erasure strategy converts into shard deaths:
#: an unrecovered in-shard DUE means the shard's state is untrusted, and
#: reconstruction-from-peers is exactly the repair erasure coding buys.
_INTEGRITY_ERRORS = ("DetectedUncorrectableError", "BoundsViolationError")


class _DeathSignal(Exception):
    """Internal: a round lost shards; carries who died."""

    def __init__(self, shards):
        self.shards = tuple(shards)
        super().__init__(f"shards {list(shards)} died")


class _RestartSignal(Exception):
    """Internal: the recurrence must be re-derived from the current x."""


def _reraise_shard_error(index: int, reply: dict) -> None:
    """Map a worker's ``status: "error"`` reply back onto a real exception."""
    name = reply.get("error", "RuntimeError")
    message = f"shard {index}: {reply.get('message', 'worker failed')}"
    if name == "DetectedUncorrectableError":
        raise DetectedUncorrectableError(f"dist-shard-{index}", message=message)
    if name == "BoundsViolationError":
        raise BoundsViolationError(f"dist-shard-{index}", message=message)
    raise RuntimeError(message)


class _Coordinator:
    """One distributed solve's mutable state: pool, scalars, recovery."""

    def __init__(self, plan: PartitionPlan, pool: ShardPool,
                 recovery: RecoveryPolicy | None, x0: np.ndarray,
                 eplan: ErasurePlan | None = None):
        self.plan = plan
        self.pool = pool
        self.recovery = recovery
        self.eplan = eplan
        self.codec = eplan.codec() if eplan is not None else None
        self.n_data = plan.n_shards
        self.escalates = recovery is not None and recovery.escalates
        self.retries_left = recovery.max_retries if self.escalates else 0
        # The initial checkpoint: x0's slices, so a recovery target exists
        # from the very first iteration on (mirrors maybe_checkpoint(0)).
        # Erasure mode holds no checkpoints at all — that is its point.
        self.saved_it = 0
        self.saved_slices = (
            None if eplan is not None
            else [plan.slice_vector(x0, s) for s in range(plan.n_shards)]
        )
        self.it = 0
        self.iters_executed = 0
        self.rr = float("inf")
        self.pb: list[np.ndarray] = []
        self.norms: list[float] = []
        self.converged = False
        self.deaths = 0
        self.respawns = 0
        self.restarts = 0
        self.checkpoints = 0
        self.reconstructions = 0
        self.fallback_restarts = 0
        self.unseeded: set[int] = set()

    @property
    def k(self) -> int:
        """Erasure shard count (0 outside erasure mode)."""
        return self.eplan.k if self.eplan is not None else 0

    # -- rounds ---------------------------------------------------------
    def round(self, messages) -> list[dict]:
        """One lockstep round; deaths/DUEs/errors become control flow."""
        replies, dead = self.pool.roundtrip(messages)
        dead = set(dead)
        if self.eplan is not None:
            dead |= self._integrity_deaths(replies)
            if dead:
                replies = self.heal(replies, dead)
        elif dead:
            raise _DeathSignal(sorted(dead))
        due = False
        for index in range(self.pool.n_shards):
            reply = replies[index]
            status = reply.get("status", "ok")
            if status == "error":
                _reraise_shard_error(index, reply)
            due = due or status == "due"
        if due:
            raise _RestartSignal
        return [replies[i] for i in range(self.pool.n_shards)]

    def _integrity_deaths(self, replies: dict) -> set[int]:
        """Kill shards whose reply is an unrecovered integrity error.

        Under erasure the reply's state is untrusted but the shard is
        reconstructible, so "corrupted" and "dead" converge: terminate
        the worker and let :meth:`heal` rebuild it from its peers.  The
        poisoned replies are dropped — the heal's seed replies stand in.
        """
        dead = set()
        for index in list(replies):
            reply = replies[index]
            if (reply.get("status") == "error"
                    and reply.get("error") in _INTEGRITY_ERRORS):
                self.pool.kill(index)
                replies.pop(index)
                dead.add(index)
        return dead

    def halos(self, boundaries: list[np.ndarray]) -> list[np.ndarray]:
        """Per-shard halo vectors assembled from published boundaries."""
        out = [
            self.plan.halo_for(s, boundaries)
            for s in range(self.n_data)
        ]
        for j in range(self.k):
            out.append(self.eplan.halo_for(j, boundaries))
        return out

    def restart(self, slices=None) -> None:
        """(Re)derive the recurrence from the current global iterate.

        ``slices`` seeds per-shard x values first (``None`` entries keep
        the shard's current x); then one ``xstart`` + one ``residual``
        round rebuild ``r = b - A x``, ``p = r`` and the global ``rr``.
        """
        if slices is None:
            slices = [None] * self.pool.n_shards
        xb = self.round([
            {"cmd": "xstart", "x": x_s} for x_s in slices
        ])
        halos = self.halos([reply["xb"] for reply in xb[:self.n_data]])
        replies = self.round([
            {"cmd": "residual", "halo": halo} for halo in halos
        ])
        # Ordered reduce over the data shards; erasure partials are
        # checksum dot-products, not pieces of the global scalar.
        self.rr = sum(reply["rr"] for reply in replies[:self.n_data])
        self.pb = [reply["pb"] for reply in replies[:self.n_data]]
        self.norms.append(float(np.sqrt(self.rr)))

    def maybe_checkpoint(self) -> None:
        """Gather x slices on the recovery cadence (checkpoint strategies).

        Erasure mode never checkpoints: the redundancy lives in the
        checksum shards, so the happy path pays zero gather traffic
        (``info["distributed"]["checkpoints"]`` stays 0, asserted in
        the tier-1 suite).
        """
        if not self.escalates or self.eplan is not None:
            return
        if self.it % self.recovery.checkpoint_interval:
            return
        replies = self.round([{"cmd": "checkpoint"}] * self.plan.n_shards)
        self.saved_slices = [reply["x"] for reply in replies]
        self.saved_it = self.it
        self.checkpoints += 1

    # -- shard-death recovery (checkpoint strategies) --------------------
    def recover_death(self, shards) -> list:
        """Respawn the dead shards; return the xstart slices to seed.

        Raises :class:`ShardDeathError` when no escalating policy is
        attached or the retry budget is exhausted — the unrecovered
        outcome the campaign counts as an abort.
        """
        self.deaths += len(shards)
        if not self.escalates or self.retries_left <= 0:
            raise ShardDeathError(shards, self.it)
        self.retries_left -= 1
        for index in shards:
            self.pool.respawn(index)
            self.respawns += 1
        if self.recovery.strategy == "rollback":
            # Everyone back to the checkpointed iterate; the counter too.
            self.it = self.saved_it
            return list(self.saved_slices)
        # repopulate: only the lost shards are seeded (from the newest
        # checkpointed slice); survivors keep their current iterate.
        return [
            self.saved_slices[s] if s in shards else None
            for s in range(self.plan.n_shards)
        ]

    # -- shard-death recovery (erasure) ----------------------------------
    def heal(self, replies: dict, dead: set[int]) -> dict:
        """Reconstruct and re-seed dead shards; complete the round in place.

        Every survivor finished the interrupted round (the lockstep
        invariant), so their snapshots — and the erasure shards'
        checksums, updated by the same recurrence — describe the
        *post-round* global state.  Reconstruction therefore yields the
        dead shard's post-round slices; after seeding, the seed replies
        (which carry every round reply field) are merged over the
        collected ones and the caller never learns the round broke.
        Cascading deaths during the snapshot/seed sub-rounds loop back
        in, each new death event spending one retry.
        """
        pending = set(dead)
        new_deaths = set(dead)
        while True:
            self.deaths += len(new_deaths)
            if self.retries_left <= 0:
                raise ShardDeathError(sorted(pending), self.it)
            self.retries_left -= 1
            self.unseeded = set(pending)
            for index in sorted(new_deaths):
                self.pool.respawn(index)
                self.respawns += 1

            survivors = [
                i for i in range(self.pool.n_shards) if i not in pending
            ]
            snaps, snap_dead = self.pool.subround(survivors, {"cmd": "snapshot"})
            snap_dead = set(snap_dead) | self._integrity_deaths(snaps)
            if snap_dead:
                pending |= snap_dead
                new_deaths = snap_dead
                continue
            for index, reply in snaps.items():
                if reply.get("status", "ok") == "error":
                    _reraise_shard_error(index, reply)

            dead_data = [i for i in sorted(pending) if i < self.n_data]
            live_checks = {
                j: snaps[self.n_data + j]
                for j in range(self.k)
                if self.n_data + j not in pending
            }
            if len(dead_data) > len(live_checks):
                raise ShardDeathError(sorted(pending), self.it)
            state = {
                field: {
                    i: np.asarray(snaps[i][field], dtype=np.float64)
                    for i in survivors if i < self.n_data
                }
                for field in _STATE_FIELDS
            }
            recon, fallback = self._reconstruct(dead_data, state, live_checks,
                                                sorted(pending))

            # Full per-field data state = survivors + reconstruction;
            # dead *erasure* shards are re-seeded with fresh checksums
            # of exactly that state, so consistency holds from here on.
            full = {
                field: [
                    state[field][s] if s in state[field] else recon[field][s]
                    for s in range(self.n_data)
                ]
                for field in _STATE_FIELDS
            }
            seeds = {}
            for index in sorted(pending):
                if index < self.n_data:
                    seeds[index] = {
                        "cmd": "seed",
                        **{f: recon[f][index] for f in _STATE_FIELDS},
                    }
                else:
                    j = index - self.n_data
                    seeds[index] = {
                        "cmd": "seed",
                        **{f: self.codec.encode(full[f], j)
                           for f in _STATE_FIELDS},
                    }
            seed_replies, seed_dead = self.pool.subround(sorted(pending), seeds)
            seed_dead = set(seed_dead) | self._integrity_deaths(seed_replies)
            if seed_dead:
                pending |= seed_dead
                new_deaths = seed_dead
                continue
            for index, reply in seed_replies.items():
                if reply.get("status", "ok") == "error":
                    _reraise_shard_error(index, reply)

            self.unseeded = set()
            self.reconstructions += len(dead_data)
            if fallback:
                # x was recovered but the recurrence state was not
                # numerically usable: fall back to a true-residual
                # restart from the reconstructed iterate.
                self.fallback_restarts += 1
                raise _RestartSignal
            merged = dict(replies)
            merged.update(seed_replies)
            return merged

    def _reconstruct(self, dead_data, state, live_checks, pending):
        """Dead data shards' slices per field; True when falling back.

        The guarded fallback: when the full-state reconstruction is not
        finite, recover ``x`` alone (zero-filling the recurrence
        fields) so a true-residual restart can continue from the right
        iterate.  An unrecoverable ``x`` is a real loss —
        :class:`ShardDeathError`.
        """
        empty = {f: {} for f in _STATE_FIELDS}
        if not dead_data:
            return empty, False
        try:
            recon = {
                field: self.codec.reconstruct(
                    dead_data, state[field],
                    {j: np.asarray(snap[field], dtype=np.float64)
                     for j, snap in live_checks.items()},
                )
                for field in _STATE_FIELDS
            }
            return recon, False
        except ArithmeticError:
            pass
        try:
            x_rec = self.codec.reconstruct(
                dead_data, state["x"],
                {j: np.asarray(snap["x"], dtype=np.float64)
                 for j, snap in live_checks.items()},
            )
        except ArithmeticError:
            raise ShardDeathError(pending, self.it) from None
        recon = {
            field: {d: np.zeros(self.codec.sizes[d]) for d in dead_data}
            for field in _STATE_FIELDS
        }
        recon["x"] = x_rec
        return recon, True


def _erasure_payloads(eplan: ErasurePlan, codec, b_slices, protection,
                      hang_by_shard) -> list[dict]:
    """Worker payloads for the k checksum shards of an encoded layout."""
    n_data = eplan.n_data
    return [
        {
            "index": n_data + block.index,
            "erasure": True,
            "matrix": block.matrix,
            "b": codec.encode(b_slices, block.index),
            "boundary_idx": np.empty(0, dtype=np.int64),
            "protection": protection,
            "hang": hang_by_shard.get(n_data + block.index),
        }
        for block in eplan.blocks
    ]


def distributed_solve(
    A,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    n_shards: int = 2,
    method: str = "cg",
    protection=None,
    eps: float = 1e-15,
    max_iters: int = 10_000,
    kill_plan=None,
    hang_plan=None,
    round_timeout: float = DEFAULT_ROUND_TIMEOUT,
) -> SolverResult:
    """Solve ``A x = b`` by CG sharded across worker processes.

    Parameters
    ----------
    A:
        A square :class:`~repro.csr.matrix.CSRMatrix` (a
        :class:`~repro.protect.matrix.ProtectedCSRMatrix` is decoded
        first — each shard re-encodes its own block under its own
        protection domain, so a pre-encoded global matrix cannot be
        sharded as-is).
    n_shards:
        Worker-process count; clamped to ``n_rows`` by the partitioner.
        Under the ``"erasure"`` recovery strategy the pool additionally
        spawns ``recovery.erasure_shards`` checksum shards (they sit at
        pool indices ``n_shards..``, addressable by ``kill_plan``).
    protection:
        A :class:`~repro.protect.config.ProtectionConfig` applied
        *per shard* (each worker gets its own engine over its block and
        slices), or ``None`` for unprotected shards.  The config's
        ``recovery`` policy does double duty: inside a shard it handles
        local DUEs exactly as in a single-process solve, and at the
        coordinator it governs shard-death responses (strategy, retry
        budget, checkpoint cadence / erasure shard count).
    kill_plan:
        Fault-injection hook: ``(iteration, shard)`` pairs; at the start
        of each listed iteration the coordinator terminates that shard's
        process, exercising the recovery path deterministically.
    hang_plan:
        Fault-injection hook for *timeout-expiry* death detection:
        ``(iteration, shard)`` pairs; the listed shard stops replying at
        that iteration's ``update`` round without exiting, so only the
        ``round_timeout`` can flush it out.  ``iteration -1`` hangs the
        shard at the ``finish`` sweep instead.  One spec per shard;
        respawned workers re-arm it (they rebuild from the pristine
        payload), which matters only if the same coordinator iteration
        is replayed.
    round_timeout:
        Seconds one lockstep round may take before an unresponsive shard
        is declared dead (see :mod:`repro.dist.exchange`).

    The workers come from :func:`~repro.dist.exchange.warm_pool`: a
    solve reuses the processes the previous clean solve left idle and
    starts only what is missing.

    Returns a :class:`~repro.solvers.base.SolverResult` whose ``info``
    carries a ``distributed`` block (shard counts, deaths, respawns,
    restarts, checkpoints, reconstructions, executed iterations, this
    solve's ``rounds`` / ``boot_s`` / ``wait_s`` ledger and ``spawned``,
    the worker processes it started) plus each shard's own counter
    block.
    """
    if method != "cg":
        raise ConfigurationError(
            f"distributed solves support method='cg' only, not {method!r}"
        )
    if protection is not None and not hasattr(protection, "enabled"):
        raise ConfigurationError(
            "distributed solves take a ProtectionConfig (or None); sessions "
            "are single-process by design"
        )
    if hasattr(A, "to_csr"):
        A = A.to_csr()
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n_rows,):
        raise ConfigurationError(
            f"b has shape {b.shape}, expected ({A.n_rows},)"
        )
    x0 = np.zeros(A.n_rows) if x0 is None else np.asarray(x0, dtype=np.float64)

    recovery = protection.recovery if protection is not None else None
    erasure = recovery is not None and recovery.strategy == "erasure"
    hang_by_shard: dict[int, dict] = {}
    for hang_it, hang_shard in (hang_plan or ()):
        spec = ({"cmd": "finish"} if int(hang_it) < 0
                else {"cmd": "update", "it": int(hang_it)})
        hang_by_shard[int(hang_shard)] = spec

    if erasure:
        eplan = encode_partition(A, n_shards, recovery.erasure_shards)
        plan = eplan.plan
        codec = eplan.codec()
    else:
        eplan, codec = None, None
        plan = partition_matrix(A, n_shards)
    b_slices = [plan.slice_vector(b, s) for s in range(plan.n_shards)]
    payloads = [
        {
            "index": block.index,
            "matrix": block.matrix,
            "b": b_slices[block.index],
            "boundary_idx": block.boundary_idx,
            "protection": protection,
            "hang": hang_by_shard.get(block.index),
        }
        for block in plan.blocks
    ]
    if erasure:
        payloads += _erasure_payloads(eplan, codec, b_slices, protection,
                                      hang_by_shard)
    kills: dict[int, list[int]] = {}
    for kill_it, kill_shard in (kill_plan or ()):
        kills.setdefault(int(kill_it), []).append(int(kill_shard))

    with warm_pool(payloads, round_timeout=round_timeout) as pool:
        coord = _Coordinator(plan, pool, recovery, x0, eplan=eplan)
        slices = [plan.slice_vector(x0, s) for s in range(plan.n_shards)]
        if erasure:
            slices += codec.encode_all(slices)
        need_restart = True
        while True:
            try:
                if need_restart:  # initial start or post-recovery restart
                    coord.restart(slices)
                    need_restart = False
                coord.converged = coord.rr < eps
                while not coord.converged and coord.it < max_iters:
                    for shard in kills.pop(coord.it, ()):
                        pool.kill(shard)
                    halos = coord.halos(coord.pb)
                    spmv = coord.round([
                        {"cmd": "spmv", "halo": halo} for halo in halos
                    ])
                    # Ordered reduce over the data shards only.
                    pw = sum(reply["pw"] for reply in spmv[:coord.n_data])
                    if pw == 0.0:
                        break
                    alpha = coord.rr / pw
                    update = coord.round(
                        [{"cmd": "update", "alpha": alpha, "it": coord.it + 1}]
                        * pool.n_shards
                    )
                    rr_new = sum(reply["rr"] for reply in update[:coord.n_data])
                    coord.it += 1
                    coord.iters_executed += 1
                    coord.norms.append(float(np.sqrt(rr_new)))
                    if rr_new < eps:
                        coord.rr = rr_new
                        coord.converged = True
                        break
                    pbound = coord.round(
                        [{"cmd": "pbound", "beta": rr_new / coord.rr}]
                        * pool.n_shards
                    )
                    coord.pb = [reply["pb"] for reply in pbound[:coord.n_data]]
                    coord.rr = rr_new
                    coord.maybe_checkpoint()
                finish = coord.round([{"cmd": "finish"}] * pool.n_shards)
                break
            except _DeathSignal as signal:
                slices = coord.recover_death(signal.shards)
                need_restart = True
            except _RestartSignal:
                coord.restarts += 1
                slices = [None] * pool.n_shards
                need_restart = True
        x = plan.assemble([reply["x"] for reply in finish[:plan.n_shards]])

    info = {
        "distributed": {
            "n_shards": plan.n_shards,
            "erasure_shards": coord.k,
            "deaths": coord.deaths,
            "respawns": coord.respawns,
            "restarts": coord.restarts,
            "checkpoints": coord.checkpoints,
            "reconstructions": coord.reconstructions,
            "fallback_restarts": coord.fallback_restarts,
            "iters_executed": coord.iters_executed,
            "recovery": recovery.strategy if recovery is not None else "raise",
            # Where this solve's wall time went: lockstep rounds driven,
            # seconds booting workers, seconds blocked collecting their
            # replies; and how many worker processes it had to start.
            "rounds": pool.rounds,
            "boot_s": pool.boot_s,
            "wait_s": pool.wait_s,
            "spawned": pool.spawned,
        },
        "shards": [reply["info"] for reply in finish[:plan.n_shards]],
    }
    if erasure:
        info["erasure_shards"] = [
            reply["info"] for reply in finish[plan.n_shards:]
        ]
    return SolverResult(
        x=x,
        iterations=coord.it,
        converged=coord.converged,
        residual_norms=coord.norms,
        info=info,
    )
