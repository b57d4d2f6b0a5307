"""The worker-process runtime: a command server around one shard's state.

Each shard process owns exactly the state a single-process protected CG
owns — the (protected) matrix block, the protected ``x``/``r``/``p``
slices, the plain SpMV output ``w`` — but *no* control flow: the CG
recurrence lives in the coordinator, which drives the shard through the
lockstep command protocol below.  Protection is genuinely per-shard:
every shard runs its own
:class:`~repro.solvers.toolkit.ProtectedIteration` (own engine, own
check schedule, own recovery manager), so a bit flip in one shard's
block is detected, corrected or escalated entirely inside that shard.
An unprotected shard is the same context under
:meth:`~repro.protect.config.ProtectionConfig.off` — the null codec —
like every other unprotected CG in the tree.

Command protocol (one request dict in, one reply dict out, always):

========== =============================== ================================
command    request fields                  reply fields
========== =============================== ================================
boot       ``payload`` (first message)     (no reply; builds the shard)
xstart     ``x`` (local slice or None)     ``xb`` — x at boundary rows
residual   ``halo`` (x halo values)        ``rr`` partial, ``pb`` boundary
spmv       ``halo`` (p halo values)        ``pw`` partial
update     ``alpha``, ``it``               ``rr`` partial
pbound     ``beta``                        ``pb`` — p at boundary rows
checkpoint —                               ``x`` — the local x slice
snapshot   —                               ``x``, ``r``, ``p``, ``w``
seed       ``x``, ``r``, ``p``, ``w``      every round reply field
finish     —                               ``x``, ``info`` counter block
release    —                               (no reply; drops the shard)
shutdown   —                               (no reply; the worker exits)
========== =============================== ================================

A worker outlives its solve: ``release`` drops the :class:`ShardState`
and the worker waits for the next ``boot``, which may carry a different
shard of a different matrix.  ``shutdown`` or a closed pipe ends the
process, whether a shard is booted or not.

``snapshot``/``seed`` are the erasure-recovery sub-protocol: after a
shard death the coordinator snapshots every survivor's full solver
state, reconstructs the dead shard's slices algebraically, and seeds
the respawned worker with them.  The seed reply carries *all* round
reply fields (``xb``/``pb``/``rr``/``pw``/``x``/``info``) so the healed
round can stand in for whichever round the death interrupted.

A shard started with ``erasure: True`` in its payload holds a checksum
stripe instead of owned rows: its block (shape ``(stripe, n_halo)``)
owns no columns, so its SpMV consumes the halo alone, and its ``b`` is
the checksum of the data shards' slices.  Running the ordinary command
handlers on that state keeps the checksums consistent with the data
shards at every round boundary — the whole point of the encoded layout.

Every reply carries ``status``: ``"ok"``; ``"due"`` when a local DUE was
*recovered* by the shard's own policy (the coordinator must then restart
the global recurrence, since this shard's state may have rolled back);
or ``"error"`` with ``error``/``message`` fields when the command failed
terminally (unrecovered DUE, bug) — the coordinator re-raises those.

Halo values cross the pipe as plain floats: the wire is outside every
protection domain, exactly as the paper's ABFT protects memory-resident
structures, not interconnect traffic.
"""

from __future__ import annotations

import time

import numpy as np

from repro.protect.config import _solve_config, _wrap_for_solve
from repro.recover.policy import RECOVERABLE_ERRORS
from repro.solvers.toolkit import ProtectedIteration

#: How long a hang-injected worker sleeps — far past any round timeout,
#: so the coordinator's liveness logic (not the sleep ending) decides.
_HANG_SECONDS = 600.0


class ShardState:
    """One shard's matrix block, vector slices and protection domain.

    Built from the pool's pickled payload (schema below); a respawned
    worker reconstructs this object from the same pristine payload,
    which re-encodes the block from source — the "recover by re-encoding"
    path of the shard-death story.

    Payload schema: ``index`` (shard number), ``matrix`` (the local
    :class:`~repro.csr.matrix.CSRMatrix` block, owned columns first),
    ``b`` (the local right-hand-side slice), ``boundary_idx`` (local rows
    to publish each exchange) and ``protection`` (a
    :class:`~repro.protect.config.ProtectionConfig` or ``None``).
    Optional: ``erasure`` (True for a checksum shard — the block then
    consumes the halo alone) and ``hang`` (fault injection: a command
    spec this worker stops replying at, exercising timeout-expiry death
    detection — e.g. ``{"cmd": "update", "it": 4}`` or
    ``{"cmd": "finish"}``).
    """

    def __init__(self, payload: dict):
        self.index = int(payload["index"])
        self.erasure = bool(payload.get("erasure"))
        self.hang = payload.get("hang")
        self.b = np.asarray(payload["b"], dtype=np.float64)
        self.boundary_idx = np.asarray(payload["boundary_idx"], dtype=np.int64)
        self.n_local = int(self.b.size)
        matrix = payload["matrix"]
        protection = _solve_config(payload.get("protection"))
        self.protected = protection.enabled
        self.ctx = ProtectedIteration(
            _wrap_for_solve(protection, matrix), engine=protection.engine(),
            vector_scheme=protection.vector_scheme,
        )
        zeros = np.zeros(self.n_local)
        self.x = self.ctx.wrap(zeros, "x")
        self.r = self.ctx.wrap(zeros, "r")
        self.p = self.ctx.wrap(zeros, "p")
        self.w = np.zeros(self.n_local)

    def _extend(self, local: np.ndarray, halo) -> np.ndarray:
        """The column space the local block consumes.

        ``[local, halo]`` for a data shard; an erasure shard's encoded
        block owns no columns, so its input is the halo alone.
        """
        halo = np.asarray(halo, dtype=np.float64)
        if self.erasure:
            return halo
        return np.concatenate([local, halo]) if halo.size else np.asarray(local)

    def _should_hang(self, msg: dict) -> bool:
        """True when the injected hang spec matches this command."""
        spec = self.hang
        if not spec or spec.get("cmd") != msg.get("cmd"):
            return False
        if "it" in spec and int(msg.get("it", -1)) != int(spec["it"]):
            return False
        return True

    # -- command handlers -----------------------------------------------
    def execute(self, msg: dict) -> dict:
        """Run one command; local recovered DUEs become ``status: "due"``."""
        if self._should_hang(msg):
            # The injected hang: stop replying without exiting, so only
            # the coordinator's round timeout can classify this shard.
            time.sleep(_HANG_SECONDS)
        try:
            return self._dispatch(msg)
        except RECOVERABLE_ERRORS as exc:
            # Shard-local recovery: repairs the block / rolls the slices
            # back per this shard's own policy, or re-raises when the
            # policy says so.  The coordinator restarts the recurrence.
            self.ctx.recover(exc)
            return {"status": "due", "error": type(exc).__name__,
                    "message": str(exc)}

    def _dispatch(self, msg: dict) -> dict:
        cmd = msg["cmd"]
        if cmd == "xstart":
            if msg.get("x") is not None:
                self.x = self.ctx.write(
                    self.x, np.asarray(msg["x"], dtype=np.float64)
                )
            return {"xb": self.ctx.read(self.x)[self.boundary_idx].copy()}
        if cmd == "residual":
            x_ext = self._extend(self.ctx.read(self.x), msg["halo"])
            r_val = self.b - self.ctx.spmv(x_ext)
            self.r = self.ctx.write(self.r, r_val)
            self.p = self.ctx.write(self.p, r_val)
            return {
                "rr": float(np.dot(r_val, r_val)),
                "pb": r_val[self.boundary_idx].copy(),
            }
        if cmd == "spmv":
            self.ctx.begin_iteration()
            p_val = self.ctx.read(self.p)
            self.w = self.ctx.spmv(self._extend(p_val, msg["halo"]))
            return {"pw": float(np.dot(p_val, self.w))}
        if cmd == "update":
            alpha = float(msg["alpha"])
            self.x = self.ctx.write(
                self.x, self.ctx.read(self.x) + alpha * self.ctx.read(self.p)
            )
            r_val = self.ctx.read(self.r) - alpha * self.w
            self.r = self.ctx.write(self.r, r_val)
            self.ctx.maybe_checkpoint(int(msg["it"]))
            return {"rr": float(np.dot(r_val, r_val))}
        if cmd == "pbound":
            beta = float(msg["beta"])
            p_val = self.ctx.read(self.r) + beta * self.ctx.read(self.p)
            self.p = self.ctx.write(self.p, p_val)
            return {"pb": p_val[self.boundary_idx].copy()}
        if cmd == "checkpoint":
            return {"x": self.ctx.value_of(self.x)}
        if cmd == "snapshot":
            return {
                "x": self.ctx.value_of(self.x),
                "r": self.ctx.value_of(self.r),
                "p": self.ctx.value_of(self.p),
                "w": np.array(self.w, dtype=np.float64, copy=True),
            }
        if cmd == "seed":
            self.x = self.ctx.write(self.x, np.asarray(msg["x"], dtype=np.float64))
            self.r = self.ctx.write(self.r, np.asarray(msg["r"], dtype=np.float64))
            self.p = self.ctx.write(self.p, np.asarray(msg["p"], dtype=np.float64))
            self.w = np.array(msg["w"], dtype=np.float64, copy=True)
            x_val = self.ctx.read(self.x)
            r_val = self.ctx.read(self.r)
            p_val = self.ctx.read(self.p)
            # The superset of every round's reply fields: the healed
            # round hands these out as if the interrupted round finished.
            return {
                "xb": x_val[self.boundary_idx].copy(),
                "pb": p_val[self.boundary_idx].copy(),
                "rr": float(np.dot(r_val, r_val)),
                "pw": float(np.dot(p_val, self.w)),
                "x": self.ctx.value_of(self.x),
                "info": self._info(),
            }
        if cmd == "finish":
            x_final = self.ctx.value_of(self.x)
            self.ctx.finish()  # the mandatory end-of-step sweep
            return {"x": x_final, "info": self._info()}
        raise ValueError(f"unknown shard command {cmd!r}")

    def _info(self) -> dict:
        """This shard's counter block; an unprotected shard reports none."""
        return self.ctx.info() if self.protected else {}


def shard_worker_main(conn) -> None:
    """The worker-process entry point: serve shards until shutdown.

    Runs in a spawn-context child (resolved by name through the sweep
    executor's runner machinery, so it must stay at module scope).  Each
    shard starts with the ``boot`` command carrying its payload (see
    :class:`ShardState`); it has no reply of its own.  Construction
    failures and terminal command errors are reported as
    ``status: "error"`` replies rather than tracebacks on stderr — the
    coordinator owns surfacing them, a start-up failure as the reply to
    its first round, after which the worker exits.
    """
    while True:
        try:
            boot = conn.recv()
        except (EOFError, OSError):  # the coordinator left
            break
        if boot.get("cmd") != "boot":  # shutdown while released
            break
        try:
            # pop: the payload must die with the constructor's frame,
            # not live on in this one beside the state built from it.
            state = ShardState(boot.pop("payload"))
        except Exception as exc:  # noqa: BLE001 - reported to the coordinator
            try:
                conn.send({"status": "error", "error": type(exc).__name__,
                           "message": f"shard start-up failed: {exc}"})
            except (BrokenPipeError, OSError):
                pass
            break
        released = _serve(conn, state)
        del state  # a released worker holds no shard while it waits
        if not released:
            break
    conn.close()


def _serve(conn, state: ShardState) -> bool:
    """Answer commands for one shard; True on ``release``, False to exit."""
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return False
        cmd = msg.get("cmd")
        if cmd in ("release", "shutdown"):
            return cmd == "release"
        try:
            reply = state.execute(msg)
            reply.setdefault("status", "ok")
        except Exception as exc:  # noqa: BLE001 - reported to the coordinator
            reply = {"status": "error", "error": type(exc).__name__,
                     "message": str(exc)}
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return False
