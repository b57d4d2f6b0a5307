"""The wire layer: spawn-context shard workers and lockstep rounds.

The distributed solve is *coordinator-driven*: worker shards never talk
to each other, they answer commands.  Each iteration the coordinator
broadcasts one command to every live shard, collects exactly one reply
per shard, and only then moves on — a lockstep request/reply round over
duplex :func:`multiprocessing.Pipe` connections.  That discipline is
what makes whole-shard loss recoverable at *any* point: a round either
completed on a shard (its reply was read) or it did not, so after a
death the coordinator knows every survivor sits at the same step of the
recurrence and can restart it globally.

Collection is *event-driven*: :meth:`ShardPool.collect` blocks in
:func:`multiprocessing.connection.wait` on every pending shard's pipe
**and** its process sentinel, with what is left of the round timeout as
the wait timeout — a reply wakes the coordinator the moment it lands,
and so does a death.  A shard whose process has exited and whose pipe
holds no pending reply is declared dead for the round.  Replies already
readable from a dying shard are still drained first — a shard that
answered before being killed counts as having completed the round.  The
pool reports deaths to the caller (the :mod:`repro.dist.solve`
coordinator) rather than raising; policy — respawn vs
:class:`~repro.errors.ShardDeathError` — lives there.

Workers are spawn-context processes (consistent with the sweep executor:
BLAS thread pools and fork do not mix) running
:func:`repro.dist.workers.shard_worker_main`.  A process is started with
its pipe end only; every child imports its interpreter state
concurrently and announces itself on the pipe once it is up, and only
then does its start-up payload follow as the first message
(``{"cmd": "boot", "payload": ...}``).  The pool waits for those
announcements before a round is ever timed, so interpreter start-up is
charged to the boot, never to a round's timeout, and a round timeout
may be shorter than a spawn.  Everything crossing the pipe — the boot
payload and every message — must be picklable.

Workers outlive the solve that started them.  :func:`warm_pool` is how
a solve gets its pool: the process keeps at most one idle pool, and the
next solve reboots its live workers with fresh payloads (a ``boot`` on
the same pipe, no interpreter start-up), spawning only the workers that
are missing or dead and stopping surplus ones when the shard count
shrinks.  Only a solve that ended cleanly parks its pool: any exception
out of the solve — a shard death it could not heal, a terminal error
reply, ``KeyboardInterrupt`` — shuts the pool down, and so does any
shard death or round timeout the solve recovered from.  Workers are
daemonic, so an interpreter that exits with a pool parked terminates
them instead of waiting on their pipes.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
import time
from multiprocessing.connection import wait

from repro.errors import ShardDeathError
from repro.sweeps.executor import resolve_runner

#: How long one collect round may take before an unresponsive-but-alive
#: shard is treated as dead (terminated and reported like a crash).  A
#: whole round is a handful of local SpMVs, so minutes means a hang.
DEFAULT_ROUND_TIMEOUT = 120.0

#: Seconds ``shutdown`` gives the whole pool to exit on request before
#: the stragglers are terminated.
_SHUTDOWN_GRACE = 2.0

#: Seconds a terminated worker gets to die of SIGTERM before SIGKILL.
_TERMINATE_GRACE = 5.0

#: Seconds a (re)boot waits for its workers' start-up announcements.  A
#: worker still silent then is left to the first round's timeout.
_BOOT_TIMEOUT = DEFAULT_ROUND_TIMEOUT

#: What a worker process sends once its interpreter is up.
_STARTED = "started"


#: Thread-pool sizes a shard worker starts with pinned to 1 unless the
#: caller set them.  Each shard is one process's share of the solve;
#: shards that each start a multi-threaded BLAS oversubscribe the cores
#: (see docs/distributed.md for the measured cost).
_PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Serialises the environment swap around a worker's start.
_ENV_LOCK = threading.Lock()


@contextlib.contextmanager
def _worker_environment():
    """``os.environ`` as a shard worker inherits it, for one ``start()``.

    A spawned child's environment is fixed when ``Process.start()``
    execs it, so the thread-pool pins of :data:`_PINNED_THREADS` are set
    only around that call and removed again: the parent's environment
    is unchanged afterwards, and a value the caller set is passed on
    as it is.
    """
    with _ENV_LOCK:
        added = [name for name in _PINNED_THREADS if name not in os.environ]
        for name in added:
            os.environ[name] = "1"
        try:
            yield
        finally:
            for name in added:
                os.environ.pop(name, None)


def _run_shard(runner, conn) -> None:
    """Spawned-process entry: announce start-up, then run the worker.

    By the time this runs, the child's interpreter is up and ``runner``'s
    module imported (unpickling the target's arguments did that).
    """
    conn.send(_STARTED)
    runner(conn)


class ShardLink:
    """One worker shard: its process handle plus the coordinator's pipe end.

    Created (and re-created, after a death) by :class:`ShardPool`; the
    link owns process lifecycle for its shard — spawn, terminate, join —
    and the raw send/receive primitives the pool's rounds are built on.
    The process starts with its pipe end only and announces itself on
    it; the pool then hands it the start-up payload as the first message
    (see :meth:`ShardPool._boot`).  The process is daemonic: a worker
    left idle in a parked pool must not hold up interpreter exit.  It
    starts with single-threaded BLAS/OpenMP pools unless the caller's
    environment sizes them (see :func:`_worker_environment`).
    """

    def __init__(self, index: int, runner: str, ctx):
        self.index = index
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_run_shard,
            args=(resolve_runner(runner), child_conn),
            name=f"repro-dist-shard-{index}",
            daemon=True,
        )
        with _worker_environment():
            self.process.start()
        # The parent must drop its handle on the child end or EOF on the
        # pipe can never be observed after the worker dies.
        child_conn.close()

    def alive(self) -> bool:
        """True while the worker process is running."""
        return self.process.is_alive()

    def send(self, message: dict) -> bool:
        """Send one command; False when the pipe is already broken."""
        try:
            self.conn.send(message)
            return True
        except (BrokenPipeError, OSError):
            return False

    def try_recv(self):
        """Non-blocking receive: the pending reply, or ``None``."""
        try:
            if self.conn.poll(0):
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        return None

    def terminate(self) -> None:
        """Kill the worker process (the shard-death fault injector).

        SIGTERM first; a worker that ignores it past the grace period is
        SIGKILLed, so the process is always reaped when this returns.
        """
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=_TERMINATE_GRACE)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()

    def close(self) -> None:
        """Release the pipe and reap the process."""
        try:
            self.conn.close()
        except OSError:
            pass
        self.terminate()
        self.process.close()


class ShardPool:
    """All shard links of one distributed solve, with lockstep rounds.

    Parameters
    ----------
    payloads:
        Per-shard picklable start-up dicts (see
        :func:`repro.dist.workers.shard_worker_main` for the schema).
        Kept by the pool: a respawn re-sends the pristine payload, which
        is what "re-encode the lost shard from its source" means.
    runner:
        Importable ``"module:function"`` worker entry point, resolved in
        the spawned process exactly like sweep-executor runners.  Called
        as ``runner(conn)``; the payload arrives as the ``boot`` message.
    round_timeout:
        Seconds a :meth:`collect` round may wait before alive-but-silent
        shards are terminated and reported as dead.

    The pool keeps four counters for the solve's report, reset by
    :meth:`reboot`: ``rounds`` (lockstep collects, sub-rounds included),
    ``boot_s`` (seconds from starting worker processes to their payloads
    being handed over, interpreter start-up and respawns included),
    ``wait_s`` (seconds the coordinator spent inside :meth:`collect`)
    and ``spawned`` (worker processes started).  ``lost`` turns true at
    the first shard death or kill and stays true: such a pool is never
    parked for reuse (see :func:`warm_pool`).
    """

    def __init__(
        self,
        payloads: list[dict],
        *,
        runner: str = "repro.dist.workers:shard_worker_main",
        round_timeout: float = DEFAULT_ROUND_TIMEOUT,
    ):
        self._ctx = multiprocessing.get_context("spawn")
        self._runner = runner
        self._payloads = list(payloads)
        self.round_timeout = float(round_timeout)
        self.rounds = 0
        self.boot_s = 0.0
        self.wait_s = 0.0
        self.spawned = 0
        self.lost = False
        self.links: list[ShardLink | None] = [None] * len(self._payloads)
        # perf_counter() at each worker's latest start-up announcement.
        self._announced_at: list[float | None] = [None] * len(self._payloads)
        try:
            self._boot(range(len(self._payloads)))
        except BaseException:
            # A payload that does not pickle must not strand the workers
            # already started: ``with`` never got to own this pool.
            for link in filter(None, self.links):
                link.close()
            raise

    def _boot(self, indices) -> None:
        """Hand each index its payload, starting a worker where there is none.

        Three passes on purpose: every ``start()`` returns as soon as the
        child is launched, so all the children import alongside each
        other while the pool waits for their announcements; only then
        do the (payload-sized, hence blocking) ``boot`` sends go out.
        The first round after a (re)boot therefore times the shards'
        work, not their interpreter start-up.  An index whose link is
        still set is a live released worker: it only gets the send.
        """
        started = time.perf_counter()
        fresh = [index for index in indices if self.links[index] is None]
        for index in fresh:
            self.links[index] = ShardLink(index, self._runner, self._ctx)
        self.spawned += len(fresh)
        self._await_started(fresh, started + _BOOT_TIMEOUT)
        for index in indices:
            self.links[index].send(
                {"cmd": "boot", "payload": self._payloads[index]}
            )
        self.boot_s += time.perf_counter() - started

    def _await_started(self, indices, deadline: float) -> None:
        """Wait until every new worker has announced itself or exited.

        A worker that dies (or hangs) at start-up is not judged here:
        the first round finds it dead, exactly as it would mid-solve.
        """
        waiting = {}
        for index in indices:
            link = self.links[index]
            waiting[link.conn] = waiting[link.process.sentinel] = index
        while waiting:
            ready = wait(list(waiting), max(deadline - time.perf_counter(), 0.0))
            if not ready:
                return
            arrived = time.perf_counter()
            for index in {waiting[obj] for obj in ready}:
                link = self.links[index]
                if link.try_recv() == _STARTED:  # unless it died first
                    self._announced_at[index] = arrived
                del waiting[link.conn], waiting[link.process.sentinel]

    @property
    def n_shards(self) -> int:
        """Number of shards (dead or alive) in the pool."""
        return len(self.links)

    def respawn(self, index: int) -> None:
        """Replace a dead shard with a fresh worker from its pristine payload."""
        self.links[index].close()
        self.links[index] = None
        self._boot([index])

    def reboot(self, payloads: list[dict], round_timeout: float) -> None:
        """Start the next solve on this released pool.

        Resets the ledger, stops the workers beyond ``len(payloads)``,
        replaces the ones that died while idle, and boots every shard
        with its new payload — live workers keep their interpreter.
        """
        self._payloads = list(payloads)
        self.round_timeout = float(round_timeout)
        self.rounds, self.boot_s, self.wait_s, self.spawned = 0, 0.0, 0.0, 0
        n = len(self._payloads)
        _stop(self.links[n:])
        del self.links[n:], self._announced_at[n:]
        grow = n - len(self.links)
        self.links += [None] * grow
        self._announced_at += [None] * grow
        for index, link in enumerate(self.links):
            if link is not None and not link.alive():
                link.close()
                self.links[index] = None
        self._boot(range(n))

    def release(self) -> bool:
        """Tell every worker to drop its shard and wait for a new ``boot``.

        False when a worker is gone or its pipe broken — a pool that
        cannot be parked.
        """
        self._payloads = []  # the blocks are the next solve's to hold
        sent = [link.alive() and link.send({"cmd": "release"})
                for link in self.links]
        return all(sent)

    def kill(self, index: int) -> None:
        """Terminate one shard mid-solve — the fault-injection hook."""
        self.lost = True
        self.links[index].terminate()

    def broadcast(self, messages) -> None:
        """Send one command per shard (a shared dict, or one per shard)."""
        if isinstance(messages, dict):
            messages = [messages] * self.n_shards
        for link, message in zip(self.links, messages):
            link.send(message)

    def collect(self, indices=None) -> tuple[dict[int, dict], list[int]]:
        """Read one reply per shard; report who died instead.

        Returns ``(replies, dead)``: ``replies`` maps shard index to the
        reply dict for every shard that completed the round, ``dead``
        lists the shards that did not (process gone with nothing left in
        the pipe, or alive but silent past the round timeout — those are
        terminated first so the two cases converge).  Dead shards'
        replies are drained before the verdict, so a shard killed
        *after* answering still counts as having finished the round.
        ``indices`` restricts the round to a subset of shards (the
        erasure-recovery sub-rounds); the default is every shard.

        The wait is on events, not on a clock: each pending shard
        contributes its pipe and its process sentinel to one
        :func:`multiprocessing.connection.wait`, bounded by what is left
        of ``round_timeout``.  Replies are keyed by shard index, so the
        order they arrive in never reaches the caller's reductions.
        """
        started = time.perf_counter()
        deadline = started + self.round_timeout
        replies: dict[int, dict] = {}
        dead: list[int] = []
        pending = set(range(self.n_shards) if indices is None else indices)
        # Shards whose pipe hit EOF while the process still counted as
        # alive: a dying child closes its pipe a moment before its exit
        # is observable, so only the sentinel is worth waiting on.
        hung_up: set[int] = set()
        while pending:
            waitables = {}
            for index in pending:
                link = self.links[index]
                waitables[link.process.sentinel] = index
                if index not in hung_up:
                    waitables[link.conn] = index
            ready = set(
                wait(waitables, max(deadline - time.perf_counter(), 0.0))
            )
            if not ready:
                # Silence past the deadline: a hang is a death.
                for index in pending:
                    self.links[index].terminate()
                dead.extend(pending)
                break
            for index in {waitables[obj] for obj in ready}:
                link = self.links[index]
                # Drain before the verdict: the reply may have raced the exit.
                reply = link.try_recv()
                if reply is not None:
                    replies[index] = reply
                elif link.process.sentinel in ready:
                    dead.append(index)
                else:
                    hung_up.add(index)
                    continue
                pending.discard(index)
        self.rounds += 1
        self.wait_s += time.perf_counter() - started
        self.lost = self.lost or bool(dead)
        return replies, sorted(dead)

    def roundtrip(self, messages) -> tuple[dict[int, dict], list[int]]:
        """One full lockstep round: broadcast then collect."""
        self.broadcast(messages)
        return self.collect()

    def subround(self, indices, messages) -> tuple[dict[int, dict], list[int]]:
        """A lockstep round over a *subset* of shards.

        ``messages`` is either one shared dict or a mapping from shard
        index to its message.  Used by the erasure recovery's
        snapshot/seed sub-protocol, where the survivors and the
        respawned shards get different commands.
        """
        indices = sorted(indices)
        if isinstance(messages, dict) and "cmd" in messages:
            messages = {index: messages for index in indices}
        for index in indices:
            self.links[index].send(messages[index])
        return self.collect(indices)

    def require_all(
        self, replies: dict[int, dict], dead: list[int], iteration: int | None = None
    ) -> list[dict]:
        """Replies in shard order, or :class:`ShardDeathError` listing the dead.

        The convenience for rounds where death is *not* being handled
        (set-up, teardown, raise-strategy solves): any loss becomes the
        error the caller propagates.
        """
        if dead:
            raise ShardDeathError(dead, iteration)
        return [replies[i] for i in range(self.n_shards)]

    def shutdown(self) -> None:
        """Best-effort orderly stop: ask workers to exit, then reap them."""
        _stop(self.links)

    def __enter__(self) -> "ShardPool":
        """Context-manager entry: the pool itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: always tear the workers down."""
        self.shutdown()


def _stop(links) -> None:
    """Ask every live worker to exit, then reap them all.

    Every live shard is asked first and the exits are then awaited
    together against one deadline, so a pool of stubborn workers costs
    one grace period, not one per shard.
    """
    links = [link for link in links if link is not None]
    for link in links:
        if link.alive():
            link.send({"cmd": "shutdown"})
    deadline = time.perf_counter() + _SHUTDOWN_GRACE
    exiting = {link.process.sentinel for link in links}
    while exiting:
        gone = wait(exiting, max(deadline - time.perf_counter(), 0.0))
        if not gone:
            break
        exiting.difference_update(gone)
    for link in links:
        link.close()


#: The pool parked by the last clean solve, and the pid that parked it
#: (a forked child must not drive its parent's workers).
_idle: tuple[int, ShardPool] | None = None
_idle_lock = threading.Lock()


@contextlib.contextmanager
def warm_pool(payloads: list[dict], *, round_timeout: float):
    """The pool for one solve: the parked one rebooted, else a cold one.

    On a clean exit the pool is released and parked for the next solve
    unless it lost a shard, a worker is gone, or another solve parked
    one first (this process keeps one idle pool; the extra one is shut
    down).  Any exception out of the block shuts the pool down.
    """
    global _idle
    with _idle_lock:
        parked, _idle = _idle, None
    pool = parked[1] if parked is not None and parked[0] == os.getpid() else None
    if pool is None:
        pool = ShardPool(payloads, round_timeout=round_timeout)
    else:
        try:
            pool.reboot(payloads, round_timeout)
        except BaseException:
            pool.shutdown()
            raise
    try:
        yield pool
    except BaseException:
        pool.shutdown()
        raise
    if not pool.lost and pool.release():
        with _idle_lock:
            if _idle is None:
                _idle = (os.getpid(), pool)
                return
    pool.shutdown()
