"""repro.dist.exchange: the wire layer on its own, no solver attached.

:class:`~repro.dist.exchange.ShardPool` is driven directly with tiny
scripted workers, so each bar is about the pool and nothing else:

* rounds are event-driven — a round trip on idle shards costs what the
  pipes cost, not a poll tick;
* a reply left behind by a shard that then exits is a finished round,
  an exit with an empty pipe is a death (noticed at once, through the
  process sentinel, however long the round timeout), and silence is a
  death at the round timeout;
* workers boot concurrently and read their payload as the first message
  on their own pipe, the real :func:`shard_worker_main` included;
* a sub-round touches only the shards it names;
* teardown reaps every worker — together against one grace period, and
  by SIGKILL when SIGTERM is ignored.
"""

import multiprocessing
import os
import pickle
import signal
import statistics
import time

import pytest

from repro.dist import exchange
from repro.dist.exchange import ShardPool

ROLE_RUNNER = "test_dist_exchange:role_runner"
SLOW_BOOT_RUNNER = "test_dist_exchange:slow_boot_runner"

#: What a slow-boot worker sleeps before it reads its boot message.
SLOW_BOOT_SECONDS = 0.3


# -- scripted workers (module scope: resolved by name in the spawned child) --
def echo(conn):
    """Answer every command with its ``n`` until told to shut down."""
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg["cmd"] == "shutdown":
            return
        conn.send({"status": "ok", "echo": msg["n"], "pid": os.getpid()})


def reply_then_exit(conn):
    """Answer one command, then leave."""
    conn.send({"status": "ok", "echo": conn.recv()["n"]})


def exit_without_reply(conn):
    """Read one command and leave it unanswered."""
    conn.recv()


def never_reply(conn):
    """Stay alive and say nothing, shutdown requests included."""
    while True:
        time.sleep(60.0)


def ignore_sigterm(conn):
    """Like :func:`never_reply`, and SIGTERM does not stop it either."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send({"status": "ok", "echo": conn.recv()["n"]})  # handler is set
    never_reply(conn)


ROLES = {f.__name__: f for f in (echo, reply_then_exit, exit_without_reply,
                                 never_reply, ignore_sigterm)}


def role_runner(conn):
    """Boot, then behave as the payload's ``role`` says."""
    role = conn.recv()["payload"]["role"]
    ROLES[role](conn)
    conn.close()


def slow_boot_runner(conn):
    """A worker whose start-up is slow *before* it reads the boot message."""
    time.sleep(SLOW_BOOT_SECONDS)
    role_runner(conn)


def pool_of(*roles, runner=ROLE_RUNNER, round_timeout=60.0):
    return ShardPool([{"role": role} for role in roles], runner=runner,
                     round_timeout=round_timeout)


def ping(n):
    return {"cmd": "ping", "n": n}


# ---------------------------------------------------------------------------
class TestEventDrivenRounds:
    def test_idle_round_trip_is_not_a_poll_tick(self):
        rounds = []
        born = time.perf_counter()
        with pool_of("echo", "echo") as pool:
            pool.roundtrip(ping(-1))  # both workers are up
            for n in range(200):
                t0 = time.perf_counter()
                replies, dead = pool.roundtrip(ping(n))
                rounds.append(time.perf_counter() - t0)
                assert dead == []
                assert [replies[i]["echo"] for i in (0, 1)] == [n, n]
            assert pool.rounds == 201
            assert 0.0 < pool.wait_s < time.perf_counter() - born
        # Was >= 10 ms by construction (one sleep per round).
        assert statistics.median(rounds) < 5e-3

    def test_subround_leaves_other_pipes_untouched(self):
        with pool_of("echo", "echo", "echo") as pool:
            replies, dead = pool.subround([0, 2], ping(1))
            assert sorted(replies) == [0, 2] and dead == []
            assert not pool.links[1].conn.poll(0.05)
            # Shard 1 was never sent ping 1, so nothing of it is pending:
            # its next reply answers the next command.
            replies, dead = pool.subround([1], ping(2))
            assert replies[1]["echo"] == 2 and dead == []
            replies, dead = pool.roundtrip(ping(3))
            assert [replies[i]["echo"] for i in range(3)] == [3, 3, 3]


class TestDeathDetection:
    def test_reply_then_exit_counts_as_completed(self):
        with pool_of("echo", "reply_then_exit") as pool:
            # Send, then let the worker answer and exit before collecting:
            # the verdict must come from the drained pipe, not the exit.
            pool.broadcast(ping(7))
            pool.links[1].process.join(timeout=10.0)
            assert not pool.links[1].alive()
            replies, dead = pool.collect()
            assert dead == []
            assert [replies[i]["echo"] for i in (0, 1)] == [7, 7]
            # Only the *next* round finds it gone.
            replies, dead = pool.roundtrip(ping(8))
            assert dead == [1] and replies[0]["echo"] == 8

    def test_exit_without_reply_is_noticed_at_once(self):
        with pool_of("echo", "exit_without_reply", round_timeout=60.0) as pool:
            pool.subround([0], ping(0))  # interpreter start-up is not timed
            t0 = time.perf_counter()
            replies, dead = pool.roundtrip(ping(1))
            elapsed = time.perf_counter() - t0
            assert dead == [1] and sorted(replies) == [0]
            assert elapsed < 1.0

    def test_silent_shard_is_terminated_at_round_timeout(self):
        with pool_of("echo", "never_reply", round_timeout=0.5) as pool:
            pool.subround([0], ping(0))
            t0 = time.perf_counter()
            replies, dead = pool.roundtrip(ping(1))
            elapsed = time.perf_counter() - t0
            assert dead == [1] and replies[0]["echo"] == 1
            assert 0.5 <= elapsed < 2.0
            assert not pool.links[1].alive()
            # The pool stays usable: respawn and the shard answers again.
            pool._payloads[1] = {"role": "echo"}
            pool.respawn(1)
            replies, dead = pool.roundtrip(ping(2))
            assert dead == [] and replies[1]["echo"] == 2

    def test_sigterm_proof_worker_is_killed(self, monkeypatch):
        monkeypatch.setattr(exchange, "_TERMINATE_GRACE", 0.3)
        with pool_of("ignore_sigterm") as pool:
            pool.roundtrip(ping(0))
            process = pool.links[0].process
            pool.kill(0)
            assert not process.is_alive()
            assert process.exitcode == -signal.SIGKILL
        # close() reaped it without ValueError; nothing is left running.


class TestBoot:
    def test_startup_failure_is_the_first_rounds_error_reply(self):
        # The real worker, a payload ShardState cannot be built from.
        with ShardPool([{"index": 0}], round_timeout=60.0) as pool:
            replies, dead = pool.roundtrip({"cmd": "xstart", "x": None})
            assert dead == []
            assert replies[0]["status"] == "error"
            assert replies[0]["error"] == "KeyError"
            assert "shard start-up failed" in replies[0]["message"]

    def test_slow_boots_overlap(self):
        # Payloads too big for the pipe's buffer, as real ones are: the
        # hand-over blocks until the worker reads it, so a pool booting
        # its workers one after another pays every slow start in turn.
        payloads = [{"role": "echo", "ballast": bytes(4 << 20)}] * 2
        t0 = time.perf_counter()
        with ShardPool(payloads, runner=SLOW_BOOT_RUNNER) as pool:
            replies, dead = pool.roundtrip(ping(0))
            total = time.perf_counter() - t0
            assert dead == [] and len(replies) == 2
        # The pool's own clock: started side by side, both workers announce
        # together; booted in turn, the second could not announce before
        # the first had slept through its slow start and read its payload.
        first, second = sorted(pool._announced_at)
        assert second - first < SLOW_BOOT_SECONDS
        assert SLOW_BOOT_SECONDS <= pool.boot_s < total

    def test_unpicklable_payload_strands_no_worker(self):
        before = multiprocessing.active_children()
        with pytest.raises((AttributeError, pickle.PicklingError)):
            ShardPool([{"role": "echo"}, {"role": lambda: None}],
                      runner=ROLE_RUNNER)
        assert multiprocessing.active_children() == before


class TestShutdown:
    def test_stubborn_pool_costs_one_grace_period(self, monkeypatch):
        monkeypatch.setattr(exchange, "_SHUTDOWN_GRACE", 0.5)
        pool = pool_of("never_reply", "never_reply", "never_reply", "echo")
        pool.subround([3], ping(0))
        pids = [link.process.pid for link in pool.links]
        t0 = time.perf_counter()
        pool.shutdown()
        elapsed = time.perf_counter() - t0
        # One 0.5 s deadline for all three, not one each.
        assert 0.5 <= elapsed < 1.0
        assert all(_reaped(pid) for pid in pids)

    def test_exit_on_exception_leaves_no_child(self):
        with pytest.raises(RuntimeError):
            with pool_of("echo", "echo") as pool:
                pool.roundtrip(ping(0))
                pids = [link.process.pid for link in pool.links]
                raise RuntimeError("solve blew up")
        assert all(_reaped(pid) for pid in pids)


def _reaped(pid: int) -> bool:
    """True once ``pid`` is neither running nor a zombie of ours."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False
