"""``serve_mix``: two closed-loop clients against one in-process server.

One ``SolveServer`` thread (``batch_window=0.005``, ``max_batch=32``,
``workers=1``, journal on) serves two client threads, each pipelining
groups of 8 jobs through ``ServeClient.solve_many`` and sending the next
group only when the previous one is back.  A group is 5 jobs on the hot
matrix, 2 on a ring of 8 warm matrices and 1 on a matrix the server has
never seen (always build + encode), every job under a fresh ``tag``.
Protected (``"deferred"``) and plain (``"off"``) traffic alternate in
one-second slices.

An op is one job, and its latency is what the caller of ``solve_many``
observes: the time from submitting its group to the call returning.
"""

from __future__ import annotations

import asyncio
import gc
import os
import threading
import time

import numpy as np

from harness import (
    Checker,
    RefOp,
    Residual,
    Rounds,
    Spec,
    WorkDir,
    build_system,
    median,
    p95,
    peak_rss_mb,
    relative_gap,
    rhs,
    timed,
)
from repro.serve.client import ServeClient
from repro.serve.server import SolveServer
from repro.serve.service import ServeConfig, SolveService

CLIENTS = 2
WARM_RING = 8
#: Position of each job of a group: h(ot), w(arm ring), n(ever seen).
PATTERN = "hhwhhwhn"
B_SEEDS = 64
#: Seconds of one slice.  Short, because a slice is the unit the median is
#: taken over: single slices read 0.19..0.24 s as the two clients fall in
#: and out of step, and the median of a dozen is steadier than of six.
SLICE_S = 1.0


class ServerThread:
    """The server on its own thread; shut down and joined on exit, always."""

    def __init__(self, journal_path):
        self.journal_path = journal_path
        self.port = None
        self._error = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, name="bench-serve",
                                        daemon=True)

    def _main(self) -> None:
        async def amain():
            server = SolveServer(SolveService(ServeConfig(
                journal=str(self.journal_path), workers=1,
                batch_window=0.005, max_batch=32)))
            _, self.port = await server.start()
            self._ready.set()
            await server.serve_forever()

        try:
            asyncio.run(amain())
        except Exception as exc:  # surfaced by __enter__ / __exit__
            self._error = exc
            self._ready.set()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(15) or self._error is not None:
            raise RuntimeError(f"serve thread failed to start: {self._error!r}")
        return self

    def __exit__(self, *exc) -> None:
        try:
            ServeClient(port=self.port, timeout=5).shutdown()
        except OSError:
            pass
        self._thread.join(15)
        if self._thread.is_alive():
            raise RuntimeError("serve thread did not stop within 15 s")

    def client(self) -> ServeClient:
        return ServeClient(port=self.port, timeout=60)


class Traffic:
    """The seeded job stream: which matrix and right-hand side comes next."""

    def __init__(self, spec: Spec, seed: int):
        self.spec = spec
        self.base = 100_000 * seed
        self._fresh = [0] * (CLIENTS + 1)  # last slot: set-up / checks
        self._jobs = [0] * (CLIENTS + 1)

    def matrix(self, matrix_seed: int) -> dict:
        return {"kind": "five-point", "grid": self.spec.grid,
                "seed": matrix_seed, "dt": self.spec.dt}

    @property
    def hot_seed(self) -> int:
        return self.base

    def fresh_seed(self, client: int) -> int:
        """A matrix seed nobody has used: per-client disjoint ranges."""
        self._fresh[client] += 1
        return self.base + 1_000 + 20_000 * client + self._fresh[client]

    def job(self, client: int, kind: str, protection: str, **extra) -> dict:
        k = self._jobs[client]
        self._jobs[client] += 1
        if kind == "h":
            matrix_seed = self.hot_seed
        elif kind == "w":
            matrix_seed = self.base + 1 + k % WARM_RING
        else:
            matrix_seed = self.fresh_seed(client)
        return {
            "matrix": self.matrix(matrix_seed),
            "b": {"seed": self.base + (k * 7 + client) % B_SEEDS},
            "method": "cg", "eps": self.spec.eps, "protection": protection,
            "tag": f"{self.base}-{client}-{k}", **extra,
        }

    def group(self, client: int, protection: str) -> list[dict]:
        return [self.job(client, kind, protection) for kind in PATTERN]


def record_ok(record: dict, expect_iters: int | None, spec: Spec) -> bool:
    """A served job's record: done, converged, the recorded iterations
    (``None``: not recorded yet, the count is not checked)."""
    iterations = int(record.get("iterations", -99))
    return (record.get("status") == "done" and bool(record.get("converged"))
            and (expect_iters is None
                 or abs(iterations - expect_iters) <= spec.iter_slack)
            and float(record.get("residual", 1.0)) ** 2 < spec.eps)


def check_hot_solution(server: ServerThread, traffic: Traffic, checker: Checker,
                       expect_iters: int | None) -> int:
    """Fetch x for one protected and one plain job on the hot matrix and
    check them against a bench-local product; returns the recorded
    iteration count (the plain job's when the spec records none)."""
    spec = traffic.spec
    check = CLIENTS
    jobs = [traffic.job(check, "h", protection, return_x=True)
            for protection in ("off", "deferred")]
    jobs[1]["b"] = jobs[0]["b"]
    plain, protected = server.client().solve_many(jobs)
    if expect_iters is None:
        expect_iters = int(plain["iterations"])
    A = build_system(spec.grid, spec.dt, traffic.hot_seed)
    b = rhs(A.n_rows, jobs[0]["b"]["seed"])
    residual = Residual(A)
    x_plain = np.asarray(plain["x"])
    for name, record in (("plain", plain), ("protected", protected)):
        x = np.asarray(record["x"])
        ok = (record_ok(record, expect_iters, spec)
              and residual(x, b) <= 1e-6 and relative_gap(x, x_plain) <= 1e-9)
        checker.op(ok, f"served {name} job on the hot matrix: record "
                       f"{ {k: v for k, v in record.items() if k != 'x'} }")
    return expect_iters


def fill_caches(server: ServerThread, traffic: Traffic) -> None:
    """Bring the server's FIFO caches to their steady state before timing.

    The 64-entry matrix cache fills at one never-seen matrix per group;
    until it has, nothing is ever evicted and a protected group reads
    0.19 s, afterwards (hot matrix re-encoded every ~64 groups) 0.21 s —
    a 10 % drift across the first six seconds of a run.  One-iteration
    jobs on 72 never-seen matrices build and encode without solving.
    """
    jobs = [dict(traffic.job(CLIENTS, "n", "deferred"), max_iters=1)
            for _ in range(72)]
    server.client().solve_many(jobs)


def measure_setup(workdir, traffic: Traffic, checker: Checker, expect_iters,
                  reps: int) -> float:
    """``setup_s``: server start + first job, on a matrix no cache has seen."""
    times = []
    for k in range(reps):
        job = traffic.job(CLIENTS, "n", "deferred")
        t0 = time.perf_counter()
        with ServerThread(workdir / f"setup-{k}.jsonl") as server:
            (record,) = server.client().solve_many([job])
            dt = time.perf_counter() - t0
        if checker.op(record_ok(record, expect_iters, traffic.spec),
                      f"set-up job: {record}"):
            times.append(dt)
    return median(times)


class Slice:
    """One configuration's closed-loop slice as a ``Rounds`` op.

    A call runs both clients for ``seconds`` (each sends at least one
    group) and returns the slice's median job latency; every job's
    latency, the jobs served and the wall time accumulate on the object.
    """

    def __init__(self, server: ServerThread, traffic: Traffic, checker: Checker,
                 protection: str, seconds: float, expect_iters: int):
        self.server = server
        self.traffic = traffic
        self.checker = checker
        self.protection = protection
        self.seconds = seconds
        self.expect_iters = expect_iters
        self.latencies: list[float] = []
        self.wall = 0.0
        self._lock = threading.Lock()

    def _client(self, cid: int, stop_at: float, out: list[float]) -> None:
        client = self.server.client()
        first = True
        while first or time.perf_counter() < stop_at:
            first = False
            jobs = self.traffic.group(cid, self.protection)
            try:
                t0 = time.perf_counter()
                records = client.solve_many(jobs)
                dt = time.perf_counter() - t0
            except Exception as exc:  # the whole group failed
                records, dt = [{"error": repr(exc)}] * len(jobs), None
            with self._lock:
                for record in records:
                    if self.checker.op(
                            record_ok(record, self.expect_iters, self.traffic.spec),
                            f"{self.protection} job: {record}"):
                        out.append(dt)

    def __call__(self, i: int):
        out: list[float] = []
        started = time.perf_counter()
        threads = [threading.Thread(target=self._client,
                                    args=(cid, started + self.seconds, out))
                   for cid in range(CLIENTS)]
        gc.disable()  # process-wide, so once around the slice, not per thread
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            gc.enable()
        self.wall += time.perf_counter() - started
        self.latencies.extend(out)
        return median(out) if out else None


def run_load(server, traffic, checker, seconds: float, expect_iters: int,
             slice_s: float) -> Rounds:
    """Alternating protected / plain slices until ``seconds`` are used."""
    slices = {protection: Slice(server, traffic, checker, protection, 0.0,
                                expect_iters)
              for protection in ("deferred", "off")}
    rounds = Rounds(slices, ref=RefOp())
    # Warm-up: one group per client and configuration (hot matrix encoded,
    # warm ring started, sessions minted), kept out of the samples.
    rounds.warm_up(1)
    for each in slices.values():
        each.seconds, each.latencies, each.wall = slice_s, [], 0.0
    rounds.run(time.perf_counter() + seconds, min_rounds=2)
    return rounds


def traced_pass(server, traffic, checker, expect_iters: int, groups: int):
    """Sequential protected groups whose event streams are replayed
    afterwards; returns ``(metrics, job spans)``."""
    client = server.client()
    waits, solves, posts, spans = [], [], [], []
    for _ in range(groups):
        jobs = traffic.group(CLIENTS, "deferred")
        try:
            dt, records = timed(client.solve_many, jobs)
        except Exception as exc:
            checker.op(False, f"traced group raised {exc!r}")
            continue
        accepted_first, done_last = float("inf"), 0.0
        for record in records:
            if not checker.op(record_ok(record, expect_iters, traffic.spec),
                              f"traced job: {record}"):
                continue
            ts = {event["event"]: event["ts"]
                  for event in client.stream(record["job_id"])}
            if not {"accepted", "started", "done"} <= ts.keys():
                checker.op(False, f"job {record['job_id']}: events {sorted(ts)}")
                continue
            waits.append(ts["started"] - ts["accepted"])
            solves.append(record["duration_ms"])
            accepted_first = min(accepted_first, ts["accepted"])
            done_last = max(done_last, ts["done"])
            job_id, parent = record["job_id"], f"x{len(spans)}"
            spans.append(("serve.job", ts["accepted"], ts["done"], -1, job_id))
            spans.append(("serve.queue_wait", ts["accepted"], ts["started"],
                          parent, job_id))
            spans.append(("serve.batch", ts["started"], ts["done"],
                          parent, job_id))
        if done_last:
            posts.append(dt - (done_last - accepted_first))
    return {
        "serve.queue_wait_ms": 1e3 * median(waits),
        "serve.solve_ms": median(solves),
        "serve.post_ms": 1e3 * median(posts),
    }, spans


def status_delta(after: dict, before: dict) -> dict:
    """Service / cache counters accumulated between two ``status()`` calls."""
    out = {}
    for section in ("stats", "cache"):
        for key, value in after[section].items():
            out[key] = value - before[section].get(key, 0)
    return out


def serve_layer_metrics(server, journal, load: Rounds, traced: dict,
                        before: dict) -> dict:
    """The served-side per-layer metrics of a traced run."""
    protected = load.configs["deferred"]
    after = server.client().status()
    delta = status_delta(after, before)
    jobs = delta["solved"] + delta["failed"]
    return {
        **traced,
        "p95_op_s": p95(protected.latencies),
        "_p95_samples": len(protected.latencies),
        "ops_per_s": len(protected.latencies) / max(protected.wall, 1e-9),
        "protect.overhead_x": load.paired_ratio("deferred", "off"),
        "serve.batch_jobs_mean": jobs / max(delta["batches"], 1),
        "serve.blocked_share": delta["blocked_jobs"] / max(jobs, 1),
        "serve.encode_hit_ratio": delta["hits"] / max(
            delta["hits"] + delta["encodes"], 1),
        "serve.encodes": delta["encodes"],
        "serve.builds": delta["builds"],
        "serve.journal_bytes_per_job": (
            os.path.getsize(journal) / max(after["stats"]["submitted"], 1)),
    }


def run(spec: Spec, small: Spec, args, checker: Checker) -> dict:
    """One run of ``serve_mix``; returns metric -> value."""
    traffic = Traffic(spec, args.seed)
    seconds = args.seconds
    smoke = args.scale == "smoke"
    metrics = {}
    with WorkDir() as workdir:
        if not args.trace:
            metrics["setup_s"] = measure_setup(
                workdir, traffic, checker, spec.iters, reps=3 if smoke else 9)
        journal = workdir / "journal.jsonl"
        with ServerThread(journal) as server:
            expect = check_hot_solution(server, traffic, checker, spec.iters)
            if args.expect_iters is not None:
                expect = args.expect_iters
            fill_caches(server, traffic)
            before = server.client().status()
            load = run_load(server, traffic, checker,
                            (0.35 if args.trace else 0.85) * seconds, expect,
                            slice_s=min(SLICE_S, seconds / 4))
            metrics["protected_op_s"] = load.value("deferred")
            metrics["plain_op_s"] = load.value("off")
            metrics["_jobs_protected"] = len(load.configs["deferred"].latencies)
            metrics["_jobs_plain"] = len(load.configs["off"].latencies)
            metrics["_rounds"] = load.rounds
            metrics["_ref_op_s"] = median(load.ref.samples)
            if args.trace:
                traced, spans = traced_pass(server, traffic, checker, expect,
                                            groups=2 if smoke else 10)
                metrics.update(serve_layer_metrics(server, journal, load, traced,
                                                   before))
        if not args.trace:
            metrics["peak_rss_mb"] = peak_rss_mb()
    if args.trace:
        # The layers under one served job, measured in-process on the hot
        # matrix: probes, counts, the span ledger.
        from inproc import System, traced_section

        hot = Spec(grid=spec.grid, dt=spec.dt, eps=spec.eps, iters=None)
        layer, _, tracer = traced_section(
            System(hot, traffic.hot_seed), checker, small, args,
            rounds_share=0.15, ops_per_round=5)
        layer["harness.rounds"] = load.rounds  # of served load, not in-process
        layer["harness.ref_op_s"] = metrics["_ref_op_s"]
        metrics.update(layer)
        if args.trace_out:
            tracer.dump(args.trace_out, extra_spans=spans)
    return metrics
