"""The asyncio solve service: admission, batching, dispatch, event streams.

`SolveService` is the trusted control plane of the protection-as-a-service
split: it validates untrusted jobs at admission, journals them, groups
them into same-matrix batches, and dispatches each batch to the sweep
executor (:func:`repro.sweeps.executor.run_tasks`) — in-process for the
warm-cache single-node mode (``workers<=1``), or over a spawn pool for
CPU fan-out.  Everything observable about a job flows through its event
stream: ``accepted``/``adopted`` → ``started`` → worker events
(``recovered``, ``injected``, ``due``) → ``done``/``failed``.

Durability is the job journal's reopen-is-resume contract
(:mod:`repro.serve.journal`): a killed server restarted on the same
journal re-adopts every admitted-but-unfinished job and serves completed
ones from their committed records — no duplicate solves.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time

from repro.serve import workers as serve_workers
from repro.serve.jobs import batch_key, job_key, normalise_job
from repro.serve.journal import JobJournal
from repro.sweeps.executor import Task, run_tasks

#: Event names that end a job's stream.
TERMINAL_EVENTS = ("done", "failed")


class ServiceOverloadedError(RuntimeError):
    """Admission refused: the pending queue is at ``max_pending``.

    Deliberately *not* a :class:`~repro.serve.jobs.JobValidationError` —
    the job itself is fine, the server is busy.  The rejection is
    journalled non-terminally, so resubmitting the identical job once
    the queue drains admits it normally (no cache poisoning).
    """


@dataclasses.dataclass
class ServeConfig:
    """Tunables of one serving process.

    Parameters
    ----------
    journal:
        Path of the append-only job journal (``None`` disables
        durability: jobs live only in memory).
    workers:
        Executor width per dispatch: ``<= 1`` solves in-process and
        shares one warm matrix/session cache; ``> 1`` fans batches out
        over a spawn pool (each worker warms its own cache).
    batch_window:
        Seconds the batcher waits after the first queued job for more
        same-matrix work to coalesce before dispatching.
    max_batch:
        Upper bound on jobs per dispatched batch.
    throttle:
        Artificial per-solve delay (seconds) forwarded to the batch
        runner; load-shaping for demos and kill/restart tests.
    dist_shards:
        ``>= 2`` routes large CG jobs to the row-sharded distributed
        solver (:mod:`repro.dist`) with this many worker shards;
        ``0``/``1`` (default) keeps every job single-process.
    dist_threshold:
        Row count at which a job counts as "large" for ``dist_shards``
        routing.  Below it nothing changes — same solver, same warm
        caches, and the job identity hash never depends on either knob.
    max_pending:
        Admission quota: a new job arriving while this many are already
        queued for batching is rejected with
        :class:`ServiceOverloadedError` instead of growing the queue
        without bound.  ``0`` (default) disables the quota.  Cache hits
        and joins of identical in-flight jobs are never rejected — they
        add no queue pressure.
    """

    journal: str | None = None
    workers: int = 1
    batch_window: float = 0.01
    max_batch: int = 32
    throttle: float = 0.0
    dist_shards: int = 0
    dist_threshold: int = 4096
    max_pending: int = 0


class SolveService:
    """Accepts solve jobs, batches them over warm sessions, streams events."""

    def __init__(self, config: ServeConfig | None = None, **overrides):
        base = config if config is not None else ServeConfig()
        if overrides:
            base = dataclasses.replace(base, **overrides)
        self.config = base
        self.journal = JobJournal(base.journal) if base.journal else None
        self._queue: list[dict] = []
        self._inflight: set[str] = set()
        self._events: dict[str, list[dict]] = {}
        self._results: dict[str, dict] = {}
        self._wakeup: asyncio.Event | None = None
        self._batcher: asyncio.Task | None = None
        self._running = False
        self.started_at = None
        self.stats = {"submitted": 0, "cached_hits": 0, "adopted": 0,
                      "batches": 0, "solved": 0, "failed": 0, "rejected": 0,
                      "blocked_jobs": 0}
        self._worker_stats: dict[str, dict] = {}

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Arm the batcher and re-adopt the journal's unfinished jobs."""
        self._wakeup = asyncio.Event()
        self._running = True
        self.started_at = time.time()
        if self.journal is not None:
            # Completed jobs are served straight from their committed
            # records (with a replayable accepted→done event stream);
            # admitted-but-unfinished ones are re-adopted into the queue.
            for record in self.journal.store.records():
                if record.get("status") in ("done", "failed") and "result" in record:
                    job_id = record["key"]
                    self._results[job_id] = record["result"]
                    self._publish(job_id, {"event": "accepted", "cached": True})
                    self._finalise_events(job_id, record["result"])
            for spec in self.journal.pending():
                self._admit(spec, event="adopted")
                self.stats["adopted"] += 1
        self._batcher = asyncio.create_task(self._batch_loop())

    async def stop(self) -> None:
        """Stop dispatching; queued jobs stay journalled for the next life."""
        self._running = False
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        if self.journal is not None:
            self.journal.close()

    # -- submission ------------------------------------------------------
    async def submit(self, spec: dict) -> dict:
        """Admit one job; returns ``{"job_id", "cached"}``.

        Validation happens inside :func:`normalise_job` (raising
        :class:`~repro.serve.jobs.JobValidationError` on bad input).
        A job whose identity already has a committed result — in memory
        or in the journal — is served from that record without solving
        again; an identical in-flight job is joined, not duplicated.
        A genuinely *new* job arriving with ``max_pending`` jobs already
        queued raises :class:`ServiceOverloadedError`.
        """
        try:
            job = normalise_job(spec)
        except Exception:
            self.stats["rejected"] += 1
            raise
        job_id = job["job_id"]
        cached = self._results.get(job_id)
        if cached is None and self.journal is not None:
            cached = self.journal.result(job_id)
            if cached is not None:
                # Surface the journal's record through the in-memory
                # maps so streams replay a complete accepted→done story.
                self._results[job_id] = cached
                self._publish(job_id, {"event": "accepted", "cached": True})
                self._finalise_events(job_id, cached)
        if cached is not None:
            self.stats["cached_hits"] += 1
            return {"job_id": job_id, "cached": True}
        if job_id in self._inflight:
            return {"job_id": job_id, "cached": False}
        if (self.config.max_pending > 0
                and len(self._queue) >= self.config.max_pending):
            self.stats["rejected"] += 1
            if self.journal is not None:
                self.journal.record_rejected(job_id)
            raise ServiceOverloadedError(
                f"job {job_id} rejected: {len(self._queue)} jobs pending "
                f"(max_pending={self.config.max_pending}); retry later"
            )
        self.stats["submitted"] += 1
        if self.journal is not None:
            self.journal.record_submitted(job)
        self._admit(job, event="accepted")
        return {"job_id": job_id, "cached": False}

    def _admit(self, job: dict, *, event: str) -> None:
        job_id = job["job_id"]
        if job_id in self._inflight or job_id in self._results:
            return
        self._inflight.add(job_id)
        self._queue.append(job)
        self._publish(job_id, {"event": event, "method": job["method"],
                               "batch_key": batch_key(job)[:12]})
        self._notify()

    # -- events ----------------------------------------------------------
    def _publish(self, job_id: str, event: dict) -> None:
        stream = self._events.setdefault(job_id, [])
        event = dict(event, job_id=job_id, seq=len(stream), ts=time.time())
        stream.append(event)
        self._notify()

    def _notify(self) -> None:
        if self._wakeup is not None:
            wakeup, self._wakeup = self._wakeup, asyncio.Event()
            wakeup.set()

    async def events(self, job_id: str, from_seq: int = 0):
        """Async-iterate a job's events, replay then follow until terminal."""
        index = from_seq
        while True:
            waiter = self._wakeup
            stream = self._events.get(job_id, [])
            if index < len(stream):
                event = stream[index]
                index += 1
                yield event
                if event["event"] in TERMINAL_EVENTS:
                    return
                continue
            if waiter is None:
                return
            await waiter.wait()

    async def result(self, job_id: str) -> dict:
        """Block until ``job_id`` is terminal; return its result record."""
        while True:
            waiter = self._wakeup
            record = self._results.get(job_id)
            if record is not None:
                return record
            if job_id not in self._inflight and job_id not in self._events:
                raise KeyError(f"unknown job {job_id!r}")
            if waiter is None:
                raise RuntimeError("service is not started")
            await waiter.wait()

    def status(self) -> dict:
        """A point-in-time summary of queue, caches and journal."""
        return {
            "running": self._running,
            "queued": len(self._queue),
            "inflight": len(self._inflight),
            "completed": len(self._results),
            "stats": dict(self.stats),
            "cache": dict(serve_workers.CACHE.stats),
            "sessions": dict(serve_workers.SESSIONS.stats),
            "workers": {pid: dict(stats)
                        for pid, stats in self._worker_stats.items()},
            "journal": self.journal.summary() if self.journal else None,
            "config": dataclasses.asdict(self.config),
        }

    # -- batching --------------------------------------------------------
    async def _batch_loop(self) -> None:
        while self._running:
            if not self._queue:
                waiter = self._wakeup
                await waiter.wait()
                continue
            if self.config.batch_window > 0:
                # Let same-matrix work coalesce before grouping.
                await asyncio.sleep(self.config.batch_window)
            taken, self._queue = self._queue, []
            groups: dict[str, list[dict]] = {}
            for job in taken:
                groups.setdefault(batch_key(job), []).append(job)
            tasks = []
            for key, jobs in groups.items():
                for chunk_at in range(0, len(jobs), self.config.max_batch):
                    chunk = jobs[chunk_at:chunk_at + self.config.max_batch]
                    tasks.append(Task(
                        key=f"{key}:{chunk_at}",
                        runner="repro.serve.workers:run_batch",
                        params={
                            "jobs": chunk,
                            "protection": chunk[0].get("protection"),
                            "throttle": self.config.throttle,
                            "dist_shards": self.config.dist_shards,
                            "dist_threshold": self.config.dist_threshold,
                        },
                    ))
                    for job in chunk:
                        self._publish(job["job_id"], {
                            "event": "started", "batch_size": len(chunk),
                        })
            loop = asyncio.get_running_loop()

            def _on_record(key: str, record: dict) -> None:
                loop.call_soon_threadsafe(self._ingest, record)

            self.stats["batches"] += len(tasks)
            await asyncio.to_thread(
                run_tasks, tasks, workers=self.config.workers,
                on_record=_on_record,
            )

    def _ingest(self, batch_record: dict) -> None:
        """Commit one finished batch: journal, results, event streams."""
        self.stats["blocked_jobs"] += int(batch_record.get("blocked_jobs", 0))
        pid = batch_record.get("worker_pid")
        if pid is not None:
            # Per-worker warm-state accounting: with a spawn pool each
            # worker pays for (and keeps) its own encoded-matrix cache,
            # so status() can show the per-process memory/warmth split.
            entry = self._worker_stats.setdefault(
                str(pid), {"batches": 0, "blocked_jobs": 0})
            entry["batches"] += 1
            entry["blocked_jobs"] += int(batch_record.get("blocked_jobs", 0))
            entry["cache"] = dict(batch_record.get("cache", {}))
            entry["sessions"] = dict(batch_record.get("sessions", {}))
        for record in batch_record.get("jobs", []):
            job_id = record["job_id"]
            self._inflight.discard(job_id)
            self._results[job_id] = record
            if self.journal is not None:
                self.journal.record_result(job_id, record)
            for event in record.get("events", []):
                self._publish(job_id, event)
            self.stats["solved" if record["status"] == "done" else "failed"] += 1
            self._finalise_events(job_id, record)

    def _finalise_events(self, job_id: str, record: dict) -> None:
        summary = {
            k: record[k]
            for k in ("converged", "iterations", "residual", "duration_ms",
                      "recovered", "error", "x_norm")
            if k in record
        }
        self._publish(job_id, {"event": record.get("status", "done"), **summary})


def job_identity(spec: dict) -> str:
    """Convenience: the canonical identity a spec would be admitted under."""
    return job_key(normalise_job(spec))
