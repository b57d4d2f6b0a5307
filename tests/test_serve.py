"""The serving layer: job model, caches, batching, journal resume, wire.

The acceptance bars (ISSUE 6):

* batched same-matrix solves demonstrably reuse ONE encoded matrix — the
  cache's encode counter is asserted, not assumed;
* a killed server restarted on the same journal re-adopts in-flight jobs
  and completes them with no duplicate solves (probe marker files count
  executions, mirroring the sweeps' resume acceptance);
* a DUE mid-solve under an escalating recovery policy is repaired
  transparently while the job's event stream records it.
"""

import asyncio
import glob
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.serve import workers as serve_workers
from repro.serve.cache import MatrixCache, SessionPool
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.jobs import (
    JobValidationError,
    batch_key,
    build_matrix,
    job_key,
    normalise_job,
    protection_canonical,
    protection_from_spec,
    validate_job,
)
from repro.serve.journal import JobJournal
from repro.serve.server import SolveServer
from repro.serve.service import ServeConfig, ServiceOverloadedError, SolveService

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")
DECK_TEXT = (
    Path(__file__).resolve().parents[1] / "examples" / "decks" / "tea_bm_short.in"
).read_text()


def five_point_job(b_seed=0, grid=10, matrix_seed=3, protection="deferred", **extra):
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


# ---------------------------------------------------------------------------
class TestJobModel:
    def test_identity_derives_from_content(self):
        a = normalise_job(five_point_job(b_seed=1))
        b = normalise_job(five_point_job(b_seed=1))
        c = normalise_job(five_point_job(b_seed=2))
        assert a["job_id"] == b["job_id"]
        assert a["job_id"] != c["job_id"]
        assert job_key(a) == job_key(b)

    def test_explicit_job_id_is_kept_and_excluded_from_identity(self):
        a = normalise_job(five_point_job(job_id="mine"))
        b = normalise_job(five_point_job())
        assert a["job_id"] == "mine"
        assert job_key(a) == job_key(b)

    def test_batch_key_groups_same_matrix_same_protection(self):
        a = normalise_job(five_point_job(b_seed=1))
        b = normalise_job(five_point_job(b_seed=2))
        c = normalise_job(five_point_job(b_seed=1, protection="paper_default"))
        d = normalise_job(five_point_job(b_seed=1, matrix_seed=9))
        assert batch_key(a) == batch_key(b)
        assert batch_key(a) != batch_key(c)
        assert batch_key(a) != batch_key(d)

    def test_inject_jobs_never_share_a_batch(self):
        a = normalise_job(five_point_job(b_seed=1, inject={"rate": 1e-6, "seed": 0}))
        b = normalise_job(five_point_job(b_seed=2, inject={"rate": 1e-6, "seed": 0}))
        assert batch_key(a) != batch_key(b)

    def test_protection_spellings_canonicalise_together(self):
        explicit = {"preset": "deferred", "window": 16}
        assert protection_canonical("deferred") == protection_canonical(explicit)
        assert protection_canonical(None) == protection_canonical("off")
        assert protection_from_spec(
            {"recovery": {"strategy": "rollback"}}
        ).recovery.strategy == "rollback"

    @pytest.mark.parametrize("bad", [
        {"b": [1.0]},                                             # no matrix
        {"matrix": {"kind": "warp"}, "b": [1.0]},                 # unknown kind
        {"matrix": {"kind": "five-point", "grid": 9999}, "b": {"seed": 0}},
        {"matrix": {"kind": "five-point"}, "b": {"seed": 0}, "eps": -1.0},
        {"matrix": {"kind": "five-point"}, "b": {"seed": 0}, "max_iters": 0},
        {"matrix": {"kind": "five-point"}, "b": {"seed": 0}, "surprise": 1},
        {"matrix": {"kind": "five-point"}, "b": [float("nan")] * 4},
        {"matrix": {"kind": "five-point"}, "b": {"seed": 0},
         "inject": {"rate": 2.0}},
        {"matrix": {"kind": "five-point"}, "b": {"seed": 0},
         "protection": "ironclad"},
        {"matrix": {"kind": "csr", "values": [float("inf")], "colidx": [0],
                    "rowptr": [0, 1], "shape": [1, 1]}, "b": [1.0]},
    ])
    def test_untrusted_jobs_are_rejected_at_validation(self, bad):
        with pytest.raises(JobValidationError):
            validate_job(bad)

    def test_rhs_shape_mismatch_rejected(self):
        job = normalise_job(five_point_job(grid=4))
        job["b"] = [1.0, 2.0]
        from repro.serve.jobs import build_rhs

        with pytest.raises(JobValidationError):
            build_rhs(job, 16)

    def test_deck_handle_builds_system_with_deck_rhs(self):
        job = normalise_job({"matrix": {"kind": "deck", "text": DECK_TEXT}})
        assert job["b"] == "deck"
        matrix = build_matrix(job["matrix"])
        from repro.serve.jobs import build_rhs

        rhs = build_rhs(job, matrix.n_rows)
        assert rhs.shape == (matrix.n_rows,)
        assert np.all(np.isfinite(rhs))


# ---------------------------------------------------------------------------
class TestMatrixCache:
    def test_encode_once_then_hits(self):
        cache = MatrixCache()
        spec = {"kind": "five-point", "grid": 8, "seed": 0}
        first = cache.encoded(spec, "deferred")
        again = cache.encoded(spec, "deferred")
        assert first is again
        assert cache.stats == {"builds": 1, "encodes": 1, "hits": 1,
                               "invalidations": 0}

    def test_distinct_protection_encodes_separately(self):
        cache = MatrixCache()
        spec = {"kind": "five-point", "grid": 8, "seed": 0}
        a = cache.encoded(spec, "deferred")
        b = cache.encoded(spec, "paper_default")
        assert a is not b
        assert cache.stats["encodes"] == 2
        assert cache.stats["builds"] == 1  # raw build shared

    def test_invalidate_forces_reencode(self):
        cache = MatrixCache()
        spec = {"kind": "five-point", "grid": 8, "seed": 0}
        first = cache.encoded(spec, "deferred")
        cache.invalidate(spec, "deferred")
        second = cache.encoded(spec, "deferred")
        assert first is not second
        assert cache.stats["invalidations"] == 1
        assert cache.stats["encodes"] == 2

    def test_unprotected_specs_have_nothing_to_encode(self):
        cache = MatrixCache()
        spec = {"kind": "five-point", "grid": 8, "seed": 0}
        assert cache.encoded(spec, None) is None
        assert cache.stats["encodes"] == 0

    def test_bounded_eviction(self):
        cache = MatrixCache(max_entries=2)
        for seed in range(4):
            cache.raw({"kind": "five-point", "grid": 6, "seed": seed})
        assert len(cache._raw) == 2

    def test_session_pool_warms_and_reuses(self):
        pool = SessionPool()
        spec = {"kind": "five-point", "grid": 8, "seed": 0}
        one = pool.get(spec, "deferred")
        two = pool.get(spec, "deferred")
        assert one is two
        plain = pool.get(spec, None)  # unprotected specs get an off() session
        assert plain is not one and plain.config == repro.ProtectionConfig.off()
        assert pool.stats == {"created": 2, "reused": 1}


# ---------------------------------------------------------------------------
class TestJournal:
    def test_reopen_is_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        a = normalise_job(five_point_job(b_seed=1))
        b = normalise_job(five_point_job(b_seed=2))
        journal.record_submitted(a)
        journal.record_submitted(b)
        journal.record_result(a["job_id"], {"job_id": a["job_id"],
                                            "status": "done", "x_norm": 1.0})
        journal.close()

        reopened = JobJournal(path)
        pending = reopened.pending()
        assert [p["job_id"] for p in pending] == [b["job_id"]]
        assert reopened.result(a["job_id"])["x_norm"] == 1.0
        assert reopened.result(b["job_id"]) is None
        assert reopened.summary() == {"submitted": 1, "done": 1}

    def test_torn_final_line_drops_only_that_record(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        job = normalise_job(five_point_job())
        journal.record_submitted(job)
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"key": "job-torn", "status": "subm')
        reopened = JobJournal(path)
        assert [p["job_id"] for p in reopened.pending()] == [job["job_id"]]


# ---------------------------------------------------------------------------
class TestServiceBatching:
    def test_same_matrix_jobs_reuse_one_encoded_matrix(self, fresh_workers):
        jobs = [five_point_job(b_seed=i) for i in range(6)]
        records, _, status = run_service(jobs, batch_window=0.01)
        assert all(r["status"] == "done" and r["converged"] for r in records)
        # The acceptance assertion: six solves, ONE encode.  The blocked
        # multi-RHS path serves the whole group off a single cache
        # acquisition, so "reuse" shows up as either cache hits (solo
        # solves) or jobs served by the blocked group.
        assert status["cache"]["encodes"] == 1
        assert status["cache"]["hits"] + status["stats"]["blocked_jobs"] >= 5
        assert status["sessions"]["created"] == 1

    def test_distinct_matrices_split_batches(self, fresh_workers):
        jobs = [five_point_job(b_seed=i, matrix_seed=i % 2) for i in range(4)]
        records, _, status = run_service(jobs, batch_window=0.01)
        assert all(r["status"] == "done" for r in records)
        assert status["cache"]["encodes"] == 2

    def test_served_solutions_match_direct_solve(self, fresh_workers):
        job = five_point_job(b_seed=5, return_x=True)
        records, _, _ = run_service([job])
        matrix = build_matrix(job["matrix"])
        b = np.random.default_rng(5).standard_normal(matrix.n_rows)
        reference = repro.solve(matrix, b, method="cg", eps=1e-10)
        assert np.allclose(records[0]["x"], reference.x, rtol=1e-8, atol=1e-10)

    def test_unprotected_jobs_run_plain(self, fresh_workers):
        records, _, status = run_service([five_point_job(protection=None)])
        assert records[0]["status"] == "done"
        assert status["cache"]["encodes"] == 0

    def test_event_stream_shape(self, fresh_workers):
        _, events, _ = run_service([five_point_job()])
        names = [e["event"] for e in next(iter(events.values()))]
        assert names == ["accepted", "started", "done"]

    def test_resubmission_is_a_cache_hit(self, fresh_workers):
        async def main():
            service = SolveService()
            await service.start()
            first = await service.submit(five_point_job(b_seed=3))
            await service.result(first["job_id"])
            second = await service.submit(five_point_job(b_seed=3))
            status = service.status()
            await service.stop()
            return first, second, status

        first, second, status = asyncio.run(main())
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["job_id"] == first["job_id"]
        assert status["stats"]["cached_hits"] == 1
        assert status["stats"]["solved"] == 1

    def test_rejected_jobs_raise_and_count(self, fresh_workers):
        async def main():
            service = SolveService()
            await service.start()
            with pytest.raises(JobValidationError):
                await service.submit({"matrix": {"kind": "warp"}, "b": [1.0]})
            status = service.status()
            await service.stop()
            return status

        assert asyncio.run(main())["stats"]["rejected"] == 1


# ---------------------------------------------------------------------------
class TestAdmissionQuota:
    """ISSUE 8 satellite: ``max_pending`` bounds the queue at admission."""

    def test_overload_rejects_and_journals_without_poisoning(self, tmp_path,
                                                             fresh_workers):
        journal = str(tmp_path / "jobs.jsonl")

        async def main():
            # batch_window=30 parks the batcher, so submissions pile up
            # in the queue and the quota is what we exercise.
            service = SolveService(ServeConfig(
                journal=journal, batch_window=30.0, max_pending=2))
            await service.start()
            first = await service.submit(five_point_job(b_seed=0))
            await service.submit(five_point_job(b_seed=1))
            with pytest.raises(ServiceOverloadedError):
                await service.submit(five_point_job(b_seed=2))
            # Joining an identical in-flight job adds no queue pressure,
            # so it is admitted even at the quota.
            joined = await service.submit(five_point_job(b_seed=0))
            status = service.status()
            record = service.journal.store.get(
                normalise_job(five_point_job(b_seed=2))["job_id"])
            pending = {job["job_id"] for job in service.journal.pending()}
            await service.stop()
            return first, joined, status, record, pending

        first, joined, status, record, pending = asyncio.run(main())
        assert joined["job_id"] == first["job_id"]
        assert status["stats"]["rejected"] == 1
        assert status["queued"] == 2
        assert record["status"] == "rejected"
        # Non-terminal and non-submitted: never re-adopted, never served
        # as a cached result.
        assert record["key"] not in pending

    def test_rejected_job_resubmits_cleanly_after_drain(self, tmp_path,
                                                        fresh_workers):
        journal = str(tmp_path / "jobs.jsonl")
        job = five_point_job(b_seed=7)

        async def overload():
            service = SolveService(ServeConfig(
                journal=journal, batch_window=30.0, max_pending=1))
            await service.start()
            await service.submit(five_point_job(b_seed=8))
            with pytest.raises(ServiceOverloadedError):
                await service.submit(job)
            await service.stop()

        async def drain():
            service = SolveService(ServeConfig(journal=journal,
                                               batch_window=0.01))
            await service.start()
            adopted = service.stats["adopted"]
            response = await service.submit(job)
            record = await service.result(response["job_id"])
            await service.stop()
            return adopted, response, record

        asyncio.run(overload())
        adopted, response, record = asyncio.run(drain())
        assert adopted == 1  # only the admitted job, not the rejected one
        assert response["cached"] is False  # rejection never cached anything
        assert record["status"] == "done"

    def test_zero_quota_means_unlimited(self, fresh_workers):
        jobs = [five_point_job(b_seed=i) for i in range(4)]
        records, _, status = run_service(jobs, batch_window=0.05)
        assert all(r["status"] == "done" for r in records)
        assert status["stats"]["rejected"] == 0

    def test_overload_is_flagged_retryable_on_the_wire(self, fresh_workers):
        holder, ready = {}, threading.Event()

        def runner():
            async def amain():
                server = SolveServer(SolveService(ServeConfig(
                    batch_window=30.0, max_pending=1)))
                holder["server"] = server
                _, holder["port"] = await server.start()
                ready.set()
                await server.serve_forever()

            asyncio.run(amain())

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        assert ready.wait(10), "server failed to start"
        client = ServeClient(port=holder["port"])
        try:
            assert client.submit(five_point_job(b_seed=0))["ok"]
            reply = client._roundtrip(
                {"op": "submit", "job": five_point_job(b_seed=1)})
            assert reply["ok"] is False
            assert reply["overloaded"] is True
            assert "retry" in reply["error"]
        finally:
            try:
                client.shutdown()
            except (ServeClientError, OSError):
                pass
            thread.join(10)


# ---------------------------------------------------------------------------
class TestRecoveryEvents:
    """A DUE mid-solve is repaired transparently and shows in the stream."""

    SED_RESILIENT = {
        "element_scheme": "sed", "rowptr_scheme": "sed", "vector_scheme": None,
        "interval": 2, "correct": False,
        "recovery": {"strategy": "rollback", "max_retries": 64,
                     "checkpoint_interval": 4},
    }

    def test_injected_due_recovers_and_streams_the_event(self, fresh_workers):
        # SED detects but never corrects, so every hit is a DUE; scan
        # seeds until a run both injects and recovers (mirrors the
        # PR 4 Poisson acceptance test).
        for seed in range(20):
            job = five_point_job(
                b_seed=101, grid=10, matrix_seed=1,
                protection=self.SED_RESILIENT, eps=1e-22, max_iters=3000,
                inject={"rate": 2e-6, "seed": seed}, return_x=True,
            )
            records, events, _ = run_service([job])
            record = records[0]
            if record.get("dues", 0) >= 1:
                break
        assert record["dues"] >= 1, "no DUE triggered; rate too low"
        assert record["recovered"] >= 1
        assert record["status"] == "done" and record["converged"]
        names = [e["event"] for e in next(iter(events.values()))]
        assert "recovered" in names and "injected" in names
        matrix = build_matrix(job["matrix"])
        b = np.random.default_rng(101).standard_normal(matrix.n_rows)
        reference = repro.solve(matrix, b, method="cg", eps=1e-22)
        assert np.allclose(record["x"], reference.x, rtol=1e-6, atol=1e-9)

    def test_raise_policy_fails_job_and_invalidates_cache(self, fresh_workers):
        protection = dict(self.SED_RESILIENT, recovery=None)
        for seed in range(20):
            bad = five_point_job(
                b_seed=101, grid=10, matrix_seed=1, protection=protection,
                eps=1e-22, max_iters=3000, inject={"rate": 2e-6, "seed": seed},
            )
            records, events, _ = run_service([bad])
            if records[0]["status"] == "failed":
                break
        assert records[0]["status"] == "failed"
        assert records[0].get("dues", 0) >= 1


# ---------------------------------------------------------------------------
class TestServerRoundTrip:
    """The wire protocol end to end over a real localhost socket."""

    @pytest.fixture
    def live_server(self, fresh_workers):
        holder, ready = {}, threading.Event()

        def runner():
            async def amain():
                server = SolveServer(SolveService(ServeConfig(batch_window=0.01)))
                holder["server"] = server
                _, holder["port"] = await server.start()
                ready.set()
                await server.serve_forever()

            asyncio.run(amain())

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        assert ready.wait(10), "server failed to start"
        yield ServeClient(port=holder["port"])
        try:
            ServeClient(port=holder["port"]).shutdown()
        except (ServeClientError, OSError):
            pass
        thread.join(10)

    def test_submit_stream_result_status(self, live_server):
        response = live_server.submit(five_point_job(b_seed=4))
        events = [e["event"] for e in live_server.stream(response["job_id"])]
        assert events[0] == "accepted" and events[-1] == "done"
        record = live_server.result(response["job_id"])
        assert record["converged"] is True
        status = live_server.status()
        assert status["stats"]["solved"] == 1
        assert status["cache"]["encodes"] == 1

    def test_bad_job_is_rejected_on_the_wire(self, live_server):
        with pytest.raises(ServeClientError):
            live_server.submit({"matrix": {"kind": "warp"}, "b": [1.0]})
        with pytest.raises(ServeClientError):
            live_server.result("job-nonexistent")

    @pytest.mark.parametrize("protection", [
        {"interval": -1},
        {"element_scheme": "hamming7"},
        {"bogus": 1},
        {"interval": "x"},
        {"backend": "nope"},
    ], ids=["negative-interval", "unknown-scheme", "unknown-field",
            "mistyped-interval", "removed-backend-field"])
    def test_bad_protection_spec_is_a_typed_reply(self, live_server, protection):
        """A protection spec the config rejects gets an ``ok: false``
        reply, and the same connection keeps serving."""
        bad = {"op": "submit", "job": five_point_job(protection=protection)}
        good = {"op": "submit", "job": five_point_job(b_seed=9)}
        with socket.create_connection((live_server.host, live_server.port),
                                      timeout=30) as sock:
            stream = sock.makefile("rwb")
            replies = []
            for request in (bad, good):
                stream.write(json.dumps(request).encode() + b"\n")
                stream.flush()
                replies.append(json.loads(stream.readline()))
        assert replies[0]["ok"] is False
        assert "protection" in replies[0]["error"]
        assert replies[1]["ok"] is True and replies[1]["job_id"]

    def test_solve_many_convenience(self, live_server):
        records = live_server.solve_many(
            [five_point_job(b_seed=i) for i in range(3)]
        )
        assert [r["status"] for r in records] == ["done"] * 3


# ---------------------------------------------------------------------------
class TestJournalResumeAcceptance:
    """ISSUE 6 acceptance: kill the server, restart, no duplicate solves."""

    def _assert_solved_once(self, probe_dir, n_jobs):
        marks = {
            os.path.basename(path): sum(1 for _ in open(path))
            for path in glob.glob(str(probe_dir / "*.ran"))
        }
        assert len(marks) == n_jobs, f"expected {n_jobs} solved jobs, got {marks}"
        assert set(marks.values()) == {1}, f"duplicate solves: {marks}"

    def test_restarted_service_adopts_pending_jobs(self, tmp_path, monkeypatch,
                                                   fresh_workers):
        probe_dir = tmp_path / "probe"
        probe_dir.mkdir()
        monkeypatch.setenv(serve_workers.PROBE_ENV, str(probe_dir))
        journal = tmp_path / "journal.jsonl"
        jobs = [normalise_job(five_point_job(b_seed=i)) for i in range(4)]

        # Life 1 admits the jobs but dies before dispatching any of them.
        ledger = JobJournal(journal)
        for job in jobs:
            ledger.record_submitted(job)
        ledger.close()

        async def life2():
            service = SolveService(ServeConfig(journal=str(journal)))
            await service.start()
            adopted = service.stats["adopted"]
            records = [await service.result(j["job_id"]) for j in jobs]
            await service.stop()
            return adopted, records

        adopted, records = asyncio.run(life2())
        assert adopted == 4
        assert all(r["status"] == "done" for r in records)
        self._assert_solved_once(probe_dir, 4)

        # Life 3: everything terminal, nothing adopted, nothing re-run.
        async def life3():
            service = SolveService(ServeConfig(journal=str(journal)))
            await service.start()
            response = await service.submit(five_point_job(b_seed=0))
            record = await service.result(response["job_id"])
            await service.stop()
            return service.stats["adopted"], response, record

        adopted3, response, record = asyncio.run(life3())
        assert adopted3 == 0
        assert response["cached"] is True
        assert record["status"] == "done"
        self._assert_solved_once(probe_dir, 4)

    @pytest.mark.slow
    def test_sigkilled_server_resumes_with_no_duplicate_solves(self, tmp_path):
        probe_dir = tmp_path / "probe"
        probe_dir.mkdir()
        journal = tmp_path / "journal.jsonl"
        env = dict(os.environ, PYTHONPATH=REPO_SRC,
                   **{serve_workers.PROBE_ENV: str(probe_dir)})

        def free_port():
            with socket.socket() as sock:
                sock.bind(("127.0.0.1", 0))
                return sock.getsockname()[1]

        def start_server(port):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "--port", str(port),
                 "--journal", str(journal), "--throttle", "0.15",
                 "--batch-window", "0.05", "--max-batch", "4"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            )
            for _ in range(100):
                try:
                    socket.create_connection(("127.0.0.1", port),
                                             timeout=0.2).close()
                    return proc
                except OSError:
                    time.sleep(0.1)
            proc.kill()
            raise RuntimeError("server never came up")

        port = free_port()
        proc = start_server(port)
        try:
            client = ServeClient(port=port)
            jobs = [five_point_job(b_seed=i) for i in range(8)]
            ids = [client.submit(job)["job_id"] for job in jobs]

            def journalled_done():
                try:
                    return {
                        json.loads(line)["key"]
                        for line in open(journal)
                        if json.loads(line).get("status") == "done"
                    }
                except (FileNotFoundError, json.JSONDecodeError):
                    return set()

            deadline = time.time() + 30
            while len(journalled_done()) < 2 and time.time() < deadline:
                time.sleep(0.1)
            done_before = journalled_done()
            assert 0 < len(done_before) < len(ids), \
                "kill window missed; tune throttle"
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()

        port2 = free_port()
        proc2 = start_server(port2)
        try:
            client2 = ServeClient(port=port2)
            records = [client2.result(job_id) for job_id in ids]
            assert [r["status"] for r in records] == ["done"] * len(ids)
            # A pre-kill job's stream replays from the journal record.
            replay = [e["event"] for e in client2.stream(next(iter(done_before)))]
            assert replay[-1] == "done"
            client2.shutdown()
        finally:
            proc2.wait(timeout=15)
        self._assert_solved_once(probe_dir, len(ids))


# ---------------------------------------------------------------------------
class TestServeCLI:
    def test_serve_subcommand_registered(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(["serve", "--port", "0",
                                          "--journal", "x.jsonl"])
        assert args.port == 0
        assert args.journal == "x.jsonl"
        assert args.workers == 1

    def test_module_parser_defaults(self):
        import argparse

        from repro.serve.__main__ import add_serve_arguments

        parser = argparse.ArgumentParser()
        add_serve_arguments(parser)
        args = parser.parse_args([])
        assert args.port == 8642
        assert args.batch_window == pytest.approx(0.01)
        assert args.throttle == 0.0
