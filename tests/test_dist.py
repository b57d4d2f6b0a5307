"""repro.dist: partitioner, lockstep solve, shard-death recovery, routing.

The acceptance bars (ISSUE 7):

* the deterministic row partitioner survives its edge cases —
  ``n_rows < n_shards``, a single shard, diagonal (empty-halo) matrices —
  and its five-point halo maps are asserted index by index;
* distributed CG across >= 2 shards converges to the single-process
  solution.  One shard is *bitwise* identical to :func:`cg_solve`; more
  shards re-associate the reductions (each shard sums its partial dot
  product locally, the coordinator sums the partials in shard order), so
  multi-shard parity is tolerance-level (~1e-10 on these tiny systems)
  while remaining bitwise *repeatable* for a fixed shard count;
* a mid-solve shard kill under an escalating
  :class:`~repro.recover.policy.RecoveryPolicy` still completes with a
  correct solution, and the non-escalating paths abort with
  :class:`~repro.errors.ShardDeathError`;
* the ``shard-death`` sweep preset's records are bitwise-identical for
  any worker count, and ``repro.serve`` routes large CG jobs to the sharded
  solver without changing job identity or below-threshold behaviour.

The ISSUE 8 bars stack on top:

* killing a worker mid-solve under ``RecoveryPolicy(strategy="erasure")``
  yields a solution matching the in-process reference within
  ``RECOVERY_TOL`` with **zero coordinator checkpoints taken** (asserted
  via the recovery stats);
* the shard-death comparison campaign reports erasure time-to-solution
  <= rollback on the same kill plans, measured in *executed* update
  rounds — the deterministic metric (rollback replays its checkpoint
  window, erasure does not; wall time is spawn-noise dominated here);
* a *hung* (not dead) shard surfaces :class:`ShardDeathError` at
  ``round_timeout``, including during the mandatory finish sweep.

The warm pool: a solve reuses the workers the previous clean solve
parked (``info["distributed"]["spawned"]`` counts the processes a solve
started — reuse is asserted through it, never through timings), every
abnormal end parks nothing, and an interpreter with a parked pool exits
without waiting on it.
"""

import asyncio
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.csr import five_point_operator
from repro.csr.matrix import CSRMatrix
from repro.dist import (
    PartitionPlan,
    distributed_solve,
    encode_partition,
    partition_matrix,
    partition_rows,
)
from repro.dist import exchange
from repro.dist.workers import ShardState, shard_worker_main
from repro.errors import ConfigurationError, Outcome, ShardDeathError
from repro.protect.config import ProtectionConfig
from repro.protect.session import ProtectionSession
from repro.recover.erasure import ErasureCodec, erasure_weights
from repro.recover.policy import RECOVERY_STRATEGIES, RecoveryPolicy
from repro.solvers import cg_solve
from repro.sweeps import get_preset, render_sweep, run_sweep

#: Multi-shard solves re-associate the global reductions, so parity with
#: the single-process solver is at rounding level, not bitwise.  1e-10
#: is generous for the ~1e2-unknown systems used here (observed ~1e-13).
PARITY_TOL = 1e-10

#: Recovery paths replay iterations from a checkpoint, so the iterate
#: that finally meets ``eps`` differs more from the fault-free run; the
#: CLI smoke uses the same 1e-8 bar.
RECOVERY_TOL = 1e-8


def make_system(grid=8, seed=0):
    """The campaign-style randomised five-point system."""
    rng = np.random.default_rng(seed)
    shape = (grid, grid)
    matrix = five_point_operator(
        grid, grid, rng.uniform(0.5, 2.0, shape), rng.uniform(0.5, 2.0, shape), 0.3
    )
    return matrix, rng.standard_normal(matrix.n_rows)


def parked_pool():
    """The pool the last clean solve parked in this process, or None."""
    parked = exchange._idle
    return parked[1] if parked is not None else None


def drop_parked_pool():
    """Shut the parked pool down, so the next solve boots cold."""
    with exchange._idle_lock:
        parked, exchange._idle = exchange._idle, None
    if parked is not None:
        parked[1].shutdown()


@pytest.fixture(autouse=True, scope="module")
def no_parked_pool_outlives_the_module():
    yield
    drop_parked_pool()


def diagonal_matrix(n=7):
    values = 2.0 + np.arange(n, dtype=np.float64)
    return CSRMatrix(
        values,
        np.arange(n, dtype=np.uint32),
        np.arange(n + 1, dtype=np.uint32),
        (n, n),
    )


# ---------------------------------------------------------------------------
class TestPartitionRows:
    def test_balanced_ranges_cover_all_rows(self):
        ranges = partition_rows(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_exact_division(self):
        assert partition_rows(8, 2) == [(0, 4), (4, 8)]

    def test_more_shards_than_rows_clamps(self):
        ranges = partition_rows(3, 8)
        assert ranges == [(0, 1), (1, 2), (2, 3)]

    def test_single_shard(self):
        assert partition_rows(5, 1) == [(0, 5)]

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(ConfigurationError):
            partition_rows(0, 2)
        with pytest.raises(ConfigurationError):
            partition_rows(4, 0)


class TestPartitionMatrix:
    def test_rejects_non_square(self):
        matrix = CSRMatrix(
            np.ones(2), np.array([0, 1], dtype=np.uint32),
            np.array([0, 1, 2], dtype=np.uint32), (2, 3),
        )
        with pytest.raises(ConfigurationError):
            partition_matrix(matrix, 2)

    def test_diagonal_matrix_has_empty_halos(self):
        plan = partition_matrix(diagonal_matrix(7), 3)
        assert plan.n_shards == 3
        for shard, block in enumerate(plan.blocks):
            assert block.n_halo == 0
            assert block.boundary_idx.size == 0
            assert plan.halo_src_shard[shard].size == 0

    def test_clamps_to_one_row_per_shard(self):
        plan = partition_matrix(diagonal_matrix(3), 8)
        assert plan.n_shards == 3
        assert all(b.n_local == 1 for b in plan.blocks)

    def test_single_shard_has_no_halo(self):
        matrix, _ = make_system(grid=4)
        plan = partition_matrix(matrix, 1)
        assert plan.n_shards == 1
        assert plan.blocks[0].n_halo == 0
        assert plan.blocks[0].matrix.shape == matrix.shape

    def test_five_point_halo_maps(self):
        # grid 4: rows [0,8) / [8,16); the stencil couples row i to i+-4,
        # so each shard's halo is exactly the first stencil-row across
        # the cut, and the owner publishes exactly its cut-facing rows.
        matrix, _ = make_system(grid=4)
        plan = partition_matrix(matrix, 2)
        assert plan.row_ranges == ((0, 8), (8, 16))
        np.testing.assert_array_equal(plan.blocks[0].halo_cols, [8, 9, 10, 11])
        np.testing.assert_array_equal(plan.blocks[1].halo_cols, [4, 5, 6, 7])
        np.testing.assert_array_equal(plan.blocks[0].boundary_idx, [4, 5, 6, 7])
        np.testing.assert_array_equal(plan.blocks[1].boundary_idx, [0, 1, 2, 3])
        np.testing.assert_array_equal(plan.halo_src_shard[0], [1, 1, 1, 1])
        np.testing.assert_array_equal(plan.halo_src_pos[0], [0, 1, 2, 3])

    def test_owner_of_matches_row_ranges(self):
        plan = partition_matrix(make_system(grid=4)[0], 3)
        owners = plan.owner_of(np.arange(plan.n_rows))
        for shard, (lo, hi) in enumerate(plan.row_ranges):
            assert set(owners[lo:hi]) == {shard}

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_local_spmv_is_bitwise_global_spmv(self, n_shards):
        # Column remap preserves within-row nonzero order, so each local
        # matvec accumulates in exactly the global order: bitwise parity.
        matrix, _ = make_system(grid=5, seed=2)
        plan = partition_matrix(matrix, n_shards)
        x = np.random.default_rng(9).standard_normal(matrix.n_rows)
        expected = matrix.matvec(x)
        boundaries = [x[lo:hi][b.boundary_idx]
                      for (lo, hi), b in zip(plan.row_ranges, plan.blocks)]
        for shard, block in enumerate(plan.blocks):
            halo = plan.halo_for(shard, boundaries)
            np.testing.assert_array_equal(halo, x[block.halo_cols])
            local = block.matrix.matvec(
                np.concatenate([plan.slice_vector(x, shard), halo])
            )
            lo, hi = plan.row_ranges[shard]
            np.testing.assert_array_equal(local, expected[lo:hi])

    def test_slice_assemble_roundtrip(self):
        plan = partition_matrix(make_system(grid=4)[0], 3)
        x = np.arange(plan.n_rows, dtype=np.float64)
        slices = [plan.slice_vector(x, s) for s in range(plan.n_shards)]
        np.testing.assert_array_equal(plan.assemble(slices), x)

    def test_plan_is_deterministic(self):
        matrix, _ = make_system(grid=4)
        a, b = partition_matrix(matrix, 3), partition_matrix(matrix, 3)
        assert isinstance(a, PartitionPlan)
        assert a.row_ranges == b.row_ranges
        for ba, bb in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(ba.matrix.values, bb.matrix.values)
            np.testing.assert_array_equal(ba.halo_cols, bb.halo_cols)
            np.testing.assert_array_equal(ba.boundary_idx, bb.boundary_idx)


# ---------------------------------------------------------------------------
class TestShardState:
    """The worker runtime driven in-process (no child processes)."""

    def payload(self, protection=None, grid=4):
        matrix, b = make_system(grid=grid)
        plan = partition_matrix(matrix, 1)
        return matrix, b, {
            "index": 0, "matrix": plan.blocks[0].matrix, "b": b,
            "boundary_idx": plan.blocks[0].boundary_idx,
            "protection": protection,
        }

    def test_residual_round_initialises_r_and_p(self):
        _matrix, b, payload = self.payload()
        state = ShardState(payload)
        reply = state.execute({"cmd": "residual", "halo": np.empty(0)})
        assert reply["status"] == "ok" if "status" in reply else True
        assert reply["rr"] == pytest.approx(float(np.dot(b, b)))
        np.testing.assert_array_equal(state.ctx.read(state.r), b)
        np.testing.assert_array_equal(state.ctx.read(state.p), b)

    def test_matrix_only_protection_rebinds_unprotected_vectors(self):
        # Regression: with vector_scheme=None the toolkit's write returns
        # a fresh array instead of mutating in place; a handler that
        # fails to rebind leaves r = p = 0 and CG "converges" at once.
        _matrix, b, payload = self.payload(
            protection=ProtectionConfig.matrix_only()
        )
        state = ShardState(payload)
        state.execute({"cmd": "residual", "halo": np.empty(0)})
        np.testing.assert_array_equal(state.ctx.read(state.r), b)
        reply = state.execute({"cmd": "spmv", "halo": np.empty(0)})
        assert reply["pw"] > 0.0

    def test_update_and_pbound_recurrences(self):
        matrix, b, payload = self.payload()
        state = ShardState(payload)
        rr = state.execute({"cmd": "residual", "halo": np.empty(0)})["rr"]
        pw = state.execute({"cmd": "spmv", "halo": np.empty(0)})["pw"]
        alpha = rr / pw
        rr_new = state.execute({"cmd": "update", "alpha": alpha, "it": 1})["rr"]
        assert 0.0 < rr_new < rr
        np.testing.assert_allclose(
            state.ctx.read(state.x), alpha * b, rtol=0, atol=0
        )
        beta = rr_new / rr
        pb = state.execute({"cmd": "pbound", "beta": beta})["pb"]
        expected_p = state.ctx.read(state.r) + beta * b
        np.testing.assert_array_equal(state.ctx.read(state.p), expected_p)
        np.testing.assert_array_equal(pb, expected_p[state.boundary_idx])

    def test_finish_reports_shard_info(self):
        _matrix, _b, payload = self.payload(
            protection=ProtectionConfig.resilient()
        )
        state = ShardState(payload)
        state.execute({"cmd": "residual", "halo": np.empty(0)})
        reply = state.execute({"cmd": "finish"})
        assert reply["x"].shape == state.b.shape
        assert "checks" in reply["info"] or reply["info"]

    def test_unknown_command_raises(self):
        _matrix, _b, payload = self.payload()
        with pytest.raises(ValueError):
            ShardState(payload).execute({"cmd": "bogus"})

    def test_worker_serves_successive_shards_until_shutdown(self):
        # The worker loop over a pipe, in a thread: boot, release, boot a
        # different shard, shutdown.  Each boot answers from its own b.
        _matrix, b, first = self.payload(grid=4)
        _matrix, b2, second = self.payload(grid=5)
        ours, theirs = multiprocessing.Pipe()
        worker = threading.Thread(target=shard_worker_main, args=(theirs,))
        worker.start()
        rrs = []
        for payload in (first, second):
            ours.send({"cmd": "boot", "payload": payload})
            ours.send({"cmd": "residual", "halo": np.empty(0)})
            rrs.append(ours.recv()["rr"])
            ours.send({"cmd": "release"})
        ours.send({"cmd": "shutdown"})
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert rrs == [pytest.approx(float(np.dot(v, v))) for v in (b, b2)]


# ---------------------------------------------------------------------------
class TestDistributedSolve:
    def test_single_shard_is_bitwise_cg_solve(self):
        matrix, b = make_system(grid=6)
        reference = cg_solve(matrix, b, eps=1e-18)
        result = distributed_solve(matrix, b, n_shards=1, eps=1e-18)
        assert result.converged
        assert result.iterations == reference.iterations
        np.testing.assert_array_equal(result.x, reference.x)

    def test_two_shards_match_single_process(self):
        matrix, b = make_system(grid=6)
        reference = cg_solve(matrix, b, eps=1e-18)
        result = distributed_solve(matrix, b, n_shards=2, eps=1e-18)
        assert result.converged
        assert np.max(np.abs(result.x - reference.x)) < PARITY_TOL
        stats = result.info["distributed"]
        assert stats["n_shards"] == 2
        assert stats["deaths"] == 0 and stats["respawns"] == 0
        assert len(result.info["shards"]) == 2

    def test_three_shards_protected_parity_and_repeatability(self):
        matrix, b = make_system(grid=6)
        reference = cg_solve(matrix, b, eps=1e-18)
        config = ProtectionConfig.resilient()
        first = distributed_solve(
            matrix, b, n_shards=3, protection=config, eps=1e-18
        )
        again = distributed_solve(
            matrix, b, n_shards=3, protection=config, eps=1e-18
        )
        assert first.converged
        assert np.max(np.abs(first.x - reference.x)) < PARITY_TOL
        # Fixed shard count => fixed reduction order => bitwise repeat.
        np.testing.assert_array_equal(first.x, again.x)
        assert first.iterations == again.iterations

    def test_rejects_non_cg_methods(self):
        matrix, b = make_system(grid=4)
        with pytest.raises(ConfigurationError):
            distributed_solve(matrix, b, method="jacobi")

    def test_rejects_sessions(self):
        matrix, b = make_system(grid=4)
        with pytest.raises(ConfigurationError):
            distributed_solve(
                matrix, b, protection=ProtectionSession(ProtectionConfig.deferred())
            )

    def test_rejects_mismatched_rhs(self):
        matrix, _ = make_system(grid=4)
        with pytest.raises(ConfigurationError):
            distributed_solve(matrix, np.ones(3))


class TestShardDeathRecovery:
    def solve_with_kill(self, strategy, kill_iter=4, max_retries=3):
        matrix, b = make_system(grid=6)
        protection = ProtectionConfig(
            correct=False,
            recovery=RecoveryPolicy(
                strategy=strategy, max_retries=max_retries,
                checkpoint_interval=4,
            ),
        )
        result = distributed_solve(
            matrix, b, n_shards=2, protection=protection, eps=1e-18,
            kill_plan=[(kill_iter, 1)],
        )
        reference = cg_solve(matrix, b, eps=1e-18)
        return result, reference

    @pytest.mark.parametrize("strategy", ["rollback", "repopulate"])
    def test_kill_recovers_to_correct_solution(self, strategy):
        result, reference = self.solve_with_kill(strategy)
        assert result.converged
        assert np.max(np.abs(result.x - reference.x)) < RECOVERY_TOL
        stats = result.info["distributed"]
        assert stats["deaths"] == 1
        assert stats["respawns"] >= 1
        assert stats["recovery"] == result.info["distributed"]["recovery"]

    def test_raise_policy_aborts_with_shard_identity(self):
        with pytest.raises(ShardDeathError) as err:
            self.solve_with_kill("raise")
        assert err.value.shards == (1,)
        assert err.value.iteration == 4

    def test_unprotected_kill_aborts(self):
        matrix, b = make_system(grid=6)
        with pytest.raises(ShardDeathError):
            distributed_solve(
                matrix, b, n_shards=2, eps=1e-18, kill_plan=[(3, 0)],
            )

    def test_exhausted_retry_budget_aborts(self):
        with pytest.raises(ShardDeathError):
            self.solve_with_kill("rollback", max_retries=0)

    def test_cli_smoke_kill_and_verify(self, capsys):
        # The exact command CI runs: kill shard 1 mid-solve, respawn
        # under rollback, assert the merged solution matches reference.
        from repro.dist.__main__ import main

        rc = main(["--grid", "6", "--shards", "2", "--kill-iter", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out and "1 death(s)" in out


# ---------------------------------------------------------------------------
class TestErasureCodec:
    """The arithmetic core: Vandermonde checksums and reconstruction."""

    def test_weights_row_zero_is_plain_sum(self):
        weights = erasure_weights(4, 2)
        np.testing.assert_array_equal(weights[0], np.ones(4))
        np.testing.assert_array_equal(weights[1], [1.0, 2.0, 3.0, 4.0])

    def test_single_loss_roundtrip_uneven_sizes(self):
        codec = ErasureCodec([4, 3, 2], k=1)
        rng = np.random.default_rng(0)
        slices = [rng.standard_normal(n) for n in codec.sizes]
        checks = {0: codec.encode(slices, 0)}
        for dead in range(3):
            survivors = {s: slices[s] for s in range(3) if s != dead}
            out = codec.reconstruct([dead], survivors, checks)
            np.testing.assert_allclose(out[dead], slices[dead],
                                       rtol=0, atol=1e-12)
            assert out[dead].shape == (codec.sizes[dead],)

    def test_double_loss_recovered_from_two_checksums(self):
        codec = ErasureCodec([3, 3, 3, 2], k=2)
        rng = np.random.default_rng(1)
        slices = [rng.standard_normal(n) for n in codec.sizes]
        checks = {j: codec.encode(slices, j) for j in range(2)}
        out = codec.reconstruct([1, 3], {0: slices[0], 2: slices[2]}, checks)
        np.testing.assert_allclose(out[1], slices[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(out[3], slices[3], rtol=0, atol=1e-12)

    def test_insufficient_checksums_rejected(self):
        codec = ErasureCodec([2, 2, 2], k=1)
        slices = [np.ones(2)] * 3
        with pytest.raises(ConfigurationError):
            codec.reconstruct([0, 1], {2: slices[2]},
                              {0: codec.encode(slices, 0)})

    def test_wrong_survivor_set_rejected(self):
        codec = ErasureCodec([2, 2], k=1)
        with pytest.raises(ConfigurationError):
            codec.reconstruct([0], {}, {0: np.zeros(2)})

    def test_non_finite_reconstruction_raises_arithmetic(self):
        codec = ErasureCodec([2, 2], k=1)
        with pytest.raises(ArithmeticError):
            codec.reconstruct([0], {1: np.array([np.inf, 0.0])},
                              {0: np.zeros(2)})


class TestEncodePartition:
    """The encoded layout: data plan untouched, checksum blocks exact."""

    def test_data_blocks_match_plain_partition(self):
        matrix, _ = make_system(grid=5, seed=2)
        plain = partition_matrix(matrix, 3)
        eplan = encode_partition(matrix, 3, k=2)
        assert eplan.k == 2 and eplan.n_data == 3
        assert eplan.stripe == max(b.n_local for b in plain.blocks)
        assert eplan.plan.row_ranges == plain.row_ranges
        for encoded, reference in zip(eplan.plan.blocks, plain.blocks):
            np.testing.assert_array_equal(encoded.matrix.values,
                                          reference.matrix.values)
            np.testing.assert_array_equal(encoded.halo_cols,
                                          reference.halo_cols)
            # Boundary publications may widen to cover the checksum
            # shards' reads, but never shrink.
            assert set(reference.boundary_idx) <= set(encoded.boundary_idx)

    def test_encoded_matvec_is_checksum_of_shard_matvecs(self):
        # The invariant the lockstep recurrence relies on: the encoded
        # block applied to the checksum shard's halo equals the weighted
        # sum of the data shards' local matvecs.
        matrix, _ = make_system(grid=5, seed=2)
        eplan = encode_partition(matrix, 3, k=2)
        codec = eplan.codec()
        x = np.random.default_rng(4).standard_normal(matrix.n_rows)
        y = matrix.matvec(x)
        y_slices = [y[lo:hi] for lo, hi in eplan.plan.row_ranges]
        for block in eplan.blocks:
            out = block.matrix.matvec(x[block.halo_cols])
            np.testing.assert_allclose(
                out, codec.encode(y_slices, block.index),
                rtol=1e-12, atol=1e-12,
            )

    def test_erasure_halo_assembles_from_boundaries(self):
        matrix, _ = make_system(grid=4)
        eplan = encode_partition(matrix, 2, k=1)
        x = np.arange(matrix.n_rows, dtype=np.float64)
        boundaries = [
            x[lo:hi][block.boundary_idx]
            for (lo, hi), block in zip(eplan.plan.row_ranges,
                                       eplan.plan.blocks)
        ]
        halo = eplan.halo_for(0, boundaries)
        np.testing.assert_array_equal(halo, x[eplan.blocks[0].halo_cols])


class TestErasurePolicy:
    def test_strategy_registered_and_escalates(self):
        assert "erasure" in RECOVERY_STRATEGIES
        policy = RecoveryPolicy(strategy="erasure", erasure_shards=2)
        assert policy.escalates
        assert policy.erasure_shards == 2

    def test_erasure_shard_count_validated(self):
        with pytest.raises(ConfigurationError):
            RecoveryPolicy(strategy="erasure", erasure_shards=0)


class TestErasureRecovery:
    """ISSUE 8 tentpole acceptance: checkpoint-free shard-death recovery."""

    def solve_with_kill(self, kill_plan, *, n_shards=2, erasure_shards=1,
                        max_retries=3, grid=6):
        matrix, b = make_system(grid=grid)
        protection = ProtectionConfig(
            correct=False,
            recovery=RecoveryPolicy(strategy="erasure",
                                    max_retries=max_retries,
                                    erasure_shards=erasure_shards),
        )
        result = distributed_solve(
            matrix, b, n_shards=n_shards, protection=protection, eps=1e-18,
            kill_plan=kill_plan,
        )
        return result, cg_solve(matrix, b, eps=1e-18)

    def test_data_shard_kill_is_checkpoint_free(self):
        result, reference = self.solve_with_kill([(4, 1)])
        assert result.converged
        assert np.max(np.abs(result.x - reference.x)) < RECOVERY_TOL
        stats = result.info["distributed"]
        assert stats["recovery"] == "erasure"
        assert stats["deaths"] == 1 and stats["respawns"] >= 1
        assert stats["checkpoints"] == 0  # the mode's defining property
        assert stats["reconstructions"] == 1
        assert stats["fallback_restarts"] == 0
        # No checkpoint window to replay: every executed update round
        # advanced the recurrence.
        assert stats["iters_executed"] == result.iterations

    def test_erasure_shard_kill_needs_no_reconstruction(self):
        # Pool index n_shards is the checksum shard: losing it loses
        # redundancy, not solver state, so it is re-encoded in place.
        result, reference = self.solve_with_kill([(3, 2)])
        assert result.converged
        assert np.max(np.abs(result.x - reference.x)) < RECOVERY_TOL
        stats = result.info["distributed"]
        assert stats["deaths"] == 1
        assert stats["reconstructions"] == 0
        assert stats["checkpoints"] == 0

    def test_sequential_kills_reconstruct_each_time(self):
        result, reference = self.solve_with_kill([(3, 0), (7, 1)])
        assert result.converged
        assert np.max(np.abs(result.x - reference.x)) < RECOVERY_TOL
        stats = result.info["distributed"]
        assert stats["deaths"] == 2
        assert stats["reconstructions"] == 2
        assert stats["checkpoints"] == 0

    def test_simultaneous_double_kill_needs_two_checksums(self):
        result, reference = self.solve_with_kill(
            [(4, 0), (4, 2)], n_shards=3, erasure_shards=2,
        )
        assert result.converged
        assert np.max(np.abs(result.x - reference.x)) < RECOVERY_TOL
        stats = result.info["distributed"]
        assert stats["erasure_shards"] == 2
        assert stats["reconstructions"] == 2
        assert stats["checkpoints"] == 0

    def test_double_kill_exceeds_single_checksum(self):
        with pytest.raises(ShardDeathError):
            self.solve_with_kill([(4, 0), (4, 2)], n_shards=3,
                                 erasure_shards=1)

    def test_exhausted_retry_budget_aborts(self):
        with pytest.raises(ShardDeathError):
            self.solve_with_kill([(4, 1)], max_retries=0)

    def test_rollback_checkpoints_where_erasure_does_not(self):
        erasure, _ = self.solve_with_kill([(4, 1)])
        matrix, b = make_system(grid=6)
        # Kill off the checkpoint cadence so rollback has rounds to
        # replay (a kill landing exactly on a checkpoint replays none).
        rollback = distributed_solve(
            matrix, b, n_shards=2, eps=1e-18, kill_plan=[(6, 1)],
            protection=ProtectionConfig(
                correct=False,
                recovery=RecoveryPolicy(strategy="rollback", max_retries=3,
                                        checkpoint_interval=4),
            ),
        )
        assert rollback.info["distributed"]["checkpoints"] > 0
        assert erasure.info["distributed"]["checkpoints"] == 0
        # Rollback replays its checkpoint window; erasure never replays.
        assert (rollback.info["distributed"]["iters_executed"]
                > rollback.iterations)
        assert (erasure.info["distributed"]["iters_executed"]
                == erasure.iterations)

    def test_cli_smoke_erasure_kill_and_verify(self, capsys):
        # The exact command CI runs for the erasure smoke.
        from repro.dist.__main__ import main

        rc = main(["--grid", "6", "--shards", "2", "--kill-iter", "3",
                   "--recovery", "erasure", "--round-timeout", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out
        assert "+ 1 erasure" in out
        assert "0 checkpoint(s)" in out
        assert "1 reconstruction(s)" in out


class TestShardHangTimeout:
    """ISSUE 8 satellite: a hung (not dead) shard dies at round_timeout.

    The hang injector parks the worker for ~10 minutes without exiting,
    so only the pool's timeout-expiry detection can surface the death —
    the elapsed-time bounds assert it was the timeout, not the hang
    draining.
    """

    def test_hung_shard_surfaces_death_at_round_timeout(self):
        matrix, b = make_system(grid=6)
        start = time.monotonic()
        with pytest.raises(ShardDeathError) as err:
            distributed_solve(matrix, b, n_shards=2, eps=1e-18,
                              hang_plan=[(2, 1)], round_timeout=1.0)
        assert err.value.shards == (1,)
        assert time.monotonic() - start < 30.0

    def test_hang_during_finish_sweep_is_detected(self):
        matrix, b = make_system(grid=6)
        start = time.monotonic()
        with pytest.raises(ShardDeathError) as err:
            distributed_solve(matrix, b, n_shards=2, eps=1e-18,
                              hang_plan=[(-1, 0)], round_timeout=1.0)
        assert err.value.shards == (0,)
        assert time.monotonic() - start < 30.0

    def test_erasure_heals_through_a_hang(self):
        matrix, b = make_system(grid=6)
        protection = ProtectionConfig(
            correct=False,
            recovery=RecoveryPolicy(strategy="erasure", max_retries=3),
        )
        start = time.monotonic()
        result = distributed_solve(
            matrix, b, n_shards=2, protection=protection, eps=1e-18,
            hang_plan=[(3, 1)], round_timeout=2.0,
        )
        reference = cg_solve(matrix, b, eps=1e-18)
        assert result.converged
        assert np.max(np.abs(result.x - reference.x)) < RECOVERY_TOL
        stats = result.info["distributed"]
        assert stats["deaths"] == 1 and stats["checkpoints"] == 0
        assert time.monotonic() - start < 60.0


def shard_death_spec():
    """The shard-death preset at smoke size: rollback and erasure cells."""
    return get_preset("shard-death", grid=6, trials=2, max_retries=5,
                      max_iters=500)


@pytest.fixture(scope="module")
def shard_death_sweep():
    return run_sweep(shard_death_spec(), workers=1)


class TestRecoveryComparison:
    """ISSUE 8 acceptance: erasure time-to-solution <= rollback.

    Measured in *executed* update rounds on identical kill plans —
    deterministic, unlike wall time, which is spawn-noise dominated at
    smoke scale (docs/distributed.md documents the metric choice).
    """

    def test_erasure_never_slower_than_rollback_on_same_kill_plans(
            self, shard_death_sweep):
        by_recovery = {record["cell"]["recovery"]: record["result"]["info"]
                       for record in shard_death_sweep.records}
        rollback, erasure = by_recovery["rollback"], by_recovery["erasure"]
        # The recovery axis is paired => identical kill plans.
        assert rollback["injected"] == erasure["injected"]
        assert erasure["checkpoints"] == 0
        assert rollback["checkpoints"] > 0
        assert erasure["iters_executed"] <= rollback["iters_executed"]
        table = render_sweep(shard_death_spec(), shard_death_sweep.records)
        assert "rollback" in table and "erasure" in table
        assert "exec=" in table and "ckpt=0" in table


# ---------------------------------------------------------------------------
class TestRegistryRouting:
    def test_solve_distributed_keyword(self):
        matrix, b = make_system(grid=5)
        reference = cg_solve(matrix, b, eps=1e-18)
        result = repro.solve(matrix, b, method="cg", distributed=2, eps=1e-18)
        assert result.converged
        assert np.max(np.abs(result.x - reference.x)) < PARITY_TOL
        assert result.info["distributed"]["n_shards"] == 2

    def test_repeat_runs_are_bitwise_equal(self):
        # Replies are collected as they arrive but reduced in shard
        # order: arrival order must never reach x or the residual trace.
        matrix, b = make_system(grid=8)
        config = ProtectionConfig.deferred()
        first = repro.solve(matrix, b, distributed=2, protection=config,
                            eps=1e-18)
        again = repro.solve(matrix, b, distributed=2, protection=config,
                            eps=1e-18)
        assert first.converged
        np.testing.assert_array_equal(first.x, again.x)
        assert first.residual_norms == again.residual_norms
        stats = first.info["distributed"]
        assert stats["rounds"] == again.info["distributed"]["rounds"]
        # xstart + residual + finish, three rounds per iteration, minus
        # the pbound the converging iteration skips.
        assert stats["rounds"] == 3 * first.iterations + 2
        assert 0.0 < stats["boot_s"] and 0.0 < stats["wait_s"]

    def test_session_plus_distributed_is_rejected(self):
        matrix, b = make_system(grid=4)
        session = ProtectionSession(ProtectionConfig.deferred())
        with pytest.raises(ConfigurationError):
            repro.solve(matrix, b, protection=session, distributed=2)

    def test_non_cg_distributed_is_rejected(self):
        matrix, b = make_system(grid=4)
        with pytest.raises(ConfigurationError):
            repro.solve(matrix, b, method="jacobi", distributed=2)


# ---------------------------------------------------------------------------
#: Two distributed solves, then the pids of this interpreter's live spawn
#: children read from /proc — the parked pool's workers.
TWO_SOLVES = """
import json, os, sys
import numpy as np
from repro.csr import five_point_operator
from repro.dist import distributed_solve

def shard_pids():
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = open(f"/proc/{pid}/stat").read().rsplit(")", 1)[1].split()
            cmdline = open(f"/proc/{pid}/cmdline", "rb").read()
        except OSError:
            continue
        if int(stat[1]) == os.getpid() and b"spawn_main" in cmdline:
            pids.append(int(pid))
    return pids

if __name__ == "__main__":
    rng = np.random.default_rng(0)
    ones = np.ones((6, 6))
    matrix = five_point_operator(6, 6, ones, ones, 0.3)
    b = rng.standard_normal(matrix.n_rows)
    spawned = [distributed_solve(matrix, b, n_shards=2).info["distributed"]
               ["spawned"] for _ in range(2)]
    print(json.dumps([spawned, shard_pids()]))
"""


class TestWarmPool:
    """Back-to-back solves reuse the parked workers; abnormal ends park none."""

    @pytest.fixture(autouse=True)
    def cold(self):
        drop_parked_pool()

    def solve(self, matrix, b, **kwargs):
        return distributed_solve(matrix, b, n_shards=2, eps=1e-18, **kwargs)

    def test_second_solve_spawns_nothing_and_repeats_bitwise(self):
        matrix, b = make_system(grid=6)
        first = self.solve(matrix, b)
        second = self.solve(matrix, b)
        assert first.info["distributed"]["spawned"] == 2
        assert second.info["distributed"]["spawned"] == 0
        np.testing.assert_array_equal(first.x, second.x)
        # The ledger is this solve's own, not the pool's lifetime total.
        assert (second.info["distributed"]["rounds"]
                == first.info["distributed"]["rounds"])

    def test_mixed_configs_on_a_warm_pool_match_cold_solves(self):
        matrix, b = make_system(grid=8)
        config = ProtectionConfig.deferred()
        sequence = (config, None, config)
        cold = []
        for protection in sequence:
            drop_parked_pool()
            cold.append(self.solve(matrix, b, protection=protection))
        drop_parked_pool()
        warm = [self.solve(matrix, b, protection=p) for p in sequence]
        assert [r.info["distributed"]["spawned"] for r in warm] == [2, 0, 0]
        for c, w in zip(cold, warm):
            assert w.info["shards"] == c.info["shards"]
            np.testing.assert_array_equal(w.x, c.x)

    def test_pool_resizes_with_the_shard_count(self):
        matrix, b = make_system(grid=6)
        erasure = ProtectionConfig(
            correct=False,
            recovery=RecoveryPolicy(strategy="erasure", erasure_shards=1),
        )
        plain = self.solve(matrix, b)
        encoded = self.solve(matrix, b, protection=erasure)
        surplus = parked_pool().links[2].process.pid
        shrunk = self.solve(matrix, b)
        # The checksum shard is the one new worker; shrinking stops it.
        assert [r.info["distributed"]["spawned"]
                for r in (plain, encoded, shrunk)] == [2, 1, 0]
        assert encoded.info["distributed"]["erasure_shards"] == 1
        with pytest.raises(ProcessLookupError):  # stopped and reaped
            os.kill(surplus, 0)
        reference = cg_solve(matrix, b, eps=1e-18)
        for result in (plain, encoded, shrunk):
            assert np.max(np.abs(result.x - reference.x)) < PARITY_TOL

    def test_idle_worker_killed_between_solves_is_replaced(self):
        matrix, b = make_system(grid=6)
        first = self.solve(matrix, b)
        parked_pool().links[0].terminate()
        second = self.solve(matrix, b)
        assert second.info["distributed"]["spawned"] == 1
        np.testing.assert_array_equal(first.x, second.x)

    @pytest.mark.parametrize("end", ["kill", "hang", "bad_payload"])
    def test_abnormal_end_parks_no_pool(self, end):
        matrix, b = make_system(grid=6)
        self.solve(matrix, b)
        assert parked_pool() is not None
        if end == "kill":
            # Recovered, so the solve returns — but its pool lost a shard.
            result = self.solve(matrix, b, kill_plan=[(3, 1)], protection=(
                ProtectionConfig(correct=False, recovery=RecoveryPolicy(
                    strategy="rollback", checkpoint_interval=4))))
            assert result.converged
            assert result.info["distributed"]["deaths"] == 1
        elif end == "hang":
            with pytest.raises(ShardDeathError):
                self.solve(matrix, b, hang_plan=[(2, 1)], round_timeout=1.0)
        else:
            # Pickles fine, but no shard can be built from it.
            bogus = SimpleNamespace(enabled=True, recovery=None)
            with pytest.raises(RuntimeError, match="start-up failed"):
                self.solve(matrix, b, protection=bogus)
        assert parked_pool() is None
        assert self.solve(matrix, b).info["distributed"]["spawned"] == 2

    def test_concurrent_solves_converge_and_park_one_pool(self):
        matrix, b = make_system(grid=6)
        reference = cg_solve(matrix, b, eps=1e-18)
        self.solve(matrix, b)  # one thread takes it, the other boots cold
        results = [None, None]

        def run(slot):
            results[slot] = self.solve(matrix, b)

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        for result in results:
            assert result is not None and result.converged
            assert np.max(np.abs(result.x - reference.x)) < PARITY_TOL
        np.testing.assert_array_equal(results[0].x, results[1].x)
        shards = [child for child in multiprocessing.active_children()
                  if child.name.startswith("repro-dist-shard")]
        assert len(shards) == 2  # the parked pool's; the other was shut down

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_interpreter_exit_leaves_no_shard(self, tmp_path):
        script = tmp_path / "two_solves.py"
        script.write_text(TWO_SOLVES)
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=30,
        )
        assert done.returncode == 0, done.stderr
        spawned, pids = json.loads(done.stdout.splitlines()[-1])
        assert spawned == [2, 0]
        assert len(pids) == 2
        assert [pid for pid in pids if os.path.exists(f"/proc/{pid}")] == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    @pytest.mark.parametrize("preset", [None, "3"])
    def test_workers_start_with_single_threaded_pools(self, monkeypatch, preset):
        """Each worker's thread pools are pinned to 1 unless the caller
        sized them, and the parent's environment is left as it was."""
        pinned = exchange._PINNED_THREADS
        for name in pinned:
            if preset is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, preset)
        before = dict(os.environ)
        matrix, b = make_system(grid=6)
        assert self.solve(matrix, b).info["distributed"]["spawned"] == 2
        assert dict(os.environ) == before
        try:
            links = parked_pool().links
            assert len(links) == 2
            for link in links:
                assert link.alive()
                with open(f"/proc/{link.process.pid}/environ", "rb") as f:
                    entries = f.read().split(b"\0")
                env = dict(e.decode().split("=", 1) for e in entries if b"=" in e)
                for name in pinned:
                    assert env[name] == (preset or "1"), name
        finally:
            drop_parked_pool()


# ---------------------------------------------------------------------------
class TestShardDeathCampaign:
    def test_records_are_bitwise_identical_across_worker_counts(
            self, shard_death_sweep):
        # workers=2 runs each cell's distributed solves -- shard worker
        # processes included -- inside a spawn-pool worker.
        pooled = run_sweep(shard_death_spec(), workers=2)
        assert shard_death_sweep.records == pooled.records
        for record in pooled.records:
            result = record["result"]
            assert result["n_trials"] == 2
            # Process loss is never silent: every outcome is CLEAN/DETECTED.
            assert set(result["counts"]) <= {Outcome.CLEAN.value,
                                             Outcome.DETECTED.value}
            assert result["info"]["injected"] >= result["info"]["recovered"]

    def test_non_positive_trials_rejected(self):
        from repro.sweeps.runners import campaign_cell

        with pytest.raises(ConfigurationError):
            campaign_cell(kind="shard-death", trials=0)


# ---------------------------------------------------------------------------
class TestServeRouting:
    def run_service(self, jobs, **config):
        from repro.serve.service import ServeConfig, SolveService

        async def main():
            service = SolveService(ServeConfig(**config))
            await service.start()
            submits = [await service.submit(job) for job in jobs]
            records = [await service.result(s["job_id"]) for s in submits]
            events = {
                s["job_id"]: [e["event"] for e in service._events[s["job_id"]]]
                for s in submits
            }
            await service.stop()
            return records, events

        return asyncio.run(main())

    def grid_job(self, **extra):
        job = {
            "matrix": {"kind": "five-point", "grid": 8, "seed": 3},
            "b": {"seed": 1}, "method": "cg", "eps": 1e-12,
            "protection": None, "return_x": True,
        }
        job.update(extra)
        return job

    @pytest.fixture
    def fresh_workers(self, monkeypatch):
        from repro.serve import workers as serve_workers
        from repro.serve.cache import MatrixCache, SessionPool

        monkeypatch.setattr(serve_workers, "CACHE", MatrixCache())
        monkeypatch.setattr(serve_workers, "SESSIONS", SessionPool())
        return serve_workers

    def test_routing_never_changes_job_identity(self):
        from repro.serve.service import job_identity

        # Identity is a pure function of the spec; the dist knobs live
        # in ServeConfig, so the same spec must hash identically no
        # matter how the serving process is configured.
        assert job_identity(self.grid_job()) == job_identity(self.grid_job())

    def test_large_cg_jobs_route_to_the_sharded_solver(self, fresh_workers):
        records, events = self.run_service(
            [self.grid_job()], dist_shards=2, dist_threshold=10,
        )
        record = records[0]
        assert record["status"] == "done" and record["converged"]
        assert events[record["job_id"]] == [
            "accepted", "started", "distributed", "done",
        ]
        dist_events = [e for e in record["events"]
                       if e["event"] == "distributed"]
        assert dist_events[0]["n_shards"] == 2
        assert dist_events[0]["deaths"] == 0

    def test_below_threshold_jobs_are_untouched(self, fresh_workers):
        routed, _ = self.run_service(
            [self.grid_job()], dist_shards=2, dist_threshold=10,
        )
        plain, events = self.run_service(
            [self.grid_job()], dist_shards=2, dist_threshold=4096,
        )
        record = plain[0]
        assert events[record["job_id"]] == ["accepted", "started", "done"]
        assert record["job_id"] == routed[0]["job_id"]
        np.testing.assert_allclose(
            np.asarray(record["x"]), np.asarray(routed[0]["x"]),
            rtol=0, atol=PARITY_TOL,
        )
