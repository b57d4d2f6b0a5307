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
* the ``shard-death`` campaign kind merges bitwise-identically for any
  worker count, and ``repro.serve`` routes large CG jobs to the sharded
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
"""

import asyncio
import time

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
from repro.dist.workers import ShardState
from repro.errors import ConfigurationError, Outcome, ShardDeathError
from repro.faults import CampaignTask, run_sharded_campaign
from repro.faults.campaign import (
    compare_shard_death_recoveries,
    render_recovery_comparison,
)
from repro.protect.config import ProtectionConfig
from repro.protect.session import ProtectionSession
from repro.recover.erasure import ErasureCodec, erasure_weights
from repro.recover.policy import RECOVERY_STRATEGIES, RecoveryPolicy
from repro.solvers import cg_solve

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


class TestRecoveryComparison:
    """ISSUE 8 acceptance: erasure time-to-solution <= rollback.

    Measured in *executed* update rounds on identical kill plans —
    deterministic, unlike wall time, which is spawn-noise dominated at
    smoke scale (docs/distributed.md documents the metric choice).
    """

    def test_erasure_never_slower_than_rollback_on_same_kill_plans(self):
        matrix, b = make_system(grid=6)
        rollback, erasure = compare_shard_death_recoveries(
            matrix, b, ["rollback", "erasure"],
            mtbf=12.0, n_shards=2, max_retries=5, n_trials=2, seed=0,
            eps=1e-16, max_iters=500,
        )
        # Fixed seed + fixed sampling cap => identical kill plans.
        assert rollback.info["injected"] == erasure.info["injected"]
        assert erasure.info["checkpoints"] == 0
        assert rollback.info["checkpoints"] > 0
        assert (erasure.info["mean_iters_executed"]
                <= rollback.info["mean_iters_executed"])
        table = render_recovery_comparison([rollback, erasure])
        assert "rollback" in table and "erasure" in table
        assert "iters_exec" in table


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
class TestShardDeathCampaign:
    def campaign_task(self):
        return CampaignTask("shard-death", dict(
            matrix=make_system(grid=6)[0],
            b=make_system(grid=6)[1],
            mtbf=12.0, n_shards=2, interval=4,
            recovery=RecoveryPolicy(strategy="rollback", max_retries=5,
                                    checkpoint_interval=4),
            eps=1e-16, max_iters=500,
        ))

    def test_merge_is_bitwise_identical_across_worker_counts(self):
        task = self.campaign_task()
        serial = run_sharded_campaign(task, 2, workers=1, seed=7, shard_size=1)
        pooled = run_sharded_campaign(task, 2, workers=2, seed=7, shard_size=1)
        assert serial.counts == pooled.counts
        assert serial.n_trials == pooled.n_trials == 2
        drop_timing = lambda info: {  # noqa: E731 - tiny local projection
            k: v for k, v in info.items() if not k.startswith("mean_")
        }
        assert drop_timing(serial.info) == drop_timing(pooled.info)
        # Process loss is never silent: every outcome is CLEAN/DETECTED.
        assert set(serial.counts) <= {Outcome.CLEAN, Outcome.DETECTED}
        assert serial.info["injected"] >= serial.info["recovered"]

    def test_task_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignTask("shard-death", {"n_trials": 3})


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
