"""Sharded campaign executor: determinism, merging, JSONL, CLI.

The acceptance bar (ISSUE 4): a campaign of >= 200 trials run with
``--workers 4`` produces bitwise-identical merged counts to the same
campaign at ``--workers 1``.
"""

import json

import numpy as np
import pytest

from repro.csr import five_point_operator
from repro.errors import ConfigurationError, Outcome
from repro.faults import (
    CampaignTask,
    MultiBitFlip,
    Region,
    SingleBitFlip,
    merge_jsonl,
    merge_records,
    plan_shards,
    run_sharded_campaign,
    run_solver_campaign,
)
from repro.faults.campaign import main as campaign_main


def make_matrix(n=16, seed=0):
    rng = np.random.default_rng(seed)
    return five_point_operator(
        n, n, rng.uniform(0.5, 2.0, (n, n)), rng.uniform(0.5, 2.0, (n, n)), 0.3
    )


def matrix_task(scheme="secded64", model=None):
    return CampaignTask("matrix", dict(
        matrix=make_matrix(), element_scheme=scheme, rowptr_scheme=scheme,
        region=Region.VALUES, model=model or SingleBitFlip(),
    ))


# ---------------------------------------------------------------------------
class TestShardPlanning:
    def test_sizes_sum_to_trials(self):
        shards = plan_shards(103, seed=0, shard_size=25)
        assert [s.n_trials for s in shards] == [25, 25, 25, 25, 3]
        assert [s.index for s in shards] == list(range(5))

    def test_plan_is_deterministic(self):
        a = plan_shards(60, seed=7, shard_size=20)
        b = plan_shards(60, seed=7, shard_size=20)
        for sa, sb in zip(a, b):
            assert np.random.default_rng(sa.seed).integers(2**31) == \
                   np.random.default_rng(sb.seed).integers(2**31)

    def test_different_shards_get_independent_streams(self):
        shards = plan_shards(40, seed=7, shard_size=20)
        draws = {
            int(np.random.default_rng(s.seed).integers(2**31)) for s in shards
        }
        assert len(draws) == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            plan_shards(0)
        with pytest.raises(ConfigurationError):
            plan_shards(10, shard_size=0)
        with pytest.raises(ConfigurationError):
            CampaignTask("nope", {})
        with pytest.raises(ConfigurationError):
            CampaignTask("matrix", {"n_trials": 5})


# ---------------------------------------------------------------------------
class TestDeterminismAcceptance:
    """ISSUE 4 acceptance: >= 200 trials, workers=4 == workers=1, bitwise."""

    def test_200_trials_4_workers_bitwise_identical_counts(self):
        task = matrix_task("secded64", MultiBitFlip(k=2, spread=0))
        serial = run_sharded_campaign(task, 200, workers=1, seed=3)
        parallel = run_sharded_campaign(task, 200, workers=4, seed=3)
        assert serial.n_trials == parallel.n_trials == 200
        assert serial.counts == parallel.counts
        assert serial.info == parallel.info

    def test_solver_campaign_shards_identically(self):
        matrix = make_matrix(10)
        b = np.random.default_rng(5).standard_normal(matrix.n_rows)
        task = CampaignTask("solver", dict(
            matrix=matrix, b=b, element_scheme="sed", rowptr_scheme="sed",
            region=Region.VALUES, model=SingleBitFlip(), method="cg",
            recovery="rollback",
        ))
        serial = run_sharded_campaign(task, 12, workers=1, seed=1, shard_size=6)
        parallel = run_sharded_campaign(task, 12, workers=2, seed=1, shard_size=6)
        assert serial.counts == parallel.counts
        assert serial.info["recovered"] == parallel.info["recovered"]


# ---------------------------------------------------------------------------
class TestMergeAndJsonl:
    def test_jsonl_stream_rebuilds_result(self, tmp_path):
        out = tmp_path / "campaign.jsonl"
        task = matrix_task("sed")
        direct = run_sharded_campaign(task, 60, workers=1, seed=2,
                                      shard_size=20, out=str(out))
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 3
        assert sum(line["n_trials"] for line in lines) == 60
        rebuilt = merge_jsonl(out)
        assert rebuilt.counts == direct.counts
        assert rebuilt.n_trials == 60

    def test_merge_sums_counts_and_tallies(self):
        records = [
            {"shard": 1, "n_trials": 10, "scheme": "sed+sed", "region": "values",
             "model": "single-bit", "counts": {"detected": 9, "clean": 1},
             "info": {"recovered": 2, "method": "cg", "mean_time": 0.5}},
            {"shard": 0, "n_trials": 30, "scheme": "sed+sed", "region": "values",
             "model": "single-bit", "counts": {"detected": 30},
             "info": {"recovered": 1, "method": "cg", "mean_time": 0.1}},
        ]
        merged = merge_records(records)
        assert merged.n_trials == 40
        assert merged.counts[Outcome.DETECTED] == 39
        assert merged.counts[Outcome.CLEAN] == 1
        assert merged.info["recovered"] == 3
        assert merged.info["method"] == "cg"
        assert merged.info["shards"] == 2
        # mean_* keys are trial-weighted: (0.5*10 + 0.1*30) / 40.
        assert merged.info["mean_time"] == pytest.approx(0.2)

    def test_merge_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            merge_records([])


# ---------------------------------------------------------------------------
class TestOutcomeSplit:
    """The SILENT split: converged-wrong vs detected-by-residual."""

    def test_residual_outcome_is_detected_not_sdc(self):
        assert Outcome.RESIDUAL.is_detected
        assert not Outcome.RESIDUAL.is_sdc

    def test_classify_splits_on_convergence(self):
        from repro.faults.campaign import _classify

        class _Report:
            n_uncorrectable = 0
            n_corrected = 0

        assert _classify([_Report()], False) is Outcome.SILENT
        assert _classify([_Report()], False, converged=False) is Outcome.RESIDUAL
        assert _classify([_Report()], False, converged=True) is Outcome.SILENT
        assert _classify([_Report()], True, converged=False) is Outcome.CLEAN

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # divergence overflow
    def test_solver_campaign_reports_residual_separately(self):
        # Unprotected values region (rowptr-only protection): flips in
        # values are never scheme-detected, so every data-corrupting
        # trial lands in SILENT or RESIDUAL — the split under test.
        matrix = make_matrix(8)
        b = np.random.default_rng(6).standard_normal(matrix.n_rows)
        source = (matrix.values, matrix.colidx, matrix.rowptr)
        before = [a.tobytes() for a in source]
        result = run_solver_campaign(
            matrix, b, element_scheme=None, rowptr_scheme="sed",
            region=Region.VALUES, model=MultiBitFlip(k=3, spread=0),
            n_trials=30, seed=4, eps=1e-24, max_iters=400,
        )
        # Trials inject into the wrap's own copy, never the caller's
        # matrix: damage must not accumulate from one trial to the next.
        assert before == [a.tobytes() for a in source]
        assert result.counts.get(Outcome.DETECTED, 0) == 0
        noticed_by_residual = result.counts.get(Outcome.RESIDUAL, 0)
        assert noticed_by_residual >= 1
        assert result.residual_detected_rate == noticed_by_residual / 30
        # The split is exhaustive over completed trials.
        assert sum(result.counts.values()) == 30


# ---------------------------------------------------------------------------
class TestCampaignCli:
    def test_cli_matrix_kind_smoke(self, capsys):
        rc = campaign_main([
            "--kind", "matrix", "--trials", "20", "--shard-size", "10",
            "--workers", "1", "--scheme", "sed",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sed+sed" in out and "shards=2" in out

    def test_cli_streams_jsonl(self, tmp_path, capsys):
        out = tmp_path / "cli.jsonl"
        rc = campaign_main([
            "--kind", "vector", "--trials", "16", "--shard-size", "8",
            "--scheme", "secded64", "--out", str(out),
        ])
        assert rc == 0
        merged = merge_jsonl(out)
        assert merged.n_trials == 16

    def test_cli_solver_recovery_kind(self, capsys):
        rc = campaign_main([
            "--kind", "solver", "--trials", "4", "--shard-size", "2",
            "--scheme", "sed", "--recovery", "rollback", "--grid", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovery=rollback" in out
