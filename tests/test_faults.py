"""Fault-injection machinery tests + empirical guarantee validation."""

import numpy as np
import pytest

from repro.csr import five_point_operator
from repro.errors import DetectedUncorrectableError, Outcome
from repro.faults import (
    BurstError,
    MultiBitFlip,
    Region,
    SingleBitFlip,
    StuckBits,
    flip_array_bit,
    run_matrix_campaign,
    run_solver_campaign,
    run_vector_campaign,
)
from repro.faults.injector import FaultSpec, inject_into_matrix
from repro.protect import ProtectionConfig
from repro.solvers import JacobiPreconditioner, get_method


def small_matrix(seed=0):
    rng = np.random.default_rng(seed)
    return five_point_operator(
        8, 8, rng.uniform(0.5, 2.0, (8, 8)), rng.uniform(0.5, 2.0, (8, 8)), 0.3
    )


class TestModels:
    def test_single_bit(self):
        rng = np.random.default_rng(0)
        faults = SingleBitFlip().sample(rng, 100, 64)
        assert len(faults) == 1
        assert 0 <= faults[0].element < 100
        assert 0 <= faults[0].bit < 64

    def test_multi_bit_distinct_positions(self):
        rng = np.random.default_rng(1)
        faults = MultiBitFlip(k=5).sample(rng, 10, 32)
        positions = {(f.element, f.bit) for f in faults}
        assert len(positions) == 5

    def test_multi_bit_local_spread(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            faults = MultiBitFlip(k=3, spread=1).sample(rng, 50, 64)
            elements = sorted(f.element for f in faults)
            assert elements[-1] - elements[0] <= 1

    def test_burst_endpoints_flipped(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            faults = BurstError(length=16).sample(rng, 10, 64)
            flat = sorted(f.element * 64 + f.bit for f in faults)
            assert flat[-1] - flat[0] == 15

    def test_stuck_bits_have_polarity(self):
        rng = np.random.default_rng(4)
        faults = StuckBits(k=3, polarity=0).sample(rng, 10, 64)
        assert all(f.stuck == 0 for f in faults)


class TestInjector:
    def test_flip_float_array(self):
        x = np.array([1.0, 2.0])
        assert flip_array_bit(x, 0, 52)  # exponent bit -> big change
        assert x[0] != 1.0

    def test_flip_uint32_array(self):
        x = np.array([0, 0], dtype=np.uint32)
        assert flip_array_bit(x, 1, 5)
        assert x[1] == 32

    def test_stuck_noop_reported(self):
        x = np.array([0xFF], dtype=np.uint32)
        assert not flip_array_bit(x, 0, 3, stuck=1)  # already set
        assert flip_array_bit(x, 0, 3, stuck=0)

    def test_rejects_weird_dtype(self):
        with pytest.raises(TypeError):
            flip_array_bit(np.zeros(2, dtype=np.int16), 0, 0)


class TestMatrixCampaigns:
    def test_secded_single_bit_all_corrected(self):
        result = run_matrix_campaign(
            small_matrix(), "secded64", "secded64",
            Region.VALUES, SingleBitFlip(), n_trials=150,
        )
        assert result.counts.get(Outcome.CORRECTED, 0) == 150
        assert result.sdc_rate == 0.0

    def test_sed_single_bit_all_detected_never_corrected(self):
        result = run_matrix_campaign(
            small_matrix(), "sed", "sed",
            Region.VALUES, SingleBitFlip(), n_trials=150,
        )
        assert result.counts.get(Outcome.DETECTED, 0) == 150
        assert result.detection_rate == 1.0

    def test_secded_double_bit_never_silent(self):
        result = run_matrix_campaign(
            small_matrix(), "secded64", "secded64",
            Region.COLIDX, MultiBitFlip(k=2, spread=0), n_trials=150,
        )
        assert result.sdc_rate == 0.0

    def test_sed_double_bit_mostly_silent(self):
        """SED's documented hole: even flip counts pass the parity check."""
        result = run_matrix_campaign(
            small_matrix(), "sed", "sed",
            Region.VALUES, MultiBitFlip(k=2, spread=0), n_trials=150,
        )
        # Flips in the same 96-bit codeword are invisible; cross-codeword
        # pairs are caught. spread=0 keeps both in one element's value.
        assert result.counts.get(Outcome.SILENT, 0) == 150

    def test_crc_row_campaign_corrects_pairs(self):
        result = run_matrix_campaign(
            small_matrix(), "crc32c", "crc32c",
            Region.VALUES, MultiBitFlip(k=2, spread=0), n_trials=100,
        )
        assert result.counts.get(Outcome.CORRECTED, 0) == 100

    def test_crc_five_flips_never_silent(self):
        """HD=6 guarantee for the 512-bit row codewords."""
        result = run_matrix_campaign(
            small_matrix(), "crc32c", "crc32c",
            Region.VALUES, MultiBitFlip(k=5, spread=0), n_trials=150,
        )
        assert result.sdc_rate == 0.0

    def test_rowptr_campaign(self):
        # 7x9 grid -> 63 rows -> 64 row-pointer entries: no SED tail, so
        # every single flip is correctable.
        rng = np.random.default_rng(9)
        matrix = five_point_operator(
            7, 9, rng.uniform(0.5, 2.0, (9, 7)), rng.uniform(0.5, 2.0, (9, 7)), 0.3
        )
        result = run_matrix_campaign(
            matrix, "secded64", "secded64",
            Region.ROWPTR, SingleBitFlip(), n_trials=100,
        )
        assert result.counts.get(Outcome.CORRECTED, 0) == 100

    def test_rowptr_campaign_with_tail_detects(self):
        # 8x8 grid -> 65 entries: flips in the SED tail entry are
        # detected but not corrected (documented fallback).
        result = run_matrix_campaign(
            small_matrix(), "secded64", "secded64",
            Region.ROWPTR, SingleBitFlip(), n_trials=100,
        )
        corrected = result.counts.get(Outcome.CORRECTED, 0)
        detected = result.counts.get(Outcome.DETECTED, 0)
        assert corrected + detected == 100
        assert result.sdc_rate == 0.0

    def test_burst_detection_crc(self):
        """Bursts <= 32 bits within a row are always caught by CRC32C."""
        result = run_matrix_campaign(
            small_matrix(), "crc32c", "sed",
            Region.VALUES, BurstError(length=32), n_trials=100,
        )
        assert result.sdc_rate == 0.0

    def test_stuck_bits_can_be_noops(self):
        result = run_matrix_campaign(
            small_matrix(), "secded64", "secded64",
            Region.COLIDX, StuckBits(k=1, polarity=0), n_trials=100,
        )
        # Sticking a zero bit to 0 changes nothing -> CLEAN outcomes exist.
        assert result.counts.get(Outcome.CLEAN, 0) > 0
        assert result.sdc_rate == 0.0

    def test_detection_only_mode(self):
        result = run_matrix_campaign(
            small_matrix(), "secded64", "secded64",
            Region.VALUES, SingleBitFlip(), n_trials=50, correct=False,
        )
        assert result.counts.get(Outcome.DETECTED, 0) == 50


class TestVectorCampaigns:
    @pytest.mark.parametrize("scheme,expected", [
        ("sed", Outcome.DETECTED),
        ("secded64", Outcome.CORRECTED),
        ("secded128", Outcome.CORRECTED),
        ("crc32c", Outcome.CORRECTED),
    ])
    def test_single_bit_outcomes(self, scheme, expected):
        rng = np.random.default_rng(5)
        result = run_vector_campaign(
            rng.standard_normal(64), scheme, SingleBitFlip(), n_trials=150
        )
        assert result.counts.get(expected, 0) == 150

    def test_secded_triple_flip_sdc_possible(self):
        """3 flips exceed SECDED's guarantee: miscorrections may occur."""
        rng = np.random.default_rng(6)
        result = run_vector_campaign(
            rng.standard_normal(64), "secded64",
            MultiBitFlip(k=3, spread=0), n_trials=200,
        )
        # Not asserting an exact rate - just that the failure mode is
        # observed and correctly *classified* as MISCORRECTED, not CLEAN.
        assert result.counts.get(Outcome.MISCORRECTED, 0) > 0
        assert result.counts.get(Outcome.CLEAN, 0) == 0


class TestSolverCampaign:
    def test_secded_solver_campaign_transparent(self):
        A = small_matrix()
        b = np.random.default_rng(7).standard_normal(A.n_rows)
        result = run_solver_campaign(A, b, "secded64", "secded64", n_trials=25)
        assert result.counts.get(Outcome.CORRECTED, 0) == 25
        assert result.sdc_rate == 0.0

    def test_sed_solver_campaign_detects_and_recovers(self):
        A = small_matrix()
        b = np.random.default_rng(8).standard_normal(A.n_rows)
        result = run_solver_campaign(A, b, "sed", "sed", n_trials=25)
        assert result.counts.get(Outcome.DETECTED, 0) == 25
        assert result.info["recovered"] == 25  # re-solve always succeeds

    def test_result_row_format(self):
        A = small_matrix()
        b = np.ones(A.n_rows)
        result = run_solver_campaign(A, b, n_trials=5)
        line = result.row()
        assert "SDC-rate" in line and "secded64" in line

    @pytest.mark.parametrize("method", ["jacobi", "chebyshev", "ppcg"])
    def test_method_parametric_campaign(self, method):
        """The campaign runs any registry method, not just CG."""
        A = small_matrix()
        b = np.random.default_rng(9).standard_normal(A.n_rows)
        result = run_solver_campaign(
            A, b, "secded64", "secded64", n_trials=6, method=method, eps=1e-16,
        )
        assert result.info["method"] == method
        assert result.counts.get(Outcome.CORRECTED, 0) == 6
        assert result.sdc_rate == 0.0

    @pytest.mark.parametrize("method", ["cg", "cg+jacobi", "ppcg", "jacobi", "chebyshev"])
    @pytest.mark.parametrize("flips", [1, 2], ids=["single", "double"])
    def test_flip_mid_solve_is_corrected_or_raised(self, method, flips):
        """SECDED's bound holds through every body, the preconditioned
        CG recurrence included: one flip in a codeword mid-solve is
        corrected and reported, two raise."""
        A = small_matrix()
        x_true = np.random.default_rng(10).standard_normal(A.n_rows)
        b = A.matvec(x_true)
        method, _, preconditioned = method.partition("+")
        extras = ({"preconditioner": JacobiPreconditioner(A.diagonal())}
                  if preconditioned else {})
        config = ProtectionConfig.paper_default()
        engine, pmat = config.engine(), config.wrap_matrix(A)
        iteration = iter(range(10**6))

        def strike():
            if next(iteration) == 2:
                inject_into_matrix(
                    pmat, Region.VALUES, [FaultSpec(11, 20 + k) for k in range(flips)])
                pmat.invalidate_clean_views()

        engine.add_iteration_hook(strike)

        def run():
            return get_method(method).protected(
                pmat, b, engine=engine, vector_scheme=config.vector_scheme,
                eps=1e-20, max_iters=20_000, **extras)

        if flips == 2:
            with pytest.raises(DetectedUncorrectableError):
                run()
            return
        result = run()
        assert result.converged
        assert result.info["corrected"] == 1
        assert np.allclose(result.x, x_true, atol=1e-7)
