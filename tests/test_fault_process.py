"""Poisson fault process and the faulty-solve driver."""

import numpy as np
import pytest

from repro import ProtectionConfig, RecoveryPolicy
from repro.csr import five_point_operator
from repro.faults import PoissonProcess, faulty_solve
from repro.protect import ProtectedCSRMatrix


def make_matrix(seed=0):
    rng = np.random.default_rng(seed)
    return five_point_operator(
        10, 10, rng.uniform(0.5, 2.0, (10, 10)), rng.uniform(0.5, 2.0, (10, 10)), 0.3
    )


class TestPoissonProcess:
    def test_zero_rate_no_events(self):
        proc = PoissonProcess(0.0)
        assert proc.advance(10**9) == 0

    def test_rate_scales_event_count(self):
        proc = PoissonProcess(1e-6, rng=np.random.default_rng(1))
        counts = [proc.advance(10**6) for _ in range(200)]
        assert 0.7 < np.mean(counts) < 1.3  # lambda = 1

    def test_sample_region_targets_all_arrays(self):
        matrix = make_matrix()
        pmat = ProtectedCSRMatrix(matrix, "secded64", "secded64")
        proc = PoissonProcess(1e-3, rng=np.random.default_rng(2))
        events = proc.sample_region(pmat)
        regions = {region.value for region, _ in events}
        assert {"values", "colidx"} <= regions  # rowptr is tiny, may miss

    def test_exposure_scales(self):
        proc = PoissonProcess(1e-6, rng=np.random.default_rng(3))
        counts = [proc.advance(10**6, exposure=5.0) for _ in range(200)]
        assert 4.3 < np.mean(counts) < 5.7


class TestFaultyCGSolve:
    """CG under a live matrix fault process, through ``faulty_solve``."""

    @staticmethod
    def run(scheme, b, proc, *, interval=1, **kwargs):
        config = ProtectionConfig.matrix_only(scheme, interval=interval)
        kwargs.setdefault("eps", 1e-20)
        return faulty_solve(make_matrix(), b, proc, config=config, **kwargs)

    def test_no_faults_converges_normally(self):
        b = np.random.default_rng(4).standard_normal(100)
        report = self.run("secded64", b, PoissonProcess(0.0))
        assert report.result is not None and report.result.converged
        assert report.injected == 0
        assert report.all_accounted

    def test_secded_corrects_under_light_rate(self):
        b = np.random.default_rng(5).standard_normal(100)
        proc = PoissonProcess(3e-6, rng=np.random.default_rng(6))
        report = self.run("secded64", b, proc)
        assert report.injected > 0
        assert report.corrected > 0
        assert report.all_accounted  # nothing silent at the end

    def test_sed_detects_and_recovers_by_reencode(self):
        b = np.random.default_rng(7).standard_normal(100)
        proc = PoissonProcess(3e-6, rng=np.random.default_rng(8))
        report = self.run("sed", b, proc, recovery=RecoveryPolicy(
            "repopulate", max_retries=64))
        assert report.injected > 0
        assert report.detected_uncorrectable > 0
        assert report.recovered > 0
        assert report.result is not None and report.result.converged
        assert report.all_accounted

    def test_abort_mode_stops(self):
        proc = PoissonProcess(5e-6, rng=np.random.default_rng(9))
        report = self.run("sed", np.ones(100), proc, eps=1e-30, max_iters=200,
                          recovery="raise")
        assert report.detected_uncorrectable >= 1
        assert report.result is None

    def test_deferred_policy_end_of_step_sweep_catches(self):
        """With interval-N checks an error can lurk; the mandatory sweep
        at the end must still account for it (paper §VI.A.2)."""
        b = np.random.default_rng(10).standard_normal(100)
        proc = PoissonProcess(2e-6, rng=np.random.default_rng(11))
        report = self.run("secded64", b, proc, interval=16)
        assert report.injected > 0
        assert report.all_accounted

    def test_injection_iterations_recorded(self):
        proc = PoissonProcess(3e-6, rng=np.random.default_rng(12))
        report = self.run("secded64", np.ones(100), proc)
        if report.injected:
            assert report.injection_iterations
            assert all(i >= 0 for i in report.injection_iterations)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # divergence overflow
    def test_unprotected_run_leaves_the_source_matrix_pristine(self):
        """Injection lands in the wrap's own copy — under ``off()`` too —
        so the end-of-run comparison has a pristine reference."""
        matrix = make_matrix()
        before = [a.tobytes() for a in (matrix.values, matrix.colidx, matrix.rowptr)]
        proc = PoissonProcess(2e-5, rng=np.random.default_rng(13))
        report = faulty_solve(matrix, np.ones(100), proc, max_iters=60,
                              config=ProtectionConfig.off())
        assert report.injected > 0
        assert before == [
            a.tobytes() for a in (matrix.values, matrix.colidx, matrix.rowptr)
        ]
        if report.result is not None:
            assert not report.all_accounted  # nothing embedded, nothing caught
