"""Harness tests: timing, host overhead measurement, experiment registry."""

import numpy as np
import pytest

from repro.harness import (
    EXPERIMENTS,
    format_interval_series,
    format_table,
    measure_element_overheads,
    measure_interval_curve,
    run_experiment,
    time_callable,
)
from repro.harness.overhead import tealeaf_like_matrix
from repro.harness.timing import Timing, overhead_ratio


class TestTiming:
    def test_time_callable_counts(self):
        calls = []
        timing = time_callable(lambda: calls.append(1), repeats=4, warmup=2)
        assert len(calls) == 6
        assert len(timing.samples) == 4
        assert timing.best <= timing.mean

    def test_overhead_ratio(self):
        base = Timing(samples=[1.0, 1.1])
        prot = Timing(samples=[1.5, 1.6])
        assert overhead_ratio(prot, base) == pytest.approx(0.5)


class TestOverheadMeasurement:
    def test_tealeaf_like_matrix_shape(self):
        m = tealeaf_like_matrix(16)
        assert m.shape == (256, 256)
        assert np.all(m.row_lengths() == 5)

    def test_element_overheads_positive_and_ordered(self):
        out = measure_element_overheads(n=48, iters=2, repeats=2)
        assert set(out) == {"sed", "secded64", "secded128", "crc32c"}
        assert all(v > -0.5 for v in out.values())
        # SED must be the cheapest scheme (the paper's robust finding).
        assert out["sed"] < out["secded64"]
        assert out["sed"] < out["crc32c"]

    def test_interval_curve_decreases(self):
        curve = measure_interval_curve("secded64", n=48, intervals=(1, 8, 64),
                                       iters=16, repeats=2)
        assert curve[64] < curve[1]


class TestExperimentRegistry:
    def test_registry_covers_every_figure(self):
        assert set(EXPERIMENTS) == {
            "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "t1"
        }

    def test_fig4_rows_have_model_and_host(self):
        rows = run_experiment("fig4", n=48, repeats=2)
        sources = {r.source for r in rows}
        assert sources == {"model", "measured"}
        platforms = {r.series for r in rows}
        assert "host" in platforms and "broadwell" in platforms
        # Anchored rows carry the paper value.
        anchored = [r for r in rows if r.paper_value is not None]
        assert anchored

    def test_fig8_interval_rows(self):
        rows = run_experiment("fig8", n=48, repeats=2)
        gtx = {int(r.key): r for r in rows if r.series == "gtx1080ti"}
        assert gtx[1].paper_value == pytest.approx(0.88)
        assert gtx[1].overhead > gtx[128].overhead

    def test_report_formatting(self):
        rows = run_experiment("fig4", n=48, repeats=2)
        table = format_table(rows, title="Fig 4")
        assert "Fig 4" in table and "host" in table and "%" in table

    def test_interval_formatting(self):
        rows = run_experiment("fig6", n=48, repeats=2)
        table = format_interval_series(rows, title="Fig 6")
        assert "N=   1" in table or "N=  1" in table.replace("  ", " ")
