"""Tests for the experiment drivers (fast configurations)."""

import numpy as np
import pytest

from repro.experiments.cost import collect_snapshot_pool, measure_cost
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig45 import Fig45Outcome
from repro.experiments.table3 import run_table3
from repro.monitoring.filter import PerformanceFilter
from repro.scheduler.schedules import enumerate_schedules
from repro.scheduler.throughput import ScheduleThroughput


class TestTable3Driver:
    def test_subset_selection(self, classifier):
        outcome = run_table3(classifier, seed=100, keys=["xspim", "postmark"])
        assert [r.key for r in outcome.rows] == ["postmark", "xspim"]

    def test_row_lookup(self, classifier):
        outcome = run_table3(classifier, seed=100, keys=["xspim"])
        row = outcome.row("xspim")
        assert row.dominant_class in {"IO", "IDLE"}
        with pytest.raises(KeyError):
            outcome.row("missing")

    def test_named_results_align(self, classifier):
        outcome = run_table3(classifier, seed=100, keys=["xspim"])
        named = outcome.named_results()
        assert named[0][0] == "xspim"
        assert named[0][1] is outcome.rows[0].result


class TestFig3Driver:
    def test_four_diagrams(self, classifier):
        outcome = run_fig3(classifier, seed=200)
        diagrams = outcome.all_diagrams()
        assert len(diagrams) == 4
        assert diagrams[0].title.startswith("Figure 3(a)")
        assert set(outcome.tests) == {"simplescalar", "autobench", "vmd"}


class TestCostDriver:
    def test_small_pool(self, classifier):
        pool = collect_snapshot_pool(num_samples=50, seed=500)
        assert len(pool) == 100  # two subnet nodes
        cost = measure_cost(classifier, pool)
        assert cost.num_samples == 50
        assert cost.per_sample_ms > 0

    def test_pool_validation(self):
        with pytest.raises(ValueError):
            collect_snapshot_pool(num_samples=0)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_classifies_the_classify_series_scores(
        self, dtype, classifier, classifier_f32, monkeypatch
    ):
        """The rows measured by the classify stage are classify_series' scores, bit for bit."""
        clf = classifier if dtype == "float64" else classifier_f32
        pool = collect_snapshot_pool(num_samples=50, seed=500)
        seen = []
        predict_rows = clf.knn.predict_rows

        def recording_predict_rows(rows):
            seen.append(rows)
            return predict_rows(rows)

        monkeypatch.setattr(clf.knn, "predict_rows", recording_predict_rows)
        measure_cost(clf, pool)
        monkeypatch.undo()
        (rows,) = seen
        want = clf.classify_series(PerformanceFilter().extract(pool, "VM1")).scores
        assert rows.dtype == want.dtype
        assert np.array_equal(rows, want)


class TestFig45Outcome:
    def _fake_outcome(self, values):
        schedules = enumerate_schedules()
        results = [
            ScheduleThroughput(
                schedule=s,
                system_jobs_per_day=v,
                per_app_jobs_per_day={"S": v / 3, "P": v / 3, "N": v / 3},
            )
            for s, v in zip(schedules, values)
        ]
        return Fig45Outcome(results=results, per_app=[])

    def test_spn_and_best(self):
        values = [100.0] * 9 + [150.0]
        outcome = self._fake_outcome(values)
        assert outcome.spn.schedule.number == 10
        assert outcome.best.schedule.number == 10

    def test_weighted_average_discounts_spn(self):
        """SPN's multiplicity is 1 of 55 ordered assignments."""
        values = [100.0] * 9 + [155.0]
        outcome = self._fake_outcome(values)
        expected = (100.0 * 54 + 155.0 * 1) / 55
        assert outcome.weighted_average() == pytest.approx(expected)
        assert outcome.uniform_average() == pytest.approx(105.5)

    def test_improvement_percent(self):
        values = [100.0] * 9 + [150.0]
        outcome = self._fake_outcome(values)
        assert outcome.spn_improvement_percent("uniform") == pytest.approx(
            100 * (150.0 - 105.0) / 105.0
        )
