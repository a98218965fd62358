"""Tests for the randomized-timer parameter ablation."""

import pytest

from repro.experiments import ablation_timer
from repro.engine import RunContext
from tests.conftest import TINY


@pytest.fixture(scope="module")
def result():
    return ablation_timer.run(RunContext(scale=TINY, seed=3))


class TestAblationTimer:
    def test_all_variants_run(self, result):
        assert [row.label for row in result.rows] == [
            "narrow range (U[2,4])",
            "paper (U[5,25])",
            "wide range (U[20,80])",
            "fast tether (U[2,4], 10ms)",
        ]

    def test_narrow_range_weaker_defense(self, result):
        """A barely-randomized timer leaves more attack accuracy than
        the paper's configuration."""
        by_label = {row.label: row for row in result.rows}
        narrow = by_label["narrow range (U[2,4])"].result.top1.mean
        paper = by_label["paper (U[5,25])"].result.top1.mean
        assert narrow >= paper - 0.05

    def test_deviation_grows_with_range(self, result):
        by_label = {row.label: row for row in result.rows}
        assert (
            by_label["wide range (U[20,80])"].mean_deviation_ms
            > by_label["paper (U[5,25])"].mean_deviation_ms
            > by_label["narrow range (U[2,4])"].mean_deviation_ms
        )

    def test_fast_tether_keeps_timer_usable_but_weak(self, result):
        """Small increments + a tight threshold keep the timer close to
        real time — more usable, weaker as a defense."""
        by_label = {row.label: row for row in result.rows}
        tether = by_label["fast tether (U[2,4], 10ms)"]
        paper = by_label["paper (U[5,25])"]
        assert tether.mean_deviation_ms < paper.mean_deviation_ms
        assert tether.result.top1.mean >= paper.result.top1.mean - 0.05

    def test_format(self, result):
        table = result.format_table()
        assert "randomized-timer parameters" in table
