"""Smoke + shape tests for the table experiments (tiny scale).

These run the full attack pipelines at a very small scale, so they check
plumbing and gross shape, not the paper's quantitative orderings — those
are validated by the benchmark harness at larger scales.
"""

import pytest

from repro.experiments import table1, table2, table3, table4
from repro.workload.browser import CHROME, LINUX
from repro.engine import RunContext
from tests.conftest import TINY


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run(
            RunContext(scale=TINY, seed=4),
            configs=[(CHROME, LINUX)], open_world=True
        )

    def test_row_fields(self, result):
        row = result.rows[0]
        assert row.browser == "Chrome 92"
        assert row.os_name == "Linux"
        assert row.timer_resolution_ms == pytest.approx(0.1)

    def test_both_attacks_beat_base_rate(self, result):
        base = 1.0 / TINY.n_sites
        row = result.rows[0]
        assert row.loop_closed.top1.mean > 2 * base
        # The sweep attack is weaker (coarse counts, 2 s tiny traces)
        # but still informative.
        assert row.sweep_closed.top1.mean > 1.2 * base

    def test_open_world_populated(self, result):
        row = result.rows[0]
        assert row.loop_open is not None
        assert 0.0 <= row.loop_open.combined.mean <= 1.0
        assert row.sweep_open_combined is not None

    def test_significance_computed(self, result):
        assert 0.0 <= result.rows[0].significance.p_value <= 1.0

    def test_format(self, result):
        table = result.format_table()
        assert "Table 1" in table and "Chrome 92" in table

    def test_closed_only_mode(self):
        result = table1.run(
            RunContext(scale=TINY, seed=4),
            configs=[(CHROME, LINUX)], open_world=False
        )
        assert result.rows[0].loop_open is None
        assert "OW" not in result.format_table()

    def test_full_grid_is_the_papers(self):
        assert len(table1.TABLE1_CONFIGS) == 8


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2.run(RunContext(scale=TINY, seed=4))

    def test_both_attacks_present(self, result):
        assert [r.attack for r in result.rows] == ["loop-counting", "sweep-counting"]

    def test_interrupt_noise_hurts_loop(self, result):
        loop = result.rows[0]
        assert loop.drop_from_interrupt_noise() > 0.05

    def test_page_load_overhead_reported(self, result):
        assert "+15.7%" in result.format_table()


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3.run(RunContext(scale=TINY, seed=4))

    def test_five_rungs(self, result):
        assert len(result.rows) == 5
        assert result.rows[0].mechanism == "Default"

    def test_attack_survives_full_ladder(self, result):
        """Takeaway 3: isolation mechanisms do not stop the attack."""
        base = 1.0 / TINY.n_sites
        final = result.rows[-1].result.top1.mean
        assert final > 3 * base

    def test_accuracy_by_step(self, result):
        assert len(result.accuracy_by_step()) == 5


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return table4.run(RunContext(scale=TINY, seed=4))

    def test_five_rows(self, result):
        names = [(r.timer_name, r.period_ms) for r in result.rows]
        assert names[0][0] == "Jittered"
        assert names[1][0] == "Quantized"
        assert [n for n, _ in names[2:]] == ["Randomized"] * 3

    def test_randomized_destroys_accuracy(self, result):
        """Table 4's headline: the randomized timer nears the base rate."""
        jittered = result.rows[0].result.top1.mean
        randomized = result.rows[2].result.top1.mean
        assert randomized < jittered / 2

    def test_base_rate_reported(self, result):
        assert result.base_rate == pytest.approx(1.0 / TINY.n_sites)
