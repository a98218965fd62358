"""Benchmark: regenerate Table 2 (noise countermeasures vs both attacks).

Paper shape (Chrome/Linux, closed world):

* loop-counting beats sweep-counting with no noise (95.7 vs 78.4);
* cache-sweep noise barely dents either attack (-3.1 / -2.2 points);
* interrupt noise devastates both (-33.7 / -23.1 points);
* the interrupt-noise extension costs +15.7 % page-load time.
"""

import pytest

from repro.config import SMOKE
from repro.experiments import table2
from repro.engine import RunContext


@pytest.fixture(scope="module")
def result():
    return table2.run(RunContext(scale=SMOKE.with_(traces_per_site=8), seed=0))


def test_table2_noise_grid(benchmark, archive, result):
    benchmark.pedantic(lambda: result, rounds=1, iterations=1)
    archive("table2", result)


def test_loop_beats_sweep_without_noise(benchmark, result):
    loop, sweep = result.rows
    assert loop.no_noise.top1.mean > sweep.no_noise.top1.mean


def test_cache_noise_is_mild(benchmark, result):
    """Sweeping the LLC barely affects either attack."""
    for row in result.rows:
        assert row.drop_from_cache_noise() < 0.15


def test_interrupt_noise_is_severe_on_loop(benchmark, result):
    loop = result.rows[0]
    assert loop.drop_from_interrupt_noise() > 0.20


def test_interrupt_noise_dominates_cache_noise(benchmark, result):
    """The smoking gun: interrupt noise >> cache noise for BOTH attacks,
    so the sweep-counting attack's leakage is interrupts, not cache."""
    for row in result.rows:
        assert row.drop_from_interrupt_noise() > row.drop_from_cache_noise() + 0.05


def test_page_load_overhead(benchmark, result):
    assert result.page_load_overhead == pytest.approx(3.61 / 3.12, abs=1e-3)
