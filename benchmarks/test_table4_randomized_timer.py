"""Benchmark: regenerate Table 4 (timer defenses).

Paper shape (closed world): Chrome's jittered timer leaves the attack at
96.6 %; Tor-style quantization only drops it to 86.0 %; the randomized
timer crushes it to ~1-5 % regardless of the attacker's period length
(P = 5, 100, 500 ms).
"""

import pytest

from repro.config import SMOKE
from repro.experiments import table4
from repro.engine import RunContext


@pytest.fixture(scope="module")
def result():
    return table4.run(RunContext(scale=SMOKE.with_(period_ms=5.0, traces_per_site=8), seed=0))


def test_table4_timer_defenses(benchmark, archive, result):
    benchmark.pedantic(lambda: result, rounds=1, iterations=1)
    archive("table4", result)
    assert len(result.rows) == 5


def test_jittered_timer_does_not_defend(benchmark, result):
    assert result.rows[0].result.top1.mean > 0.6


def test_quantization_weaker_than_randomization(benchmark, result):
    """Coarse quantization costs some accuracy; randomization crushes it."""
    jittered = result.rows[0].result.top1.mean
    quantized = result.rows[1].result.top1.mean
    randomized_p5 = result.rows[2].result.top1.mean
    assert randomized_p5 < quantized
    assert randomized_p5 < jittered / 2


def test_randomized_near_base_rate(benchmark, result):
    base = result.base_rate
    assert result.rows[2].result.top1.mean < 3.5 * base


def test_longer_periods_do_not_rescue_attack(benchmark, result):
    """Even P = 100/500 ms leaves the attack far below the undefended
    baseline (paper: 1.9 % and 5.2 % vs 96.6 %)."""
    jittered = result.rows[0].result.top1.mean
    for row in result.rows[3:]:
        assert row.result.top1.mean < jittered - 0.25
