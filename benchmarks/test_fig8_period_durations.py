"""Benchmark: regenerate Fig 8 (real duration of one 5 ms attacker loop).

Paper shape: exactly 100 ms under Tor's quantizer, a tight 4.8-5.2 ms
quasi-Gaussian under Chrome's jitter, and 0-100 ms of real time under
the randomized timer — the attacker cannot know how long a loop took.
"""

import pytest

from repro.config import SMOKE
from repro.experiments import fig8
from repro.engine import RunContext


@pytest.fixture(scope="module")
def result():
    return fig8.run(RunContext(scale=SMOKE, seed=0), period_ms=5.0, n_periods=500)


def test_fig8_period_durations(benchmark, archive, result):
    benchmark.pedantic(lambda: result, rounds=1, iterations=1)
    archive("fig8", result)


def test_quantized_locks_to_100ms(benchmark, result):
    lo, med, hi, std = result.sample_for("Quantized").stats()
    assert lo == med == hi == 100.0
    assert std == 0.0


def test_jittered_tight_gaussianish(benchmark, result):
    lo, med, hi, std = result.sample_for("Jittered").stats()
    assert 4.8 <= lo and hi <= 5.2
    assert std < 0.2


def test_randomized_spread_dwarfs_jitter(benchmark, result):
    _, _, hi_rand, std_rand = result.sample_for("Randomized").stats()
    _, _, _, std_jitter = result.sample_for("Jittered").stats()
    assert std_rand > 20 * std_jitter
    assert hi_rand > 20.0  # single loop can span tens of ms

def test_randomized_bounded_by_threshold_regime(benchmark, result):
    """Durations stay within the 0-100 ms envelope of Fig 8c."""
    durations = result.sample_for("Randomized").durations_ms
    assert durations.max() <= 130.0
