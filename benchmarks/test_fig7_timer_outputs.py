"""Benchmark: regenerate Fig 7 (secure-timer output staircases).

Paper shape: all three timers are monotone; Tor's quantizer deviates
from real time by up to 100 ms in big steps, Chrome's jitter stays
within 0.2 ms, and the randomized timer wanders with random increments
at random intervals.
"""

import pytest

from repro.config import SMOKE
from repro.experiments import fig7
from repro.engine import RunContext


@pytest.fixture(scope="module")
def result():
    return fig7.run(RunContext(scale=SMOKE, seed=0))


def test_fig7_timer_outputs(benchmark, archive, result):
    benchmark.pedantic(lambda: result, rounds=1, iterations=1)
    archive("fig7", result)


def test_all_timers_monotone(benchmark, result):
    assert all(s.monotonic for s in result.samples)


def test_quantized_few_big_steps(benchmark, result):
    tor = next(s for s in result.samples if "Tor" in s.name)
    assert tor.n_distinct <= 3  # 200 ms window / 100 ms resolution
    assert tor.max_deviation_ms > 90


def test_jittered_bounded_by_2_delta(benchmark, result):
    chrome = next(s for s in result.samples if "Chrome" in s.name)
    assert chrome.max_deviation_ms < 0.2


def test_randomized_wanders_in_between(benchmark, result):
    ours = next(s for s in result.samples if "ours" in s.name)
    chrome = next(s for s in result.samples if "Chrome" in s.name)
    assert ours.max_deviation_ms > 10 * chrome.max_deviation_ms
    assert 3 <= ours.n_distinct <= 60  # random increments at random times
