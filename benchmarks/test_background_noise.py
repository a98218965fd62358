"""Benchmark: §4.2 background-noise robustness.

Paper shape: Slack + Spotify cost the attack only a few points (96.6 %
-> 93.4 %), far less than purpose-built interrupt noise — everyday
applications do not defend you.
"""

import pytest

from repro.config import SMOKE
from repro.experiments import background_noise
from repro.engine import RunContext


@pytest.fixture(scope="module")
def result():
    return background_noise.run(RunContext(scale=SMOKE.with_(traces_per_site=8), seed=0))


def test_background_noise_robustness(benchmark, archive, result):
    benchmark.pedantic(lambda: result, rounds=1, iterations=1)
    archive("background_noise", result)


def test_attack_survives_office_apps(benchmark, result):
    assert result.noisy.top1.mean > 0.5


def test_drop_is_small(benchmark, result):
    """Paper: a drop of just a few points (3.2)."""
    assert result.drop < 0.15
