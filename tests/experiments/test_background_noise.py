"""Tests for the background-noise robustness experiment."""

import pytest

from repro.experiments import background_noise
from repro.engine import RunContext
from tests.conftest import TINY


class TestBackgroundNoise:
    @pytest.fixture(scope="class")
    def result(self):
        return background_noise.run(RunContext(scale=TINY, seed=5))

    def test_both_conditions_present(self, result):
        assert 0.0 <= result.noisy.top1.mean <= 1.0
        assert 0.0 <= result.quiet.top1.mean <= 1.0

    def test_noise_does_not_destroy_attack(self, result):
        base = 1.0 / TINY.n_sites
        assert result.noisy.top1.mean > 1.5 * base

    def test_format(self, result):
        assert "Slack + Spotify" in result.format_table()
