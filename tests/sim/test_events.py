"""Tests for the simulation time units."""

import pytest

from repro.sim.events import (
    MS,
    SEC,
    US,
    ms_to_ns,
    ns_to_ms,
    seconds_to_ns,
)


class TestUnits:
    def test_constants_are_consistent(self):
        assert SEC == 1000 * MS == 1_000_000 * US

    def test_ms_roundtrip(self):
        assert ns_to_ms(ms_to_ns(12.5)) == pytest.approx(12.5)

    def test_seconds_to_ns(self):
        assert seconds_to_ns(1.5) == 1_500_000_000

    def test_ms_to_ns_rounds(self):
        assert ms_to_ns(0.0000014) == 1  # 1.4 ns rounds to 1
