"""Smoke + shape tests for the figure experiments (tiny scale)."""

import numpy as np
import pytest

from repro.experiments import fig3, fig5, fig7, fig8
from repro.sim.events import US
from repro.sim.interrupts import InterruptType
from repro.engine import RunContext
from tests.conftest import TINY


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3.run(RunContext(scale=TINY, seed=4))

    def test_three_marquee_traces(self, result):
        assert [t.label for t in result.traces] == [
            "nytimes.com", "amazon.com", "weather.com",
        ]

    def test_counter_band(self, result):
        """Counters live in the paper's ~21k-27k band (scaled by P)."""
        lo, hi = result.counter_range()
        scale = TINY.period_ms / 5.0  # counters scale with period length
        assert hi <= 29_000 * scale
        assert hi >= 24_000 * scale

    def test_format(self, result):
        table = result.format_table()
        assert "nytimes.com" in table and "Figure 3" in table


class TestFig4:
    def test_correlations_strong(self, fig4_result):
        """Loop and sweep traces are shaped by the same system events."""
        for row in fig4_result.rows:
            assert row.correlation > 0.4

    def test_all_sites(self, fig4_result):
        assert [r.site for r in fig4_result.rows] == [
            "nytimes.com", "amazon.com", "weather.com",
        ]


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5.run(RunContext(scale=TINY.with_(trace_seconds=6.0), seed=4))

    def test_attribution_over_99(self, result):
        assert result.attributed_fraction > 0.99

    def test_weather_resched_heavy(self, result):
        shares = {row.site: row.resched_share() for row in result.rows}
        assert shares["weather.com"] > shares["nytimes.com"]
        assert shares["weather.com"] > shares["amazon.com"]

    def test_nytimes_front_loaded(self, result):
        row = next(r for r in result.rows if r.site == "nytimes.com")
        n = len(row.total_fraction)
        first_two_thirds = row.total_fraction[: 2 * n // 3].sum()
        assert first_two_thirds > 0.6 * row.total_fraction.sum()

    def test_peaks_in_paper_band(self, result):
        """Fig 5's y-axis tops out around ~5-7 % of time in handlers."""
        for row in result.rows:
            assert 0.5 < row.peak_percent() < 25.0


class TestFig6:
    def test_meltdown_floor(self, fig6_result):
        for hist in fig6_result.histograms.values():
            if hist.n_samples:
                assert hist.min_ns() >= 1.5 * US - 1e-6

    def test_irq_work_rides_timer(self, fig6_result):
        assert fig6_result.irq_work_timer_coincidence > 0.5

    def test_all_four_types_sampled(self, fig6_result):
        for itype in (
            InterruptType.SOFTIRQ_NET_RX,
            InterruptType.TIMER,
            InterruptType.IRQ_WORK,
            InterruptType.NETWORK_RX,
        ):
            assert fig6_result.histograms[itype].n_samples > 0

    def test_softirq_broadest(self, fig6_result):
        softirq = fig6_result.histograms[InterruptType.SOFTIRQ_NET_RX].samples
        network = fig6_result.histograms[InterruptType.NETWORK_RX].samples
        assert softirq.std() > network.std()


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7.run(RunContext(scale=TINY, seed=4))

    def test_all_monotonic(self, result):
        assert all(s.monotonic for s in result.samples)

    def test_deviation_ordering(self, result):
        """Tor's 100 ms quantizer deviates most; Chrome's jitter least."""
        by_name = {s.name: s for s in result.samples}
        tor = by_name["Quantized (Tor, 100ms)"]
        chrome = by_name["Jittered (Chrome, 0.1ms)"]
        ours = by_name["Randomized (ours, 1ms)"]
        assert chrome.max_deviation_ms < ours.max_deviation_ms < tor.max_deviation_ms + 1

    def test_chrome_bound(self, result):
        chrome = next(s for s in result.samples if "Chrome" in s.name)
        assert chrome.max_deviation_ms < 0.2  # < 2Δ


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8.run(RunContext(scale=TINY, seed=4), n_periods=300)

    def test_quantized_exact_100ms(self, result):
        sample = result.sample_for("Quantized")
        lo, med, hi, std = sample.stats()
        assert lo == hi == 100.0

    def test_jittered_tight_around_5ms(self, result):
        """Fig 8b: 4.8-5.2 ms, roughly Gaussian."""
        sample = result.sample_for("Jittered")
        lo, med, hi, std = sample.stats()
        assert 4.7 <= lo and hi <= 5.3
        assert med == pytest.approx(5.0, abs=0.1)

    def test_randomized_spans_wildly(self, result):
        """Fig 8c: a 5 ms loop spans ~0-100 ms of real time."""
        sample = result.sample_for("Randomized")
        lo, med, hi, std = sample.stats()
        assert hi > 15.0
        assert std > 3.0
