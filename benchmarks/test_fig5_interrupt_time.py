"""Benchmark: regenerate Fig 5 + the §5.2 attribution proof.

Paper shape: per-100 ms handler-time share tracks each site's trace
shape (nytimes front-loaded, weather.com rescheduling-heavy), and >99 %
of attacker-visible gaps >100 ns are caused by interrupts.
"""

import pytest

from repro.config import SMOKE
from repro.experiments import fig5
from repro.engine import RunContext


@pytest.fixture(scope="module")
def result():
    return fig5.run(RunContext(scale=SMOKE.with_(trace_seconds=8.0, traces_per_site=12), seed=0))


def test_fig5_interrupt_time(benchmark, archive, result):
    benchmark.pedantic(lambda: result, rounds=1, iterations=1)
    archive("fig5", result)


def test_over_99_percent_attributed(benchmark, result):
    """The paper's rigorous proof of the interrupt channel."""
    assert result.n_gaps > 500
    assert result.attributed_fraction > 0.99


def test_weather_is_resched_dominated(benchmark, result):
    shares = {row.site: row.resched_share() for row in result.rows}
    assert shares["weather.com"] > 2 * shares["amazon.com"]


def test_handler_time_tracks_activity(benchmark, result):
    """nytimes's handler time concentrates in the early trace (Fig 5)."""
    nytimes = next(r for r in result.rows if r.site == "nytimes.com")
    n = len(nytimes.total_fraction)
    early = nytimes.total_fraction[: n // 2].mean()
    late = nytimes.total_fraction[3 * n // 4 :].mean()
    assert early > 1.5 * late


def test_peak_handler_share_in_band(benchmark, result):
    """Fig 5 peaks around ~5 % of CPU time in handlers."""
    for row in result.rows:
        assert 0.01 < row.total_fraction.max() < 0.25
