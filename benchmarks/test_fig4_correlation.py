"""Benchmark: regenerate Fig 4 (loop vs sweep trace correlation).

Paper: averaged over 100 runs, the two attackers' normalized traces
correlate at r = 0.87 (nytimes), 0.79 (amazon), 0.94 (weather) — the
attackers see the same system events even though one never touches
memory.
"""

from repro.config import SMOKE
from repro.experiments import fig4
from repro.engine import RunContext


def test_fig4_attacker_correlation(benchmark, archive):
    result = benchmark.pedantic(
        lambda: fig4.run(RunContext(scale=SMOKE.with_(traces_per_site=12), seed=0)),
        rounds=1,
        iterations=1,
    )
    archive("fig4", result)

    assert [row.site for row in result.rows] == [
        "nytimes.com", "amazon.com", "weather.com",
    ]
    for row in result.rows:
        # Strong positive correlation on every site (paper: 0.79-0.94;
        # we average fewer runs, so the bar is slightly lower).
        assert row.correlation > 0.55, row
    mean_r = sum(r.correlation for r in result.rows) / 3
    assert mean_r > 0.65
