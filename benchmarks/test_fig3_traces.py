"""Benchmark: regenerate Fig 3 (example loop-counting traces).

Paper: 15 s traces at P = 5 ms in Chrome/Linux for nytimes.com,
amazon.com and weather.com; counters range ~21 000–27 000 with darker
(interrupt-heavy) bands where the site is active.
"""

import numpy as np

from repro.config import SMOKE
from repro.experiments import fig3
from repro.engine import RunContext


def test_fig3_example_traces(benchmark, archive):
    result = benchmark.pedantic(
        lambda: fig3.run(RunContext(scale=SMOKE.with_(period_ms=5.0), seed=0)),
        rounds=1,
        iterations=1,
    )
    archive("fig3", result)

    lo, hi = result.counter_range()
    # Counter ceiling at the paper's ~27k (P = 5 ms).
    assert 24_000 <= hi <= 29_000
    for trace in result.traces:
        vector = trace.to_vector()
        # Interrupt-heavy phases produce visible dips (darker bands).
        assert vector.min() < 0.93 * vector.max()
        # nytimes/amazon front-load their activity: the early half of the
        # trace is darker (smaller counters) than the late half.
        if trace.label in ("nytimes.com", "amazon.com"):
            half = len(vector) // 2
            assert vector[:half].mean() < vector[half:].mean()
