"""Benchmark: regenerate Table 1 (loop vs cache-occupancy per browser/OS).

Paper shape: the loop-counting attack matches or beats the
cache-occupancy attack in every configuration; Chrome/Firefox/Safari
land in the ~92-97 % range while Tor Browser (100 ms timer, slow loads)
drops far below them; the open-world combined accuracy stays high.
"""

import pytest

from repro.config import SMOKE
from repro.experiments import table1
from repro.workload.browser import CHROME, LINUX, MACOS, SAFARI, TOR_BROWSER
from repro.engine import RunContext

#: A representative subset of the 8-config grid (full grid = `biggerfish
#: table1 --scale default`): fast browser on two OSes plus Tor.
BENCH_CONFIGS = (
    (CHROME, LINUX),
    (SAFARI, MACOS),
    (TOR_BROWSER, LINUX),
)


@pytest.fixture(scope="module")
def result(request):
    return table1.run(RunContext(scale=SMOKE, seed=0), configs=BENCH_CONFIGS, open_world=True)


def test_table1_browser_grid(benchmark, archive, result):
    benchmark.pedantic(lambda: result, rounds=1, iterations=1)
    archive("table1", result)
    assert len(result.rows) == 3


def test_loop_beats_cache_occupancy(benchmark, result):
    """The paper's headline: loop wins in (nearly) every configuration."""
    assert result.loop_win_count() == len(result.rows)


def test_fast_browsers_high_accuracy(benchmark, result):
    base = 1.0 / SMOKE.n_sites
    for row in result.rows:
        if row.browser != TOR_BROWSER.name:
            assert row.loop_closed.top1.mean > 0.55


def test_tor_degraded_but_alive(benchmark, result):
    """Tor's 100 ms timer halves accuracy but does not stop the attack."""
    tor = next(r for r in result.rows if r.browser == TOR_BROWSER.name)
    fast = [r for r in result.rows if r.browser != TOR_BROWSER.name]
    base = 1.0 / SMOKE.n_sites
    assert tor.loop_closed.top1.mean > 1.5 * base
    assert tor.loop_closed.top1.mean < min(r.loop_closed.top1.mean for r in fast)


def test_open_world_sensitive_sites_detected(benchmark, result):
    """Open world: sensitive visits are rarely waved through as
    non-sensitive.  (The paper's 99 % non-sensitive accuracy needs its
    5 000 non-sensitive training traces; at smoke scale we assert the
    attacker-relevant property instead: low missed-sensitive rate.)"""
    for row in result.rows:
        assert row.loop_open.missed_sensitive_rate is not None
        assert row.loop_open.missed_sensitive_rate.mean < 0.40
