"""Benchmark: regenerate Fig 6 (interrupt handling-time distributions).

Paper shape: all gaps exceed ~1.5 µs (Meltdown-era kernel entry); each
type has a characteristic distribution; the IRQ-work spike coincides
with timer ticks because IRQ work cannot fire on its own.
"""

import pytest

from repro.config import SMOKE
from repro.experiments import fig6
from repro.sim.events import US
from repro.sim.interrupts import InterruptType
from repro.engine import RunContext


@pytest.fixture(scope="module")
def result():
    return fig6.run(RunContext(scale=SMOKE.with_(trace_seconds=6.0), seed=0))


def test_fig6_handler_time_distributions(benchmark, archive, result):
    benchmark.pedantic(lambda: result, rounds=1, iterations=1)
    archive("fig6", result)


def test_meltdown_floor_on_every_type(benchmark, result):
    for itype, hist in result.histograms.items():
        assert hist.n_samples > 50, itype
        assert hist.min_ns() >= 1.5 * US - 1e-6, itype


def test_types_have_distinct_modes(benchmark, result):
    """Takeaway 6: characteristic handling-time distributions."""
    modes = {t: h.mode_ns() for t, h in result.histograms.items()}
    assert modes[InterruptType.TIMER] > modes[InterruptType.NETWORK_RX]


def test_softirqs_are_broadest(benchmark, result):
    softirq = result.histograms[InterruptType.SOFTIRQ_NET_RX].samples
    network = result.histograms[InterruptType.NETWORK_RX].samples
    timer = result.histograms[InterruptType.TIMER].samples
    assert softirq.std() > network.std()
    assert softirq.std() > timer.std()


def test_irq_work_piggybacks_on_timer(benchmark, result):
    assert result.irq_work_timer_coincidence > 0.6
