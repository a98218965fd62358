"""Benchmark: regenerate Table 3 (isolation-mechanism ladder).

Paper shape (Python attacker, closed world): 95.2 → 94.2 → 94.0 → 88.2 →
91.6.  Disabling DVFS and pinning cores barely matter; removing movable
IRQs costs the most but leaves the attack strong (non-movable interrupts
still leak); VM isolation *increases* accuracy via amplification.
"""

import pytest

from repro.config import SMOKE
from repro.experiments import table3
from repro.engine import RunContext


@pytest.fixture(scope="module")
def result():
    return table3.run(RunContext(scale=SMOKE.with_(traces_per_site=8), seed=0))


def test_table3_isolation_ladder(benchmark, archive, result):
    benchmark.pedantic(lambda: result, rounds=1, iterations=1)
    archive("table3", result)
    assert len(result.rows) == 5


def test_attack_is_strong_by_default(benchmark, result):
    assert result.rows[0].result.top1.mean > 0.6


def test_dvfs_and_pinning_barely_matter(benchmark, result):
    accuracies = result.accuracy_by_step()
    assert accuracies[0] - accuracies[1] < 0.12  # paper: -1.0 point
    assert abs(accuracies[1] - accuracies[2]) < 0.12  # paper: -0.2


def test_attack_survives_every_mechanism(benchmark, result):
    """Takeaway 3: no mechanism (even all of them) stops the attack."""
    base = 1.0 / SMOKE.n_sites
    for row in result.rows:
        assert row.result.top1.mean > 3 * base


def test_vm_isolation_does_not_help(benchmark, result):
    """§5.1's counter-intuitive result: separate VMs amplify interrupts
    and accuracy goes back *up* relative to the irqbalanced rung."""
    accuracies = result.accuracy_by_step()
    assert accuracies[4] >= accuracies[3] - 0.03
