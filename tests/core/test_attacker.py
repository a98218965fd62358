"""Tests for the two attacker programs."""

import numpy as np
import pytest

from repro.core.attacker import LoopCountingAttacker, SweepCountingAttacker
from repro.sim.events import MS


class TestLoopCountingAttacker:
    def test_counter_proportional_to_exec_time(self, nytimes_run, rng):
        attacker = LoopCountingAttacker()
        c1 = attacker.count(1 * MS, 0.0, nytimes_run, rng)
        c2 = attacker.count(2 * MS, 0.0, nytimes_run, rng)
        assert c2 == pytest.approx(2 * c1)

    def test_counter_magnitude_matches_paper(self, nytimes_run, rng):
        """~27 000 iterations per fully-executed 5 ms period (Fig 3)."""
        attacker = LoopCountingAttacker()
        ghz = nytimes_run.frequency.ghz_at(0.0)
        counter = attacker.count(5 * MS, 0.0, nytimes_run, rng)
        # Scale expectation by the current turbo state.
        expected = 5 * MS / 222.0 * (ghz / 2.5)
        assert counter == pytest.approx(expected, rel=0.01)

    def test_zero_exec_zero_counter(self, nytimes_run, rng):
        assert LoopCountingAttacker().count(0.0, 0.0, nytimes_run, rng) == 0.0

    def test_name(self):
        assert LoopCountingAttacker().name == "loop-counting"


class TestSweepCountingAttacker:
    def test_orders_of_magnitude_slower_than_loop(self, nytimes_run, rng):
        """~32 sweeps vs ~27 000 increments per 5 ms (paper §3.3)."""
        loop = LoopCountingAttacker().count(5 * MS, 0.0, nytimes_run, rng)
        sweep = SweepCountingAttacker().count(5 * MS, 0.0, nytimes_run, rng)
        assert loop / max(sweep, 1e-9) > 300

    def test_idle_sweep_count_near_32(self, nytimes_run):
        attacker = SweepCountingAttacker(sweep_jitter=0.0)
        rng = np.random.default_rng(0)
        # Late in the trace the system is idle (occupancy ~ noise floor).
        counter = attacker.count(5 * MS, 0.0, nytimes_run, rng)
        assert 15 <= counter <= 45

    def test_occupancy_slows_sweeps(self, nytimes_run):
        attacker = SweepCountingAttacker(sweep_jitter=0.0, occupancy_coupling=1.0)
        run = nytimes_run
        occupancies = run.occupancy_at(run.occupancy_times)
        rng = np.random.default_rng(0)
        t_high = float(run.occupancy_times[np.argmax(occupancies)])
        t_low = float(run.occupancy_times[np.argmin(occupancies)])
        count_high = attacker.count(5 * MS, t_high, run, np.random.default_rng(0))
        count_low = attacker.count(5 * MS, t_low, run, np.random.default_rng(0))
        if float(np.max(occupancies)) - float(np.min(occupancies)) > 0.2:
            assert count_high < count_low

    def test_occupancy_coupling_dampens(self, nytimes_run):
        """The attacker's own sweeps keep victim residency low."""
        full = SweepCountingAttacker(sweep_jitter=0.0, occupancy_coupling=1.0)
        damped = SweepCountingAttacker(sweep_jitter=0.0, occupancy_coupling=0.2)
        run = nytimes_run
        t_busy = float(run.occupancy_times[np.argmax(run.occupancy_at(run.occupancy_times))])
        c_full = full.count(5 * MS, t_busy, run, np.random.default_rng(0))
        c_damped = damped.count(5 * MS, t_busy, run, np.random.default_rng(0))
        assert c_damped >= c_full

    def test_jitter_adds_noise(self, nytimes_run):
        attacker = SweepCountingAttacker(sweep_jitter=0.3)
        counts = {
            attacker.count(5 * MS, 0.0, nytimes_run, np.random.default_rng(s))
            for s in range(10)
        }
        assert len(counts) > 1

    def test_name(self):
        assert SweepCountingAttacker().name == "sweep-counting"


def _scalar_counters(attacker, exec_ns, t_begin_ns, run, rng, noise_sigma):
    """The per-period scalar walk's counters (``repro.core.walk_ref``)."""
    counters = []
    for exec_one, t_one in zip(exec_ns.tolist(), t_begin_ns.tolist()):
        counter = attacker.count(exec_one, t_one, run, rng)
        if noise_sigma > 0:
            counter *= max(0.0, 1.0 + rng.normal(0.0, noise_sigma))
        counters.append(np.floor(max(counter, 0.0)))
    return np.array(counters)


def _periods(run, n):
    """``n`` sorted period starts over the run, with mixed execution times.

    Zero, fully-executed and (tiny) negative execution times exercise the
    floor; the starts span many turbo bins and occupancy levels.
    """
    gen = np.random.default_rng(n)
    t_begin = np.sort(gen.uniform(0.0, float(run.occupancy_times[-1]), n))
    exec_ns = gen.uniform(0.0, 5 * MS, n)
    exec_ns[::7] = 0.0
    exec_ns[1::11] = 5 * MS
    exec_ns[2::13] = -1e-9
    return exec_ns, t_begin


ATTACKERS = [
    pytest.param(LoopCountingAttacker(), id="loop"),
    pytest.param(SweepCountingAttacker(), id="sweep"),
    # Large jitter and coupling: the 0.1 sweep-time floor and the
    # occupancy clip are both hit.
    pytest.param(
        SweepCountingAttacker(sweep_jitter=0.6, occupancy_coupling=10.0), id="sweep-clamped"
    ),
]


class TestCountMany:
    @pytest.mark.parametrize("attacker", ATTACKERS)
    # 0.6 makes 1 + noise negative often enough to hit the zero clamp.
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.004, 0.6])
    @pytest.mark.parametrize("n", [0, 1, 400])
    def test_equals_scalar_counts_bit_for_bit(self, nytimes_run, attacker, noise_sigma, n):
        exec_ns, t_begin = _periods(nytimes_run, n)
        scalar_rng = np.random.default_rng(99)
        batched_rng = np.random.default_rng(99)
        expected = _scalar_counters(
            attacker, exec_ns, t_begin, nytimes_run, scalar_rng, noise_sigma
        )
        counters = attacker.count_many(
            exec_ns, t_begin, nytimes_run, batched_rng, noise_sigma
        )
        assert counters.shape == (n,)
        assert counters.dtype == np.float64
        assert counters.tobytes() == expected.tobytes()
        # Same number of draws: the streams stay aligned afterwards.
        assert batched_rng.bit_generator.state == scalar_rng.bit_generator.state
