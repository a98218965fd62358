"""The two attacker programs (paper Fig 2).

Both attackers run the same outer structure — count inner-loop
iterations until the browser timer says ``P`` elapsed, store the count —
and differ only in the inner loop body:

* **loop-counting** (Fig 2b, this paper's attack): increment + timer
  read.  Iteration throughput depends only on core frequency, so the
  counter measures how much execution time interrupts stole.
* **sweep-counting** (Fig 2a, Shusterman et al.): increment + a full
  sweep of an LLC-sized buffer + timer read.  Iteration time additionally
  depends on LLC occupancy, so the counter mixes the interrupt signal
  with a (coarse) cache-occupancy signal.

The collector hands each attacker the execution time available in a
period; the attacker converts it into a counter value.  ``count`` does
that for one period; ``count_many`` does it for every period of a trace
at once, applies the browser's measurement noise and floors the result.
Its RNG draws keep the order of a per-period walk: ``count``'s draws
for a period, then that period's noise draw.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.cache.sweep import SweepTimingModel
from repro.sim.frequency import IterationRateModel
from repro.sim.machine import MachineRun


class Attacker(abc.ABC):
    """Converts per-period execution time into a counter value."""

    name: str = "attacker"

    @abc.abstractmethod
    def count(
        self,
        exec_ns: float,
        t_begin_ns: float,
        run: MachineRun,
        rng: np.random.Generator,
    ) -> float:
        """Expected inner-loop iterations completed in ``exec_ns``."""

    @abc.abstractmethod
    def count_many(
        self,
        exec_ns: np.ndarray,
        t_begin_ns: np.ndarray,
        run: MachineRun,
        rng: np.random.Generator,
        noise_sigma: float,
    ) -> np.ndarray:
        """Floored, non-negative counters of a whole trace's periods.

        Bit for bit what calling :meth:`count` per period gives, with
        each counter scaled by ``max(0, 1 + N(0, noise_sigma))`` (no draw
        when ``noise_sigma`` is 0) and floored at ``max(counter, 0)``.
        """


def _noisy(counters: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """``counter * max(0.0, 1.0 + noise)`` per period, as Python's ``max``."""
    factor = 1.0 + noise
    return counters * np.where(factor > 0.0, factor, 0.0)


def _floored(counters: np.ndarray) -> np.ndarray:
    """``floor(max(counter, 0.0))`` per period, as Python's ``max``."""
    return np.floor(np.where(counters < 0.0, 0.0, counters))


@dataclass
class LoopCountingAttacker(Attacker):
    """This paper's attack: no memory accesses, pure instruction throughput."""

    rate_model: IterationRateModel = field(default_factory=IterationRateModel)
    name: str = "loop-counting"

    def count(
        self,
        exec_ns: float,
        t_begin_ns: float,
        run: MachineRun,
        rng: np.random.Generator,
    ) -> float:
        ghz = run.frequency.ghz_at(t_begin_ns)
        return exec_ns * self.rate_model.iterations_per_ns(ghz)

    def count_many(
        self,
        exec_ns: np.ndarray,
        t_begin_ns: np.ndarray,
        run: MachineRun,
        rng: np.random.Generator,
        noise_sigma: float,
    ) -> np.ndarray:
        ghz = run.frequency.ghz_at(t_begin_ns)
        counters = exec_ns * self.rate_model.iterations_per_ns(ghz)
        if noise_sigma > 0:
            counters = _noisy(counters, rng.normal(0.0, noise_sigma, size=len(counters)))
        return _floored(counters)


@dataclass
class SweepCountingAttacker(Attacker):
    """Shusterman et al.'s cache-occupancy attack.

    One iteration sweeps the whole LLC, so the iteration rate is two to
    three orders of magnitude lower (the paper observes ~32 sweeps per
    5 ms vs ~27 000 loop iterations) and varies with victim occupancy.
    Sweeps are memory-bound, so frequency scaling affects them weakly
    (``frequency_sensitivity`` < 1).
    """

    sweep_model: SweepTimingModel = field(default_factory=SweepTimingModel)
    frequency_sensitivity: float = 0.3
    base_ghz: float = 2.5
    #: Timing noise of a single sweep (DRAM contention, prefetcher state).
    sweep_jitter: float = 0.05
    #: Extra scaling on observed occupancy (the machine model already
    #: caps victim residency and adds ambient noise); 1.0 means "use the
    #: machine's observable occupancy as-is".  Setting 0 ablates the
    #: cache channel entirely (benchmarks/test_ablations.py).
    occupancy_coupling: float = 1.0
    name: str = "sweep-counting"

    def count(
        self,
        exec_ns: float,
        t_begin_ns: float,
        run: MachineRun,
        rng: np.random.Generator,
    ) -> float:
        victim, ambient = run.occupancy_components_at(t_begin_ns)
        occupancy = float(np.clip(self.occupancy_coupling * victim + ambient, 0.0, 1.0))
        sweep_ns = self.sweep_model.sweep_ns(occupancy)
        sweep_ns *= max(0.1, 1.0 + rng.normal(0.0, self.sweep_jitter))
        ghz = run.frequency.ghz_at(t_begin_ns)
        speedup = (ghz / self.base_ghz) ** self.frequency_sensitivity
        return exec_ns * speedup / sweep_ns

    def count_many(
        self,
        exec_ns: np.ndarray,
        t_begin_ns: np.ndarray,
        run: MachineRun,
        rng: np.random.Generator,
        noise_sigma: float,
    ) -> np.ndarray:
        # Per period the scalar order is one jitter draw, then one noise
        # draw: interleaved, they are the even and odd standard normals.
        if noise_sigma > 0:
            draws = rng.standard_normal(2 * len(exec_ns))
            jitter_draws, noise_draws = draws[0::2], draws[1::2]
        else:
            jitter_draws, noise_draws = rng.standard_normal(len(exec_ns)), None
        victim, ambient = run.occupancy_components_at(t_begin_ns)
        occupancy = np.clip(self.occupancy_coupling * victim + ambient, 0.0, 1.0)
        jitter = 1.0 + self.sweep_jitter * jitter_draws
        sweep_ns = self.sweep_model.sweep_ns(occupancy) * np.where(jitter > 0.1, jitter, 0.1)
        # Python's ``**`` once per distinct turbo bin: a vectorised pow
        # need not round like libm's in the last place.
        levels, level_of = np.unique(run.frequency.ghz_at(t_begin_ns), return_inverse=True)
        speedups = [(ghz / self.base_ghz) ** self.frequency_sensitivity for ghz in levels.tolist()]
        counters = exec_ns * np.array(speedups, dtype=np.float64)[level_of] / sweep_ns
        if noise_draws is not None:
            counters = _noisy(counters, noise_sigma * noise_draws)
        return _floored(counters)
