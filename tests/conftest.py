"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import Scale
from repro.engine import RunContext
from repro.experiments import fig4, fig6
from repro.sim.machine import InterruptSynthesizer, MachineConfig
from repro.workload.browser import LINUX
from repro.workload.website import profile_for


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def machine_config() -> MachineConfig:
    return MachineConfig(os=LINUX)


@pytest.fixture(scope="session")
def nytimes_run(machine_config):
    """One cached 8-second simulated load of nytimes.com."""
    synthesizer = InterruptSynthesizer(machine_config)
    generator = np.random.default_rng(7)
    site = profile_for("nytimes.com")
    timeline = site.generate_load(generator, 8_000_000_000)
    return synthesizer.synthesize(timeline, style=site.style, rng=generator)


#: A very small scale for experiment smoke tests.
TINY = Scale(
    name="tiny",
    n_sites=4,
    traces_per_site=4,
    trace_seconds=2.0,
    period_ms=10.0,
    n_folds=2,
    backend="feature",
    open_world_sites=10,
)


@pytest.fixture(scope="session")
def tiny_scale() -> Scale:
    return TINY


@pytest.fixture(scope="session")
def fig4_result():
    """Fig 4 at TINY scale, shared by the experiment and renderer tests."""
    return fig4.run(RunContext.default(scale=TINY.with_(traces_per_site=6), seed=4))


@pytest.fixture(scope="session")
def fig6_result():
    """Fig 6 at TINY scale, shared by the experiment and renderer tests."""
    return fig6.run(RunContext.default(scale=TINY.with_(trace_seconds=4.0), seed=4))
