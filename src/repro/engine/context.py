"""The single argument an experiment receives.

``RunContext`` carries the dataset scale, the base seed, the execution
engine (worker pool + stage timings) and the trace cache, so experiment
code never reaches for globals or environment variables.  Contexts are
cheap value objects — derive variants with :meth:`with_` the way
:class:`~repro.config.Scale` does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import DEFAULT, Scale
from repro.engine.engine import ExecutionEngine


@dataclass(frozen=True)
class RunContext:
    """Everything a registered experiment's ``run(ctx, **extras)`` needs."""

    scale: Scale = DEFAULT
    seed: int = 0
    engine: ExecutionEngine = None  # None: ExecutionEngine() (jobs from BIGGERFISH_JOBS)

    def __post_init__(self) -> None:
        if self.engine is None:
            object.__setattr__(self, "engine", ExecutionEngine())
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def cache(self):
        """The run's trace cache handle (None when caching is off)."""
        return self.engine.cache

    def with_(self, **changes) -> "RunContext":
        """Copy with fields replaced (``ctx.with_(scale=SMOKE)``)."""
        return replace(self, **changes)
