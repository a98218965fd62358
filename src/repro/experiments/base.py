"""Experiment infrastructure: results, formatting, registry.

Every paper table and figure has a module in this package registering
a context-style run function under an :class:`ExperimentSpec` (id,
paper reference, description)::

    @register("table1", paper_ref="Table 1", description="...")
    def run(ctx: RunContext, **extras) -> Table1Result: ...

The decorator binds the module-level ``run`` name to an
:class:`ExperimentHandle` holding the spec and the function.  The
context carries scale, seed, engine handle and trace cache; results know
how to print themselves as the rows/series the paper reports.  The
registry powers the ``biggerfish`` CLI and the benchmark harness.
Experiments take exactly one :class:`~repro.engine.context.RunContext`;
the pre-engine ``run(scale=, seed=)`` convention was removed after its
one-release deprecation window (build a context with
``RunContext(scale=..., seed=...)`` instead).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Sequence

from repro.engine.context import RunContext


class ExperimentResult(abc.ABC):
    """Base class for experiment outputs."""

    @abc.abstractmethod
    def format_table(self) -> str:
        """Human-readable rendition of the paper's table/figure."""

    def __str__(self) -> str:
        return self.format_table()


def format_rows(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width text table."""
    columns = [list(col) for col in zip(header, *rows)]
    widths = [max(len(cell) for cell in col) for col in columns]
    def render(cells):
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()
    lines = [render(header), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in rows)
    return "\n".join(lines)


def sparkline(values, width: int = 60) -> str:
    """Compact ASCII rendition of a series (for trace figures)."""
    import numpy as np

    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return ""
    if len(values) > width:
        usable = (len(values) // width) * width
        values = values[:usable].reshape(width, -1).mean(axis=1)
    lo, hi = float(values.min()), float(values.max())
    glyphs = " .:-=+*#%@"
    if hi - lo < 1e-12:
        return glyphs[0] * len(values)
    scaled = ((values - lo) / (hi - lo) * (len(glyphs) - 1)).astype(int)
    return "".join(glyphs[i] for i in scaled)


@dataclass(frozen=True)
class ExperimentSpec:
    """Identity of one experiment: id, paper reference, one-liner."""

    id: str
    paper_ref: str = ""
    description: str = ""


class ExperimentHandle:
    """A registered experiment: its spec plus its ``run(ctx, **extras)``.

    ``handle(ctx, **extras)`` / ``handle.run(ctx, **extras)`` — one
    :class:`RunContext` in, one :class:`ExperimentResult` out.  Passing
    a :class:`~repro.config.Scale` (or ``scale=`` / ``seed=`` keywords)
    raises ``TypeError``: the legacy convention was removed; build a
    context with ``RunContext(scale=..., seed=...)``.
    """

    def __init__(self, spec: ExperimentSpec, fn: Callable[..., ExperimentResult]):
        self.spec = spec
        self.fn = fn

    def run(self, ctx: RunContext, **extras) -> ExperimentResult:
        return self.fn(ctx, **extras)

    def __call__(self, *args, **extras) -> ExperimentResult:
        ctx = extras.pop("ctx", None)
        if args:
            if ctx is not None:
                raise TypeError("pass the RunContext positionally or as ctx=, not both")
            ctx, args = args[0], args[1:]
        if args:
            raise TypeError(f"unexpected positional arguments: {args!r}")
        if not isinstance(ctx, RunContext):
            raise TypeError(
                f"{self.spec.id} takes a RunContext, got {type(ctx).__name__}; "
                "the legacy run(scale=, seed=) convention was removed — use "
                "RunContext(scale=..., seed=...)"
            )
        return self.fn(ctx, **extras)

    def __repr__(self) -> str:
        return f"ExperimentHandle({self.spec.id!r})"


#: Registered experiments: id -> handle.
_REGISTRY: Dict[str, ExperimentHandle] = {}


def register(experiment_id: str, paper_ref: str = "", description: str = ""):
    """Decorator registering a ``run(ctx, **extras)`` experiment function.

    Returns an :class:`ExperimentHandle`, so the module-level ``run``
    name stays callable (``module.run(ctx, **extras)``).
    """

    def wrap(fn: Callable[..., ExperimentResult]) -> ExperimentHandle:
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        doc = (fn.__doc__ or "").strip()
        summary = description or (doc.splitlines()[0] if doc else "")
        spec = ExperimentSpec(
            id=experiment_id, paper_ref=paper_ref, description=summary
        )
        handle = ExperimentHandle(spec, fn)
        _REGISTRY[experiment_id] = handle
        return handle

    return wrap


def get_experiment(experiment_id: str) -> ExperimentHandle:
    """Look up a registered experiment by id (e.g. ``"table1"``).

    The returned handle is called with a single
    :class:`~repro.engine.context.RunContext`.
    """
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def get_spec(experiment_id: str) -> ExperimentSpec:
    """The :class:`ExperimentSpec` of a registered experiment."""
    return get_experiment(experiment_id).spec


def suggest_experiment(experiment_id: str, n: int = 3) -> list[str]:
    """Closest registered ids to a misspelled one (CLI did-you-mean)."""
    import difflib

    return difflib.get_close_matches(experiment_id, sorted(_REGISTRY), n=n, cutoff=0.4)


def list_experiments() -> list[str]:
    """All registered experiment ids."""
    return sorted(_REGISTRY)


def all_specs() -> list[ExperimentSpec]:
    """Specs of every registered experiment, sorted by id."""
    return [_REGISTRY[experiment_id].spec for experiment_id in sorted(_REGISTRY)]
