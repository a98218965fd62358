"""One module per paper table/figure, plus the registry and CLI runner."""

from repro.experiments.base import (
    ExperimentHandle,
    ExperimentResult,
    ExperimentSpec,
    all_specs,
    format_rows,
    get_experiment,
    get_spec,
    list_experiments,
    register,
    sparkline,
    suggest_experiment,
)

__all__ = [
    "ExperimentHandle", "ExperimentResult", "ExperimentSpec", "all_specs",
    "format_rows", "get_experiment", "get_spec", "list_experiments",
    "register", "sparkline", "suggest_experiment",
]
