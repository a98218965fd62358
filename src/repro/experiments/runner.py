"""Command-line experiment runner.

Usage::

    biggerfish --list
    biggerfish fig3 table2 --scale smoke --seed 1
    biggerfish table1 --scale smoke --jobs 4 --save-dir out/
    biggerfish table1 --scale smoke --profile --save-dir out/
    biggerfish all --scale default
    biggerfish cache info
    biggerfish cache clear
    biggerfish report out/
    biggerfish lint src/ tests/ --format json
    biggerfish verify --seeds 25 --shrink
    biggerfish train --out model/ --scale smoke
    biggerfish serve --artifact model/ < requests.jsonl
    biggerfish predict --artifact model/ --scale smoke --check-direct
    biggerfish data build store/ --sites 20 --traces 30 --jobs 4

Each experiment prints the paper table/figure it regenerates.  The CLI
caches collected traces on disk by default (``--no-cache`` disables,
``--cache-dir`` / ``BIGGERFISH_CACHE_DIR`` relocate) and can fan work
out over worker processes (``--jobs`` / ``BIGGERFISH_JOBS``); parallel
runs produce bit-identical results to serial ones.  Parallel runs are
fault-tolerant: failed tasks retry deterministically (``--retries``),
hung tasks are abandoned past ``--task-timeout`` and re-executed, and
dead worker pools are respawned.  With ``--save-dir`` a
``run_manifest.json`` records per-stage timings, cache statistics and
fault counters (retries, timeouts, lost tasks, per-task error records)
next to the rendered tables.

``--profile`` turns on the :mod:`repro.obs` observability subsystem:
spans and metrics from every process are merged into ``profile.jsonl``,
rendered as an SVG timeline, and summarized into the manifest;
``biggerfish report <run-dir>`` prints the per-stage time/memory/cache
breakdown afterwards.  Profiling never changes results — a profiled
run's tables are bit-identical.

``biggerfish lint`` runs the :mod:`repro.lint` determinism linter
(seeded-RNG plumbing, simulated-time-only simulation code, order-stable
iteration); ``biggerfish verify`` runs the :mod:`repro.verify`
differential-oracle harness (every optimized path against its reference
over seeded cases, with counterexample shrinking — see
``docs/VERIFY.md``).  Both own their argument grammar — see
``biggerfish lint --help`` / ``biggerfish verify --help``.  The full
flag and environment-variable reference lives in ``docs/CLI.md``;
performance is measured by the benchmark in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile
import time

from repro import obs

# Importing the experiment modules populates the registry.
from repro.config import SCALES
from repro.engine import ExecutionEngine, RunContext, RunManifest, TraceCache
from repro.engine.cache import default_cache_dir
from repro.obs import export as obs_export
from repro.obs import report as obs_report
from repro.experiments import (  # noqa: F401  (registration side effects)
    ablation_timer,
    background_noise,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    table1,
    table2,
    table3,
    table4,
)
from repro.experiments.base import (
    get_experiment,
    list_experiments,
    suggest_experiment,
)
from repro.viz.figures import render


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biggerfish",
        description=(
            "Regenerate the tables and figures of 'There's Always a Bigger "
            "Fish' (ISCA 2022) on the simulated substrate."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=(
            "experiment ids (e.g. table1 fig5), 'all', or a subcommand: "
            "'cache info' / 'cache clear' / 'report <run-dir>' / "
            "'lint [paths]' / 'verify' / 'data ...'"
        ),
    )
    parser.add_argument("--scale", choices=sorted(SCALES), default="default")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: BIGGERFISH_JOBS or 1 = serial)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help="re-execution attempts per failed task "
        "(default: 2; retries are bit-identical)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abandon and retry a parallel task running longer than this "
        "(default: no timeout)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="trace cache location (default: BIGGERFISH_CACHE_DIR or "
        "~/.cache/biggerfish/traces)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk trace cache for this run",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--save-dir",
        default=None,
        help="write rendered tables (.txt), figures (.svg) and a "
        "run_manifest.json here",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record tracing spans and metrics; writes profile.jsonl and "
        "an SVG timeline into --save-dir",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=obs_report.DEFAULT_TOP_N,
        help="slowest spans to show in 'report' output and the manifest",
    )
    return parser


def _cache_command(args: argparse.Namespace) -> int:
    """Handle ``biggerfish cache info|clear``."""
    verbs = args.experiments[1:]
    verb = verbs[0] if verbs else "info"
    if len(verbs) > 1 or verb not in ("info", "clear"):
        print(
            "usage: biggerfish cache [info|clear]", file=sys.stderr
        )
        return 2
    cache = TraceCache(args.cache_dir or default_cache_dir())
    info = cache.info()
    if verb == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached trace(s) from {info['path']}")
        return 0
    print(f"cache dir:   {info['path']}")
    print(f"entries:     {info['entries']}")
    print(f"total bytes: {info['size_bytes']}")
    print(f"size cap:    {info['max_bytes']}")
    return 0


def _report_command(args: argparse.Namespace) -> int:
    """Handle ``biggerfish report <run-dir>``."""
    targets = args.experiments[1:]
    if len(targets) != 1:
        print("usage: biggerfish report <run-dir> [--top N]", file=sys.stderr)
        return 2
    code, text = obs_report.report_command(targets[0], top_n=args.top)
    print(text, file=sys.stderr if code else sys.stdout)
    return code


def _resolve_ids(requested: list[str]) -> list[str] | None:
    """Validate experiment ids; print did-you-mean and return None on error."""
    if requested == ["all"]:
        return list_experiments()
    known = set(list_experiments())
    unknown = [e for e in requested if e not in known]
    if unknown:
        for experiment_id in unknown:
            hints = suggest_experiment(experiment_id)
            suggestion = f" (did you mean: {', '.join(hints)}?)" if hints else ""
            print(
                f"biggerfish: unknown experiment {experiment_id!r}{suggestion}",
                file=sys.stderr,
            )
        print(
            "biggerfish: available: " + ", ".join(list_experiments()),
            file=sys.stderr,
        )
        return None
    return requested


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "lint":
        # The linter owns its argument grammar (--select, --baseline,
        # ...), so dispatch before this module's parser sees the args.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "verify":
        # Same deal for the differential-oracle harness (--seeds, --shrink).
        from repro.verify.cli import main as verify_main

        return verify_main(argv[1:])
    if argv and argv[0] in ("train", "serve", "predict"):
        # And the model-serving CLI (artifacts, batched inference).
        from repro.serve.cli import main as serve_main

        return serve_main(argv)
    if argv and argv[0] == "data":
        # And the sharded dataset store (build/ls/verify/merge).
        from repro.data.cli import main as data_main

        return data_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiments and args.experiments[0] == "cache":
        return _cache_command(args)
    if args.experiments and args.experiments[0] == "report":
        return _report_command(args)
    if args.list or not args.experiments:
        print("available experiments:", ", ".join(list_experiments()))
        return 0
    wanted = _resolve_ids(args.experiments)
    if wanted is None:
        return 2
    scale = SCALES[args.scale]
    cache = None
    if not args.no_cache:
        cache = TraceCache(args.cache_dir or default_cache_dir())
    try:
        engine = ExecutionEngine(
            jobs=args.jobs,
            cache=cache,
            retries=args.retries,
            task_timeout=args.task_timeout,
        )
    except ValueError as error:  # bad --jobs / --retries / --task-timeout
        print(f"biggerfish: {error}", file=sys.stderr)
        return 2
    ctx = RunContext(scale=scale, seed=args.seed, engine=engine)
    save_dir = pathlib.Path(args.save_dir) if args.save_dir else None
    if save_dir:
        save_dir.mkdir(parents=True, exist_ok=True)
    spool_dir = None
    if args.profile:
        spool_dir = (
            save_dir / ".obs-spool"
            if save_dir
            else pathlib.Path(tempfile.mkdtemp(prefix="biggerfish-obs-"))
        )
        obs.enable(spool_dir)
    manifest = RunManifest(
        scale=scale.name,
        seed=args.seed,
        jobs=engine.jobs,
        scale_params=scale.as_dict(),
    )
    exit_code = 0
    try:
        for experiment_id in wanted:
            run = get_experiment(experiment_id)
            engine.reset_timings()
            started = time.time()
            try:
                with obs.span("experiment." + experiment_id, scale=scale.name):
                    result = run(ctx)
            except Exception as error:
                # A crashed run still leaves a diagnosable partial
                # manifest (status="failed") and its profile artifacts.
                elapsed = time.time() - started
                manifest.add_experiment(
                    experiment_id, elapsed, engine.timings_snapshot()
                )
                manifest.mark_failed(experiment_id, error)
                print(
                    f"biggerfish: {experiment_id} failed after {elapsed:.1f}s: "
                    f"{type(error).__name__}: {error}",
                    file=sys.stderr,
                )
                exit_code = 1
                break
            elapsed = time.time() - started
            manifest.add_experiment(experiment_id, elapsed, engine.timings_snapshot())
            print(f"=== {experiment_id} (scale={scale.name}, {elapsed:.1f}s) ===")
            print(result.format_table())
            print()
            if save_dir:
                (save_dir / f"{experiment_id}.txt").write_text(
                    result.format_table() + "\n"
                )
                svg = render(experiment_id, result)
                if svg is not None:
                    (save_dir / f"{experiment_id}.svg").write_text(svg)
    finally:
        manifest.finalize(engine)
        if spool_dir is not None:
            obs.flush_metrics()
            profile, summary = obs_export.export_run(
                spool_dir, save_dir, top_n=args.top
            )
            manifest.profile = summary
            obs.disable()
            if save_dir is None:
                print(
                    obs_report.format_report(
                        pathlib.Path("."), profile, manifest.as_dict(), top_n=args.top
                    )
                )
        if cache is not None:
            stats = cache.stats
            print(
                f"[cache] {stats.hits} hit(s), {stats.misses} miss(es), "
                f"{stats.puts} put(s) in {cache.path}"
            )
        if save_dir:
            manifest.write(save_dir)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
