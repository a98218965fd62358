"""The repository benchmark: one command, three workloads, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload chrome-table1 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-open --seed 3 --seconds 20 --trace 1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a separate traced run and writes its spans to
``.perfbench/spans-<workload>-<seed>.json``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it say what ran and on what.  The
benchmark imports ``repro`` from ``src/`` of the checkout it runs in and
exits with status 2 when there is none.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for stores, artifacts and spans; ignored by git.
WORK_DIR = ROOT / ".perfbench"
#: Fresh-interpreter set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set the workload up and exit (how setup_s is timed)",
    )
    return parser.parse_args(argv)


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def time_setups(args) -> list:
    """Wall time of fresh interpreters that import repro and set up."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import repro
    import tracing
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, tmp, expected).close()
            return 0
        setups = [] if args.trace else time_setups(args)
        workload = WORKLOADS[args.workload](args.seed, tmp, expected)
        try:
            outcome = workload.measure(args.seconds, traced=bool(args.trace))
        finally:
            workload.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = dict(outcome.metrics)
    if args.trace:
        spans_path = WORK_DIR / f"spans-{args.workload}-{args.seed}.json"
        tracing.write_spans(spans_path, outcome.spans)
        outcome.notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        )
        outcome.notes.append(
            "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups)
        )
    promised = PER_LAYER if args.trace else {**END_TO_END, "setup_s": "s", "peak_rss_mb": "MB"}
    if {name: unit for name, (_, unit) in metrics.items()} != promised:
        raise RuntimeError(f"{args.workload} reported {sorted(metrics)}, not {sorted(promised)}")

    for note in outcome.notes:
        print(note)
    for problem in outcome.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "repro": repro.__version__,
            "commit": commit(),
            "seed": args.seed,
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "counts": outcome.counts,
        "digests": outcome.digests,
    }))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
