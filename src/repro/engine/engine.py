"""The work scheduler behind parallel experiment execution.

``ExecutionEngine.map`` is deliberately the *only* parallel primitive:
callers pre-compute one task description per unit of work (a (site,
trace-index) pair, a CV fold), each task derives its own RNG stream from
the task description alone, and the engine returns results in input
order.  Under those rules a parallel run is bit-identical to a serial
one — the scheduler never influences the numbers, only the wall clock.

Because every task is a pure function of its description, the scheduler
is also free to *re-execute* tasks: a retry is bit-identical to the
first attempt.  Dispatch is future-based (one ``submit`` per task, not a
fire-and-forget ``pool.map``), which is what makes fault tolerance
possible.  A parallel ``map`` runs in rounds: submit every pending task,
then settle each future in input order.  :func:`_settle` classifies a
future as *done*, *raised*, *timeout* (outlived ``task_timeout``),
*lost* (its worker died: ``BrokenExecutor``), *unfinished* or
*unsubmitted*, and one table, :data:`_POLICY`, decides what that means
under the pool's state:

=============  ===================  ===================  ==============
outcome        healthy (waits)      broken (polls)       wedged (polls)
=============  ===================  ===================  ==============
done           keep                 keep                 keep
raised         retry after backoff  retry                retry after backoff
timeout        retry                —                    —
lost           becomes broken       retry (worker-lost)  requeue free
unfinished     —                    retry (worker-lost)  requeue free
unsubmitted    —                    requeue free         —
=============  ===================  ===================  ==============

A healthy pool turns *wedged* once as many of its futures have timed
out as it has workers (each may still hold a worker), and *broken* when
a submit or a result reports a dead worker; the future that reported it
is then settled as broken.

A retry spends one attempt of the task's budget (``retries``) and is
recorded as a structured :class:`TaskError`; "requeue free" re-runs a
task that never got a worker without charging it.  Backoff is capped
exponential and deterministic (no jitter); it is skipped where the wait
already happened or the pool is being replaced.  A broken or wedged
round ends by replacing the pool: a broken pool is respawned once, and
if it breaks again the round's requeued tasks finish inline in the
parent, sharing the attempts already burned.  Wedged respawns are not
limited.  Every failed attempt reaches the run manifest through
``timings_snapshot``/``fault_snapshot``, and a task that exhausts its
budget raises :class:`TaskFailedError`.

Worker processes are spawned per ``map`` call via
``concurrent.futures.ProcessPoolExecutor``; tasks and their arguments
must therefore be picklable module-level callables.  Objects holding an
engine handle must drop it when pickled (see
``TraceCollector.__getstate__``) so handles never cross the process
boundary.  The test-only :mod:`repro.engine.faults` hook sabotages tasks
at the top of ``_TimedTask.__call__`` so all of the above is exercised
in CI.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
import traceback as traceback_module
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro import obs
from repro.engine import faults as engine_faults

#: Environment variable overriding the default worker count.  This is
#: the one place a run's worker count is resolved; every CLI defers here.
JOBS_ENV_VAR = "BIGGERFISH_JOBS"

#: Re-execution attempts allowed per task after the first failure.
DEFAULT_RETRIES = 2
#: Base of the deterministic exponential backoff between attempts.
DEFAULT_BACKOFF_S = 0.05
#: Cap on a single backoff sleep.
BACKOFF_CAP_S = 1.0
#: Structured task errors kept per stage (totals keep counting past it).
MAX_RECORDED_ERRORS_PER_STAGE = 100

#: (pool state, outcome) -> (failure kind charged to the task, backoff).
#: A kind of None requeues the task without spending its budget.  A
#: "done" outcome keeps its result in every state; the pairs left out
#: cannot occur (only a healthy pool waits, so only it sees timeouts,
#: and a healthy pool that loses a worker is broken from then on).
_POLICY: Dict[Tuple[str, str], Tuple[Optional[str], bool]] = {
    ("healthy", "raised"): ("exception", True),
    ("healthy", "timeout"): ("timeout", False),
    ("broken", "raised"): ("exception", False),
    ("broken", "lost"): ("worker-lost", False),
    ("broken", "unfinished"): ("worker-lost", False),
    ("broken", "unsubmitted"): (None, False),
    ("wedged", "raised"): ("exception", True),
    ("wedged", "lost"): (None, False),
    ("wedged", "unfinished"): (None, False),
}

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class TaskError:
    """One failed attempt at one task, as recorded in the manifest."""

    stage: str
    index: int
    attempt: int
    #: "exception" | "timeout" | "worker-lost"
    kind: str
    error_type: str
    message: str
    #: Remote (or local) traceback tail, best effort.
    where: str = ""

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


class TaskFailedError(RuntimeError):
    """A task exhausted its retry budget; carries the final TaskError."""

    def __init__(self, task_error: TaskError):
        self.task_error = task_error
        super().__init__(
            f"task {task_error.index} in stage "
            f"{task_error.stage or '<unnamed>'} failed ({task_error.kind}) "
            f"after {task_error.attempt + 1} attempt(s): "
            f"{task_error.error_type}: {task_error.message}"
        )


@dataclass(frozen=True)
class _TimedTask:
    """Wraps a task function so workers report their own elapsed time.

    ``engine.map`` used to time only the ``map()`` call, which hides the
    per-task distribution — the slowest worker was invisible.  The
    wrapper times each task where it runs and returns ``(result,
    elapsed_s)``; the parent unpacks results and folds the timings into
    the stage statistics.  It also flushes the worker's pending metric
    deltas after every task, which is what gets worker-side observability
    data onto disk even though pool teardown skips ``atexit``.

    ``index``/``attempt`` identify the attempt for the fault-injection
    hook (consulted before the task function runs, so a sabotaged
    attempt has no side effects to double on retry).
    """

    fn: Callable
    stage: Optional[str]
    index: int = 0
    attempt: int = 0

    def __call__(self, item):
        engine_faults.maybe_inject(self.stage or "", self.index, self.attempt)
        started = time.perf_counter()
        with obs.span("engine.task", stage=self.stage or ""):
            result = self.fn(item)
        elapsed = time.perf_counter() - started
        obs.flush_metrics()
        return result, elapsed


@dataclass
class _Stage:
    """Everything recorded under one stage name, across ``map`` calls."""

    #: Cumulative wall-clock seconds spent in ``map``.
    seconds: float = 0.0
    #: Elapsed seconds of every *completed* task.
    task_seconds: List[float] = field(default_factory=list)
    #: Re-executed attempts.
    retries: int = 0
    #: Attempts abandoned past the per-task timeout.
    timeouts: int = 0
    #: Attempts lost to dead worker processes.
    tasks_lost: int = 0
    #: Structured records of failed attempts (the first 100).
    errors: List[TaskError] = field(default_factory=list)

    def snapshot(self) -> Dict[str, object]:
        """The stage's manifest entry; fault fields only when non-zero."""
        entry: Dict[str, object] = {
            "seconds": round(self.seconds, 6),
            "tasks": len(self.task_seconds),
        }
        if self.task_seconds:
            entry["task_seconds"] = {
                "min": round(min(self.task_seconds), 6),
                "mean": round(sum(self.task_seconds) / len(self.task_seconds), 6),
                "max": round(max(self.task_seconds), 6),
            }
        for label in ("retries", "timeouts", "tasks_lost"):
            if getattr(self, label):
                entry[label] = getattr(self, label)
        if self.errors:
            entry["task_errors"] = [record.as_dict() for record in self.errors]
        return entry


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count from an explicit value, ``BIGGERFISH_JOBS``, or 1.

    The default is *serial*: parallelism is opt-in via ``--jobs`` or the
    environment, mirroring the CLI contract.
    """
    if jobs is not None:
        value = int(jobs)
    else:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        try:
            value = int(raw) if raw else 1
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    if value < 1:
        raise ValueError(f"jobs must be >= 1, got {value}")
    return value


def _settle(
    future: Optional[Future], timeout: Optional[float], poll: bool
) -> Tuple[str, object]:
    """What became of one submitted attempt, as ``(outcome, value)``.

    The outcome is "done" (value: the ``(result, elapsed)`` pair),
    "raised" (value: the task's exception), "timeout" (no result within
    ``timeout`` seconds), "lost" (its worker died), "unfinished" (still
    running or cancelled) or "unsubmitted" (``future`` is None).  With
    ``poll`` the call never waits, so it never times out: a broken or
    wedged pool's futures are only triaged.
    """
    if future is None:
        return "unsubmitted", None
    if poll and (not future.done() or future.cancelled()):
        return "unfinished", None
    try:
        return "done", future.result(timeout=None if poll else timeout)
    except FuturesTimeout as error:
        if poll:  # finished: the task raised a TimeoutError of its own
            return "raised", error
        return "timeout", None
    except BrokenExecutor:
        return "lost", None
    except Exception as error:
        return "raised", error


class ExecutionEngine:
    """Fans independent tasks out over worker processes, surviving faults.

    ``jobs=1`` (the default) executes tasks inline — no processes, no
    pickling — so library users pay nothing unless they opt in.  The
    engine also carries the run's :class:`~repro.engine.cache.TraceCache`
    handle (``cache=None`` disables caching) and accumulates one
    :class:`_Stage` record per stage name (wall-clock time, per-task
    spread, fault counters, structured errors) for the run manifest.

    ``retries`` (default 2) is the number of re-executions allowed per
    task; ``task_timeout`` (default None: wait forever) abandons a
    parallel task after that many seconds, measured from when the
    scheduler starts waiting on it, which upper-bounds the task's own
    runtime.  Retries are deterministic: tasks are pure functions of
    their descriptions, so a re-executed task is bit-identical, and
    backoff is capped exponential with no jitter.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache=None,
        retries: Optional[int] = None,
        task_timeout: Optional[float] = None,
        backoff_s: float = DEFAULT_BACKOFF_S,
    ):
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.retries = DEFAULT_RETRIES if retries is None else int(retries)
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        self.task_timeout = None if task_timeout is None else float(task_timeout)
        if self.task_timeout is not None and not 0 < self.task_timeout < math.inf:
            raise ValueError(
                f"task timeout must be positive and finite, got {self.task_timeout}"
            )
        self.backoff_s = float(backoff_s)
        #: Stage name -> everything recorded under it.
        self.stages: Dict[str, _Stage] = {}
        #: Run-lifetime fault totals (survive ``reset_timings``).
        self.fault_totals: Dict[str, int] = {
            "retries": 0,
            "timeouts": 0,
            "tasks_lost": 0,
            "pool_respawns": 0,
            "task_errors": 0,
        }

    def __repr__(self) -> str:
        cache = "on" if self.cache is not None else "off"
        return (
            f"ExecutionEngine(jobs={self.jobs}, cache={cache}, "
            f"retries={self.retries}, task_timeout={self.task_timeout})"
        )

    # ------------------------------------------------------------------

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        stage: Optional[str] = None,
    ) -> list[R]:
        """Apply ``fn`` to every item, preserving input order.

        With ``jobs > 1`` and more than one item, work is distributed
        over a fresh process pool; otherwise it runs inline.  ``fn`` and
        the items must be picklable for the parallel path.  Failed
        attempts are retried up to ``self.retries`` times; a task that
        exhausts the budget raises :class:`TaskFailedError` with the
        final :class:`TaskError` attached.
        """
        items = list(items)
        task = _TimedTask(fn, stage)
        # An unnamed stage still counts toward the run's fault totals,
        # but its record is never kept.
        record = _Stage() if stage is None else self.stages.setdefault(stage, _Stage())
        # ``(result, elapsed)`` per item, filled in as tasks finish.
        outcomes: list = [None] * len(items)
        started = time.perf_counter()
        try:
            with obs.span(
                "engine.map", stage=stage or "", tasks=len(items), jobs=self.jobs
            ):
                if self.jobs == 1 or len(items) <= 1:
                    for index, item in enumerate(items):
                        outcomes[index] = self._run_inline(task, record, item, index)
                else:
                    self._map_parallel(task, record, items, outcomes)
        finally:
            # A failed stage records only the work that actually
            # finished — precisely known because dispatch is per-task.
            record.seconds += time.perf_counter() - started
            record.task_seconds.extend(
                outcome[1] for outcome in outcomes if outcome is not None
            )
        return [result for result, _ in outcomes]

    def _run_inline(
        self,
        task: _TimedTask,
        record: _Stage,
        item,
        index: int,
        first_attempt: int = 0,
    ):
        """One task in the parent process, with the same retry contract.

        Also the terminal fallback when the worker pool keeps dying:
        ``first_attempt`` carries over the attempts already burned in
        workers so the budget is shared across execution modes.
        """
        attempt = first_attempt
        while True:
            try:
                return dataclasses.replace(task, index=index, attempt=attempt)(item)
            except Exception as error:
                self._charge(task, record, index, attempt, "exception", error, True)
                attempt += 1

    def _map_parallel(
        self, task: _TimedTask, record: _Stage, items: list, outcomes: list
    ) -> None:
        """Fill ``outcomes`` round by round, applying :data:`_POLICY`."""
        from concurrent.futures import ProcessPoolExecutor

        workers = min(self.jobs, len(items))
        attempts = [0] * len(items)
        pending = list(range(len(items)))
        pool = ProcessPoolExecutor(max_workers=workers)
        respawns_left = 1  # broken-pool budget; then fall back inline
        abandoned = 0  # futures left running past their timeout
        try:
            while pending:
                futures = {}
                state = "healthy"
                for i in pending:
                    try:
                        futures[i] = pool.submit(
                            dataclasses.replace(task, index=i, attempt=attempts[i]),
                            items[i],
                        )
                    except BrokenExecutor:
                        state = "broken"  # the rest stay unsubmitted
                        break
                requeued = []
                for i in pending:
                    outcome, value = _settle(
                        futures.get(i), self.task_timeout, poll=state != "healthy"
                    )
                    if outcome == "done":
                        outcomes[i] = value
                        continue
                    if (state, outcome) == ("healthy", "lost"):
                        state = "broken"
                    kind, backoff = _POLICY[state, outcome]
                    if outcome == "timeout":
                        abandoned += 1
                        if abandoned >= workers:
                            # Every worker may be wedged on an abandoned
                            # task; stop charging innocent queued tasks
                            # with spurious timeouts and respawn.
                            state = "wedged"
                    if kind is not None:
                        self._charge(task, record, i, attempts[i], kind, value, backoff)
                        attempts[i] += 1
                    requeued.append(i)
                pending = requeued
                if state == "healthy":
                    continue
                pool.shutdown(wait=False, cancel_futures=True)
                abandoned = 0
                if state == "broken" and not respawns_left:
                    # The pool died twice: finish inline, sharing the
                    # per-task attempt budget already burned.
                    for i in pending:
                        outcomes[i] = self._run_inline(
                            task, record, items[i], i, first_attempt=attempts[i]
                        )
                    break
                if state == "broken":
                    respawns_left -= 1
                self._tally("pool_respawns", "engine.pool_respawns")
                pool = ProcessPoolExecutor(max_workers=workers)
        finally:
            # Abandoned (timed-out) tasks may still be running; waiting
            # on them would stall the run for exactly the hang we just
            # routed around.
            pool.shutdown(wait=abandoned == 0, cancel_futures=True)

    # -- fault accounting -----------------------------------------------

    def _tally(self, total_key: str, counter: str) -> None:
        self.fault_totals[total_key] += 1
        obs.counter(counter).inc()

    def _charge(
        self,
        task: _TimedTask,
        record: _Stage,
        index: int,
        attempt: int,
        kind: str,
        error: Optional[BaseException],
        backoff: bool,
    ) -> None:
        """Record one failed attempt and spend a retry on the task.

        ``kind`` is "exception" (``error`` is what the task raised),
        "timeout" or "worker-lost".  Raises :class:`TaskFailedError`
        once ``attempt`` was the last the budget allows.
        """
        if kind == "timeout":
            error = TimeoutError(f"task exceeded the {self.task_timeout}s task timeout")
            record.timeouts += 1
            self._tally("timeouts", "engine.task_timeouts")
        elif kind == "worker-lost":
            error = RuntimeError("worker process died before the task finished")
            record.tasks_lost += 1
            self._tally("tasks_lost", "engine.tasks_lost")
        failure = TaskError(
            stage=task.stage or "",
            index=index,
            attempt=attempt,
            kind=kind,
            error_type=type(error).__name__,
            message=str(error),
            where=_error_where(error),
        )
        if len(record.errors) < MAX_RECORDED_ERRORS_PER_STAGE:
            record.errors.append(failure)
        self.fault_totals["task_errors"] += 1
        if attempt >= self.retries:
            raise TaskFailedError(failure) from (error if kind == "exception" else None)
        record.retries += 1
        self._tally("retries", "engine.retries")
        if backoff and self.backoff_s > 0:
            time.sleep(min(BACKOFF_CAP_S, self.backoff_s * (2**attempt)))

    def fault_snapshot(self) -> Dict[str, int]:
        """Run-lifetime fault totals (for the manifest's ``faults`` block)."""
        return dict(self.fault_totals)

    def timings_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Every stage's manifest entry (see :meth:`_Stage.snapshot`)."""
        return {name: self.stages[name].snapshot() for name in sorted(self.stages)}

    def reset_timings(self) -> None:
        """Clear per-stage records; run-lifetime fault totals persist."""
        self.stages.clear()


def _error_where(error: BaseException) -> str:
    """Best-effort location/traceback tail for a task error.

    Exceptions unpickled from workers carry the remote traceback as a
    ``_RemoteTraceback`` cause; locally raised ones still hold a real
    ``__traceback__``.
    """
    cause = getattr(error, "__cause__", None)
    if cause is not None and type(cause).__name__ == "_RemoteTraceback":
        lines = [line for line in str(cause).strip().splitlines() if line.strip()]
        return "\n".join(lines[-4:])
    if error.__traceback__ is not None:
        frame = traceback_module.extract_tb(error.__traceback__)[-1]
        return f"{frame.filename}:{frame.lineno}"
    return ""
