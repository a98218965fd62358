"""The engine's failure path, driven by hand-built futures: no processes.

``_settle`` is checked on futures put into each state by hand, and a
scripted stand-in for ``ProcessPoolExecutor`` feeds such futures to
``ExecutionEngine.map`` so each (pool state, outcome) row of the
engine's policy table is checked for what it charges: which failure
kind is recorded, whether the attempt spends budget, and whether the
scheduler backs off before the retry.
"""

from __future__ import annotations

import concurrent.futures
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.engine import ExecutionEngine, TaskFailedError
from repro.engine import faults
from repro.engine.engine import _settle


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """The inline fallback runs tasks in-process; keep CI plans out."""
    monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
    faults._CACHED = None


def _square(x: int) -> int:
    return x * x


def _done(value) -> Future:
    future = Future()
    future.set_result((value, 0.0))
    return future


def _raised(error: BaseException) -> Future:
    future = Future()
    future.set_exception(error)
    return future


def _lost() -> Future:
    return _raised(BrokenProcessPool("a worker died"))


def _hung() -> Future:
    return Future()  # never finishes


class TestSettle:
    def test_unsubmitted(self):
        assert _settle(None, None, poll=False) == ("unsubmitted", None)
        assert _settle(None, None, poll=True) == ("unsubmitted", None)

    @pytest.mark.parametrize("poll", [False, True])
    def test_done(self, poll):
        assert _settle(_done(7), None, poll=poll) == ("done", (7, 0.0))

    @pytest.mark.parametrize("poll", [False, True])
    def test_raised(self, poll):
        error = ValueError("boom")
        assert _settle(_raised(error), None, poll=poll) == ("raised", error)

    @pytest.mark.parametrize("poll", [False, True])
    def test_lost(self, poll):
        assert _settle(_lost(), None, poll=poll) == ("lost", None)

    def test_wait_times_out(self):
        assert _settle(_hung(), 0.01, poll=False) == ("timeout", None)

    def test_poll_never_waits(self):
        started = time.perf_counter()
        assert _settle(_hung(), None, poll=True) == ("unfinished", None)
        assert time.perf_counter() - started < 1.0

    def test_cancelled_is_unfinished(self):
        future = _hung()
        assert future.cancel()
        assert _settle(future, None, poll=True) == ("unfinished", None)

    def test_polled_task_timeout_error_is_raised(self):
        # A finished future re-raising the task's own TimeoutError is a
        # task failure, not a scheduler timeout.
        error = TimeoutError("the task's own")
        assert _settle(_raised(error), None, poll=True) == ("raised", error)


@pytest.fixture
def scripted(monkeypatch):
    """Replace the process pool with a queue of hand-built futures.

    Each ``submit`` logs ``(index, attempt)`` and hands out the next
    scripted future; a scripted ``None`` makes that submit fail the way
    a broken pool does.  Backoff sleeps are logged instead of slept.
    """
    script = {"futures": [], "submitted": [], "pools": 0, "sleeps": []}

    class ScriptedPool:
        def __init__(self, max_workers):
            script["pools"] += 1

        def submit(self, task, item):
            future = script["futures"].pop(0)
            if future is None:
                raise BrokenProcessPool("pool died at submit")
            script["submitted"].append((task.index, task.attempt))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ScriptedPool)
    monkeypatch.setattr(time, "sleep", script["sleeps"].append)
    return script


def _errors(engine: ExecutionEngine):
    return [(e.index, e.kind, e.attempt) for e in engine.stages["w"].errors]


class TestPolicy:
    def test_healthy_raised_retries_after_backoff(self, scripted):
        scripted["futures"] = [_raised(ValueError("boom")), _done(10), _done(0)]
        engine = ExecutionEngine(jobs=2)
        assert engine.map(_square, [0, 1], stage="w") == [0, 10]
        assert _errors(engine) == [(0, "exception", 0)]
        assert scripted["sleeps"] == [engine.backoff_s]
        assert scripted["pools"] == 1  # a healthy pool is kept
        assert scripted["submitted"] == [(0, 0), (1, 0), (0, 1)]

    def test_broken_round(self, scripted):
        # Task 1's lost worker breaks the pool.  From then on: a task
        # error retries without backoff, an unfinished task is charged
        # as worker-lost, and the pool is respawned once.
        scripted["futures"] = [
            _done(0), _lost(), _raised(ValueError("boom")), _hung(),
            _done(1), _done(4), _done(9),
        ]
        engine = ExecutionEngine(jobs=2)
        assert engine.map(_square, range(4), stage="w") == [0, 1, 4, 9]
        assert _errors(engine) == [
            (1, "worker-lost", 0), (2, "exception", 0), (3, "worker-lost", 0),
        ]
        assert scripted["sleeps"] == []
        assert scripted["submitted"][4:] == [(1, 1), (2, 1), (3, 1)]
        assert engine.fault_snapshot() == {
            "retries": 3, "timeouts": 0, "tasks_lost": 2,
            "pool_respawns": 1, "task_errors": 3,
        }

    def test_broken_at_submit_requeues_unsubmitted_free(self, scripted):
        scripted["futures"] = [_done(0), None, _done(1), _done(4)]
        engine = ExecutionEngine(jobs=2)
        assert engine.map(_square, range(3), stage="w") == [0, 1, 4]
        assert engine.stages["w"].errors == []
        assert scripted["submitted"] == [(0, 0), (1, 0), (2, 0)]
        assert engine.fault_snapshot()["pool_respawns"] == 1
        assert engine.fault_snapshot()["retries"] == 0

    def test_wedged_round(self, scripted):
        # Two timeouts on a two-worker pool wedge it.  The tasks behind
        # them never got a worker: unfinished or lost, they are requeued
        # without a retry charge, and finished ones are kept.
        scripted["futures"] = [
            _hung(), _hung(), _hung(), _lost(), _done(16),
            _done(0), _done(1), _done(4), _done(9),
        ]
        engine = ExecutionEngine(jobs=2, task_timeout=0.01)
        assert engine.map(_square, range(5), stage="w") == [0, 1, 4, 9, 16]
        assert _errors(engine) == [(0, "timeout", 0), (1, "timeout", 0)]
        assert scripted["submitted"][5:] == [(0, 1), (1, 1), (2, 0), (3, 0)]
        assert scripted["sleeps"] == []
        assert engine.fault_snapshot() == {
            "retries": 2, "timeouts": 2, "tasks_lost": 0,
            "pool_respawns": 1, "task_errors": 2,
        }

    def test_twice_broken_pool_finishes_inline(self, scripted):
        scripted["futures"] = [_lost(), _lost(), _lost(), _lost()]
        engine = ExecutionEngine(jobs=2)
        assert engine.map(_square, [2, 3], stage="w") == [4, 9]
        assert scripted["pools"] == 2  # respawned once, then inline
        assert [kind for _, kind, _ in _errors(engine)] == ["worker-lost"] * 4
        assert engine.timings_snapshot()["w"]["tasks"] == 2

    def test_lost_task_exhausts_budget(self, scripted):
        scripted["futures"] = [_done(0), _lost()]
        engine = ExecutionEngine(jobs=2, retries=0)
        with pytest.raises(TaskFailedError, match="worker-lost") as excinfo:
            engine.map(_square, range(2), stage="w")
        assert excinfo.value.__cause__ is None
        assert engine.timings_snapshot()["w"]["tasks"] == 1  # task 0 finished
