"""Open-loop load for ``FingerprintServer``: seeded Poisson arrivals.

Independent clients do not wait for each other's replies, so requests
are sent on a schedule drawn before the rung starts, whatever the
server is doing.  The calling thread walks the schedule, sleeps until
each request is due and hands it to ``FingerprintServer.submit``,
keeping the returned handle; it never waits for a reply before sending
the next request.  It is the only generator thread: on a 2-CPU host a
second one roughly doubled p50 at 1000-1500 requests/s, because every
extra thread adds interpreter-lock hand-offs that the server's worker
pays for.  Latency is timed from when a request was *due*, not from
when it was sent, so a stalled generator or a stalled server both show
up; how late the generator itself ran is reported separately.  A
refused or failed request counts as missing any latency limit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

#: Seconds between drawing the schedule and the first arrival.
LEAD_S = 0.02
#: How long to wait for every handle of a rung before giving up.
DRAIN_TIMEOUT_S = 30.0


def poisson_schedule(rate: float, duration: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets in seconds within ``[0, duration)`` at ``rate``/s."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 64)
    offsets = np.cumsum(gaps)
    while offsets[-1] < duration:
        more = np.cumsum(rng.exponential(1.0 / rate, size=len(gaps))) + offsets[-1]
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration]


def nearest_rank(values: np.ndarray, q: float) -> float:
    """The ``q`` quantile by nearest rank, so an infinite entry stays infinite."""
    ordered = np.sort(values)
    return float(ordered[max(math.ceil(q * len(ordered)) - 1, 0)])


@dataclass
class RungResult:
    rate: float
    due: np.ndarray  # absolute monotonic due times
    submitted: np.ndarray  # when submit() was entered
    done: np.ndarray  # completion time; inf for requests never served
    rows: np.ndarray  # pool row each request sent
    results: list  # PredictResult per request (None if never resolved)
    codes: Dict[str, int]

    @property
    def latency_ms(self) -> np.ndarray:
        return (self.done - self.due) * 1000.0

    @property
    def lateness_ms_max(self) -> float:
        return float((self.submitted - self.due).max() * 1000.0)

    @property
    def failures(self) -> int:
        return sum(n for code, n in self.codes.items() if code != "ok")

    def p(self, q: float) -> float:
        return nearest_rank(self.latency_ms, q)

    def backlog_growing(self, slack: int) -> bool:
        """Outstanding requests rose by more than ``slack`` across the rung.

        Outstanding work is arrivals due minus requests completed; its
        mean over the last quarter of the rung is compared with its mean
        over the second quarter.  A server that keeps up returns to a
        bounded backlog; one that does not keeps accumulating.
        """
        start, stop = self.due[0], self.due[-1]
        grid = np.linspace(start, stop, 81)
        due_sorted = np.sort(self.due)
        done_sorted = np.sort(self.done)
        outstanding = np.searchsorted(due_sorted, grid, side="right") - np.searchsorted(
            done_sorted, grid, side="right"
        )
        second = outstanding[20:40].mean()
        last = outstanding[60:].mean()
        return bool(last - second > slack)


def run_rung(server, pool: np.ndarray, offsets: np.ndarray, rows: np.ndarray,
             rate: float, deadline_ms: float) -> RungResult:
    """Send one schedule to ``server`` and wait for every response."""
    n = len(offsets)
    handles: List = [None] * n
    submitted = np.empty(n)
    due = time.monotonic() + LEAD_S + offsets
    for i in range(n):
        delay = due[i] - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        submitted[i] = time.monotonic()
        handles[i] = server.submit(pool[rows[i]], deadline_ms=deadline_ms)

    done = np.full(n, np.inf)
    results: list = [None] * n
    codes: Dict[str, int] = {}
    give_up = time.monotonic() + DRAIN_TIMEOUT_S
    for i, handle in enumerate(handles):
        if not handle.done.wait(max(give_up - time.monotonic(), 0.0)):
            codes["unresolved"] = codes.get("unresolved", 0) + 1
            continue
        result = handle.result
        results[i] = result
        code = "ok" if result.ok else result.error
        codes[code] = codes.get(code, 0) + 1
        if result.ok:
            # The server stamps ``enqueued`` on entry to submit() and
            # ``wait_ms`` when the batch holding the request finished.
            done[i] = handle.enqueued + result.wait_ms / 1000.0
    return RungResult(
        rate=rate, due=due, submitted=submitted, done=done, rows=rows,
        results=results, codes=codes,
    )
