"""In-memory spans and the timing shims of the traced run.

The traced run measures each layer of ``src/repro`` from outside: it
replaces the public entry points listed in :func:`_entry_points` with
wrappers that open a span, call the original and close the span.  Spans
carry their parent (per thread), so a layer's self time is its spans'
duration minus the part their direct children cover.  Nothing is
written while a run measures; :func:`write_spans` dumps every span at
the end.  Untraced runs install none of this.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional

#: The layers of ``src/repro`` the benchmark attributes time to.
LAYERS = ("workload", "sim", "core", "ml", "data", "serve")


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    thread: int
    start: float
    end: float = 0.0
    #: Work items the call handled: rows predicted, batch rows streamed.
    rows: int = 0
    #: Bytes the call wrote (``write_shard`` only).
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Collects spans from every thread; parents are tracked per thread.

    Spans use ``time.monotonic`` rather than ``perf_counter``: serve spans
    are matched against the server's own ``time.monotonic`` stamps.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(
            id=-1,
            parent=stack[-1].id if stack else None,
            name=name,
            thread=threading.get_ident(),
            start=0.0,
        )
        with self._lock:
            span.id = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span.start = time.monotonic()
        return span

    def end(self, span: Span) -> None:
        span.end = time.monotonic()
        self._local.stack.pop()


def _rows_of_first_arg(args, kwargs, result) -> int:
    return len(args[1])


def _bytes_written(args, kwargs, result) -> int:
    return int(result.n_bytes)


def _entry_points():
    """``(owner, attribute, span name, rows, bytes)`` for every shimmed call."""
    import repro.data.reader as reader
    import repro.data.writer as writer
    from repro.core.collector import TraceBatch, TraceCollector
    from repro.core.pipeline import FingerprintingPipeline
    from repro.ml.features import FeatureExtractor
    from repro.ml.models import FeatureFingerprinter, LstmFingerprinter
    from repro.serve.server import FingerprintServer
    from repro.sim.machine import InterruptSynthesizer
    from repro.workload.website import WebsiteProfile

    return [
        (WebsiteProfile, "generate_load", "workload.generate_load", None, None),
        (InterruptSynthesizer, "synthesize", "sim.synthesize", None, None),
        (TraceCollector, "collect", "core.collect", None, None),
        (TraceBatch, "stacked", "core.stack", None, None),
        (FeatureExtractor, "transform", "ml.features", None, None),
        (FeatureFingerprinter, "fit", "ml.fit", None, None),
        (LstmFingerprinter, "fit", "ml.fit", None, None),
        (FeatureFingerprinter, "predict_proba", "ml.predict", _rows_of_first_arg, None),
        (LstmFingerprinter, "predict_proba", "ml.predict", _rows_of_first_arg, None),
        (FingerprintingPipeline, "evaluate", "ml.cv", None, None),
        (writer, "build_dataset", "data.build", None, None),
        (writer, "write_shard", "data.write_shard", None, _bytes_written),
        (reader, "verify_store", "data.verify", None, None),
        (FingerprintServer, "submit", "serve.submit", None, None),
    ]


def _shim(recorder: Recorder, name: str, fn: Callable, rows, nbytes) -> Callable:
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if rows is not None:
            span.rows = rows(args, kwargs, result)
        if nbytes is not None:
            span.nbytes = nbytes(args, kwargs, result)
        return result

    return timed


def _stream_shim(recorder: Recorder, fn: Callable) -> Callable:
    """``stream_batches`` is a generator: time each batch as it is drawn."""

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        batches = fn(*args, **kwargs)
        while True:
            span = recorder.begin("data.stream")
            try:
                batch = next(batches)
            except StopIteration:
                return
            finally:
                recorder.end(span)
            span.rows = len(batch[0])
            yield batch

    return timed


class Shims:
    """Installs the timing shims for one traced unit, and removes them."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list = []

    def __enter__(self) -> "Shims":
        from repro.data.reader import ShardedDataset

        targets = [
            (owner, attr, _shim(self.recorder, name, owner.__dict__[attr], rows, nbytes))
            for owner, attr, name, rows, nbytes in _entry_points()
        ]
        targets.append(
            (
                ShardedDataset,
                "stream_batches",
                _stream_shim(self.recorder, ShardedDataset.__dict__["stream_batches"]),
            )
        )
        for owner, attr, replacement in targets:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Counters:
    """The program's own ``repro.obs`` counters, switched on while tracing."""

    def __init__(self, spool_dir) -> None:
        self.spool_dir = spool_dir
        self.values: Dict[str, int] = {}

    def __enter__(self) -> "Counters":
        from repro.obs import metrics

        self._registry = metrics.activate(self.spool_dir)
        return self

    def __exit__(self, *exc) -> None:
        from repro.obs import metrics

        self.values = dict(self._registry.snapshot()["counters"])
        metrics.deactivate()

    def get(self, name: str) -> int:
        return int(self.values.get(name, 0))


# ----------------------------------------------------------------------
# analysis


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the duration of its direct children."""
    spans = list(spans)
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {span.id: span.duration - covered.get(span.id, 0.0) for span in spans}


def total(spans: Iterable[Span], name: str) -> float:
    return sum(span.duration for span in spans if span.name == name)


def self_total(spans: List[Span], name: str, selfs: Dict[int, float]) -> float:
    return sum(selfs[span.id] for span in spans if span.name == name)


def layer_self(spans: List[Span], selfs: Dict[int, float]) -> Dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        if span.layer in out:
            out[span.layer] += selfs[span.id]
    return out


def unattributed_share(spans: List[Span], root: Span) -> float:
    """Share of ``root`` that no layer span, on any thread, covers."""
    intervals = sorted(
        (max(s.start, root.start), min(s.end, root.end))
        for s in spans
        if s.layer in LAYERS and s.end > root.start and s.start < root.end
    )
    covered = 0.0
    cursor = root.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return 1.0 - covered / root.duration if root.duration > 0 else 0.0


def write_spans(path, units: List[List[Span]]) -> None:
    """Every span of the traced run, grouped by unit, as one JSON file."""
    payload = [
        {"unit": index, "spans": [asdict(span) for span in spans]}
        for index, spans in enumerate(units)
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n")
