"""Span tracer and transparent proxies for the benchmark's traced run.

Nothing here changes the program under test.  The traced run inserts
proxies *between* layers, using only the public SUT, QSL, event-loop and
``RunService`` protocols:

* :class:`SutProxy` sits between an outer layer and an inner SUT.  A call
  to ``issue_query`` becomes a ``<inner>.issue`` span; the inner layer's
  completions reach the outer layer's responder through a
  ``<outer>.up`` span (``<outer>.up_chunk`` for a streamed chunk).
* :class:`LoopProxy` is the loop a proxied layer sees.  Callbacks it
  schedules (deadlines, deliveries, chunk emissions) run inside a
  ``<layer>.timer`` span.
* :class:`ServiceProxy` does the same for a ``RunService`` (the chaos
  orchestrator's and the outlier detector's ticks).
* :class:`QslProxy` times the query sample library (lazy data sets).
* :class:`CountingClock` counts event-loop events (one per callback).

Spans nest by call stack, because the run is single-threaded and every
proxied call returns before its caller continues.  A layer's self time
is its span's duration minus the time its child spans cover, so a chunk
that a layer drops (and never forwards) still costs that layer only what
it spent, with no subtraction between neighbouring layers.

Spans stay in memory and are written at the end as Chrome trace-event
JSON (:meth:`Tracer.write_chrome_trace`), so every per-layer number can
be traced back to the spans it was summed from.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.core.events import VirtualClock
from repro.core.query import StreamChunk

_now_ns = time.perf_counter_ns

# Span record fields (a list per span keeps the hot path cheap).
NAME, QUERY, START, END, PARENT, CHILD_NS = range(6)


class Tracer:
    """In-memory span recorder with call-stack nesting."""

    def __init__(self) -> None:
        #: ``[name, query_id, start_ns, end_ns, parent_index, child_ns]``
        #: per span, in opening order; ``query_id`` is -1 for spans that
        #: belong to no query (timers, ticks, data set loads).
        self.spans: List[list] = []
        self._open: List[int] = []

    def begin(self, name: str, query_id: int) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, query_id, 0, 0, parent, 0]
        self.spans.append(span)
        self._open.append(index)
        span[START] = _now_ns()
        return index

    def end(self, index: int) -> None:
        stop = _now_ns()
        span = self.spans[index]
        span[END] = stop
        self._open.pop()
        parent = span[PARENT]
        if parent >= 0:
            self.spans[parent][CHILD_NS] += stop - span[START]

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span named ``name`` (no query id)."""

        def call(*args, **kwargs):
            index = self.begin(name, -1)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return call

    # -- ledger ---------------------------------------------------------------

    def self_ns(self) -> Dict[str, int]:
        """Self time per span name: duration minus covered child time."""
        totals: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span[NAME]] += span[END] - span[START] - span[CHILD_NS]
        return totals

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span[NAME]] += 1
        return totals

    def chunk_path_ns(self) -> int:
        """Inclusive time of streamed chunks' completion paths.

        A chunk's path starts at the outermost ``*.up_chunk`` span whose
        parent is not itself an ``up_chunk`` span - the first proxy the
        chunk crosses on its way up - and its inclusive duration covers
        every layer above, down to the LoadGen's referee.
        """
        total = 0
        spans = self.spans
        for span in spans:
            if not span[NAME].endswith(".up_chunk"):
                continue
            parent = span[PARENT]
            if parent >= 0 and spans[parent][NAME].endswith(".up_chunk"):
                continue
            total += span[END] - span[START]
        return total

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Write every span as a Chrome trace-event "complete" event.

        Times are microseconds from the first span.  Each event carries
        its query id and the index of its parent span in ``args``, so a
        per-layer self time can be recomputed from the file alone.
        """
        origin = self.spans[0][START] if self.spans else 0
        events = [{
            "name": span[NAME],
            "cat": span[NAME].split(".", 1)[0],
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (span[START] - origin) / 1e3,
            "dur": (span[END] - span[START]) / 1e3,
            "args": {"span": index, "query": span[QUERY],
                     "parent": span[PARENT]},
        } for index, span in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns",
                       "metadata": metadata}, handle)


class LoopProxy:
    """The event loop as one proxied layer sees it.

    Everything delegates to the real loop; callbacks the layer schedules
    run inside a ``<layer>.timer`` span.
    """

    def __init__(self, tracer: Tracer, loop, layer: str) -> None:
        self._loop = getattr(loop, "real_loop", loop)
        self._tracer = tracer
        self._name = layer + ".timer"

    @property
    def real_loop(self):
        return self._loop

    @property
    def now(self) -> float:
        return self._loop.now

    def _wrap(self, callback: Callable[[], None]) -> Callable[[], None]:
        tracer = self._tracer
        name = self._name

        def timed() -> None:
            index = tracer.begin(name, -1)
            try:
                callback()
            finally:
                tracer.end(index)

        return timed

    def schedule(self, when: float, callback: Callable[[], None]):
        return self._loop.schedule(when, self._wrap(callback))

    def schedule_after(self, delay: float, callback: Callable[[], None]):
        return self._loop.schedule_after(delay, self._wrap(callback))

    def __getattr__(self, attr: str):
        return getattr(self._loop, attr)


class SutProxy:
    """A SUT-protocol proxy between layer ``outer`` and ``inner``.

    ``layer`` names the inner SUT.  Attribute reads the proxy does not
    define fall through to ``inner``, so a wrapper that inspects its
    inner SUT (a cache's ``admit_session``, say) sees the real one.
    """

    def __init__(self, tracer: Tracer, inner, layer: str,
                 outer: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._layer = layer
        self._issue = layer + ".issue"
        self._up = outer + ".up"
        self._up_chunk = outer + ".up_chunk"
        self._responder = None

    @property
    def name(self) -> str:
        return self._inner.name

    def start_run(self, loop, responder) -> None:
        self._responder = responder
        self._inner.start_run(LoopProxy(self._tracer, loop, self._layer),
                             self._on_completion)

    def issue_query(self, query) -> None:
        tracer = self._tracer
        index = tracer.begin(self._issue, query.id)
        try:
            self._inner.issue_query(query)
        finally:
            tracer.end(index)

    def flush(self) -> None:
        tracer = self._tracer
        index = tracer.begin(self._issue, -1)
        try:
            self._inner.flush()
        finally:
            tracer.end(index)

    def _on_completion(self, query, responses) -> None:
        tracer = self._tracer
        name = (self._up_chunk if isinstance(responses, StreamChunk)
                else self._up)
        index = tracer.begin(name, query.id)
        try:
            self._responder(query, responses)
        finally:
            tracer.end(index)

    def __getattr__(self, attr: str):
        return getattr(self._inner, attr)


class ServiceProxy:
    """A ``RunService`` whose scheduled ticks run in ``<layer>.timer``."""

    def __init__(self, tracer: Tracer, service, layer: str) -> None:
        self._service = service
        self._tracer = tracer
        self._layer = layer

    def start(self, loop, keep_going) -> None:
        self._service.start(LoopProxy(self._tracer, loop, self._layer),
                           keep_going)

    def stop(self) -> None:
        self._service.stop()


class QslProxy:
    """A query sample library whose calls run in ``<layer>.load`` spans."""

    def __init__(self, tracer: Tracer, inner, layer: str) -> None:
        self._inner = inner
        name = layer + ".load"
        self.load_samples = tracer.timed(name, inner.load_samples)
        self.unload_samples = tracer.timed(name, inner.unload_samples)
        self.get_sample = tracer.timed(name, inner.get_sample)

    def __getattr__(self, attr: str):
        return getattr(self._inner, attr)


class CountingClock(VirtualClock):
    """A virtual clock that counts the events the loop advances to."""

    def __init__(self) -> None:
        super().__init__()
        self.events = 0

    def advance_to(self, t: float) -> None:
        self.events += 1
        super().advance_to(t)


class EventCounter:
    """Hands each LoadGen run a fresh :class:`CountingClock` (a run's
    timeline starts at zero) and sums their event counts."""

    def __init__(self) -> None:
        self._clocks: List[CountingClock] = []

    def clock(self) -> CountingClock:
        clock = CountingClock()
        self._clocks.append(clock)
        return clock

    @property
    def events(self) -> int:
        return sum(clock.events for clock in self._clocks)


def proxy_factory(tracer: Optional[Tracer]):
    """``wrap(inner, layer, outer)``: a :class:`SutProxy` when tracing,
    the bare ``inner`` otherwise, so the untraced stack has no proxies."""
    if tracer is None:
        return lambda inner, layer, outer: inner
    return lambda inner, layer, outer: SutProxy(tracer, inner, layer, outer)
