"""The streaming compat shim: wrap any SUT, stream its answer as chunks.

:class:`StreamingSUT` sits between the LoadGen (or any wrapper stack)
and an inner SUT.  Queries pass through unchanged; when the inner SUT
completes one, the wrapper replays the answer as the query's seeded
:class:`~repro.streaming.model.StreamPlan` - chunk events scheduled on
the run's event loop - and delivers the original response list right
after the final chunk.  Failures and chunks already produced by the
inner SUT pass straight through, so streaming wrappers nest.

Because chunks ride the normal responder channel, everything downstream
(retry wrappers, the TCP server, the fleet) needs no special casing to
*tolerate* streams; they only need extra code to *forward* them, which
is what the attempt engine in :mod:`repro.faults.filtering` provides.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.events import EventLoop
from ..core.query import Query, QueryFailure, QuerySampleResponse, StreamChunk
from ..core.sut import Responder, SutBase, SystemUnderTest
from .model import StreamModel


class StreamingSUT(SutBase):
    """Wraps ``inner`` and streams each of its answers as token chunks."""

    def __init__(
        self,
        inner: SystemUnderTest,
        model: Optional[StreamModel] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name or f"streaming({inner.name})")
        self.inner = inner
        self.model = model if model is not None else StreamModel()
        #: Streams currently being replayed (query id -> pending events),
        #: so ``flush`` and late failures know what is still in flight.
        self._active = {}

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self._active = {}
        self.inner.start_run(loop, self._on_inner_completion)

    def issue_query(self, query: Query) -> None:
        self.inner.issue_query(query)

    def flush(self) -> None:
        self.inner.flush()

    # -- inner completions become streams --------------------------------------

    def _on_inner_completion(self, query: Query, responses) -> None:
        if isinstance(responses, (QueryFailure, StreamChunk)):
            # Failures pass through; an already-streaming inner SUT's
            # chunks do too (nested streaming wrappers compose).
            self._responder(query, responses)
            return
        self._begin_stream(query, list(responses))

    def _begin_stream(
        self, query: Query, responses: List[QuerySampleResponse]
    ) -> None:
        plan = self.model.plan(query.id)
        loop = self.loop
        handles = []
        for seq, event in enumerate(plan.chunks):
            chunk = StreamChunk(
                query_id=query.id,
                seq=seq,
                token_count=event.token_count,
                last=event.last,
            )
            handles.append(
                loop.schedule_after(
                    event.offset, lambda q=query, c=chunk: self._emit(q, c)
                )
            )
        # The terminal completion lands at the final chunk's offset;
        # same-time events run FIFO, so the last chunk precedes it.
        handles.append(
            loop.schedule_after(
                plan.duration,
                lambda q=query, r=responses: self._finish(q, r),
            )
        )
        self._active[query.id] = handles

    def _emit(self, query: Query, chunk: StreamChunk) -> None:
        self._responder(query, chunk)

    def _finish(
        self, query: Query, responses: List[QuerySampleResponse]
    ) -> None:
        self._active.pop(query.id, None)
        self._responder(query, responses)


def streaming_echo(
    latency: float = 0.0,
    model: Optional[StreamModel] = None,
    name: str = "streaming-echo",
) -> StreamingSUT:
    """An EchoSUT answering through a streaming shim - the reference
    streaming backend used by tests, ``repro serve``, and the CLI."""
    from ..sut.echo import EchoSUT

    return StreamingSUT(EchoSUT(latency=latency), model=model, name=name)
