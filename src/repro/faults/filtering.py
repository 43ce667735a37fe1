"""The attempt engine shared by every wrapper that re-issues work.

Four wrappers send a query to an unreliable source and may send it
again: the retry wrapper (:class:`~repro.faults.resilient.ResilientSUT`),
the self-healing layer (:class:`~repro.durability.healing.SelfHealingSUT`),
the replica fleet (:class:`~repro.fleet.replicaset.ReplicaSet`) and the
network client (:class:`~repro.network.client.NetworkSUT`).  They share
one problem: an answer may be a duplicate, a straggler that lost its
deadline race, an answer to a query the wrapper never sent, a flawed
response set, or a chunk of a stream the wrapper already restarted.
None of those may reach the referee.

:class:`CompletionFilter` is the one engine that solves it.  It owns the
in-flight table of :class:`Attempt` states, arms and cancels each
attempt's deadline (clamped to an optional total budget), screens
chunks (drops stale or out-of-sequence ones, re-arms the deadline on
clean ones and forwards them upward), screens terminal answers, and
resets stream progress on every reissue.  A wrapper keeps only its
routing policy, handed to the engine as plain callbacks:

* ``lost(state, flaw, source)`` - the attempt expired (``flaw`` is
  ``None``) or answered with a flaw; retry it (:meth:`launch`), add a
  concurrent attempt (:meth:`hedge`), or :meth:`give_up`;
* ``succeeded(state, source)`` - a clean terminal answer, called after
  the query is resolved and before it is completed upward;
* ``stale(source, responses)`` - a delivery the engine swallowed;
* ``accepts(state, source, chunk)`` - optional: refuse deliveries from a
  source the query has moved off, before they are screened.

Used bare (no owner), the class is still the in-flight registry plus
the terminal screen :meth:`screen`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, TypeVar

from ..core.events import EventHandle, EventLoop
from ..core.query import Query, QueryFailure, StreamChunk

S = TypeVar("S")


def malformed_reason(query: Query, responses) -> Optional[str]:
    """Why ``responses`` is not a well-formed answer to ``query``.

    Returns ``None`` for a clean response set.  This is the wrapper-side
    twin of the referee's checks in ``QueryLog.observe_completion``: the
    same response set the referee would record as a malformed-response
    failure is the one a wrapper should treat as a lost attempt.
    """
    if len(responses) != query.sample_count:
        return (
            f"expected {query.sample_count} responses, got {len(responses)}"
        )
    expected = {s.id for s in query.samples}
    got = {r.sample_id for r in responses}
    if got != expected:
        return (
            f"{len(got - expected)} responses name sample ids that are "
            "not part of the query"
        )
    return None


def _terminal_flaw(query: Query, responses) -> Optional[str]:
    if isinstance(responses, QueryFailure):
        return f"attempt failed: {responses.reason}"
    return malformed_reason(query, responses)


class Screened(NamedTuple):
    """Outcome of screening one inner completion.

    ``state`` is the object registered at admit time, or ``None`` when
    the completion is stale (duplicate, straggler, or never admitted) and
    must be swallowed.  ``flaw`` is set when the attempt resolved but its
    payload cannot be used: a :class:`QueryFailure` from below, or a
    malformed response set.
    """

    state: Optional[object]
    flaw: Optional[str]

    @property
    def stale(self) -> bool:
        return self.state is None

    @property
    def usable(self) -> bool:
        return self.state is not None and self.flaw is None


class Attempt:
    """One in-flight query's state, whichever wrapper routes it.

    ``target`` is where the current attempt went (a replica index, a
    backend role, a connection) and ``attempt`` counts the attempts the
    query has been charged beyond its first.  ``started`` anchors the
    total budget.  ``sent_at`` (when the current attempt went out),
    ``probe``, ``hedged``, ``dead`` and ``hedge_timer`` serve routing
    policies that need them; the engine never reads them.
    """

    __slots__ = ("query", "target", "attempt", "started", "sent_at",
                 "timer", "probe", "hedged", "dead", "hedge_timer")

    def __init__(self, query: Query, target: object, started: float,
                 probe: bool = False) -> None:
        self.query = query
        self.target = target
        self.attempt = 0
        self.started = started
        self.sent_at = started
        self.timer: Optional[EventHandle] = None
        self.probe = probe
        self.hedged = False
        self.dead: tuple = ()
        self.hedge_timer: Optional[EventHandle] = None


class _StreamProgress:
    """Where one in-flight query's chunk stream has advanced to."""

    __slots__ = ("next_seq", "saw_last")

    def __init__(self) -> None:
        self.next_seq = 0
        self.saw_last = False


class CompletionFilter:
    """In-flight table, attempt deadlines, and delivery screening.

    ``owner`` is the wrapper (a :class:`~repro.core.sut.SutBase`) whose
    ``complete``/``fail``/``emit_chunk`` report outcomes upward; the
    loop handed to :meth:`reset` runs the deadlines.  ``timeout`` is the
    per-attempt deadline; with ``budget`` set, every deadline is clamped
    to what is left of the query's total budget.  ``forward`` replaces
    ``owner.emit_chunk`` as the way clean chunks go upward.
    """

    def __init__(
        self,
        owner=None,
        *,
        timeout: float = 0.0,
        budget: Optional[float] = None,
        lost: Optional[Callable] = None,
        succeeded: Optional[Callable] = None,
        stale: Optional[Callable] = None,
        accepts: Optional[Callable] = None,
        forward: Optional[Callable] = None,
    ) -> None:
        self._owner = owner
        self.timeout = timeout
        self.budget = budget
        self._lost = lost
        self._succeeded = succeeded
        self._stale = stale
        self._accepts = accepts
        self._forward = forward
        self.reset()

    def reset(self, loop: Optional[EventLoop] = None) -> None:
        """Forget every in-flight query: a new run starts on ``loop``."""
        self._loop = loop
        self._inflight: Dict[int, object] = {}
        #: Chunk-stream progress per in-flight query, kept in a side
        #: table so non-streaming queries pay nothing.
        self._streams: Dict[int, _StreamProgress] = {}

    def __len__(self) -> int:
        return len(self._inflight)

    def __contains__(self, query_id: int) -> bool:
        return query_id in self._inflight

    # -- the in-flight table ----------------------------------------------------

    def admit(self, query: Query, state: S) -> S:
        """Register ``query`` as in flight, carrying ``state``."""
        self._inflight[query.id] = state
        return state

    def get(self, query_id: int) -> Optional[object]:
        """The admitted state, or ``None`` if not in flight."""
        return self._inflight.get(query_id)

    def resolve(self, query_id: int) -> Optional[object]:
        """Remove and return the state; later completions for this query
        will screen as stale."""
        self._streams.pop(query_id, None)
        return self._inflight.pop(query_id, None)

    def states(self) -> List[object]:
        """Snapshot of every in-flight state (admission order)."""
        return list(self._inflight.values())

    # -- screening --------------------------------------------------------------

    def screen(self, query: Query, responses) -> Screened:
        """Classify one terminal answer without resolving the query: a
        flawed attempt stays in flight so the caller can retry it."""
        state = self._inflight.get(query.id)
        if state is None:
            return Screened(state=None, flaw=None)
        return Screened(state=state, flaw=_terminal_flaw(query, responses))

    def _chunk_flaw(self, query_id: int, chunk: StreamChunk) -> Optional[str]:
        """Why ``chunk`` must be dropped, or ``None`` if it advances the
        query's stream.  A flawed chunk (out of sequence, duplicate,
        after the final chunk) is dropped, never treated as a failed
        attempt: chunks are progress reports, and a straggler from a
        dead attempt says nothing about the live one.  ``seq == 0``
        after prior progress is a restart by a lower layer and resets
        progress."""
        progress = self._streams.get(query_id)
        if progress is None:
            progress = self._streams[query_id] = _StreamProgress()
        if chunk.seq == 0 and progress.next_seq > 0:
            progress.next_seq = 0
            progress.saw_last = False
        if progress.saw_last:
            return f"chunk seq {chunk.seq} after the final chunk"
        if chunk.seq != progress.next_seq:
            return (f"out-of-sequence chunk seq {chunk.seq} "
                    f"(expected {progress.next_seq})")
        progress.next_seq += 1
        if chunk.last:
            progress.saw_last = True
        return None

    # -- attempts ---------------------------------------------------------------

    def open(self, query: Query, target: object = None,
             probe: bool = False) -> Attempt:
        """Admit ``query`` with a fresh :class:`Attempt` state."""
        state = self._inflight[query.id] = Attempt(
            query, target, self._loop.now, probe)
        return state

    def remaining(self, state: Attempt) -> Optional[float]:
        """Run time left in the query's total budget (None: uncapped)."""
        if self.budget is None:
            return None
        return self.budget - (self._loop.now - state.started)

    def launch(self, state: Attempt,
               send: Callable[[Attempt], None]) -> None:
        """Start the query's next attempt: reset its stream progress (the
        new attempt streams from ``seq == 0``, and the dead attempt's
        progress would make it double-count or screen as flawed), arm a
        fresh deadline, then ``send(state)``.  The deadline is scheduled
        before the send, so an answer due at the same instant loses the
        tie."""
        self._streams.pop(state.query.id, None)
        self._arm(state)
        send(state)

    def hedge(self, state: Attempt, send: Callable[[Attempt], None]) -> None:
        """Start a concurrent attempt under the running deadline (hedge
        or failover): reset stream progress, then ``send(state)``."""
        self._streams.pop(state.query.id, None)
        send(state)

    def disarm(self, state: Attempt) -> None:
        """Cancel the attempt's deadline, if armed."""
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None

    def give_up(self, state: Attempt, reason: str) -> None:
        """Resolve the query and report it upward as failed."""
        self.disarm(state)
        self.resolve(state.query.id)
        self._owner.fail(state.query, reason)

    def _arm(self, state: Attempt) -> None:
        if state.timer is not None:
            state.timer.cancel()
        loop = self._loop
        timeout = self.timeout
        if self.budget is not None:
            timeout = max(0.0, min(
                timeout, self.budget - (loop.now - state.started)))
        state.timer = loop.schedule_after(
            timeout, lambda: self._expire(state))

    def _expire(self, state: Attempt) -> None:
        if self._inflight.get(state.query.id) is not state:
            return  # resolved in the meantime
        state.timer = None
        self._lost(state, None, None)

    # -- deliveries -------------------------------------------------------------

    def deliver(self, query_id: int, responses, source: object = None) -> None:
        """Screen one delivery from ``source`` and act on it.

        A chunk that screens clean re-arms the deadline (the attempt is
        alive, so the timeout meters the gap between chunks) and goes
        upward; a flawed or stale chunk is dropped.  A clean terminal
        answer resolves the query, then ``succeeded`` runs, then the
        answer goes upward.  A flawed one goes to ``lost``.
        """
        state = self._inflight.get(query_id)
        chunk = isinstance(responses, StreamChunk)
        if state is None or (self._accepts is not None
                             and not self._accepts(state, source, chunk)):
            self._stale(source, responses)
            return
        if chunk:
            if self._chunk_flaw(query_id, responses) is not None:
                self._stale(source, responses)
                return
            self._arm(state)
            forward = self._forward or self._owner.emit_chunk
            forward(state.query, responses)
            return
        flaw = _terminal_flaw(state.query, responses)
        if flaw is not None:
            self._lost(state, flaw, source)
            return
        self.disarm(state)
        self.resolve(query_id)
        self._succeeded(state, source)
        self._owner.complete(state.query, responses)
