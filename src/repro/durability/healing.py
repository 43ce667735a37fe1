"""Self-healing serving path: breaker-guarded primary, hedged standby.

``SelfHealingSUT`` wraps a primary backend (typically a ``NetworkSUT``
or ``ParallelSUT``) and keeps the run alive through backend outages:

* every query carries a per-query deadline (``attempt_timeout``);
* primary outcomes feed a :class:`~repro.durability.breaker.CircuitBreaker`
  — while it is open, queries are *shed* in O(1) (failed fast with a
  classified reason) or, when a ``standby`` backend is configured,
  rerouted to the standby without burning the deadline on a dead
  primary;
* with ``hedge_delay`` set, a query that the primary has not answered
  after that long is *hedged*: re-issued to the standby under the same
  query id, first clean answer wins, the attempt engine
  (:class:`~repro.faults.filtering.CompletionFilter`) absorbs the loser;
* a primary failure (``QueryFailure`` or malformed response set) fails
  over to the standby immediately instead of waiting out the deadline.

Health checking is passive-first: the breaker's sliding outcome window
is the health signal, and its half-open probe admissions are the
recovery checks.  All timing runs on the run's event loop, so the whole
healing path is deterministic under the virtual clock.  The layer emits
the ``breaker_*`` metric families; see ``docs/durability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.events import EventLoop
from ..core.query import Query
from ..core.sut import Responder, SutBase, SystemUnderTest
from ..faults.filtering import Attempt, CompletionFilter
from ..metrics import MetricsRegistry
from .breaker import STATE_CODES, BreakerPolicy, BreakerState, CircuitBreaker


@dataclass
class HealingStats:
    """What the healing layer did during one run."""

    shed_queries: int = 0
    standby_queries: int = 0
    hedged_queries: int = 0
    failovers: int = 0
    hedge_wins: int = 0
    standby_completions: int = 0
    primary_failures: int = 0
    deadline_failures: int = 0
    filtered_completions: int = 0
    probe_queries: int = 0

    def summary(self) -> str:
        return (
            f"shed={self.shed_queries} standby={self.standby_queries} "
            f"hedged={self.hedged_queries} failovers={self.failovers} "
            f"hedge_wins={self.hedge_wins} "
            f"primary_failures={self.primary_failures} "
            f"deadlines={self.deadline_failures}"
        )


class _BreakerInstruments:
    """Live ``breaker_*`` metric families for one healing layer."""

    __slots__ = ("transitions", "rejected", "probes", "hedges",
                 "standby", "failures")

    def __init__(self, registry: MetricsRegistry,
                 state_fn) -> None:
        registry.gauge(
            "breaker_state",
            "Circuit breaker state (0=closed, 1=open, 2=half_open)",
            fn=state_fn)
        self.transitions = registry.counter(
            "breaker_transitions_total",
            "Circuit breaker state transitions",
            labels=("source", "target"))
        self.rejected = registry.counter(
            "breaker_rejected_queries_total",
            "Queries rejected fast (shed or rerouted) while open")
        self.probes = registry.counter(
            "breaker_probe_queries_total",
            "Half-open trial queries admitted to the primary")
        self.hedges = registry.counter(
            "breaker_hedged_queries_total",
            "Queries hedged or failed over to the standby backend")
        self.standby = registry.counter(
            "breaker_standby_completions_total",
            "Queries answered by the standby backend")
        self.failures = registry.counter(
            "breaker_recorded_failures_total",
            "Primary outcomes recorded as failures by the breaker")


class SelfHealingSUT(SutBase):
    """Circuit breaker + hedged standby around a primary backend."""

    def __init__(
        self,
        primary: SystemUnderTest,
        standby: Optional[SystemUnderTest] = None,
        *,
        policy: Optional[BreakerPolicy] = None,
        attempt_timeout: float = 0.100,
        total_timeout: Optional[float] = None,
        hedge_delay: Optional[float] = None,
        name: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(name or f"healing[{primary.name}]")
        if attempt_timeout <= 0:
            raise ValueError(
                f"attempt_timeout must be positive, got {attempt_timeout}")
        if total_timeout is not None and total_timeout < attempt_timeout:
            raise ValueError(
                "total_timeout must be >= attempt_timeout, got "
                f"{total_timeout} < {attempt_timeout}")
        if hedge_delay is not None:
            if standby is None:
                raise ValueError("hedge_delay requires a standby backend")
            if not 0 < hedge_delay < attempt_timeout:
                raise ValueError(
                    "hedge_delay must be in (0, attempt_timeout), got "
                    f"{hedge_delay}")
        self.primary = primary
        self.standby = standby
        self.policy = policy if policy is not None else BreakerPolicy()
        self.attempt_timeout = attempt_timeout
        #: Hard per-query wall across failovers and hedges.  The healing
        #: layer arms exactly one deadline per query (failover never
        #: rearms it), so the per-query bound is
        #: ``min(attempt_timeout, total_timeout)`` by construction -
        #: pass the run's ``watchdog_timeout`` (minus headroom) to make
        #: the layer deadline-safe regardless of how the two knobs are
        #: tuned relative to each other.
        self.total_timeout = total_timeout
        self.hedge_delay = hedge_delay
        self.stats = HealingStats()
        #: One deadline per query: failovers and hedges run under it.
        self._attempts = CompletionFilter(
            self, timeout=attempt_timeout, budget=total_timeout,
            lost=self._lost, succeeded=self._succeeded, stale=self._stale,
            accepts=self._accepts)
        self._breaker: Optional[CircuitBreaker] = None
        self._m = (
            _BreakerInstruments(registry, self._state_code)
            if registry is not None else None
        )

    def _state_code(self) -> float:
        if self._breaker is None:
            return float(STATE_CODES[BreakerState.CLOSED])
        return float(STATE_CODES[self._breaker.state])

    @property
    def breaker(self) -> CircuitBreaker:
        if self._breaker is None:
            raise RuntimeError("start_run was never called on this SUT")
        return self._breaker

    # -- lifecycle --------------------------------------------------------------

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self.stats = HealingStats()
        self._attempts.reset(loop)
        self._breaker = CircuitBreaker(
            self.policy, clock=lambda: loop.now,
            on_transition=self._on_transition)
        self.primary.start_run(loop, self._from_primary)
        if self.standby is not None:
            self.standby.start_run(loop, self._from_standby)

    def _on_transition(self, time: float, source: BreakerState,
                       target: BreakerState) -> None:
        if self._m:
            self._m.transitions.labels(
                source=source.value, target=target.value).inc()

    def issue_query(self, query: Query) -> None:
        verdict = self.breaker.admit()
        if verdict == "reject":
            if self._m:
                self._m.rejected.inc()
            if self.standby is not None:
                # Shed *from the primary*: the standby carries the load
                # while the breaker waits out the outage.
                state = self._attempts.open(query, "standby")
                self.stats.standby_queries += 1
                self._attempts.launch(state, self._send_standby)
            else:
                self.stats.shed_queries += 1
                self.fail(
                    query,
                    "circuit breaker open: primary backend shedding load")
            return
        state = self._attempts.open(query, "primary",
                                    probe=(verdict == "probe"))
        if state.probe:
            self.stats.probe_queries += 1
            if self._m:
                self._m.probes.inc()
        self._attempts.launch(state, self._send_primary)

    def flush(self) -> None:
        self.primary.flush()
        if self.standby is not None:
            self.standby.flush()

    def _send_primary(self, state: Attempt) -> None:
        if (self.hedge_delay is not None and self.standby is not None
                and not state.probe):
            state.hedge_timer = self.loop.schedule_after(
                self.hedge_delay, lambda: self._hedge(state))
        self.primary.issue_query(state.query)

    def _send_standby(self, state: Attempt) -> None:
        self.standby.issue_query(state.query)

    def _hedge(self, state: Attempt) -> None:
        if self._attempts.get(state.query.id) is not state or state.hedged:
            return
        state.hedged = True
        self.stats.hedged_queries += 1
        if self._m:
            self._m.hedges.inc()
        # The standby's stream starts over at seq 0; both attempts draw
        # the same per-query stream plan, so whichever source is ahead
        # after the restart screens clean without double-counting.
        self._attempts.hedge(state, self._send_standby)

    # -- completions ------------------------------------------------------------

    def _from_primary(self, query: Query, responses) -> None:
        self._attempts.deliver(query.id, responses, "primary")

    def _from_standby(self, query: Query, responses) -> None:
        self._attempts.deliver(query.id, responses, "standby")

    @staticmethod
    def _accepts(state: Attempt, source: str, chunk: bool) -> bool:
        # A failed-over primary may keep streaming; its chunks are
        # dropped *before* screening so they cannot advance the stream
        # progress the standby's attempt is screened against.  Its
        # terminal answer is still welcome: the first clean one wins.
        return not (chunk and source == "primary" and "primary" in state.dead)

    def _stale(self, source, responses) -> None:
        # Duplicate, hedge loser, or post-deadline straggler: the
        # healing layer absorbs it so the referee never sees it.
        self.stats.filtered_completions += 1

    def _succeeded(self, state: Attempt, source: str) -> None:
        self._cancel_hedge(state)
        if source == "primary":
            self.breaker.record_success(probe=state.probe)
        else:
            self.stats.standby_completions += 1
            if self._m:
                self._m.standby.inc()
            if state.target == "primary":
                self.stats.hedge_wins += 1

    def _record_primary_failure(self, state: Attempt) -> None:
        self.stats.primary_failures += 1
        self.breaker.record_failure(probe=state.probe)
        if self._m:
            self._m.failures.inc()

    @staticmethod
    def _cancel_hedge(state: Attempt) -> None:
        if state.hedge_timer is not None:
            state.hedge_timer.cancel()
            state.hedge_timer = None

    def _lost(self, state: Attempt, flaw: Optional[str],
              source: Optional[str]) -> None:
        if flaw is None:
            # The query's one deadline expired.
            self._cancel_hedge(state)
            if state.target == "primary" and "primary" not in state.dead:
                self._record_primary_failure(state)
            self.stats.deadline_failures += 1
            where = state.target if not state.hedged else "primary or standby"
            self._attempts.give_up(
                state,
                f"no response from {where} within {self.attempt_timeout:g}s")
            return
        state.dead += (source,)
        if source == "primary":
            self._record_primary_failure(state)
            if self.standby is not None and not state.hedged:
                # Fail over immediately rather than waiting out the
                # deadline on a primary that already answered badly.
                state.hedged = True
                self.stats.failovers += 1
                if self._m:
                    self._m.hedges.inc()
                self._attempts.hedge(state, self._send_standby)
                return
            if self.standby is not None and "standby" not in state.dead:
                return  # the standby attempt is still in flight
        elif state.target == "primary" and "primary" not in state.dead:
            return  # the primary attempt is still in flight
        self._cancel_hedge(state)
        self._attempts.give_up(state, flaw)
