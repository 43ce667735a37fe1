"""Retry/deadline wrapper that makes a flaky SUT presentable.

``ResilientSUT`` is the submitter-side mirror of the referee hardening:
it wraps an unreliable backend and enforces a per-attempt deadline,
bounded retries with seeded full-jitter exponential backoff (so a fleet
of retriers recovering together cannot stampede the backend in
lockstep), and response hygiene
(duplicate and unsolicited completions are filtered, malformed response
sets are retried).  With :attr:`RetryPolicy.total_timeout` set, retries
plus backoff are additionally capped by a per-query wall-clock budget -
:meth:`RetryPolicy.for_deadline` builds a policy that provably resolves
every query inside a run's ``watchdog_timeout``.  Transient faults - drops, latency spikes - are
recovered at the cost of the retry latency; permanent ones are reported
to the LoadGen as recorded failures (:meth:`SutBase.fail`) so the run
terminates with a clean INVALID verdict instead of hanging.

All timing runs on the run's event loop, so resilience behavior is as
deterministic and virtual-time-fast as everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as dataclasses_replace
from typing import Optional

import numpy as np

from ..core.events import EventLoop
from ..core.query import Query
from ..core.sut import Responder, SutBase, SystemUnderTest
from ..metrics import MetricsRegistry
from .filtering import Attempt, CompletionFilter

#: Domain-separation tag mixed into the backoff-jitter seed stream so it
#: can never collide with the fault injector's (seed, query, attempt)
#: streams.
_JITTER_TAG = 0xBAC0FF


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry parameters for :class:`ResilientSUT`."""

    #: Total attempts per query (first try included).
    max_attempts: int = 4
    #: Per-attempt deadline, seconds: how long to wait for the inner SUT
    #: before declaring the attempt lost.
    attempt_timeout: float = 0.050
    #: Backoff before attempt ``n`` retries: ``base * factor**(n-1)``.
    backoff_base: float = 0.002
    backoff_factor: float = 2.0
    #: ``"full"`` draws the actual delay uniformly from ``[0, backoff)``
    #: per (seed, query, attempt) - concurrent retriers decorrelate
    #: instead of stampeding a recovering backend in lockstep.
    #: ``"none"`` keeps the deterministic ceiling itself.
    jitter: str = "full"
    #: Hard per-query wall: across *all* attempts and backoffs, a query
    #: is given up once this much run time has elapsed since its first
    #: issue.  ``None`` bounds a query only by
    #: ``max_attempts x (timeout + backoff)`` - which stacked wrappers
    #: can push past ``TestSettings.watchdog_timeout``; see
    #: :meth:`for_deadline`.
    total_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.attempt_timeout <= 0:
            raise ValueError(
                f"attempt_timeout must be positive, got {self.attempt_timeout}"
            )
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.jitter not in ("full", "none"):
            raise ValueError(
                f"jitter must be 'full' or 'none', got {self.jitter!r}"
            )
        if (self.total_timeout is not None
                and self.total_timeout < self.attempt_timeout):
            raise ValueError(
                "total_timeout must be >= attempt_timeout (one attempt "
                f"must fit), got {self.total_timeout} < "
                f"{self.attempt_timeout}"
            )

    def worst_case_latency(self) -> float:
        """Upper bound on one query's time inside the wrapper, seconds.

        All attempts time out at the full ``attempt_timeout`` and every
        backoff hits its jitter ceiling.  With ``total_timeout`` set the
        budget caps this bound; without it, this is exactly the quantity
        that must stay below the run's watchdog for a single query to be
        deadline-safe.
        """
        uncapped = self.max_attempts * self.attempt_timeout + sum(
            self.backoff(attempt) for attempt in range(self.max_attempts - 1)
        )
        if self.total_timeout is None:
            return uncapped
        return min(uncapped, self.total_timeout)

    @classmethod
    def for_deadline(cls, deadline: float, **kwargs) -> "RetryPolicy":
        """A policy guaranteed to resolve every query within ``deadline``.

        Builds a policy from ``kwargs`` (same fields as the
        constructor), sets ``total_timeout=deadline``, and trims
        ``max_attempts`` down to the largest count whose worst case fits
        - so retries are bounded *a priori*, not just cut off at the
        wall.  Use ``TestSettings.watchdog_timeout`` (minus headroom) as
        the deadline to make a retry stack watchdog-safe by
        construction.
        """
        if deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        kwargs.pop("total_timeout", None)
        policy = cls(total_timeout=deadline, **kwargs)
        if policy.attempt_timeout > deadline:
            raise ValueError(
                f"attempt_timeout {policy.attempt_timeout} cannot fit in "
                f"deadline {deadline}")
        while policy.max_attempts > 1:
            capless = dataclasses_replace(policy, total_timeout=None)
            if capless.worst_case_latency() <= deadline:
                break
            policy = dataclasses_replace(
                policy, max_attempts=policy.max_attempts - 1)
        return policy

    def backoff(self, attempt: int) -> float:
        """Backoff ceiling before re-issuing after losing ``attempt``
        (0-based).  With full jitter the actual delay is drawn uniformly
        below this ceiling (:meth:`jittered_backoff`)."""
        return self.backoff_base * (self.backoff_factor ** attempt)

    def jittered_backoff(self, attempt: int, seed: int, query_id: int) -> float:
        """The delay actually slept: full jitter over :meth:`backoff`.

        The draw is a pure function of ``(seed, query_id, attempt)`` -
        deterministic and replayable like everything else in the run,
        yet decorrelated across queries and across retriers with
        different seeds, so synchronized retries cannot stampede a
        recovering backend.
        """
        ceiling = self.backoff(attempt)
        if self.jitter == "none" or ceiling <= 0.0:
            return ceiling
        rng = np.random.default_rng(
            np.random.SeedSequence((seed, query_id, attempt, _JITTER_TAG))
        )
        return float(rng.uniform(0.0, ceiling))


@dataclass
class ResilienceStats:
    """What the wrapper did during one run."""

    retries: int = 0
    recovered_queries: int = 0
    gave_up_queries: int = 0
    filtered_completions: int = 0
    malformed_attempts: int = 0

    def summary(self) -> str:
        return (
            f"retries={self.retries} recovered={self.recovered_queries} "
            f"gave_up={self.gave_up_queries} "
            f"filtered={self.filtered_completions} "
            f"malformed={self.malformed_attempts}"
        )


class _ResilienceInstruments:
    """Live counters mirroring :class:`ResilienceStats` (same run loop,
    single writer, so unlocked increments are safe)."""

    __slots__ = ("retries", "recovered", "gave_up", "filtered", "malformed")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.retries = registry.counter(
            "resilient_retries_total",
            "Attempts re-issued after a lost or malformed attempt")
        self.recovered = registry.counter(
            "resilient_recovered_queries_total",
            "Queries that succeeded only after at least one retry")
        self.gave_up = registry.counter(
            "resilient_gave_up_queries_total",
            "Queries reported as failures after exhausting all attempts")
        self.filtered = registry.counter(
            "resilient_filtered_completions_total",
            "Duplicate/straggler/unsolicited completions absorbed")
        self.malformed = registry.counter(
            "resilient_malformed_attempts_total",
            "Attempts whose response set was unusable")


class ResilientSUT(SutBase):
    """Bounded retry + per-attempt deadline around an inner SUT.

    The attempt engine (:class:`~repro.faults.filtering.CompletionFilter`)
    runs deadlines, clamped to :attr:`RetryPolicy.total_timeout`, and
    screens every answer; this wrapper decides only what a lost attempt
    costs: a jittered backoff and a retry on the same inner SUT, or a
    recorded failure once attempts or budget run out.
    """

    def __init__(
        self,
        inner: SystemUnderTest,
        policy: Optional[RetryPolicy] = None,
        name: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(name or f"resilient[{inner.name}]")
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self.seed = seed
        self.stats = ResilienceStats()
        self._attempts = CompletionFilter(
            self, timeout=self.policy.attempt_timeout,
            budget=self.policy.total_timeout, lost=self._lost,
            succeeded=self._succeeded, stale=self._stale)
        self._m = (
            _ResilienceInstruments(registry) if registry is not None
            else None
        )

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self.stats = ResilienceStats()
        self._attempts.reset(loop)
        self.inner.start_run(loop, self._on_inner_completion)

    def issue_query(self, query: Query) -> None:
        self._attempts.launch(self._attempts.open(query), self._send)

    def flush(self) -> None:
        self.inner.flush()

    def _send(self, state: Attempt) -> None:
        self.inner.issue_query(state.query)

    def _on_inner_completion(self, query: Query, responses) -> None:
        self._attempts.deliver(query.id, responses)

    # -- routing policy ---------------------------------------------------------

    def _give_up(self, state: Attempt, reason: str) -> None:
        self.stats.gave_up_queries += 1
        if self._m:
            self._m.gave_up.inc()
        self._attempts.give_up(state, reason)

    def _budget_reason(self, state: Attempt) -> str:
        return (
            f"retry budget exhausted: {self.policy.total_timeout:g}s "
            f"total_timeout spent over {state.attempt + 1} attempts"
        )

    def _lost(self, state: Attempt, flaw: Optional[str], source) -> None:
        if flaw is not None:
            # A bad attempt is a lost attempt; retry immediately rather
            # than waiting out the deadline.
            self.stats.malformed_attempts += 1
            if self._m:
                self._m.malformed.inc()
        self._attempts.disarm(state)
        if state.attempt + 1 >= self.policy.max_attempts:
            self._give_up(
                state,
                f"no valid response after {self.policy.max_attempts} attempts",
            )
            return
        backoff = self.policy.jittered_backoff(
            state.attempt, self.seed, state.query.id)
        remaining = self._attempts.remaining(state)
        if remaining is not None:
            if remaining <= 0:
                self._give_up(state, self._budget_reason(state))
                return
            # Clamp the sleep so the retry wakes with budget to spend:
            # a jittered backoff that overruns ``total_timeout`` would
            # otherwise schedule an attempt guaranteed to be classified
            # budget-exhausted on arrival - a burned retry.  The final
            # attempt is left ``attempt_timeout`` of runway when the
            # budget still has it, and whatever remains when it does not.
            backoff = min(
                backoff,
                max(0.0, remaining - self.policy.attempt_timeout))
        state.attempt += 1
        self.stats.retries += 1
        if self._m:
            self._m.retries.inc()
        self.loop.schedule_after(backoff, lambda: self._reissue(state))

    def _reissue(self, state: Attempt) -> None:
        if self._attempts.get(state.query.id) is not state:
            return  # resolved during the backoff
        remaining = self._attempts.remaining(state)
        if remaining is not None and remaining <= 0:
            self._give_up(state, self._budget_reason(state))
            return
        self._attempts.launch(state, self._send)

    def _succeeded(self, state: Attempt, source) -> None:
        if state.attempt > 0:
            self.stats.recovered_queries += 1
            if self._m:
                self._m.recovered.inc()

    def _stale(self, source, responses) -> None:
        # Duplicates, unsolicited answers, post-deadline stragglers and
        # chunks of a dead attempt: absorbed so the referee never sees
        # them.
        self.stats.filtered_completions += 1
        if self._m:
            self._m.filtered.inc()
