"""A replicated serving fleet behind one SUT-shaped front door.

``ReplicaSet`` presents the :class:`~repro.core.sut.SystemUnderTest`
protocol to the LoadGen while fanning queries out across N backend
replicas.  Per query it asks the balancing policy
(:mod:`repro.fleet.balancer`) for a preference order over the
administratively-UP replicas, then walks that order until a replica's
:class:`~repro.durability.breaker.CircuitBreaker` admits the query - so
a replica that has been timing out is skipped in O(1) without the
policy having to know why.

Failure handling is reroute-first:

* an attempt that misses its ``attempt_timeout`` deadline, or answers
  with a flawed response set, is recorded against that replica's breaker
  and re-dispatched to a different replica (up to ``max_reroutes``
  extra attempts per query) before the query is failed;
* :meth:`ReplicaSet.kill_replica` (chaos drills, the benchmark's
  replica-kill study) marks the replica DOWN and *immediately* rescues
  its in-flight queries onto survivors - rerouted, not dropped, and the
  rescue does not consume the queries' own reroute budget;
* :meth:`ReplicaSet.eject_replica` quarantines a degraded-but-alive
  replica the same way (state EJECTED instead of DOWN, so the outlier
  detector's probe queries still reach its backend), and every rescue -
  kill, zone outage, or ejection - *warms the survivor's prefix cache*
  with the rescued session's prefix before re-issuing the turn;
* stragglers from superseded attempts are absorbed by the attempt
  engine (:class:`~repro.faults.filtering.CompletionFilter`), so the
  referee sees exactly one terminal outcome per query.

Replicas live in **zones** (fault domains): ``zones=`` stripes or maps
each factory index to a zone label, :meth:`ReplicaSet.kill_zone` /
:meth:`ReplicaSet.restore_zone` fail and recover a whole domain at
once (every target is marked dead *before* any rescue dispatch, so a
rescued query cannot land on a replica about to die in the same
outage), and ``min_per_zone`` keeps the autoscaler's scale-down from
hollowing out a domain.  See ``docs/chaos.md`` for the correlated-
failure vocabulary built on these primitives.

The set also exposes the grow/shrink primitives the
:class:`~repro.fleet.autoscaler.Autoscaler` drives: ``scale_up`` revives
a draining or parked replica (or builds a fresh one via the factory) and
``scale_down`` drains the highest-indexed UP replica - no new traffic,
in-flight queries finish, then it parks DOWN.

Two feedback loops close through here:

* **routing reality** - after every clean completion the policy's
  :meth:`~repro.fleet.balancer.BalancerPolicy.notify_served` hook is
  called with the replica that *actually* answered (and
  ``notify_failed`` when nobody did), so stateful policies like session
  affinity pin to where the state really landed, not to their first
  preference;
* **per-replica state** - an optional ``cache_factory`` wraps every
  factory-built replica in its own state wrapper (canonically a
  :class:`~repro.sessions.cache.PrefixCacheSUT` via
  :func:`repro.sessions.cache.per_replica_cache_factory`), making the
  payoff of affinity measurable: each replica's cache trail is audited
  independently and exported as ``prefix_cache_*{replica=...}`` series.

Everything runs on the run's event loop with seeded policy RNGs, so a
(seed, policy, fault plan) triple reproduces the identical routing
trace.  With a ``registry`` the layer emits the ``fleet_*`` and ``lb_*``
metric families cataloged in ``docs/observability.md``; the design
rationale lives in ``docs/fleet.md``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.events import EventLoop
from ..core.query import Query, StreamChunk
from ..core.sut import Responder, SutBase, SystemUnderTest
from ..durability.breaker import BreakerPolicy
from ..faults.filtering import Attempt, CompletionFilter
from ..metrics import MetricsRegistry
from .balancer import BalancerPolicy, make_policy
from .replica import DEFAULT_LATENCY_WINDOW, Replica, ReplicaHealth

#: Domain-separation tag for the balancing policy's RNG stream (mixed
#: with the run seed), so routing draws can never collide with the fault
#: injector's or backoff-jitter's streams.
_BALANCER_TAG = 0xF1EE7


@dataclass
class FleetStats:
    """What the replica set did during one run."""

    routed_queries: int = 0
    fallbacks: int = 0
    reroutes: int = 0
    shed_queries: int = 0
    deadline_failures: int = 0
    flawed_attempts: int = 0
    stragglers_absorbed: int = 0
    kills: int = 0
    zone_kills: int = 0
    ejections: int = 0
    readmissions: int = 0
    rescued_queries: int = 0
    cache_warms: int = 0
    drained_replicas: int = 0

    def summary(self) -> str:
        return (
            f"routed={self.routed_queries} fallbacks={self.fallbacks} "
            f"reroutes={self.reroutes} shed={self.shed_queries} "
            f"deadlines={self.deadline_failures} kills={self.kills} "
            f"ejections={self.ejections} readmissions={self.readmissions} "
            f"rescued={self.rescued_queries} warms={self.cache_warms} "
            f"stragglers={self.stragglers_absorbed}"
        )


class _FleetInstruments:
    """Live ``fleet_*``/``lb_*`` metric families for one replica set."""

    __slots__ = ("routed", "fallbacks", "reroutes", "shed", "kills",
                 "stragglers", "drained", "cache_warms")

    def __init__(self, registry: MetricsRegistry, fleet) -> None:
        registry.gauge(
            "fleet_replicas",
            "Replicas that are administratively alive (not DOWN)",
            fn=lambda: float(sum(
                1 for r in fleet.replicas
                if r.health is not ReplicaHealth.DOWN)))
        registry.gauge(
            "fleet_replicas_available",
            "Replicas eligible for new traffic (UP)",
            fn=lambda: float(len(fleet.available_replicas)))
        registry.gauge(
            "fleet_replicas_ejected",
            "Replicas quarantined by outlier ejection",
            fn=lambda: float(sum(
                1 for r in fleet.replicas
                if r.health is ReplicaHealth.EJECTED)))
        registry.gauge(
            "fleet_outstanding_queries",
            "In-flight queries summed across all replicas",
            fn=lambda: float(fleet.total_outstanding))
        self.routed = registry.counter(
            "lb_routed_total",
            "Queries dispatched, by destination replica",
            labels=("replica",))
        self.fallbacks = registry.counter(
            "lb_fallbacks_total",
            "Dispatches that skipped breaker-rejecting higher choices")
        self.reroutes = registry.counter(
            "fleet_reroutes_total",
            "Attempts re-dispatched to a different replica")
        self.shed = registry.counter(
            "fleet_queries_shed_total",
            "Queries failed because no replica could take them")
        self.kills = registry.counter(
            "fleet_replica_kills_total",
            "Replicas administratively killed mid-run")
        self.stragglers = registry.counter(
            "fleet_stragglers_absorbed_total",
            "Late completions from superseded attempts, absorbed")
        self.drained = registry.counter(
            "fleet_replicas_drained_total",
            "Scale-down drains that completed (replica parked DOWN)")
        self.cache_warms = registry.counter(
            "fleet_cache_warms_total",
            "Rescued session prefixes admitted into survivor caches")


class ReplicaSet(SutBase):
    """N replicas behind a pluggable, breaker-aware load balancer."""

    def __init__(
        self,
        replica_factory: Callable[[int], SystemUnderTest],
        *,
        initial_replicas: int = 2,
        policy: Optional[object] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        attempt_timeout: float = 0.100,
        max_reroutes: int = 2,
        min_replicas: int = 1,
        max_replicas: int = 8,
        zones: Union[int, Sequence[str], Callable[[int], str]] = 1,
        min_per_zone: int = 0,
        latency_window: int = DEFAULT_LATENCY_WINDOW,
        seed: int = 0,
        name: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        cache_factory: Optional[
            Callable[[int, SystemUnderTest], SystemUnderTest]] = None,
    ) -> None:
        super().__init__(name or f"fleet[{initial_replicas}]")
        if min_replicas < 1:
            raise ValueError(
                f"min_replicas must be >= 1, got {min_replicas}")
        if not min_replicas <= initial_replicas <= max_replicas:
            raise ValueError(
                "initial_replicas must lie in [min_replicas, max_replicas]"
                f", got {initial_replicas} outside "
                f"[{min_replicas}, {max_replicas}]")
        if attempt_timeout <= 0:
            raise ValueError(
                f"attempt_timeout must be positive, got {attempt_timeout}")
        if max_reroutes < 0:
            raise ValueError(
                f"max_reroutes must be >= 0, got {max_reroutes}")
        if min_per_zone < 0:
            raise ValueError(
                f"min_per_zone must be >= 0, got {min_per_zone}")
        self._zone_fn = self._resolve_zones(zones)
        self.min_per_zone = min_per_zone
        self.replica_factory = replica_factory
        self.initial_replicas = initial_replicas
        self.policy: BalancerPolicy = make_policy(policy)
        self.breaker_policy = breaker_policy
        self.attempt_timeout = attempt_timeout
        self.max_reroutes = max_reroutes
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.latency_window = latency_window
        self.seed = seed
        #: Per-replica state wrapper builder (``(index, inner) -> sut``);
        #: the canonical use is
        #: :func:`repro.sessions.cache.per_replica_cache_factory`, which
        #: gives every replica its **own** auditable
        #: :class:`~repro.sessions.cache.PrefixCacheSUT` - cache state
        #: lives on the replica, so the balancing policy's routing
        #: decisions are what make (or break) prefix locality.
        self.cache_factory = cache_factory
        self.stats = FleetStats()
        self.replicas: List[Replica] = []
        #: query id -> callback for in-flight health probes
        #: (:meth:`probe_replica`); probes bypass the balancer, the
        #: breakers, and the referee's per-query accounting entirely.
        self._probes: Dict[int, Callable] = {}
        #: replica index -> the cache wrapper built by ``cache_factory``
        #: (empty when no factory was given).  Survives kills and
        #: drains: a revived replica keeps its warm cache.
        self.caches: Dict[int, SystemUnderTest] = {}
        #: No budget: every dispatch arms a fresh ``attempt_timeout``.
        self._attempts = CompletionFilter(
            self, timeout=attempt_timeout, lost=self._lost,
            succeeded=self._succeeded, stale=self._stale,
            accepts=self._accepts)
        #: Indices parked DOWN by a completed scale-down drain, in drain
        #: order - scale-up revives the most recently parked first.
        self._parked: List[int] = []
        self._m = (
            _FleetInstruments(registry, self) if registry is not None
            else None
        )

    @staticmethod
    def _resolve_zones(
        zones: Union[int, Sequence[str], Callable[[int], str]],
    ) -> Callable[[int], str]:
        """Normalize the ``zones`` argument to ``index -> zone label``.

        * an int N stripes replicas round-robin over ``z0..z{N-1}``;
        * a sequence of labels stripes over those labels;
        * a callable is used as-is.
        """
        if callable(zones):
            return zones
        if isinstance(zones, int):
            if zones < 1:
                raise ValueError(f"zones must be >= 1, got {zones}")
            return lambda index: f"z{index % zones}"
        labels = tuple(zones)
        if not labels:
            raise ValueError("zones sequence must not be empty")
        return lambda index: labels[index % len(labels)]

    # -- lifecycle --------------------------------------------------------------

    def start_run(self, loop: EventLoop, responder: Responder) -> None:
        super().start_run(loop, responder)
        self.stats = FleetStats()
        self._attempts.reset(loop)
        self.replicas = []
        self.caches = {}
        self._parked = []
        self._probes = {}
        self.policy.start_run(np.random.default_rng(
            np.random.SeedSequence((self.seed, _BALANCER_TAG))))
        for _ in range(self.initial_replicas):
            self._add_replica()

    def _add_replica(self) -> Replica:
        index = len(self.replicas)
        sut = self.replica_factory(index)
        if self.cache_factory is not None:
            sut = self.cache_factory(index, sut)
            self.caches[index] = sut
        replica = Replica(
            index, sut,
            zone=self._zone_fn(index),
            breaker_policy=self.breaker_policy,
            clock=lambda: self.loop.now,
            latency_window=self.latency_window,
        )
        self.replicas.append(replica)
        sut.start_run(
            self.loop,
            lambda query, responses, i=index: self._on_completion(
                i, query, responses))
        return replica

    def flush(self) -> None:
        for replica in self.replicas:
            if replica.health is not ReplicaHealth.DOWN:
                replica.sut.flush()

    def close(self) -> None:
        """Release replica backends that own OS resources (worker pools,
        sockets).  Safe to call before ``start_run`` and more than once."""
        for replica in self.replicas:
            close = getattr(replica.sut, "close", None)
            if callable(close):
                close()

    # -- fleet views ------------------------------------------------------------

    @property
    def available_replicas(self) -> List[Replica]:
        """Replicas eligible for new traffic (UP), in index order."""
        return [r for r in self.replicas if r.available]

    @property
    def total_outstanding(self) -> int:
        return sum(r.outstanding for r in self.replicas)

    @property
    def zone_names(self) -> List[str]:
        """Zones present in the fleet, sorted for determinism."""
        return sorted({r.zone for r in self.replicas})

    def zone_replicas(self, zone: str) -> List[Replica]:
        """All replicas in ``zone`` (any health), in index order."""
        return [r for r in self.replicas if r.zone == zone]

    # -- routing ----------------------------------------------------------------

    def issue_query(self, query: Query) -> None:
        state = self._attempts.open(query)
        if not self._dispatch(state, exclude=None):
            self._shed(state, "no replica available: every replica is "
                              "down, draining, or shedding load")

    def _dispatch(self, state: Attempt, exclude: Optional[int],
                  rescue: bool = False) -> bool:
        """Hand the query's next attempt to the best admitting replica.

        Walks the policy's ranking and takes the first replica whose
        breaker admits; returns False when nobody will (all rejecting,
        or no candidate besides ``exclude``).  A ``rescue`` dispatch
        (kill, zone outage, ejection) additionally warms the chosen
        survivor's prefix cache with the rescued session's prefix and
        tells the policy where the session migrated.
        """
        candidates = [
            r for r in self.available_replicas if r.index != exclude
        ]
        ranking = self.policy.rank_for(state.query, candidates)
        for position, replica in enumerate(ranking):
            verdict = replica.breaker.admit()
            if verdict == "reject":
                continue
            if position > 0:
                self.stats.fallbacks += 1
                if self._m:
                    self._m.fallbacks.inc()
            state.target = replica.index
            state.probe = verdict == "probe"
            replica.outstanding += 1
            replica.issued += 1
            self.stats.routed_queries += 1
            if self._m:
                self._m.routed.labels(replica=replica.index).inc()
            if rescue:
                self._warm_rescued_session(state.query, replica.index)
                self.policy.notify_rescued(state.query, replica.index)
            self._attempts.launch(state, self._send)
            return True
        return False

    def _send(self, state: Attempt) -> None:
        state.sent_at = self.loop.now
        self.replicas[state.target].sut.issue_query(state.query)

    def _warm_rescued_session(self, query: Query, index: int) -> None:
        """Cross-replica cache admission: a rescued session turn already
        *has* its prefix (the dead replica computed it), so the rescue
        replica's cache is told to admit it rather than re-discover it
        as a miss."""
        turn = getattr(query, "session", None)
        if turn is None or turn.prefix_tokens <= 0:
            return
        admit = getattr(self.caches.get(index), "admit_session", None)
        if admit is None:
            return
        admit(turn.session_id, turn.prefix_tokens)
        self.stats.cache_warms += 1
        if self._m:
            self._m.cache_warms.inc()

    def _shed(self, state: Attempt, reason: str) -> None:
        self.stats.shed_queries += 1
        if self._m:
            self._m.shed.inc()
        # No replica served it; stateful policies (session affinity)
        # drop their routing state - a failed turn aborts its session.
        self.policy.notify_failed(state.query)
        self._attempts.give_up(state, reason)

    # -- the attempt engine's callbacks -----------------------------------------

    @staticmethod
    def _accepts(state: Attempt, source: int, chunk: bool) -> bool:
        # Anything from a replica the query was rerouted away from is a
        # straggler, dropped before it can touch the live attempt's
        # stream progress; its books were settled at reroute time.
        return state.target == source

    def _stale(self, source, responses) -> None:
        # Absorbed: the referee sees one terminal outcome per query.
        self.stats.stragglers_absorbed += 1
        if self._m:
            self._m.stragglers.inc()

    def _lost(self, state: Attempt, flaw: Optional[str], source) -> None:
        """The attempt on ``state.target`` timed out (``flaw`` is None)
        or answered badly: charge the replica, then reroute within the
        query's budget or fail it."""
        self._attempts.disarm(state)
        index = state.target
        replica = self.replicas[index]
        self._settle_attempt(replica, failed=True)
        replica.breaker.record_failure(probe=state.probe)
        if flaw is None:
            self.stats.deadline_failures += 1
            flaw = (f"no response from replica {index} within "
                    f"{self.attempt_timeout:g}s")
        else:
            self.stats.flawed_attempts += 1
        if state.attempt < self.max_reroutes:
            state.attempt += 1
            self.stats.reroutes += 1
            if self._m:
                self._m.reroutes.inc()
            if self._dispatch(state, exclude=index):
                return
        self._shed(state, flaw)

    def _succeeded(self, state: Attempt, source: int) -> None:
        replica = self.replicas[source]
        self._settle_attempt(replica, failed=False)
        replica.breaker.record_success(probe=state.probe)
        replica.observe_latency(self.loop.now - state.sent_at)
        # Close the routing feedback loop: the policy learns which
        # replica *actually* served the query - through breaker
        # rejections, reroutes, and kill rescues - so its state (e.g.
        # session pins) tracks where the prefix really landed.
        self.policy.notify_served(state.query, source)

    def _on_completion(self, source: int, query: Query, responses) -> None:
        if query.id in self._probes:
            if isinstance(responses, StreamChunk):
                return  # probes wait for their terminal outcome
            self._probes.pop(query.id)(query, responses)
            return
        self._attempts.deliver(query.id, responses, source)

    def _settle_attempt(self, replica: Replica, *, failed: bool) -> None:
        replica.outstanding -= 1
        if failed:
            replica.failed += 1
        else:
            replica.completed += 1
        self._maybe_drained(replica)

    # -- health and scaling -----------------------------------------------------

    def _rescue_inflight(self, index: int, *, cause: str) -> int:
        """Re-dispatch every in-flight query of replica ``index`` onto
        survivors - rerouted, not dropped - without consuming the
        queries' own reroute budgets (the failure is not the query's
        fault).  Returns the number of rescued queries."""
        replica = self.replicas[index]
        rescued = 0
        for state in self._attempts.states():
            if state.target != index:
                continue
            self._attempts.disarm(state)
            replica.outstanding -= 1
            self.stats.reroutes += 1
            if self._m:
                self._m.reroutes.inc()
            if self._dispatch(state, exclude=index, rescue=True):
                rescued += 1
            else:
                self._shed(state, f"replica {index} {cause} and no "
                                  "surviving replica would admit the query")
        self.stats.rescued_queries += rescued
        return rescued

    def kill_replica(self, index: int) -> int:
        """Administratively kill replica ``index`` (chaos drill).

        Its in-flight queries are rescued onto surviving replicas
        immediately - rerouted, not dropped - and the rescue does not
        consume their own reroute budgets (the kill is not the query's
        fault).  Returns the number of rescued queries.
        """
        replica = self.replicas[index]
        if replica.health is ReplicaHealth.DOWN:
            return 0
        replica.health = ReplicaHealth.DOWN
        self.stats.kills += 1
        if self._m:
            self._m.kills.inc()
        return self._rescue_inflight(index, cause="killed")

    def kill_zone(self, zone: str) -> int:
        """Kill every alive replica in ``zone`` at once (zone outage).

        All targets are marked DOWN *before* any rescue dispatch, so a
        rescued query can never land on a replica that is about to die
        in the same outage.  Returns the total rescued queries.
        """
        targets = [r for r in self.replicas
                   if r.zone == zone and r.health is not ReplicaHealth.DOWN]
        if not targets:
            return 0
        for replica in targets:
            replica.health = ReplicaHealth.DOWN
            self.stats.kills += 1
            if self._m:
                self._m.kills.inc()
        self.stats.zone_kills += 1
        rescued = 0
        for replica in targets:
            rescued += self._rescue_inflight(
                replica.index, cause=f"killed with zone {zone!r}")
        return rescued

    def eject_replica(self, index: int) -> int:
        """Quarantine an UP replica (outlier ejection, gray failure).

        Like :meth:`kill_replica` - in-flight queries are rescued onto
        survivors at once - except the replica lands EJECTED, not DOWN:
        its backend stays reachable for the outlier detector's probe
        queries (:meth:`probe_replica`) so probation can re-admit it.
        Returns the number of rescued queries; 0 if it was not UP.
        """
        replica = self.replicas[index]
        if replica.health is not ReplicaHealth.UP:
            return 0
        replica.health = ReplicaHealth.EJECTED
        self.stats.ejections += 1
        return self._rescue_inflight(index, cause="ejected")

    def readmit_replica(self, index: int) -> None:
        """Return an EJECTED replica to service with a clean slate.

        Fresh breaker and an empty latency window: the observations
        that got it ejected describe the degradation, not the replica
        that probation just vouched for.
        """
        replica = self.replicas[index]
        if replica.health is not ReplicaHealth.EJECTED:
            return
        replica.health = ReplicaHealth.UP
        replica.reset_breaker(self.breaker_policy, lambda: self.loop.now)
        replica.clear_window()
        self.stats.readmissions += 1

    def probe_replica(self, index: int, query: Query,
                      on_result: Callable[[Query, object], None]) -> None:
        """Issue a health probe straight to replica ``index``.

        Probes bypass the balancer, the breakers, and the referee's
        per-query accounting: the terminal outcome (completion or
        failure) is handed to ``on_result`` and nothing else in the
        fleet notices.  Callers own timeout handling - a probe that
        never answers stays pending until :meth:`cancel_probe`.
        """
        self._probes[query.id] = on_result
        self.replicas[index].sut.issue_query(query)

    def cancel_probe(self, query_id: int) -> None:
        """Forget a pending probe (its answer, if any, is dropped)."""
        self._probes.pop(query_id, None)

    def restore_replica(self, index: int) -> None:
        """Bring a DOWN replica back UP with a fresh breaker."""
        replica = self.replicas[index]
        replica.health = ReplicaHealth.UP
        replica.reset_breaker(self.breaker_policy, lambda: self.loop.now)
        replica.clear_window()
        if index in self._parked:
            self._parked.remove(index)

    def restore_zone(self, zone: str) -> int:
        """Bring a zone's DOWN replicas back UP (outage recovery).

        Replicas parked by a completed scale-down drain stay parked -
        reviving those is the autoscaler's call, not the recovery's.
        Returns the number of replicas restored.
        """
        restored = 0
        for replica in self.replicas:
            if (replica.zone == zone
                    and replica.health is ReplicaHealth.DOWN
                    and replica.index not in self._parked):
                self.restore_replica(replica.index)
                restored += 1
        return restored

    def scale_up(self) -> bool:
        """Add one serving replica; False at the ``max_replicas`` cap.

        Preference order: un-drain a DRAINING replica (cheapest - it is
        still warm), revive the most recently parked one, else build a
        fresh replica through the factory.  Among candidates at the
        same tier the one from the zone with the fewest available
        replicas wins, so recovery refills the hollowed-out domain
        first (ties keep the pre-zone order: highest index).
        """
        if len(self.available_replicas) >= self.max_replicas:
            return False
        zone_avail = Counter(r.zone for r in self.available_replicas)
        draining = [r for r in self.replicas
                    if r.health is ReplicaHealth.DRAINING]
        if draining:
            victim = min(reversed(draining),
                         key=lambda r: zone_avail[r.zone])
            victim.health = ReplicaHealth.UP
            return True
        if self._parked:
            index = min(reversed(self._parked),
                        key=lambda i: zone_avail[self.replicas[i].zone])
            self.restore_replica(index)
            return True
        self._add_replica()
        return True

    def scale_down(self) -> bool:
        """Drain the highest-indexed drainable UP replica; False at the
        floor.

        The replica stops receiving new traffic at once; it parks DOWN
        when its last in-flight query resolves.  A replica whose zone
        would drop below ``min_per_zone`` available replicas is not
        drainable - the autoscaler can never hollow out a fault domain
        past the configured survivable minimum.
        """
        available = self.available_replicas
        if len(available) <= self.min_replicas:
            return False
        zone_avail = Counter(r.zone for r in available)
        for victim in reversed(available):
            if zone_avail[victim.zone] - 1 < self.min_per_zone:
                continue
            victim.health = ReplicaHealth.DRAINING
            self._maybe_drained(victim)
            return True
        return False

    def _maybe_drained(self, replica: Replica) -> None:
        if (replica.health is ReplicaHealth.DRAINING
                and replica.outstanding == 0):
            replica.health = ReplicaHealth.DOWN
            self._parked.append(replica.index)
            self.stats.drained_replicas += 1
            if self._m:
                self._m.drained.inc()
