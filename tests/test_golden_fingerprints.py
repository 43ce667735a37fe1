"""Golden fingerprint corpus for the retrying wrappers.

Each cell runs one seeded virtual-clock workload through the wrappers
that re-issue work - ``ResilientSUT``, ``SelfHealingSUT``,
``ReplicaSet`` and their stack - once with plain completions and once
with streamed chunks, plus one chaos session run with outlier
ejection.  The cell's material is everything the run asserts: the
referee's ``run_fingerprint`` (every timestamp and failure reason),
each wrapper's stats ``repr``/``summary()``, and the chaos decision and
ejection trails where present.  The sha256 of its ``repr`` is pinned
below.

A refactor of the retry machinery that keeps behaviour must reproduce
every digest bit for bit.  A change that means to alter behaviour
updates the table and says why in its change notes.  To print the
current digests::

    PYTHONPATH=src python -m tests.test_golden_fingerprints
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

import pytest

from repro.core import Scenario, TestSettings
from repro.core.loadgen import run_benchmark
from repro.durability import SelfHealingSUT, run_fingerprint
from repro.faults import (
    ChaosEvent,
    ChaosOrchestrator,
    ChaosSchedule,
    FaultPlan,
    FaultType,
    FaultySUT,
    OutageSUT,
    ResilientSUT,
    RetryPolicy,
)
from repro.fleet import OutlierDetector, OutlierPolicy, ReplicaSet
from repro.network.simulated import ChannelModel, SimulatedChannelSUT
from repro.sessions import per_replica_cache_factory
from repro.streaming import StreamModel, streaming_echo
from repro.sut.echo import EchoSUT

from tests.conftest import EchoQSL

QUERIES = 300

STREAM = StreamModel(first_token_delay=0.001, inter_token_delay=0.0005,
                     min_tokens=3, max_tokens=6, seed=5)

#: Every FaultySUT fault except STALL (which kills the backend for good).
NON_STALL_FAULTS = {
    FaultType.DROP: 0.05,
    FaultType.DUPLICATE: 0.05,
    FaultType.UNSOLICITED: 0.03,
    FaultType.MISSIZED: 0.03,
    FaultType.CORRUPT: 0.03,
    FaultType.DELAY: 0.05,
}


def server_settings(seed: int = 0, qps: float = 400.0) -> TestSettings:
    return TestSettings(
        scenario=Scenario.SERVER, server_target_qps=qps,
        server_latency_bound=1.0, min_query_count=QUERIES,
        min_duration=0.0, watchdog_timeout=30.0, seed=seed,
    )


def backend(stream: bool, latency: float = 0.002):
    if stream:
        return streaming_echo(latency=latency, model=STREAM)
    return EchoSUT(latency=latency)


def lossy(inner, seed: int, drop_rate: float):
    """A simulated wire that loses frames - the only fault source that
    can sit under a stream (``FaultySUT`` cannot wrap chunks)."""
    return SimulatedChannelSUT(inner, ChannelModel(
        latency=2e-4, jitter=1e-4, drop_rate=drop_rate, seed=seed))


class Drill:
    """A run service that fires scheduled fleet actions on the loop."""

    def __init__(self, actions) -> None:
        self.actions = actions
        self._handles = []

    def start(self, loop, keep_going) -> None:
        self._handles = [loop.schedule(when, action)
                         for when, action in self.actions]

    def stop(self) -> None:
        for handle in self._handles:
            handle.cancel()


def material(result, *trails) -> tuple:
    return (repr(run_fingerprint(result)),) + tuple(
        repr(trail) for trail in trails)


# -- cells ------------------------------------------------------------------


def resilient_cell(stream: bool) -> tuple:
    if stream:
        inner = lossy(backend(True), seed=21, drop_rate=0.04)
    else:
        inner = FaultySUT(backend(False),
                          FaultPlan(rates=NON_STALL_FAULTS, seed=17))
    policy = RetryPolicy(max_attempts=4, attempt_timeout=0.03,
                         total_timeout=0.12)
    sut = ResilientSUT(inner, policy, seed=3)
    result = run_benchmark(sut, EchoQSL(), server_settings(seed=1))
    trail = inner.stats if stream else inner.injector.trace
    return material(result, sut.stats, trail)


def healing_cell(stream: bool) -> tuple:
    if stream:
        primary_inner = lossy(backend(True), seed=31, drop_rate=0.03)
        standby = lossy(backend(True, latency=0.003), seed=32,
                        drop_rate=0.03)
        hedge_delay = 0.006
    else:
        # Flawed primary answers drive failovers and open the breaker.
        primary_inner = FaultySUT(backend(False), FaultPlan(rates={
            FaultType.MISSIZED: 0.3, FaultType.DROP: 0.05,
            FaultType.DUPLICATE: 0.03}, seed=23))
        standby = backend(False, latency=0.003)
        hedge_delay = 0.01
    primary = OutageSUT(primary_inner, outage_start=0.2,
                        outage_duration=0.25)
    sut = SelfHealingSUT(primary, standby, attempt_timeout=0.04,
                         total_timeout=0.05, hedge_delay=hedge_delay)
    result = run_benchmark(sut, EchoQSL(), server_settings(seed=2))
    return material(result, sut.stats, sut.stats.summary(),
                    primary.blackholed)


def fleet_cell(stream: bool) -> tuple:
    channels = []

    def replica(index: int):
        channel = lossy(backend(stream), seed=40 + index, drop_rate=0.02)
        channels.append(channel)
        return channel

    fleet = ReplicaSet(replica, initial_replicas=4, max_replicas=4,
                       zones=2, attempt_timeout=0.02, max_reroutes=2,
                       seed=4)
    drill = Drill([
        (0.15, lambda: fleet.kill_replica(0)),
        (0.30, lambda: fleet.kill_zone("z1")),
        (0.45, lambda: fleet.restore_zone("z1")),
    ])
    result = run_benchmark(fleet, EchoQSL(), server_settings(seed=3),
                           services=[drill])
    return material(result, fleet.stats, fleet.stats.summary(),
                    [(r.index, r.issued, r.completed, r.failed)
                     for r in fleet.replicas],
                    [c.stats for c in channels])


def stack_cell(stream: bool) -> tuple:
    channels = []

    def replica(index: int):
        channel = lossy(backend(stream), seed=50 + index, drop_rate=0.03)
        channels.append(channel)
        return channel

    # The healing deadline undercuts the fleet's reroute, so a dropped
    # frame costs all three layers an attempt.
    fleet = ReplicaSet(replica, initial_replicas=3, max_replicas=3,
                       attempt_timeout=0.02, max_reroutes=1, seed=5)
    healing = SelfHealingSUT(fleet, attempt_timeout=0.021)
    resilient = ResilientSUT(
        healing, RetryPolicy(attempt_timeout=0.06, total_timeout=0.2),
        seed=5)
    result = run_benchmark(resilient, EchoQSL(), server_settings(seed=4))
    return material(result, resilient.stats, healing.stats,
                    fleet.stats.summary(), [c.stats for c in channels])


CHAOS = ChaosSchedule((
    ChaosEvent(0.10, 0.60, "gray-failure", "replica:1", 24.0),
    ChaosEvent(0.45, 0.30, "zone-outage", "z1"),
))


def chaos_cell() -> tuple:
    orchestrator = ChaosOrchestrator(CHAOS)
    fleet = ReplicaSet(
        orchestrator.wrap_factory(lambda i: backend(True)),
        initial_replicas=4, zones=2, policy="zone-spread",
        attempt_timeout=0.5, seed=6,
        cache_factory=per_replica_cache_factory(capacity_tokens=8192),
    )
    orchestrator.bind(fleet)
    detector = OutlierDetector(
        fleet, OutlierPolicy(min_observations=8, ejection_duration=0.1,
                             probe_timeout=0.02),
        seed=6)
    settings = TestSettings(
        scenario=Scenario.SESSION, server_target_qps=80.0,
        server_latency_bound=0.5, session_count=96,
        session_turns_min=2, session_turns_max=6,
        session_think_time_mean=0.05, min_duration=0.0,
        watchdog_timeout=60.0, seed=6,
    )
    result = run_benchmark(fleet, EchoQSL(), settings,
                           services=[orchestrator, detector])
    return material(result, orchestrator.trace, detector.trace,
                    fleet.stats.summary())


CELLS: Dict[str, Callable[[], tuple]] = {
    "resilient-plain": lambda: resilient_cell(False),
    "resilient-stream": lambda: resilient_cell(True),
    "healing-plain": lambda: healing_cell(False),
    "healing-stream": lambda: healing_cell(True),
    "fleet-plain": lambda: fleet_cell(False),
    "fleet-stream": lambda: fleet_cell(True),
    "stack-plain": lambda: stack_cell(False),
    "stack-stream": lambda: stack_cell(True),
    "chaos-session-stream": chaos_cell,
}

#: Digests captured before the retrying wrappers shared one engine.
GOLDEN: Dict[str, str] = {
    "resilient-plain":
        "209a7b74357216ee4d1ba9a1691bd5a17b83317dc8cb2e4f31dbbf4e5cd0ab2c",
    "resilient-stream":
        "fb134239bc08c79ace46bfc3d17c65e2fa0652a715c883aa648888e53ad45b3e",
    "healing-plain":
        "633cb39d6d178800f8cbe276ee62ccf335354ff6544955003f295a3693669831",
    "healing-stream":
        "b62f3e3364987d3c8fd185fc52b7dee3e077416e4d58324130743c4a1f4054bb",
    "fleet-plain":
        "30201b056ba622dc7c3cc9c4becf8b34c42e1c04a200a69d9f37ad88c6793930",
    "fleet-stream":
        "5ad6c6c019e7cc4e35311f6d8c521151614b3986fe6fd899af1b2b21b79ab36c",
    "stack-plain":
        "3d2e2559bf5ca92d2d836392bed3e88a31f36047e317402af3abbb4adecf422e",
    "stack-stream":
        "3fcb3e181625659ab89ec77a0707da80b32a385f6c76170ee4ed01279268e024",
    "chaos-session-stream":
        "a68222f8a9a98177ec323b6f7368a6bf912782ec7ad8af3e898a7df68e200aeb",
}


def digest(cell: str) -> str:
    return hashlib.sha256(repr(CELLS[cell]()).encode()).hexdigest()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_reproduces_its_golden_digest(cell):
    assert digest(cell) == GOLDEN[cell]


def test_every_cell_is_pinned():
    assert set(GOLDEN) == set(CELLS)


if __name__ == "__main__":
    for name in CELLS:
        print(f'    "{name}":\n        "{digest(name)}",')
