"""The benchmark's three workloads, their correctness gates and digests.

Each workload is a function
``prepare(seed, size, tracer, workdir, context)`` that builds everything a run needs - data sets, models, the SUT stack,
caches, the chaos schedule, the journal - and returns a
:class:`Prepared`.  Building is what ``setup_s`` measures.  ``execute``
is the timed section that ``items_per_s`` measures; it returns a
``finish`` callable that checks the gates and digests the run outside
the timing.

With ``tracer=None`` the stack is exactly what a user would build: no
proxies, no extra calls.  With a :class:`~tracing.Tracer`, proxies sit
between the layers (see ``tracing.py``); the run must then produce the
identical digest, which is what proves the proxies transparent.

All arrivals are open-loop Poisson in virtual time, so the generator is
never late; every random draw derives from the seed.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.accuracy import check_accuracy
from repro.core import Scenario, TestMode, TestSettings, run_benchmark
from repro.core.loadgen import LoadGenResult
from repro.datasets.base import Dataset
from repro.durability import RunJournal, SelfHealingSUT, run_fingerprint
from repro.faults import (
    ChaosEvent,
    ChaosOrchestrator,
    ChaosSchedule,
    ResilientSUT,
)
from repro.fleet import OutlierDetector, ReplicaSet
from repro.harness.netbench import SyntheticQSL
from repro.metrics import MetricsRegistry
from repro.network.simulated import ChannelModel, SimulatedChannelSUT
from repro.sessions import (
    CacheStats,
    audit_replica_caches,
    per_replica_cache_factory,
    replay_graph_from_settings,
)
from repro.streaming import StreamingSUT, StreamModel
from repro.sut.echo import EchoSUT

from tracing import EventCounter, QslProxy, ServiceProxy, proxy_factory

#: Server-scenario arrival rate of the query workload (q/s).
SERVER_QPS = 2_000.0
#: Share of completed queries whose responses the LoadGen keeps for the
#: accuracy-verification audit (paper Section IV-D) of echo payloads.
AUDIT_SAMPLE_PROBABILITY = 0.05


@dataclass
class Outcome:
    """What one execution of a workload produced."""

    #: Items finished (queries, turns or samples, per workload).
    items: int
    #: Queries issued and failed, as the LoadGen's ``QueryLog`` saw them.
    issued: int
    failed: int
    #: sha256 over the run fingerprint plus the workload's trails.
    digest: str
    #: Failed correctness gates; empty when the run is correct.
    problems: List[str]
    #: Per-layer counts for the traced ledger (retries, drops, ...).
    counts: Dict[str, float] = field(default_factory=dict)
    #: The LoadGen results, so the ledger can re-time the referee.
    results: List[LoadGenResult] = field(default_factory=list)


@dataclass
class Prepared:
    """A built workload: ``execute`` runs the timed section once and
    returns ``finish``, which produces the :class:`Outcome`."""

    execute: Callable[[], Callable[[], Outcome]]
    #: The traced run's event counter (``None`` when untraced).
    counter: Optional[EventCounter] = None


def _clocks(tracer):
    """``(counter, new_clock)``: a fresh counting clock per LoadGen run
    when tracing; the LoadGen's default clock otherwise."""
    if tracer is None:
        return None, lambda: None
    counter = EventCounter()
    return counter, counter.clock


def digest(*parts: object) -> str:
    """sha256 over the parts' ``repr``s.

    The builtin ``hash`` is not used: ``hash(None)`` is address-based on
    Python 3.11, so it differs between processes for one run.
    """
    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def referee_problems(result: LoadGenResult, echo: bool) -> List[str]:
    """Gates every workload shares: a VALID verdict, and every issued
    query completed or failed exactly once (none lost, none twice).
    With ``echo``, every audited response must echo its sample index."""
    log = result.log
    problems = [f"verdict INVALID: {reason}"
                for reason in result.validity.reasons]
    if not result.valid and not problems:
        problems.append("verdict INVALID")
    if log.outstanding:
        problems.append(f"{log.outstanding} queries never resolved")
    if log.duplicate_completions:
        problems.append(
            f"{len(log.duplicate_completions)} duplicate completions")
    if log.unsolicited_responses:
        problems.append(
            f"{len(log.unsolicited_responses)} unsolicited responses")
    resolved = len(log.completed_records()) + len(log.failed_records())
    if resolved != log.query_count:
        problems.append(
            f"{resolved} queries resolved of {log.query_count} issued")
    if echo:
        index_of = log.sample_index_map()
        audited = log.logged_responses()
        if not audited:
            problems.append("no responses kept for the echo audit")
        wrong = sum(1 for sample_id, data in audited.items()
                    if data != index_of[sample_id])
        if wrong:
            problems.append(f"{wrong} responses do not echo their sample")
    return problems


def _server_settings(seed: int, queries: int) -> TestSettings:
    return TestSettings(
        scenario=Scenario.SERVER,
        server_target_qps=SERVER_QPS,
        server_latency_bound=0.25,
        min_query_count=queries,
        min_duration=0.0,
        watchdog_timeout=3_600.0,
        seed=seed,
    )


def _query_outcome(result: LoadGenResult, problems: List[str],
                   trails: tuple, counts: Dict[str, float]) -> Outcome:
    log = result.log
    return Outcome(
        items=len(log.completed_records()),
        issued=log.query_count,
        failed=len(log.failed_records()),
        digest=digest(run_fingerprint(result), *trails),
        problems=problems,
        counts=counts,
        results=[result],
    )


# -- server-stack -----------------------------------------------------------


def prepare_server_stack(seed: int, size: int, tracer=None,
                         workdir: str = ".", context=None) -> Prepared:
    """Server scenario at 2,000 q/s through the reliability stack:

    ``ResilientSUT -> SelfHealingSUT -> ReplicaSet x8 ->
    SimulatedChannelSUT -> EchoSUT``, with a write-ahead ``RunJournal``.
    The channel drops 1% of frames, so the retry path runs.  ``size``
    is the query count.
    """
    wrap = proxy_factory(tracer)
    settings = _server_settings(seed, size)
    channels: Dict[int, SimulatedChannelSUT] = {}

    def replica(index: int):
        echo = wrap(EchoSUT(latency=2e-4, name=f"echo-{index}"),
                    "sut.echo", "network.channel")
        channel = SimulatedChannelSUT(echo, ChannelModel(
            latency=1e-4, jitter=5e-5, drop_rate=0.01,
            seed=seed * 1_000 + index))
        channels[index] = channel
        return wrap(channel, "network.channel", "fleet.replicaset")

    fleet = ReplicaSet(replica, initial_replicas=8, max_replicas=8,
                       seed=seed)
    healing = SelfHealingSUT(wrap(fleet, "fleet.replicaset",
                                  "durability.healing"))
    resilient = ResilientSUT(wrap(healing, "durability.healing",
                                  "faults.resilient"), seed=seed)
    sut = wrap(resilient, "faults.resilient", "core")
    path = os.path.join(workdir, f"journal-{os.getpid()}-{seed}.jsonl")
    journal = RunJournal(path, fsync="never")
    if tracer is not None:
        journal.on_log_event = tracer.timed(
            "durability.journal.append", journal.on_log_event)
    qsl = SyntheticQSL()
    counter, new_clock = _clocks(tracer)

    def execute():
        result = run_benchmark(
            sut, qsl, settings, clock=new_clock(), journal=journal,
            log_sample_probability=AUDIT_SAMPLE_PROBABILITY)
        return lambda: finish(result)

    def finish(result: LoadGenResult) -> Outcome:
        journal_bytes = os.path.getsize(path)
        os.remove(path)
        problems = referee_problems(result, echo=True)
        retries = resilient.stats.retries
        if retries <= 0:
            problems.append("the retry path never ran (0 retries)")
        drops = sum(c.stats.queries_dropped + c.stats.completions_dropped
                    for c in channels.values())
        counts = {
            "faults.resilient.retries": retries,
            "fleet.attempts_per_query":
                fleet.stats.routed_queries / max(1, result.log.query_count),
            "network.channel.drops": drops,
            "durability.journal.bytes": journal_bytes,
        }
        trails = (resilient.stats, healing.stats, fleet.stats.summary(),
                  [c.stats for _, c in sorted(channels.items())])
        return _query_outcome(result, problems, trails, counts)

    return Prepared(execute, counter)


# -- session-stream-chaos -----------------------------------------------------

#: Session-workload shape, as ``repro run --workload session`` builds it.
SESSION_QPS = 20.0
SESSION_TURNS = (2, 8)
SESSION_THINK_S = 0.5
SESSION_REPLICAS = 6
SESSION_ZONES = 3
#: Gray-failure latency multipliers: a 2 ms backend behind a cold
#: prefill must still stand out 3x against the fleet's p99.
SESSION_GRAY_SEVERITY = (16.0, 24.0)
#: Tag of the schedule's seed stream (kept apart from the fleet's).
SESSION_CHAOS_TAG = 0x5C4A05
#: Per-replica prefix-cache capacity, small enough that caches evict.
SESSION_CACHE_TOKENS = 4_096
#: Replica attempt deadline (s).  A gray failure stretches a cold
#: turn's prefill past the 0.1 s default, which would fail turns; with
#: no tail-latency rule on sessions, slow is allowed and failed is not.
SESSION_ATTEMPT_TIMEOUT = 1.0


def session_chaos_schedule(seed: int, sessions: int) -> ChaosSchedule:
    """Four seeded fault windows: two gray failures on distinct replicas,
    an outage of a zone holding neither, and a partition of a replica
    outside that zone.

    ``ChaosSchedule.generate`` draws kinds independently, so some seeds
    would get no gray failure (nothing for the detector to eject) or
    stacked zone outages (no replica left to serve).  Here the kinds are
    fixed and the seed picks targets, order, start and length.  Each
    window sits in its own slot of the first 60% of the run, so at most
    one fault is open at a time and a window always closes before the
    sessions run out.

    Gray failures strike the first replica of a zone.  The balancer
    places new sessions on the least-busy replica, lowest index first,
    so higher replicas can stay idle for seconds; a gray failure there
    slows nothing and leaves the detector no evidence.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((seed, SESSION_CHAOS_TAG)))
    zone_of = [f"z{index % SESSION_ZONES}"
               for index in range(SESSION_REPLICAS)]
    gray = [int(i) for i in rng.choice(SESSION_ZONES, 2, replace=False)]
    spare_zones = sorted(set(zone_of) - {zone_of[i] for i in gray})
    zone = spare_zones[int(rng.integers(len(spare_zones)))]
    spare = [i for i in range(SESSION_REPLICAS)
             if i not in gray and zone_of[i] != zone]
    partitioned = spare[int(rng.integers(len(spare)))]
    faults = [("gray-failure", f"replica:{gray[0]}"),
              ("gray-failure", f"replica:{gray[1]}"),
              ("zone-outage", zone),
              ("partition", f"replica:{partitioned}")]
    order = rng.permutation(len(faults))
    # A rough run length: arrivals plus the longest conversation.
    horizon = sessions / SESSION_QPS + SESSION_TURNS[1] * SESSION_THINK_S
    slot = 0.6 * horizon / len(faults)
    events = []
    for position, which in enumerate(order):
        kind, target = faults[which]
        start = (position + rng.uniform(0.0, 0.3)) * slot
        events.append(ChaosEvent(
            start, rng.uniform(0.5, 0.7) * slot, kind, target,
            rng.uniform(*SESSION_GRAY_SEVERITY)
            if kind == "gray-failure" else 0.0))
    return ChaosSchedule(tuple(events))


def prepare_session_stream_chaos(seed: int, size: int, tracer=None,
                                 workdir: str = ".",
                                 context=None) -> Prepared:
    """Streamed multi-turn sessions over a zoned 6-replica fleet under a
    seeded 4-window chaos schedule, protected by the outlier detector.
    Set up the way ``repro run --workload session --stream --replicas 6
    --zones 3 --balancer session-affinity --chaos`` builds it, except
    for the chaos schedule (:func:`session_chaos_schedule`) and the
    attempt deadline.

    ``size`` is the session count.
    """
    wrap = proxy_factory(tracer)
    settings = TestSettings(
        scenario=Scenario.SESSION,
        server_target_qps=SESSION_QPS,
        session_count=size,
        session_turns_min=SESSION_TURNS[0],
        session_turns_max=SESSION_TURNS[1],
        session_think_time_mean=SESSION_THINK_S,
        min_duration=0.0,
        watchdog_timeout=3_600.0,
        seed=seed,
    )
    registry = MetricsRegistry()
    stream_model = StreamModel(seed=seed)

    def backend(index: int):
        echo = wrap(EchoSUT(latency=2e-3, name=f"replica-{index}"),
                    "sut.echo", "streaming")
        return wrap(StreamingSUT(echo, model=stream_model),
                    "streaming", "faults.degraded")

    schedule = session_chaos_schedule(seed, size)
    orchestrator = ChaosOrchestrator(schedule, registry=registry)
    valves = orchestrator.wrap_factory(backend)
    make_cache = per_replica_cache_factory(
        capacity_tokens=SESSION_CACHE_TOKENS, registry=registry)
    caches = {}

    def cache_factory(index: int, inner):
        cache = make_cache(index, wrap(inner, "faults.degraded",
                                       "sessions.cache"))
        caches[index] = cache
        return wrap(cache, "sessions.cache", "fleet.replicaset")

    fleet = ReplicaSet(
        valves,
        initial_replicas=SESSION_REPLICAS,
        max_replicas=SESSION_REPLICAS,
        policy="session-affinity",
        attempt_timeout=SESSION_ATTEMPT_TIMEOUT,
        zones=SESSION_ZONES,
        seed=seed,
        registry=registry,
        cache_factory=cache_factory,
    )
    orchestrator.bind(fleet)
    detector = OutlierDetector(fleet, seed=seed, registry=registry)
    services = [orchestrator, detector]
    if tracer is not None:
        services = [ServiceProxy(tracer, orchestrator, "faults.chaos"),
                    ServiceProxy(tracer, detector, "fleet.detector")]
    sut = wrap(fleet, "fleet.replicaset", "core")
    graph = replay_graph_from_settings(settings)
    qsl = SyntheticQSL()
    counter, new_clock = _clocks(tracer)
    audit = audit_replica_caches
    if tracer is not None:
        audit = tracer.timed("sessions.audit", audit_replica_caches)

    def execute():
        caches.clear()
        result = run_benchmark(
            sut, qsl, settings, clock=new_clock(), registry=registry,
            services=services,
            log_sample_probability=AUDIT_SAMPLE_PROBABILITY)
        trails = audit(caches, graph)
        return lambda: finish(result, trails)

    def finish(result: LoadGenResult, trails) -> Outcome:
        problems = referee_problems(result, echo=True)
        problems += [f"cache audit, replica {index}: {problem}"
                     for index, found in sorted(trails.items())
                     for problem in found]
        injected = sum(1 for d in orchestrator.trace if d.action == "inject")
        if injected != len(schedule.events):
            problems.append(f"{injected} of {len(schedule.events)} chaos "
                            "windows injected")
        ejections = sum(1 for e in detector.trace if e.action == "eject")
        if ejections <= 0:
            problems.append("the outlier detector ejected nothing")
        stats = CacheStats.merged([c.stats for c in caches.values()])
        counts = {
            "sessions.cache.token_hit_rate": stats.token_hit_rate,
            "sessions.cache.evictions": stats.evictions,
            "streaming.restarts": sum(
                r.stream_restarts for r in result.log.records()),
            "fleet.stragglers": fleet.stats.stragglers_absorbed,
            "fleet.reroutes": fleet.stats.reroutes,
            "fleet.ejections": fleet.stats.ejections,
            "fleet.rescued": fleet.stats.rescued_queries,
            "fleet.attempts_per_query":
                fleet.stats.routed_queries / max(1, result.log.query_count),
            "faults.chaos.ticks": len(orchestrator.trace),
        }
        cache_trails = [caches[index].events for index in sorted(caches)]
        return _query_outcome(
            result, problems,
            (orchestrator.trace, detector.trace, cache_trails), counts)

    return Prepared(execute, counter)


# -- offline-models -----------------------------------------------------------

#: Fixed modeled service time per sample (seconds), so the run's virtual
#: timeline - and hence its fingerprint - does not depend on host speed.
OFFLINE_SERVICE_S_PER_SAMPLE = 1e-3
#: Each model must keep this share of its own FP32 reference quality.
QUALITY_FLOOR = 0.99
#: Relative data set sizes (classifier, detector, translator) per unit
#: of ``size``.
OFFLINE_MIX = (("classifier", "classification", 4),
               ("detector", "detection", 1),
               ("translator", "translation", 4))


class SampleWindow(Dataset):
    """Samples ``[start, start + count)`` of a procedural data set, seen
    as a data set of its own.

    The data sets draw each sample from ``(data set seed, index)``, so a
    window anywhere costs nothing to reach.  Everything else - glyph
    banks, vocabulary, the models built from them - is the base data
    set's.
    """

    def __init__(self, base: Dataset, start: int, count: int) -> None:
        self._base = base
        self._start = start
        self._count = count

    def __len__(self) -> int:
        return self._count

    def get_sample(self, index: int) -> object:
        self._check_index(index)
        return self._base.get_sample(self._start + index)

    def get_label(self, index: int) -> object:
        self._check_index(index)
        return self._base.get_label(self._start + index)

    def __getattr__(self, attr: str):
        return getattr(self._base, attr)


def _offline_model(kind: str, seed: int, count: int):
    """Data set, FP32 model, and SUT class for one reference model.

    The data sets keep the repository's default seeds: their glyph banks
    and vocabularies, and so the models, stay fixed, as MLPerf fixes its
    data sets and models.  ``seed`` picks which ``count`` samples the
    pass covers.  Deriving the data set seeds from it instead would make
    set-up time (glyph-bank rejection sampling) and detection scoring
    work jump from seed to seed.
    """
    from repro.datasets import SyntheticCoco, SyntheticImageNet, SyntheticWmt
    from repro.models.runtime import (
        build_cipher_translator,
        build_glyph_classifier,
        build_glyph_detector,
    )
    from repro.sut.backend import ClassifierSUT, DetectorSUT, TranslatorSUT

    end = (seed + 1) * count
    if kind == "classifier":
        base = SyntheticImageNet(size=end)
        model, sut_class = build_glyph_classifier(base, "heavy"), \
            ClassifierSUT
    elif kind == "detector":
        base = SyntheticCoco(size=end)
        model, sut_class = build_glyph_detector(base, "heavy"), DetectorSUT
    else:
        base = SyntheticWmt(size=end)
        model, sut_class = build_cipher_translator(base), TranslatorSUT
    return SampleWindow(base, end - count, count), model, sut_class


def offline_references(seed: int, size: int) -> Dict[str, float]:
    """Each model's own FP32 quality from ``evaluate_*``, over the same
    samples the accuracy pass covers (the gate's reference)."""
    from repro.models.runtime import (
        evaluate_classifier,
        evaluate_detector,
        evaluate_translator,
    )

    evaluate = {"classifier": evaluate_classifier,
                "detector": evaluate_detector,
                "translator": evaluate_translator}
    references = {}
    for kind, _, share in OFFLINE_MIX:
        dataset, model, _ = _offline_model(kind, seed, share * size)
        references[kind] = evaluate[kind](
            model, dataset, indices=range(len(dataset)))
    return references


def prepare_offline_models(seed: int, size: int, tracer=None,
                           workdir: str = ".",
                           context: Optional[Dict[str, float]] = None,
                           ) -> Prepared:
    """An Offline accuracy-mode pass of the heavy glyph classifier, the
    glyph detector and the cipher translator, each followed by the
    accuracy script.  ``size`` scales the data sets (``OFFLINE_MIX``);
    ``context`` holds the FP32 references (:func:`offline_references`)."""
    from repro.datasets import DatasetQSL

    references = context or offline_references(seed, size)
    settings = TestSettings(
        scenario=Scenario.OFFLINE, mode=TestMode.ACCURACY,
        min_duration=0.0, watchdog_timeout=3_600.0, seed=seed)
    wrap = proxy_factory(tracer)
    passes = []
    for kind, task_type, share in OFFLINE_MIX:
        dataset, model, sut_class = _offline_model(kind, seed, share * size)
        qsl = DatasetQSL(dataset)
        if tracer is not None:
            qsl = QslProxy(tracer, qsl, "datasets")
        sut = wrap(sut_class(
            model, qsl,
            service_time_fn=lambda n: OFFLINE_SERVICE_S_PER_SAMPLE * n),
            f"models.{kind}", "core")
        check = check_accuracy
        if tracer is not None:
            check = tracer.timed(f"accuracy.{task_type}.check",
                                 check_accuracy)
        passes.append((kind, task_type, dataset, qsl, sut, check))
    counter, new_clock = _clocks(tracer)

    def execute():
        results, reports = [], []
        for kind, task_type, dataset, qsl, sut, check in passes:
            result = run_benchmark(sut, qsl, settings, clock=new_clock())
            results.append(result)
            reports.append(check(result, dataset, task_type,
                                 QUALITY_FLOOR * references[kind]))
        return lambda: finish(results, reports)

    def finish(results: List[LoadGenResult], reports) -> Outcome:
        problems = []
        for (kind, *_), result, report in zip(passes, results, reports):
            problems += referee_problems(result, echo=False)
            if not report.passed:
                problems.append(
                    f"{kind}: {report.summary()} is below "
                    f"{QUALITY_FLOOR:.0%} of its FP32 reference "
                    f"{references[kind]:.6g}")
        return Outcome(
            items=sum(r.metrics.sample_count for r in results),
            issued=sum(r.log.query_count for r in results),
            failed=sum(len(r.log.failed_records()) for r in results),
            digest=digest(*(run_fingerprint(r) for r in results),
                          [(r.metric_name, r.value, r.sample_count)
                           for r in reports]),
            problems=problems,
            results=results,
        )

    return Prepared(execute, counter)


@dataclass(frozen=True)
class Workload:
    """A registered workload."""

    #: ``prepare(seed, size, tracer, workdir, context) -> Prepared``.
    prepare: Callable
    #: What ``items_per_s`` counts.
    item: str
    #: Default size: queries, sessions, or the data set scale.
    size: int
    #: ``context(seed, size)``: per-process inputs computed once, before
    #: any timing (the offline models' FP32 references).
    context: Callable = lambda seed, size: None


WORKLOADS = {
    "server-stack": Workload(prepare_server_stack, "query", 6_000),
    "session-stream-chaos": Workload(
        prepare_session_stream_chaos, "turn", 300),
    "offline-models": Workload(
        prepare_offline_models, "sample", 200, offline_references),
}
