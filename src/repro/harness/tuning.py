"""Search harnesses for the tuned scenario metrics.

The server and multistream metrics are *capacities*: the highest Poisson
rate (resp. stream count N) at which the run is still valid.  Real
submitters tune these by repeated runs; this module automates that.
Each tuner supplies only its probe - LoadGen runs at one rate or N - and
its axis to :func:`repro.core.capacity.search_capacity`, which brackets
and bisects (geometrically for the rate, over integers for N).

``RunScale`` lets experiments trade statistical weight for wall time:
``full`` applies the paper's exact Table IV/V minimums (270,336 queries
for vision server runs); ``quick`` keeps every rule but scales the
minimum query counts and duration down - the default for the benchmark
sweeps, which probe dozens of (system, task, scenario) combos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..core.capacity import search_capacity
from ..core.config import (
    SERVER_REQUIRED_RUNS,
    Scenario,
    Task,
    TestMode,
    TestSettings,
)
from ..core.loadgen import LoadGenResult, run_benchmark
from ..core.sut import QuerySampleLibrary, SystemUnderTest

#: Factory producing a fresh SUT for every probe run (state isolation).
SutFactory = Callable[[], SystemUnderTest]


@dataclass(frozen=True)
class RunScale:
    """Scale factors applied to the rule minimums for probe runs."""

    query_count_factor: float = 1.0
    min_duration: Optional[float] = None
    server_runs: int = SERVER_REQUIRED_RUNS

    def apply(self, settings: TestSettings) -> TestSettings:
        overrides = {}
        if self.query_count_factor != 1.0:
            scaled = max(
                64, int(settings.resolved_min_query_count
                        * self.query_count_factor)
            )
            overrides["min_query_count"] = scaled
            if settings.scenario is Scenario.OFFLINE:
                # Keep offline batches large enough that any device's
                # max_batch is still saturated (the real run's single
                # 24,576-sample query always is).
                overrides["offline_sample_count"] = max(
                    1024, int(settings.resolved_offline_samples
                              * self.query_count_factor)
                )
        if self.min_duration is not None:
            overrides["min_duration"] = self.min_duration
        return settings.with_overrides(**overrides) if overrides else settings


FULL_SCALE = RunScale()
#: ~1/64th of the full query counts and a 2-second floor: seconds per
#: probe instead of minutes, same validity machinery.
QUICK_SCALE = RunScale(query_count_factor=1.0 / 64.0, min_duration=2.0,
                       server_runs=2)


@dataclass
class TunedResult:
    """Outcome of a capacity search."""

    value: float
    result: LoadGenResult
    probes: int


def _is_stationary(result: LoadGenResult, bound: float) -> bool:
    """Reject runs whose latency is still ramping (overloaded queue).

    A short scaled-down run can stay under the latency bound while the
    queue grows without bound; the full 60-second run would catch this
    via the bound itself.  Compare the first and last latency deciles:
    in steady state they agree, under overload the last decile is far
    larger.
    """
    records = result.log.completed_records()
    if len(records) < 100:
        return True
    records = sorted(records, key=lambda r: r.issue_time)
    decile = max(len(records) // 10, 1)
    first = sum(r.latency for r in records[:decile]) / decile
    last = sum(r.latency for r in records[-decile:]) / decile
    return last <= 2.0 * first + 0.05 * bound


def _probe_server(sut_factory: SutFactory, qsl: QuerySampleLibrary,
                  settings: TestSettings, qps: float,
                  runs: int) -> Optional[LoadGenResult]:
    """Run the server scenario ``runs`` times at ``qps``.

    Section III-D: the reported server result is the minimum of five
    runs; a probe passes only if every run is valid.  Returns the result
    of the last run, or ``None`` if any run was invalid.
    """
    last: Optional[LoadGenResult] = None
    bound = settings.resolved_server_latency_bound
    for run_index in range(runs):
        probe_settings = settings.with_overrides(
            server_target_qps=qps,
            seed=settings.seed + run_index,
        )
        result = run_benchmark(sut_factory(), qsl, probe_settings)
        if not result.valid or not _is_stationary(result, bound):
            return None
        last = result
    return last


def find_max_server_qps(
    sut_factory: SutFactory,
    qsl: QuerySampleLibrary,
    task: Task,
    scale: RunScale = QUICK_SCALE,
    start_qps: float = 1.0,
    relative_tolerance: float = 0.05,
    max_probes: int = 40,
    min_qps: float = 1e-3,
    seed: int = None,
) -> Optional[TunedResult]:
    """Highest Poisson QPS at which the server scenario stays valid.

    Returns ``None`` when no rate down to ``min_qps`` is valid - the
    system cannot meet the task's QoS bound at all and simply would not
    submit this scenario (cf. the sparse columns of Table VI).
    """
    settings = TestSettings(scenario=Scenario.SERVER, task=task,
                            mode=TestMode.PERFORMANCE)
    if seed is not None:
        settings = settings.with_overrides(seed=seed)
    settings = scale.apply(settings)

    def probe(qps: float) -> Tuple[bool, Optional[LoadGenResult]]:
        result = _probe_server(sut_factory, qsl, settings, qps,
                               scale.server_runs)
        return result is not None, result

    found = search_capacity(
        probe, start_qps, lambda qps: qps * 4.0,
        shrink=lambda qps: qps / 4.0, floor=min_qps,
        midpoint=lambda lo, hi: math.sqrt(lo * hi),
        resolved=lambda lo, hi: hi / lo <= 1.0 + relative_tolerance,
        max_probes=max_probes,
    )
    if found.best is None:
        return None
    if not found.bracketed:
        raise RuntimeError("server rate search did not bracket a failure")
    return TunedResult(value=found.best, result=found.record,
                       probes=len(found.history))


def find_max_multistream_n(
    sut_factory: SutFactory,
    qsl: QuerySampleLibrary,
    task: Task,
    scale: RunScale = QUICK_SCALE,
    max_n: int = 4096,
    seed: int = None,
) -> Optional[TunedResult]:
    """Largest integer streams-per-query N that stays valid.

    Returns ``None`` when even N=1 is invalid (the system cannot keep up
    with the arrival interval at all - such systems simply do not submit
    multistream results, cf. the sparse MS column of Table VI).
    """
    settings = TestSettings(scenario=Scenario.MULTI_STREAM, task=task,
                            mode=TestMode.PERFORMANCE)
    if seed is not None:
        settings = settings.with_overrides(seed=seed)
    settings = scale.apply(settings)

    def probe(n: int) -> Tuple[bool, LoadGenResult]:
        result = run_benchmark(
            sut_factory(), qsl,
            settings.with_overrides(multistream_samples_per_query=n),
        )
        return result.valid, result

    found = search_capacity(
        probe, 1, lambda n: n * 2, ceiling=max_n,
        midpoint=lambda lo, hi: (lo + hi) // 2,
        resolved=lambda lo, hi: hi - lo <= 1,
    )
    if found.best is None:
        return None
    return TunedResult(value=float(found.best), result=found.record,
                       probes=len(found.history))


def measure_offline(
    sut_factory: SutFactory,
    qsl: QuerySampleLibrary,
    task: Task,
    scale: RunScale = QUICK_SCALE,
    seed: int = None,
) -> LoadGenResult:
    """One offline run; the metric is its measured throughput."""
    settings = TestSettings(scenario=Scenario.OFFLINE, task=task,
                            mode=TestMode.PERFORMANCE)
    if seed is not None:
        settings = settings.with_overrides(seed=seed)
    return run_benchmark(sut_factory(), qsl, scale.apply(settings))


def measure_single_stream(
    sut_factory: SutFactory,
    qsl: QuerySampleLibrary,
    task: Task,
    scale: RunScale = QUICK_SCALE,
    seed: int = None,
) -> LoadGenResult:
    """One single-stream run; the metric is its 90th-pct latency."""
    settings = TestSettings(scenario=Scenario.SINGLE_STREAM, task=task,
                            mode=TestMode.PERFORMANCE)
    if seed is not None:
        settings = settings.with_overrides(seed=seed)
    return run_benchmark(sut_factory(), qsl, scale.apply(settings))
