"""Experimental scenarios beyond the v0.5 four (paper Sections I, IV-B).

The paper names two extensions the decoupled LoadGen design was built to
absorb: a **burst mode** ("new scenarios (e.g., 'burst' mode)") and a
**multitenancy mode** ("the LoadGen is extensible to support more
scenarios, such as a multitenancy mode where the SUT must continuously
serve multiple models while maintaining QoS constraints").

This module implements burst mode: bursts of ``burst_size`` single-
sample queries arrive back to back, with burst *start* times drawn from
a Poisson process - the traffic shape of, say, a camera trap or a
scroll-triggered feed ranker.  The metric mirrors the server scenario
(sustainable burst rate under the task's QoS bound), and the same
validity machinery applies: bursty traffic at an equal average sample
rate is strictly harder than smooth Poisson arrivals, which the
``benchmarks/test_ext_burst_mode.py`` ablation quantifies.

Multitenancy lives in ``repro.harness.multitenant`` (it composes
existing scenario drivers over a shared device rather than defining a
new arrival process).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .capacity import search_capacity
from .config import Scenario, Task, TestSettings, task_rules
from .events import EventLoop, RunAbortedError, VirtualClock
from .loadgen import LoadGenResult
from .logging import QueryLog
from .metrics import compute_metrics, empty_metrics
from .query import Query
from .sampler import SampleSelector
from .scenarios import PerformanceSource, ScenarioDriver
from .sut import QuerySampleLibrary, SystemUnderTest
from .validation import validate_run


@dataclass(frozen=True)
class BurstSettings:
    """Configuration of one burst-mode run."""

    task: Task
    #: Queries per burst (all issued at the same instant).
    burst_size: int = 8
    #: Average bursts per second (Poisson over burst start times).
    bursts_per_second: float = 1.0
    #: QoS bound per query; defaults to the task's Table III server bound.
    latency_bound: Optional[float] = None
    min_query_count: int = 4_096
    min_duration: float = 2.0
    seed: int = 0xB0B5

    def __post_init__(self) -> None:
        if self.burst_size < 1:
            raise ValueError(f"burst_size must be >= 1, got {self.burst_size}")
        if self.bursts_per_second <= 0:
            raise ValueError("bursts_per_second must be positive")

    @property
    def resolved_bound(self) -> float:
        if self.latency_bound is not None:
            return self.latency_bound
        return task_rules(self.task).server_latency_bound

    @property
    def average_qps(self) -> float:
        return self.burst_size * self.bursts_per_second

    def to_test_settings(self) -> TestSettings:
        """The equivalent server-scenario settings (for validation)."""
        return TestSettings(
            scenario=Scenario.SERVER,
            task=self.task,
            server_target_qps=self.average_qps,
            server_latency_bound=self.resolved_bound,
            min_query_count=self.min_query_count,
            min_duration=self.min_duration,
            seed=self.seed,
        )


class BurstDriver(ScenarioDriver):
    """Poisson-spaced bursts of back-to-back single-sample queries."""

    scenario = Scenario.SERVER   # shares the server metric & validation

    def __init__(self, loop, settings: TestSettings, sut, source, log,
                 burst_size: int) -> None:
        super().__init__(loop, settings, sut, source, log)
        self.burst_size = burst_size
        self._arrival_rng = np.random.default_rng(
            np.random.SeedSequence(settings.seed).spawn(1)[0]
        )

    @property
    def bursts_per_second(self) -> float:
        return self.settings.server_target_qps / self.burst_size

    def start(self) -> None:
        self.stats.start_time = self.loop.now
        self._schedule_next_burst()

    def _schedule_next_burst(self) -> None:
        gap = self._arrival_rng.exponential(1.0 / self.bursts_per_second)
        self.loop.schedule_after(gap, self._burst)

    def _burst(self) -> None:
        for _ in range(self.burst_size):
            indices = self.source.next(1)
            if indices is None:
                self._close_issue_phase()
                return
            self._issue(indices, scheduled_time=self.loop.now)
        if self._should_issue_more():
            self._schedule_next_burst()
        else:
            self._close_issue_phase()

    def on_completion(self, query: Query) -> None:
        """Burst queries are independent; nothing to do on completion."""


def run_burst_benchmark(
    sut: SystemUnderTest,
    qsl: QuerySampleLibrary,
    burst: BurstSettings,
) -> LoadGenResult:
    """Execute one burst-mode run and return the standard result."""
    settings = burst.to_test_settings()
    total = qsl.total_sample_count
    budget = min(qsl.performance_sample_count, total)
    loaded = list(range(budget))
    qsl.load_samples(loaded)
    try:
        loop = EventLoop(VirtualClock())
        log = QueryLog()
        source = PerformanceSource(SampleSelector(loaded, seed=burst.seed))
        driver = BurstDriver(loop, settings, sut, source, log,
                             burst_size=burst.burst_size)
        sut.start_run(loop, driver.handle_completion)
        driver.start()
        try:
            loop.run()
        except RunAbortedError as abort:
            driver.stats.aborted = str(abort)
        if log.completed_records():
            metrics = compute_metrics(log, settings)
        else:
            metrics = empty_metrics(log, settings)
        validity = validate_run(log, settings, driver.stats)
        return LoadGenResult(settings=settings, log=log, metrics=metrics,
                             validity=validity, loaded_indices=loaded,
                             stats=driver.stats)
    finally:
        qsl.unload_samples(loaded)


def find_max_burst_rate(
    sut_factory: Callable[[], SystemUnderTest],
    qsl: QuerySampleLibrary,
    burst: BurstSettings,
    relative_tolerance: float = 0.1,
    max_probes: int = 30,
    min_rate: float = 1e-3,
) -> Optional[float]:
    """Highest average QPS (as ``burst_size`` x bursts/s) that stays valid.

    Returns ``None`` when no rate down to ``min_rate`` qualifies.
    """
    def probe(bursts_per_second: float) -> Tuple[bool, None]:
        settings = replace(burst, bursts_per_second=bursts_per_second)
        return run_burst_benchmark(sut_factory(), qsl, settings).valid, None

    found = search_capacity(
        probe, burst.bursts_per_second, lambda rate: rate * 4.0,
        shrink=lambda rate: rate / 4.0, floor=min_rate,
        midpoint=lambda lo, hi: math.sqrt(lo * hi),
        resolved=lambda lo, hi: hi / lo <= 1.0 + relative_tolerance,
        max_probes=max_probes,
    )
    return None if found.best is None else found.best * burst.burst_size
