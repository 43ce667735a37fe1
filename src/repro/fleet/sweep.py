"""SLO-driven capacity search: find the max arrival rate a SUT sustains.

The Server scenario takes a *target* QPS as an input and returns a
verdict; the question operators actually ask is the inverse - "what is
the highest arrival rate at which this system still meets its latency
SLO?".  :class:`SweepHarness` answers it the way FlexBench argues
capacity questions should be answered: by *searching* the rate axis
rather than guessing, running one full (virtual-clock, deterministic)
Server run per probe and judging each probe with the referee's own
validity rules.

Two search modes, both run by :func:`repro.core.capacity.search_capacity`:

* ``"binary"`` - bracket ``[qps_low, qps_high]`` and bisect on the
  run verdict down to ``resolution``.  Sound whenever validity is
  monotone in the arrival rate (true for capacity-limited SUTs; the
  benchmark study checks the found rate against a dense step scan).
* ``"step"`` - walk upward in ``resolution`` increments until the first
  invalid run, with no bisection; exact by construction, linear in the
  range.

The result is a :class:`SweepResult` whose :meth:`~SweepResult.report`
is a ``BENCH_fleet.json``-style capacity document (the ``repro sweep``
CLI writes it with ``--report``): the SLO probed against, every probe's
rate/verdict/p99, and the max compliant rate found.  Sweep semantics
and mode trade-offs are discussed in ``docs/fleet.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Tuple

from ..core.capacity import search_capacity
from ..core.config import Scenario, TestSettings
from ..core.events import Clock
from ..core.loadgen import run_benchmark
from ..core.sut import QuerySampleLibrary, SystemUnderTest


@dataclass(frozen=True)
class SweepConfig:
    """Search-space knobs for :class:`SweepHarness`."""

    #: Bracket of arrival rates to search, queries per second.
    qps_low: float = 1.0
    qps_high: float = 256.0
    #: Terminal bracket width (binary) or step size (step), qps.
    resolution: float = 1.0
    #: ``"binary"`` or ``"step"``.
    mode: str = "binary"
    #: Hard cap on probe runs, a stuck-search backstop.
    max_probes: int = 32

    def __post_init__(self) -> None:
        if self.qps_low <= 0:
            raise ValueError(f"qps_low must be positive, got {self.qps_low}")
        if self.qps_high <= self.qps_low:
            raise ValueError(
                "qps_high must exceed qps_low, got "
                f"{self.qps_high} <= {self.qps_low}")
        if self.resolution <= 0:
            raise ValueError(
                f"resolution must be positive, got {self.resolution}")
        if self.mode not in ("binary", "step"):
            raise ValueError(
                f"mode must be 'binary' or 'step', got {self.mode!r}")
        if self.max_probes < 2:
            raise ValueError(
                f"max_probes must be >= 2, got {self.max_probes}")


class SweepProbe(NamedTuple):
    """One probe run: the rate asked for and how the run judged it."""

    qps: float
    valid: bool
    latency_p99: float
    completed: int
    reasons: Tuple[str, ...]


@dataclass
class SweepResult:
    """Outcome of one capacity search."""

    config: SweepConfig
    #: The SLO the probes were judged against, seconds.
    latency_bound: float
    #: Allowed fraction of queries over the bound.
    max_violation_fraction: float
    #: Every probe, in execution order.
    probes: List[SweepProbe] = field(default_factory=list)
    #: Highest SLO-compliant rate found; ``None`` when even ``qps_low``
    #: failed (the bracket does not contain the capacity).
    max_qps: Optional[float] = None

    def report(self) -> dict:
        """The ``BENCH_fleet.json``-style capacity document."""
        return {
            "benchmark": "fleet-capacity-sweep",
            "mode": self.config.mode,
            "bracket_qps": [self.config.qps_low, self.config.qps_high],
            "resolution_qps": self.config.resolution,
            "slo": {
                "latency_bound_s": self.latency_bound,
                "max_violation_fraction": self.max_violation_fraction,
            },
            "max_valid_qps": self.max_qps,
            "probe_count": len(self.probes),
            "probes": [
                {
                    "qps": p.qps,
                    "valid": p.valid,
                    "latency_p99_s": p.latency_p99,
                    "completed": p.completed,
                    "reasons": list(p.reasons),
                }
                for p in self.probes
            ],
        }

    def write(self, path) -> Path:
        """Write :meth:`report` as JSON; returns the path written."""
        path = Path(path)
        path.write_text(json.dumps(self.report(), indent=2) + "\n")
        return path

    def summary(self) -> str:
        found = ("below the bracket" if self.max_qps is None
                 else f"{self.max_qps:.3g} qps")
        return (f"max SLO-compliant rate: {found} "
                f"({len(self.probes)} probe runs, "
                f"bound {self.latency_bound * 1e3:g} ms)")


class SweepHarness:
    """Binary-search / step an arrival rate against the SLO.

    Works on both rate-driven scenarios: the Server scenario (queries/s)
    and the session scenario (sessions/s - ``server_target_qps`` is the
    session arrival rate there, see ``docs/sessions.md``), so a fleet
    with per-replica prefix caches can have its *conversation* capacity
    searched the same way.

    ``make_sut`` builds a *fresh* SUT per probe (probe runs must not
    share warm caches, breaker state, or worker pools), and any SUT
    exposing ``close()`` is released after its probe.
    """

    #: Scenarios whose load is an arrival rate the sweep can bisect.
    _RATE_SCENARIOS = (Scenario.SERVER, Scenario.SESSION)

    def __init__(
        self,
        make_sut: Callable[[], SystemUnderTest],
        qsl: QuerySampleLibrary,
        settings: TestSettings,
        config: Optional[SweepConfig] = None,
        *,
        clock: Optional[Clock] = None,
        services_factory: Optional[Callable[[SystemUnderTest], list]] = None,
        probe_observer: Optional[Callable[..., None]] = None,
    ) -> None:
        if settings.scenario not in self._RATE_SCENARIOS:
            raise ValueError(
                "capacity sweeps are a Server/session-scenario tool; got "
                f"{settings.scenario}")
        self.make_sut = make_sut
        self.qsl = qsl
        self.settings = settings
        self.config = config if config is not None else SweepConfig()
        self.clock = clock
        #: Per-probe :class:`~repro.core.loadgen.RunService` builder
        #: (e.g. a fresh Autoscaler around the probe's fresh fleet);
        #: called with the probe's SUT, returns the run's services.
        self.services_factory = services_factory
        #: Called as ``probe_observer(sut, result, probe)`` after each
        #: probe run, *before* the SUT is closed - the hook that lets a
        #: caller audit per-replica cache trails or collect hit rates
        #: while the probe's state is still alive.
        self.probe_observer = probe_observer

    def probe(self, qps: float) -> SweepProbe:
        """One full run at arrival rate ``qps``, judged by the referee."""
        settings = self.settings.with_overrides(server_target_qps=qps)
        sut = self.make_sut()
        services = (self.services_factory(sut)
                    if self.services_factory is not None else None)
        try:
            result = run_benchmark(sut, self.qsl, settings,
                                   clock=self.clock, services=services)
            probe = SweepProbe(
                qps=qps,
                valid=result.valid,
                latency_p99=result.metrics.latency_p99,
                completed=len(result.log.completed_records()),
                reasons=tuple(result.validity.reasons),
            )
            if self.probe_observer is not None:
                self.probe_observer(sut, result, probe)
        finally:
            close = getattr(sut, "close", None)
            if callable(close):
                close()
        return probe

    def run(self) -> SweepResult:
        try:
            bound = self.settings.resolved_server_latency_bound
        except ValueError:
            # A session sweep may carry no latency bound at all - the
            # referee then judges on session validity (stalls, aborts,
            # completion minimums) alone.
            bound = float("nan")
        cfg = self.config
        if cfg.mode == "binary":
            # One jump from qps_low to qps_high, then bisection.
            found = search_capacity(
                self._judged, cfg.qps_low, lambda qps: cfg.qps_high,
                ceiling=cfg.qps_high,
                midpoint=lambda lo, hi: (lo + hi) / 2.0,
                resolved=lambda lo, hi: hi - lo <= cfg.resolution,
                max_probes=cfg.max_probes)
        else:
            # A walk without bisection.  The epsilon admits qps_high
            # itself despite float step error.
            found = search_capacity(
                self._judged, cfg.qps_low, lambda qps: qps + cfg.resolution,
                ceiling=cfg.qps_high + 1e-9 * cfg.qps_high,
                max_probes=cfg.max_probes)
        return SweepResult(
            config=cfg,
            latency_bound=bound,
            max_violation_fraction=(
                self.settings.resolved_max_violation_fraction),
            probes=[probe.record for probe in found.history],
            max_qps=found.best,
        )

    def _judged(self, qps: float) -> Tuple[bool, SweepProbe]:
        probe = self.probe(qps)
        return probe.valid, probe
