"""One capacity search: the highest point on an axis where a run is valid.

The Server and MultiStream metrics are capacities (Section III-D): the
highest Poisson rate, or stream count N, at which a run still meets its
QoS and tail bounds.  So are the burst rate and the fleet sweep's SLO
rate.  Each caller runs one probe at a point of its axis;
:func:`search_capacity` picks the points.  It is sound whenever
validity is monotone along the axis.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, NamedTuple, Optional, Tuple


class CapacityProbe(NamedTuple):
    """One probe: the point run, its verdict, and the caller's record."""

    point: Any
    valid: bool
    record: Any


class Capacity(NamedTuple):
    """Outcome of :func:`search_capacity`."""

    #: Highest point probed valid; ``None`` when none was.
    best: Any
    #: The caller's record of the probe at ``best``.
    record: Any
    #: Whether an invalid point above ``best`` was probed.  ``False``
    #: with a ``best`` means growth stopped at the ceiling or probe cap.
    bracketed: bool
    #: Every probe, in execution order.
    history: List[CapacityProbe]


def search_capacity(
    probe: Callable[[Any], Tuple[bool, Any]],
    start: Any,
    grow: Callable[[Any], Any],
    *,
    shrink: Optional[Callable[[Any], Any]] = None,
    floor: float = 0.0,
    ceiling: float = math.inf,
    midpoint: Optional[Callable[[Any, Any], Any]] = None,
    resolved: Optional[Callable[[Any, Any], bool]] = None,
    max_probes: Optional[int] = None,
) -> Capacity:
    """Find the highest valid point; ``probe(point)`` is ``(valid, record)``.

    From a valid ``start``, probe ``grow(best)`` while it lies above
    ``best`` and at most ``ceiling``.  From an invalid one, probe
    ``shrink(hi)`` while it is at least ``floor`` (without ``shrink``,
    nothing below ``start`` is tried).  Once a valid point lies under an
    invalid one, probe ``midpoint(lo, hi)`` until ``resolved(lo, hi)``;
    without a ``midpoint`` the walk is the answer.  After ``start``, no
    probe runs once ``max_probes`` points have been probed.
    """
    history: List[CapacityProbe] = []

    def room() -> bool:
        return max_probes is None or len(history) < max_probes

    def run(point) -> CapacityProbe:
        history.append(CapacityProbe(point, *probe(point)))
        return history[-1]

    best = hi = None
    first = run(start)
    if first.valid:
        best = first
        while room() and best.point < grow(best.point) <= ceiling:
            step = run(grow(best.point))
            if not step.valid:
                hi = step.point
                break
            best = step
    elif shrink is not None:
        hi = start
        while room() and shrink(hi) >= floor:
            step = run(shrink(hi))
            if step.valid:
                best = step
                break
            hi = step.point
    if best is None:
        return Capacity(None, None, False, history)
    while (hi is not None and midpoint is not None and room()
           and not resolved(best.point, hi)):
        step = run(midpoint(best.point, hi))
        if step.valid:
            best = step
        else:
            hi = step.point
    return Capacity(best.point, best.record, hi is not None, history)
