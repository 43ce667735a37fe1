"""search_capacity over synthetic monotone validity thresholds."""

import ast
import inspect
import math
import textwrap

import pytest

from repro.core.capacity import CapacityProbe, search_capacity
from repro.core.experimental import find_max_burst_rate
from repro.fleet import SweepHarness
from repro.harness.tuning import find_max_multistream_n, find_max_server_qps


def threshold(limit):
    """A probe valid up to ``limit``, recording the point it ran at."""
    return lambda point: (point <= limit, f"run@{point}")


def geometric(**kwargs):
    defaults = dict(shrink=lambda x: x / 4.0, floor=1e-3,
                    midpoint=lambda lo, hi: math.sqrt(lo * hi),
                    resolved=lambda lo, hi: hi / lo <= 1.05)
    defaults.update(kwargs)
    return defaults


def points(found):
    return [probe.point for probe in found.history]


def test_grows_then_bisects_to_the_threshold():
    found = search_capacity(threshold(100.0), 1.0, lambda x: x * 4.0,
                            **geometric())
    assert points(found)[:5] == [1.0, 4.0, 16.0, 64.0, 256.0]
    assert found.bracketed
    assert 100.0 / 1.05 <= found.best <= 100.0
    assert found.record == f"run@{found.best}"
    assert found.history[0] == CapacityProbe(1.0, True, "run@1.0")


def test_shrinks_from_an_invalid_start():
    found = search_capacity(threshold(3.0), 64.0, lambda x: x * 4.0,
                            **geometric())
    assert points(found)[:4] == [64.0, 16.0, 4.0, 1.0]
    assert found.bracketed
    assert 3.0 / 1.05 <= found.best <= 3.0


def test_nothing_valid_above_the_floor():
    found = search_capacity(threshold(1e-4), 1.0, lambda x: x * 4.0,
                            **geometric())
    assert found.best is None and found.record is None
    assert not found.bracketed
    assert min(points(found)) >= 1e-3


def test_without_shrink_an_invalid_start_is_the_answer():
    found = search_capacity(threshold(0.5), 1, lambda n: n * 2)
    assert found.best is None
    assert points(found) == [1]


def test_the_ceiling_stops_growth_unbracketed():
    found = search_capacity(threshold(1000), 1, lambda n: n * 2,
                            ceiling=20,
                            midpoint=lambda lo, hi: (lo + hi) // 2,
                            resolved=lambda lo, hi: hi - lo <= 1)
    assert points(found) == [1, 2, 4, 8, 16]
    assert found.best == 16 and not found.bracketed


def test_integer_bisection():
    found = search_capacity(threshold(11), 1, lambda n: n * 2,
                            ceiling=4096,
                            midpoint=lambda lo, hi: (lo + hi) // 2,
                            resolved=lambda lo, hi: hi - lo <= 1)
    assert points(found) == [1, 2, 4, 8, 16, 12, 10, 11]
    assert found.best == 11 and found.bracketed


def test_the_probe_cap_stops_growth_unbracketed():
    found = search_capacity(threshold(math.inf), 1.0, lambda x: x * 4.0,
                            max_probes=3, **geometric())
    assert points(found) == [1.0, 4.0, 16.0]
    assert found.best == 16.0 and not found.bracketed


def test_the_probe_cap_bounds_bisection():
    found = search_capacity(threshold(100.0), 1.0, lambda x: x * 4.0,
                            max_probes=7, **geometric())
    assert len(found.history) == 7
    assert found.bracketed and found.best <= 100.0


def test_a_walk_without_midpoint_does_not_bisect():
    found = search_capacity(threshold(35.0), 10.0, lambda x: x + 10.0,
                            ceiling=100.0)
    assert points(found) == [10.0, 20.0, 30.0, 40.0]
    assert found.best == 30.0 and found.bracketed


def test_growth_that_does_not_move_stops():
    # The binary sweep's one jump: grow to a fixed high end, then stop.
    found = search_capacity(threshold(math.inf), 1.0, lambda x: 50.0,
                            ceiling=50.0)
    assert points(found) == [1.0, 50.0]
    assert found.best == 50.0 and not found.bracketed


ENTRY_POINTS = [find_max_server_qps, find_max_multistream_n,
                find_max_burst_rate, SweepHarness.run]


@pytest.mark.parametrize("entry", ENTRY_POINTS,
                         ids=lambda f: f.__qualname__)
def test_entry_points_hold_no_search_loop(entry):
    tree = ast.parse(textwrap.dedent(inspect.getsource(entry)))
    loops = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.While, ast.For))]
    assert not loops, f"{entry.__qualname__} runs its own search loop"
