"""Golden probe corpus for the capacity searches.

Each cell runs one seeded virtual-clock capacity search - the server,
multistream and burst tuners and the fleet ``SweepHarness`` in both of
its modes - over a SUT that records what it was asked to serve.  The
cell's material is the value the search returned, its probe count, the
issue times (and sample counts) every probe's SUT observed, which fix
each probed rate or stream count N without reaching into the search,
and the referee's ``run_fingerprint`` or sweep report where the search
returns one.  The sha256 of its ``repr`` is pinned below.

A refactor of the search that keeps behaviour must reproduce every
digest bit for bit: the same probes, in the same order, at the same
floats.  A change that means to alter behaviour updates the table and
says why in its change notes.  To print the current digests::

    PYTHONPATH=src python -m tests.harness.test_golden_capacity
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List

import pytest

from repro.core import Task
from repro.core.experimental import BurstSettings, find_max_burst_rate
from repro.durability import run_fingerprint
from repro.fleet import SweepConfig, SweepHarness
from repro.harness.tuning import (
    RunScale,
    find_max_multistream_n,
    find_max_server_qps,
)
from repro.sut.simulated import SimulatedSUT, WorkloadProfile

from tests.conftest import EchoQSL
from tests.fleet.test_sweep import SerialQueueSUT, server_settings
from tests.harness.test_tuning import make_device

TASK = Task.IMAGE_CLASSIFICATION_HEAVY
SCALE = RunScale(query_count_factor=1.0 / 1024.0, min_duration=0.25,
                 server_runs=2)


def recording(base: type, probes: List[list]) -> type:
    """``base`` with every SUT instance logging what it was issued."""

    class Recording(base):
        def start_run(self, loop, responder):
            super().start_run(loop, responder)
            self.issued = []
            probes.append(self.issued)

        def issue_query(self, query):
            self.issued.append((self.loop.now, query.sample_count))
            super().issue_query(query)

    return Recording


def simulated(probes: List[list], **device) -> Callable:
    sut = recording(SimulatedSUT, probes)
    return lambda: sut(make_device(**device), WorkloadProfile(8.2))


def tuned_material(tuned, probes) -> tuple:
    if tuned is None:
        return (None, probes)
    return (tuned.value, tuned.probes, probes,
            repr(run_fingerprint(tuned.result)))


# -- cells ------------------------------------------------------------------


def server_cell(start_qps: float = 1.0, max_probes: int = 40,
                **device) -> tuple:
    probes: List[list] = []
    try:
        tuned = find_max_server_qps(simulated(probes, **device), EchoQSL(),
                                    TASK, SCALE, start_qps=start_qps,
                                    max_probes=max_probes)
    except RuntimeError as error:
        return (repr(error), probes)
    return tuned_material(tuned, probes)


def multistream_cell(**kwargs) -> tuple:
    probes: List[list] = []
    device = kwargs.pop("device", {})
    tuned = find_max_multistream_n(simulated(probes, **device), EchoQSL(),
                                   TASK, SCALE, **kwargs)
    return tuned_material(tuned, probes)


def burst_cell(**kwargs) -> tuple:
    probes: List[list] = []
    burst = BurstSettings(task=TASK, burst_size=4, min_query_count=128)
    rate = find_max_burst_rate(simulated(probes), EchoQSL(), burst,
                               **kwargs)
    return (rate, len(probes), probes)


def sweep_cell(**config) -> tuple:
    probes: List[list] = []
    sut = recording(SerialQueueSUT, probes)
    result = SweepHarness(lambda: sut(0.010), EchoQSL(),
                          server_settings(0.050),
                          SweepConfig(**config)).run()
    return (result.max_qps, len(result.probes), probes,
            repr(result.report()))


CELLS: Dict[str, Callable[[], tuple]] = {
    "server-found": server_cell,
    "server-none": lambda: server_cell(peak_gops=100.0),
    "server-shrink": lambda: server_cell(start_qps=16384.0),
    "server-unbracketed": lambda: server_cell(max_probes=3),
    "multistream-found": multistream_cell,
    "multistream-max-n": lambda: multistream_cell(
        max_n=16, device=dict(peak_gops=1e7, max_batch=100_000)),
    "burst-found": burst_cell,
    "burst-unbracketed": lambda: burst_cell(max_probes=2),
    "sweep-binary": lambda: sweep_cell(
        qps_low=20.0, qps_high=180.0, resolution=10.0, mode="binary"),
    "sweep-step": lambda: sweep_cell(
        qps_low=20.0, qps_high=180.0, resolution=10.0, mode="step"),
    "sweep-step-ceiling": lambda: sweep_cell(
        qps_low=1.0, qps_high=40.0, resolution=2.6, mode="step"),
    "sweep-step-max-probes": lambda: sweep_cell(
        qps_low=0.5, qps_high=45.0, resolution=0.7, mode="step",
        max_probes=8),
    "sweep-above-capacity": lambda: sweep_cell(
        qps_low=500.0, qps_high=1000.0, resolution=50.0, mode="binary"),
    "sweep-below-capacity": lambda: sweep_cell(
        qps_low=10.0, qps_high=50.0, resolution=5.0, mode="binary"),
    "sweep-max-probes": lambda: sweep_cell(
        qps_low=1.0, qps_high=4096.0, resolution=0.001, mode="binary",
        max_probes=6),
}

#: Digests captured before the four searches shared one search.
GOLDEN: Dict[str, str] = {
    "server-found":
        "989b59d0daf0abeb7ee58bcf60dd4c0a9085c2ab5a8993e9a159e8b1d19b2fb5",
    "server-none":
        "2da5c59788f254388b289d970c6e1906c1edf1905c61c7ad8098677d98a09b88",
    "server-shrink":
        "f2bdbe3440084356c2aa924613763bea81c6073870065ff97f1cf295c366b410",
    "server-unbracketed":
        "89db317ea7826e340372076c76e2fe2e75ad7a25f37b3b19318fe33dcd134006",
    "multistream-found":
        "41991c036171bbbfe65bb48e07cc50719c737492ebdfa7e59d0ba47054c719ae",
    "multistream-max-n":
        "8c48cadb6b58e458e425940c81b24ed1102381673275d2423b9d4a920558cc50",
    "burst-found":
        "6722a5255f342fc5fb49aad7598da75ba3d8e32087a43fecf7472dd7525a884b",
    "burst-unbracketed":
        "5731cfadf1f728b36f07d853033e05567da41a0d6bbf96e762ff15f3b96eeb59",
    "sweep-binary":
        "23cdd1aee72b91978d3e048f707bd9d42a87406287b4f4ee17aaa9281af050d4",
    "sweep-step":
        "d20019abcad1dc99c0864a0a97ac8312db692d6c31c41f97ea39919d8cfa7dab",
    "sweep-step-ceiling":
        "16a37dfa370fe0801ae125b82523bd8cc4d9091a43ff6414632dfea86a50c194",
    "sweep-step-max-probes":
        "0b7a2212fdbfc69f822e272469c526a27ed9091937a7a003f84c0623d61c2be9",
    "sweep-above-capacity":
        "3db9b1762a4b5c7b746b1dd16c8d221d6d2a03a49856630a3691d7840115258b",
    "sweep-below-capacity":
        "9eee739e64bfc7dfebeaa3a395fcf71bba6a441b1cd39e9ba959fa7fe18ccf06",
    "sweep-max-probes":
        "e47124d1e38364c741ef37248219e5a9375604399364f43e7332d8b8de37f46c",
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
