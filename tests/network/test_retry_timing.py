"""NetworkSUT wire timing for retried queries.

A query whose first attempt is lost is timed from the send of the
attempt that answered: its round trip and network span must not include
the dead attempt's whole ``query_timeout``.
"""

import threading

import pytest

from repro.core.config import Scenario, TestSettings
from repro.core.events import WallClock
from repro.core.loadgen import run_benchmark
from repro.core.query import QuerySampleResponse
from repro.core.sut import SutBase
from repro.harness.netbench import SyntheticQSL
from repro.network.client import NetworkSUT
from repro.network.server import InferenceServer, ServerConfig

pytestmark = pytest.mark.socket


class FirstQueryStalls(SutBase):
    """Echo backend whose very first query, across every instance the
    server builds, answers only after ``stall`` seconds."""

    lock = threading.Lock()

    def __init__(self, stalled: list, stall: float) -> None:
        super().__init__("first-query-stalls")
        self.stalled = stalled
        self.stall = stall

    def issue_query(self, query) -> None:
        delay = 0.001
        with self.lock:
            if not self.stalled:
                self.stalled.append(query.id)
                delay = self.stall
        responses = [QuerySampleResponse(s.id, s.index)
                     for s in query.samples]
        self.loop.schedule_after(
            delay, lambda: self.complete(query, responses))


def test_retried_query_times_only_its_winning_attempt():
    stalled: list = []
    server = InferenceServer(
        lambda: FirstQueryStalls(stalled, stall=0.4),
        ServerConfig(port=0, workers=2, max_batch=1))
    server.start()
    sut = NetworkSUT(server.address, query_timeout=0.15, max_attempts=2)
    settings = TestSettings(
        scenario=Scenario.SINGLE_STREAM, min_query_count=5,
        min_duration=0.0, watchdog_timeout=15.0)
    try:
        result = run_benchmark(sut, SyntheticQSL(total=64, performance=16),
                               settings, clock=WallClock())
    finally:
        sut.close()
        server.stop(drain=False, timeout=2.0)
    assert result.valid, result.validity.reasons
    assert sut.stats.retries == 1
    assert sut.stats.recovered_queries == 1
    assert len(sut.transport_records) == result.metrics.query_count
    for timing in sut.transport_records.values():
        assert 0 < timing.round_trip < sut.query_timeout
        assert timing.network_time < sut.query_timeout
