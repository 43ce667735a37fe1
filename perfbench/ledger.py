"""The per-layer ledger: every ``per_layer`` metric of ``BENCHMARK.json``.

The numbers come from one traced execution of a workload: the spans its
proxies recorded (``tracing.py``), the counts the workload read off its
layers (``workloads.Outcome.counts``), the events its counting clocks
saw, and re-timed referee calls on its finished logs.  "us" is
microseconds of self time per item unless the name says otherwise.  A
layer the workload does not cross reports 0.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.core.metrics import compute_metrics
from repro.core.validation import validate_run

#: Layers whose issue path and completion path get their own self time.
#: ``up_us`` covers the layer's completion handler (chunks included) and
#: the callbacks it schedules (deadlines, deliveries, chunk emissions).
WRAPPER_LAYERS = (
    "faults.resilient",
    "durability.healing",
    "fleet.replicaset",
    "network.channel",
    "sut.echo",
    "sessions.cache",
    "faults.degraded",
    "streaming",
)

#: Counts a workload reads off its layers, reported as-is.
COUNTED = (
    ("faults.resilient.retries", "count"),
    ("fleet.attempts_per_query", "1/query"),
    ("network.channel.drops", "count"),
    ("durability.journal.bytes", "bytes"),
    ("streaming.restarts", "count"),
    ("sessions.cache.token_hit_rate", "ratio"),
    ("sessions.cache.evictions", "count"),
    ("fleet.stragglers", "count"),
    ("fleet.reroutes", "count"),
    ("fleet.ejections", "count"),
    ("fleet.rescued", "count"),
)

MODELS = (("classifier", "classification"), ("detector", "detection"),
          ("translator", "translation"))

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = (
    [("core.events_per_item", "1/item"),
     ("core.self_us", "us"),
     ("core.metrics_ms", "ms"),
     ("core.validate_ms", "ms")]
    + [(f"{layer}.{path}_us", "us")
       for layer in WRAPPER_LAYERS for path in ("issue", "up")]
    + list(COUNTED)
    + [("durability.journal.append_us", "us"),
       ("streaming.chunks_per_item", "1/item"),
       ("streaming.chunk_up_us", "us"),
       ("sessions.audit_ms", "ms"),
       ("fleet.detector.tick_us", "us"),
       ("faults.chaos.tick_us", "us"),
       ("datasets.load_ms", "ms")]
    + [(f"models.{model}.forward_ms", "ms") for model, _ in MODELS]
    + [(f"accuracy.{task}.check_ms", "ms") for _, task in MODELS]
    + [("trace.overhead_frac", "ratio")]
)


def _referee_ms(results) -> Tuple[float, float]:
    """Wall ms of ``compute_metrics`` and ``validate_run`` re-run on the
    finished logs."""
    metrics_s = validate_s = 0.0
    for result in results:
        started = time.perf_counter()
        if result.log.completed_records():
            compute_metrics(result.log, result.settings)
        middle = time.perf_counter()
        validate_run(result.log, result.settings, result.stats)
        validate_s += time.perf_counter() - middle
        metrics_s += middle - started
    return metrics_s * 1e3, validate_s * 1e3


def per_layer(tracer, outcome, events: int, execute_ns: int,
              overhead_frac: float) -> Dict[str, float]:
    """The full ledger for one traced execution."""
    self_ns = tracer.self_ns()
    calls = tracer.counts()
    items = max(1, outcome.items)

    def per_item_us(*names: str) -> float:
        return sum(self_ns.get(name, 0) for name in names) / items / 1e3

    def per_call_us(name: str) -> float:
        return self_ns.get(name, 0) / max(1, calls.get(name, 0)) / 1e3

    def total_ms(name: str) -> float:
        return self_ns.get(name, 0) / 1e6

    outside_core = sum(ns for name, ns in self_ns.items()
                       if not name.startswith("core."))
    metrics_ms, validate_ms = _referee_ms(outcome.results)
    values = {
        "core.events_per_item": events / items,
        "core.self_us": (execute_ns - outside_core) / items / 1e3,
        "core.metrics_ms": metrics_ms,
        "core.validate_ms": validate_ms,
    }
    for layer in WRAPPER_LAYERS:
        values[f"{layer}.issue_us"] = per_item_us(f"{layer}.issue")
        values[f"{layer}.up_us"] = per_item_us(
            f"{layer}.up", f"{layer}.up_chunk", f"{layer}.timer")
    for name, _ in COUNTED:
        values[name] = float(outcome.counts.get(name, 0))
    delivered = calls.get("core.up_chunk", 0)
    values.update({
        "durability.journal.append_us":
            per_call_us("durability.journal.append"),
        "streaming.chunks_per_item": delivered / items,
        "streaming.chunk_up_us":
            tracer.chunk_path_ns() / max(1, delivered) / 1e3,
        "sessions.audit_ms": total_ms("sessions.audit"),
        "fleet.detector.tick_us": per_call_us("fleet.detector.timer"),
        "faults.chaos.tick_us": per_call_us("faults.chaos.timer"),
        "datasets.load_ms": total_ms("datasets.load"),
        "trace.overhead_frac": overhead_frac,
    })
    for model, task in MODELS:
        values[f"models.{model}.forward_ms"] = total_ms(
            f"models.{model}.issue")
        values[f"accuracy.{task}.check_ms"] = total_ms(
            f"accuracy.{task}.check")
    return values
