"""The benchmark's own tests: transparent tracing, gates, and contract.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import ledger
import tracing
from conftest import BENCH, ROOT
from workloads import WORKLOADS

#: Small sizes (and seeds) at which every workload's gates hold.
SMALL = {
    "server-stack": 500,
    "session-stream-chaos": 100,
    "offline-models": 20,
}


def execute(name, seed, tracer=None, workdir="."):
    workload = WORKLOADS[name]
    size = SMALL[name]
    prepared = workload.prepare(seed, size, tracer, workdir,
                                workload.context(seed, size))
    return prepared, prepared.execute()()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1])
def test_traced_and_untraced_runs_give_identical_digests(name, seed,
                                                         tmp_path):
    _, bare = execute(name, seed, workdir=str(tmp_path))
    tracer = tracing.Tracer()
    prepared, traced = execute(name, seed, tracer, str(tmp_path))
    assert bare.problems == [] and traced.problems == []
    assert traced.digest == bare.digest
    assert traced.counts == bare.counts
    assert tracer.spans and prepared.counter.events > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_repeats_of_one_seed_agree_and_seeds_differ(name, tmp_path):
    first = execute(name, 3, workdir=str(tmp_path))[1]
    again = execute(name, 3, workdir=str(tmp_path))[1]
    other = execute(name, 4, workdir=str(tmp_path))[1]
    assert first.digest == again.digest
    assert other.digest != first.digest


def test_spans_nest_and_self_time_never_goes_negative(tmp_path):
    tracer = tracing.Tracer()
    execute("session-stream-chaos", 0, tracer, str(tmp_path))
    spans = tracer.spans
    for span in spans:
        start, end = span[tracing.START], span[tracing.END]
        assert end >= start
        assert end - start >= span[tracing.CHILD_NS]
        parent = span[tracing.PARENT]
        if parent >= 0:
            assert spans[parent][tracing.START] <= start
            assert end <= spans[parent][tracing.END]
    assert all(ns >= 0 for ns in tracer.self_ns().values())
    assert tracer.chunk_path_ns() > 0


def test_the_ledger_reports_every_per_layer_metric(tmp_path):
    tracer = tracing.Tracer()
    prepared, outcome = execute("server-stack", 0, tracer, str(tmp_path))
    values = ledger.per_layer(tracer, outcome, prepared.counter.events,
                              execute_ns=10**9, overhead_frac=0.1)
    assert set(values) == {name for name, _ in ledger.PER_LAYER}
    assert values["faults.resilient.retries"] > 0
    assert values["durability.journal.append_us"] > 0
    assert values["fleet.replicaset.issue_us"] > 0
    assert values["models.detector.forward_ms"] == 0.0


def test_a_silent_mechanism_fails_its_gate(tmp_path, monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "QUALITY_FLOOR", 1.5)
    _, outcome = execute("offline-models", 0, workdir=str(tmp_path))
    assert any("FP32 reference" in problem for problem in outcome.problems)


def test_benchmark_json_names_the_workloads_and_ledger():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(ledger.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"items_per_s", "setup_s", "peak_rss_mb"}


def run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_cli_prints_the_result_as_its_last_line():
    done = run_cli(ROOT, "--workload", "server-stack", "--seed", "2",
                   "--seconds", "0.1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in ledger.PER_LAYER}
    record = json.loads(done.stdout.splitlines()[-2])["record"]
    assert record["environment"]["blas_threads"] >= 1
    trace = json.loads((ROOT / record["chrome_trace"]).read_text())
    assert trace["traceEvents"][0]["ph"] == "X"


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_cli(tmp_path, "--workload", "server-stack", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
