"""``repro sweep``: the capacity-search subcommand end to end."""

import json

import pytest

from repro.cli import main

#: One 2 ms echo worker, 200 queries a probe, the default 10-2000 qps
#: bracket with 10 qps resolution and a 50 ms bound.
SINGLE = ["sweep", "--concurrency", "1", "--queries", "200"]


class TestBinary:
    def test_bisects_to_the_capacity(self, capsys):
        assert main(SINGLE) == 0
        out = capsys.readouterr().out
        assert "max SLO-compliant rate: 554 qps (10 probe runs" in out
        assert out.count("INVALID") == 6

    def test_report_round_trips_as_json(self, tmp_path, capsys):
        path = tmp_path / "BENCH_fleet.json"
        assert main(SINGLE + ["--report", str(path)]) == 0
        assert f"capacity report written to {path}" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["benchmark"] == "fleet-capacity-sweep"
        assert doc["workload"] == "queries"
        assert doc["mode"] == "binary"
        assert doc["bracket_qps"] == [10.0, 2000.0]
        assert doc["slo"]["latency_bound_s"] == 0.05
        assert doc["max_valid_qps"] == 554.140625
        assert doc["probe_count"] == len(doc["probes"]) == 10
        assert [p["qps"] for p in doc["probes"][:4]] == [
            10.0, 2000.0, 1005.0, 507.5]
        valid = [p["qps"] for p in doc["probes"] if p["valid"]]
        assert max(valid) == doc["max_valid_qps"]
        assert all(p["reasons"] for p in doc["probes"] if not p["valid"])


class TestStep:
    def test_walks_up_to_the_first_invalid_rate(self, capsys):
        assert main(SINGLE + ["--mode", "step", "--qps-low", "100",
                              "--qps-high", "1000",
                              "--resolution", "100"]) == 0
        out = capsys.readouterr().out
        assert "max SLO-compliant rate: 500 qps (6 probe runs" in out
        assert out.count("INVALID") == 1
        assert "600.000 qps  INVALID" in out


class TestSessionFleet:
    def test_replicated_session_sweep_audits_clean(self, tmp_path, capsys):
        path = tmp_path / "sessions.json"
        assert main(["sweep", "--workload", "session", "--replicas", "2",
                     "--report", str(path)]) == 0
        captured = capsys.readouterr()
        assert "2-replica echo fleet" in captured.out
        assert "sessions/s" in captured.out
        assert "audit=clean" in captured.out
        assert "audit FAILED" not in captured.err
        doc = json.loads(path.read_text())
        assert doc["workload"] == "session"
        assert len(doc["probe_cache"]) == doc["probe_count"]
        assert all(row["audit_problems"] == 0 for row in doc["probe_cache"])


class TestBadConfig:
    @pytest.mark.parametrize("argv, message", [
        (["--qps-low", "100", "--qps-high", "10"], "qps_high must exceed"),
        (["--max-probes", "1"], "max_probes must be >= 2"),
        (["--resolution", "0"], "resolution must be positive"),
    ])
    def test_rejected_with_usage_exit_code(self, argv, message, capsys):
        assert main(["sweep"] + argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
