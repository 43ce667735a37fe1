"""Command-line interface: ``python -m repro.cli <command>``.

Six commands cover the everyday workflows:

* ``tables``  - print the paper's normative tables (I-V) from the code.
* ``run``     - measure one (task, scenario) on a parameterized
                simulated device, printing the LoadGen summary; with
                ``--sut network --addr HOST:PORT`` the same LoadGen
                instead drives a remote ``repro serve`` instance over
                TCP on the wall clock; with ``--sut parallel
                --workers N`` it runs the glyph classifier sharded
                across N worker processes (``repro.parallel``); with
                ``--workload session`` it replays seeded multi-turn
                conversations through a shared-prefix cache and audits
                the cache's hit trail (``docs/sessions.md``); add
                ``--replicas N --chaos`` to balance them over a zoned
                fleet while a seeded fault schedule knocks zones out
                and browns replicas down, with the outlier detector
                ejecting the gray failures (``docs/chaos.md``).
* ``serve``   - host a backend behind the network protocol so a
                ``run --sut network`` (or any NetworkSUT) can drive it;
                ``--backend parallel`` hosts the process-parallel pool
                instead of the in-thread echo.
* ``fleet``   - run the Section VI fleet survey (optionally a subset)
                and print the coverage matrix and per-model counts.
* ``check``   - run the submission checker over an on-disk submission
                directory (see ``repro.submission.artifacts``).
* ``metrics`` - run an instrumented network scenario on the virtual
                clock and render its live telemetry (counters, gauges,
                latency histograms with p50/p99) as a table, Prometheus
                exposition text, or JSON; see ``docs/observability.md``.
* ``sweep``   - search the Server arrival rate for the highest QPS that
                still meets the latency SLO, against a modeled SUT or a
                replicated fleet (optionally autoscaled, on the backlog
                or a live metric series); with ``--workload session`` the
                probed rate is *sessions/s* routed through per-replica
                prefix caches, each probe reporting its audited token hit
                rate; with ``--chaos`` every probe runs under the same
                seeded fault schedule, so the knee is the capacity the
                fleet holds *through* zone outages and gray failures.
                Writes a ``BENCH_fleet.json``-style capacity report with
                ``--report``; see ``docs/fleet.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core import Scenario, Task
from .harness.tables import (
    format_coverage_matrix,
    format_table_i,
    format_table_ii,
    format_table_iii,
    format_table_iv,
    format_table_v,
)

_TASKS = {task.value: task for task in Task}
_SCENARIOS = {
    "single-stream": Scenario.SINGLE_STREAM,
    "multi-stream": Scenario.MULTI_STREAM,
    "server": Scenario.SERVER,
    "offline": Scenario.OFFLINE,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MLPerf Inference benchmark reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="print the paper's tables")
    tables.add_argument(
        "--which", choices=["1", "2", "3", "4", "5", "all"], default="all")

    run = sub.add_parser("run", help="benchmark a simulated device")
    run.add_argument("--task", choices=sorted(_TASKS))
    run.add_argument("--scenario", choices=sorted(_SCENARIOS))
    run.add_argument("--workload", choices=["queries", "session"],
                     default="queries",
                     help="queries: the paper's independent-query "
                          "scenarios (--scenario picks which); session: "
                          "multi-turn conversation replay through a "
                          "shared-prefix cache (docs/sessions.md)")
    run.add_argument("--sut", choices=["device", "network", "parallel"],
                     default="device",
                     help="device: in-process simulated device; "
                          "network: drive a remote 'repro serve' over TCP; "
                          "parallel: classifier on a worker-process pool")
    run.add_argument("--peak-gops", type=float, default=40_000.0)
    run.add_argument("--base-utilization", type=float, default=0.06)
    run.add_argument("--saturation-gops", type=float, default=150.0)
    run.add_argument("--overhead-ms", type=float, default=0.5)
    run.add_argument("--max-batch", type=int, default=64)
    run.add_argument("--engines", type=int, default=1)
    run.add_argument("--batch-window-ms", type=float, default=0.0)
    net = run.add_argument_group("network SUT (--sut network)")
    net.add_argument("--addr", metavar="HOST:PORT",
                     help="address of the remote inference server")
    net.add_argument("--target-qps", type=float, default=100.0,
                     help="server-scenario Poisson arrival rate")
    net.add_argument("--queries", type=int, default=200,
                     help="minimum query count for the measured run")
    net.add_argument("--latency-bound-ms", type=float, default=100.0)
    net.add_argument("--connections", type=int, default=1)
    net.add_argument("--query-timeout", type=float, default=2.0)
    net.add_argument("--trace", metavar="PATH", default=None,
                     help="write a Chrome trace (with network spans) here")
    par = run.add_argument_group("parallel SUT (--sut parallel)")
    par.add_argument("--workers", type=int, default=2,
                     help="worker processes in the pool")
    par.add_argument("--parallel-batch", type=int, default=64,
                     help="dynamic-batcher cap, in samples")
    par.add_argument("--samples", type=int, default=256,
                     help="synthetic dataset size (and offline batch)")
    stream = run.add_argument_group("streaming (--stream)")
    stream.add_argument("--stream", action="store_true",
                        help="stream each answer as token chunks: the "
                             "summary gains TTFT/TPOT percentiles and "
                             "goodput (docs/streaming.md).  With --sut "
                             "device this is one direct measured run at "
                             "--target-qps rather than a tuning search; "
                             "with --sut network the remote server "
                             "should host a streaming backend ('repro "
                             "serve --backend streaming-echo')")
    stream.add_argument("--ttft-ms", type=float, default=None,
                        help="time-to-first-token SLO target")
    stream.add_argument("--tpot-ms", type=float, default=None,
                        help="time-per-output-token SLO target")
    stream.add_argument("--min-tokens", type=int, default=8)
    stream.add_argument("--max-tokens", type=int, default=32)
    stream.add_argument("--first-token-ms", type=float, default=2.0,
                        help="stream model delay to the first token")
    stream.add_argument("--inter-token-ms", type=float, default=0.5,
                        help="stream model delay between later tokens")
    stream.add_argument("--seed", type=int, default=0)
    session = run.add_argument_group("session workload (--workload session)")
    session.add_argument("--sessions", type=int, default=64,
                         help="conversations to replay")
    session.add_argument("--session-qps", type=float, default=20.0,
                         help="Poisson session arrival rate, sessions/s")
    session.add_argument("--turns-min", type=int, default=2)
    session.add_argument("--turns-max", type=int, default=8)
    session.add_argument("--think-time-s", type=float, default=0.5,
                         help="mean exponential think time between turns")
    session.add_argument("--cache-tokens", type=int, default=32_768,
                         help="prefix-cache capacity, in tokens")
    session.add_argument("--backend-latency-ms", type=float, default=2.0,
                         help="echo backend per-turn service time")
    chaos = run.add_argument_group(
        "fleet + chaos (--workload session)")
    chaos.add_argument("--replicas", type=int, default=0,
                       help="> 0: replay the sessions against a ReplicaSet "
                            "of this many echo replicas (per-replica "
                            "prefix caches) instead of a single backend")
    chaos.add_argument("--zones", type=int, default=1,
                       help="fault domains to stripe the replicas across "
                            "(--replicas)")
    chaos.add_argument("--balancer",
                       choices=["round-robin", "least-outstanding",
                                "weighted-p99", "session-affinity",
                                "zone-spread", "zone-local"],
                       default="least-outstanding",
                       help="fleet balancing policy (--replicas)")
    chaos.add_argument("--chaos", action="store_true",
                       help="drive a seeded ChaosSchedule (zone outages, "
                            "gray failures, partitions) against the fleet "
                            "while it serves; requires --replicas "
                            "(docs/chaos.md)")
    chaos.add_argument("--chaos-events", type=int, default=3,
                       help="fault windows to draw for the schedule")
    chaos.add_argument("--no-detector", action="store_true",
                       help="with --chaos: leave the fleet unprotected "
                            "(skip the gray-failure outlier detector)")

    serve = sub.add_parser(
        "serve", help="host a backend behind the network protocol")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9090)
    serve.add_argument("--backend",
                       choices=["echo", "parallel", "streaming-echo"],
                       default="echo",
                       help="echo: per-worker-thread EchoSUT; parallel: "
                            "one shared process-parallel pool; "
                            "streaming-echo: echo that streams each "
                            "answer as token chunks (CHUNK frames)")
    serve.add_argument("--stream-seed", type=int, default=0,
                       help="stream model seed (--backend streaming-echo)")
    serve.add_argument("--latency-ms", type=float, default=1.0,
                       help="backend per-query service time")
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--model-workers", type=int, default=2,
                       help="process count for --backend parallel")
    serve.add_argument("--max-batch", type=int, default=8)
    serve.add_argument("--batch-window-ms", type=float, default=0.0)
    serve.add_argument("--queue", type=int, default=256,
                       help="admission-queue bound, in requests")
    serve.add_argument("--max-seconds", type=float, default=None,
                       help="stop after this long (default: until Ctrl-C)")
    serve.add_argument("--drain-seconds", type=float, default=5.0,
                       help="graceful-drain budget on SIGTERM/Ctrl-C: new "
                            "queries are refused while in-flight ones get "
                            "this long to finish")
    serve.add_argument("--state-journal", metavar="PATH", default=None,
                       help="journal the final server state (stats, drain "
                            "outcome) to PATH on shutdown")

    fleet = sub.add_parser("fleet", help="run the Section VI fleet survey")
    fleet.add_argument("--systems", nargs="*", default=None,
                       help="subset of system names (default: all 33)")
    fleet.add_argument("--report", default=None, metavar="PATH",
                       help="also write a full markdown report to PATH")

    check = sub.add_parser("check", help="check a submission directory")
    check.add_argument("directory")

    metrics = sub.add_parser(
        "metrics",
        help="run an instrumented scenario and show its telemetry")
    metrics.add_argument("--scenario", choices=sorted(_SCENARIOS),
                         default="server")
    metrics.add_argument("--queries", type=int, default=500,
                         help="minimum query count for the run")
    metrics.add_argument("--target-qps", type=float, default=400.0,
                         help="server-scenario Poisson arrival rate")
    metrics.add_argument("--latency-ms", type=float, default=1.0,
                         help="echo backend per-query service time")
    metrics.add_argument("--net-latency-ms", type=float, default=0.5,
                         help="simulated one-way channel latency")
    metrics.add_argument("--jitter-ms", type=float, default=0.1,
                         help="mean exponential per-frame jitter")
    metrics.add_argument("--drop", type=float, default=0.0,
                         help="channel frame drop probability; > 0 adds "
                              "a retry layer and its resilient_* series")
    metrics.add_argument("--stream", action="store_true",
                         help="stream answers as token chunks so the "
                              "stream_* series (TTFT/TPOT histograms, "
                              "chunk counters) light up")
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--snapshot-period-ms", type=float, default=100.0,
                         help="telemetry sampling period, run time")
    metrics.add_argument("--format", choices=["table", "prom", "json"],
                         default="table")
    metrics.add_argument("--trace", metavar="PATH", default=None,
                         help="write a Chrome trace with a metrics "
                              "counter track here")
    metrics.add_argument("--journal", metavar="PATH", default=None,
                         help="write-ahead run journal: the run becomes "
                              "resumable and the durability_* series "
                              "light up (docs/durability.md)")
    metrics.add_argument("--resume", action="store_true",
                         help="resume the interrupted run recorded in "
                              "--journal instead of starting fresh")
    metrics.add_argument("--fsync", choices=["always", "interval", "never"],
                         default="never",
                         help="journal fsync policy (--journal)")
    metrics.add_argument("--breaker", action="store_true",
                         help="route the backend through the self-healing "
                              "path (circuit breaker, standby, hedged "
                              "retries); breaker_* series light up")
    metrics.add_argument("--outage", type=float, default=0.0,
                         metavar="SECONDS",
                         help="with --breaker: black out the primary "
                              "backend for this long so the breaker "
                              "demonstrably sheds load")
    metrics.add_argument("--outage-start", type=float, default=0.25,
                         metavar="SECONDS",
                         help="run time at which the --outage window opens")

    sweep = sub.add_parser(
        "sweep",
        help="find the max SLO-compliant Server/session arrival rate")
    sweep.add_argument("--workload", choices=["queries", "session"],
                       default="queries",
                       help="what the probed rate is: independent Server "
                            "queries/s, or multi-turn sessions/s routed "
                            "through per-replica prefix caches")
    sweep.add_argument("--qps-low", type=float, default=10.0,
                       help="lower edge of the searched rate bracket")
    sweep.add_argument("--qps-high", type=float, default=2000.0,
                       help="upper edge of the searched rate bracket")
    sweep.add_argument("--resolution", type=float, default=10.0,
                       help="terminal bracket width (binary) or step size")
    sweep.add_argument("--mode", choices=["binary", "step"],
                       default="binary")
    sweep.add_argument("--max-probes", type=int, default=32)
    sweep.add_argument("--latency-bound-ms", type=float, default=50.0,
                       help="the SLO each probe run is judged against "
                            "(per turn under --workload session)")
    sweep.add_argument("--queries", type=int, default=400,
                       help="minimum query count per probe run")
    sweep.add_argument("--latency-ms", type=float, default=2.0,
                       help="echo backend per-query service time")
    sweep.add_argument("--concurrency", type=int, default=None,
                       metavar="SLOTS",
                       help="serving slots per echo backend; makes its "
                            "capacity finite (SLOTS / latency qps) so the "
                            "sweep has a real knee to find")
    sweep.add_argument("--replicas", type=int, default=0,
                       help="> 0: probe a ReplicaSet of this many echo "
                            "replicas instead of a single backend")
    sweep.add_argument("--balancer", choices=["round-robin",
                                              "least-outstanding",
                                              "weighted-p99",
                                              "session-affinity",
                                              "zone-spread",
                                              "zone-local"],
                       default="least-outstanding",
                       help="fleet balancing policy (--replicas)")
    sweep.add_argument("--zones", type=int, default=1,
                       help="fault domains to stripe the replicas across "
                            "(--replicas)")
    sweep.add_argument("--chaos", action="store_true",
                       help="inject the same seeded ChaosSchedule into "
                            "every probe run, with the outlier detector "
                            "protecting the fleet: the reported capacity "
                            "is the SLO knee *under faults* "
                            "(docs/chaos.md)")
    sweep.add_argument("--chaos-events", type=int, default=3,
                       help="fault windows per probe run (--chaos)")
    sweep.add_argument("--autoscale", action="store_true",
                       help="attach the deterministic autoscaler to each "
                            "probe's fleet (--replicas)")
    sweep.add_argument("--scale-signal",
                       choices=["backlog", "outstanding-series",
                                "cache-miss-rate"],
                       default="backlog",
                       help="what the autoscaler samples: the in-process "
                            "backlog, the live fleet_outstanding_queries "
                            "series, or the fleet-wide "
                            "prefix_cache_tokens_missed_total rate")
    sweep.add_argument("--sessions", type=int, default=64,
                       help="conversations per probe run "
                            "(--workload session)")
    sweep.add_argument("--turns-min", type=int, default=2)
    sweep.add_argument("--turns-max", type=int, default=8)
    sweep.add_argument("--think-time-s", type=float, default=0.05,
                       help="mean think time between a session's turns")
    sweep.add_argument("--cache-tokens", type=int, default=32_768,
                       help="per-replica prefix cache capacity "
                            "(--workload session)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--report", metavar="PATH", default=None,
                       help="write the JSON capacity report here")
    return parser


def _cmd_tables(args) -> int:
    sections = {
        "1": ("Table I - tasks and reference models", format_table_i),
        "2": ("Table II - scenarios and metrics", format_table_ii),
        "3": ("Table III - latency constraints", format_table_iii),
        "4": ("Table IV - query requirements", format_table_iv),
        "5": ("Table V - queries and samples per query", format_table_v),
    }
    keys = list(sections) if args.which == "all" else [args.which]
    for key in keys:
        title, formatter = sections[key]
        print(f"\n{title}\n{'=' * len(title)}")
        print(formatter())
    return 0


def _stream_targets(args) -> dict:
    """``TestSettings`` overrides for the token-level SLO targets."""
    targets = {}
    if getattr(args, "ttft_ms", None) is not None:
        targets["ttft_target_ns"] = int(args.ttft_ms * 1e6)
    if getattr(args, "tpot_ms", None) is not None:
        targets["tpot_target_ns"] = int(args.tpot_ms * 1e6)
    return targets


def _cmd_run_stream(args) -> int:
    """``run --stream`` with the in-process device SUT: one direct
    measured run of the streaming path on the virtual clock."""
    from .core.config import TestSettings
    from .core.loadgen import run_benchmark
    from .harness.netbench import SyntheticQSL
    from .streaming import StreamModel, StreamingSUT
    from .sut.device import DeviceModel, ProcessorType
    from .sut.fleet import task_workload
    from .sut.simulated import SimulatedSUT

    if args.task is None:
        print("--stream with --sut device requires --task", file=sys.stderr)
        return 2
    scenario = _SCENARIOS[args.scenario]
    task = _TASKS[args.task]
    common = dict(
        scenario=scenario, task=task,
        min_duration=0.0, watchdog_timeout=300.0, seed=args.seed,
        **_stream_targets(args),
    )
    if scenario is Scenario.SERVER:
        settings = TestSettings(
            server_target_qps=args.target_qps,
            server_latency_bound=args.latency_bound_ms * 1e-3,
            min_query_count=args.queries, **common)
    elif scenario is Scenario.OFFLINE:
        settings = TestSettings(
            offline_sample_count=args.samples, min_query_count=1, **common)
    else:
        settings = TestSettings(min_query_count=args.queries, **common)
    device = DeviceModel(
        name="cli-device", processor=ProcessorType.GPU,
        peak_gops=args.peak_gops, base_utilization=args.base_utilization,
        saturation_gops=args.saturation_gops,
        overhead=args.overhead_ms * 1e-3, max_batch=args.max_batch,
        engines=args.engines,
    )
    model = StreamModel(
        first_token_delay=args.first_token_ms * 1e-3,
        inter_token_delay=args.inter_token_ms * 1e-3,
        min_tokens=args.min_tokens, max_tokens=args.max_tokens,
        seed=args.seed,
    )
    sut = StreamingSUT(
        SimulatedSUT(device, task_workload(task),
                     batch_window=args.batch_window_ms * 1e-3),
        model=model,
    )
    result = run_benchmark(sut, SyntheticQSL(), settings)
    print(result.summary())
    return 0 if result.valid else 1


def _cmd_run_network(args) -> int:
    from .core.config import TestSettings
    from .harness.netbench import NetworkRunResult, SyntheticQSL
    from .core.events import WallClock
    from .core.loadgen import run_benchmark
    from .core.trace import write_chrome_trace
    from .network.client import NetworkSUT

    if not args.addr:
        print("--sut network requires --addr HOST:PORT", file=sys.stderr)
        return 2
    scenario = _SCENARIOS[args.scenario]
    settings = TestSettings(
        scenario=scenario,
        task=_TASKS[args.task] if args.task else None,
        server_target_qps=args.target_qps,
        server_latency_bound=args.latency_bound_ms * 1e-3,
        min_query_count=args.queries,
        min_duration=0.0,
        watchdog_timeout=60.0,
        **_stream_targets(args),
    )
    qsl = SyntheticQSL()
    sut = NetworkSUT(
        args.addr,
        connections=args.connections,
        query_timeout=args.query_timeout,
    )
    try:
        result = run_benchmark(sut, qsl, settings, clock=WallClock())
    finally:
        sut.close()
    print(result.summary())
    print(f"client: {sut.stats.summary()}")
    if sut.server_stats:
        print(f"server: {sut.server_stats}")
    bundle = NetworkRunResult(
        result=result, client_stats=sut.stats,
        transport=dict(sut.transport_records),
    )
    print(f"mean round trip : {bundle.mean_round_trip() * 1e3:.3f} ms")
    print(f"mean wire share : {bundle.mean_network_time() * 1e3:.3f} ms")
    if args.trace:
        write_chrome_trace(result.log, args.trace,
                           transport=sut.transport_records)
        print(f"trace written to {args.trace}")
    return 0 if result.valid else 1


def _cmd_serve(args) -> int:
    import signal as _signal
    import time as _time

    from .network.server import InferenceServer, ServerConfig
    from .sut.echo import EchoSUT

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.queue,
        max_batch=args.max_batch,
        batch_window=args.batch_window_ms * 1e-3,
    )
    latency = args.latency_ms * 1e-3

    # Every exit - normal --max-seconds expiry, Ctrl-C, SIGTERM, or an
    # exception while starting up - funnels through this one drain path,
    # so a backend constructed before the server came up can never leak
    # its worker pool (see docs/durability.md, "Graceful drain").
    server = None
    backend = None
    done = []

    def _shutdown() -> None:
        if done:
            return
        done.append(True)
        if server is not None:
            drained = server.drain(timeout=args.drain_seconds)
            server.stop(drain=False)
            if not drained:
                print("drain deadline expired; in-flight queries dropped")
            if args.state_journal:
                from .durability.journal import JournalWriter

                with JournalWriter(args.state_journal) as writer:
                    writer.append("server-state", {
                        "drained": drained,
                        "stats": dict(server.stats.snapshot()),
                    })
                print(f"final state journaled to {args.state_journal}")
            print(f"server stats: {server.stats.snapshot()}")
        elif backend is not None:
            close = getattr(backend, "close", None)
            if callable(close):
                close()

    def _on_sigterm(signum, frame):
        # Funnel SIGTERM into the KeyboardInterrupt path so both signals
        # share the graceful drain; a second signal (handler restored in
        # the finally) force-kills as usual.
        raise KeyboardInterrupt

    previous = _signal.signal(_signal.SIGTERM, _on_sigterm)
    try:
        if args.backend == "parallel":
            from .harness.netbench import parallel_echo_backend

            # One shared pool instance: the server serializes dispatches
            # through a single runner, the processes provide the
            # parallelism, and the drain path releases the pool.
            backend = parallel_echo_backend(
                workers=args.model_workers, compute_time=latency,
                max_batch=args.max_batch)
            description = (f"parallel echo backend ({args.model_workers} "
                           f"procs, {args.latency_ms} ms)")
        elif args.backend == "streaming-echo":
            from .streaming import StreamModel, streaming_echo

            model = StreamModel(seed=args.stream_seed)
            backend = lambda: streaming_echo(  # noqa: E731
                latency=latency, model=model)
            description = (f"streaming echo backend ({args.latency_ms} ms, "
                           f"seed {args.stream_seed})")
        else:
            backend = lambda: EchoSUT(latency=latency)  # noqa: E731
            description = f"echo backend ({args.latency_ms} ms)"
        server = InferenceServer(backend, config)
        host, port = server.start()
        print(f"serving {description} on {host}:{port}")
        if args.max_seconds is not None:
            _time.sleep(args.max_seconds)
        else:
            while True:
                _time.sleep(1.0)
    except KeyboardInterrupt:
        print("shutting down: draining in-flight queries")
    finally:
        _signal.signal(_signal.SIGTERM, previous)
        _shutdown()
    return 0


def _cmd_run_parallel(args) -> int:
    import numpy as np

    from .core.config import TestSettings
    from .core.loadgen import run_benchmark
    from .datasets import SyntheticImageNet
    from .datasets.qsl import DatasetQSL
    from .models.runtime import build_glyph_classifier
    from .parallel import BatchingPolicy, ParallelSUT

    scenario = _SCENARIOS[args.scenario]
    if scenario not in (Scenario.OFFLINE, Scenario.SINGLE_STREAM):
        print("--sut parallel supports offline and single-stream",
              file=sys.stderr)
        return 2
    dataset = SyntheticImageNet(size=args.samples, num_classes=8, seed=29)
    model = build_glyph_classifier(dataset, "light")

    def classifier_factory():
        def predict(samples):
            return model.predict(np.stack(samples))
        return predict

    if scenario is Scenario.OFFLINE:
        settings = TestSettings(
            scenario=scenario, offline_sample_count=args.samples,
            min_duration=0.0, min_query_count=1)
    else:
        settings = TestSettings(
            scenario=scenario, min_duration=0.0,
            min_query_count=args.queries)
    qsl = DatasetQSL(dataset)
    sut = ParallelSUT(
        classifier_factory, qsl, workers=args.workers, seed=0,
        policy=BatchingPolicy(max_batch_size=args.parallel_batch,
                              max_wait=0.0))
    try:
        result = run_benchmark(sut, qsl, settings)
    finally:
        sut.close()
    print(result.summary())
    stats = sut.pool.stats
    print(f"pool: {args.workers} workers, "
          f"{stats.shm_dispatches} shm + {stats.pickle_dispatches} pickled "
          f"dispatches, {stats.bytes_in / 1e6:.2f} MB in / "
          f"{stats.bytes_out / 1e6:.2f} MB out, {stats.restarts} restarts")
    return 0 if result.valid else 1


def _cmd_run_session(args) -> int:
    """``run --workload session``: replay seeded conversations through
    the prefix cache and report per-session percentiles plus the
    audited cache hit rate (docs/sessions.md).  With ``--replicas N``
    the conversations are balanced over a fleet with per-replica
    caches; ``--chaos`` additionally drives a seeded fault schedule
    against that fleet, with the gray-failure outlier detector
    protecting it unless ``--no-detector`` (docs/chaos.md)."""
    from .core.config import TestSettings
    from .core.loadgen import run_benchmark
    from .harness.netbench import SyntheticQSL
    from .metrics import MetricsRegistry
    from .sessions import (
        CacheStats,
        PrefixCacheSUT,
        audit_cache_events,
        audit_replica_caches,
        per_replica_cache_factory,
        replay_graph_from_settings,
    )
    from .sut.echo import EchoSUT

    if args.chaos and args.replicas <= 0:
        print("--chaos requires --replicas N", file=sys.stderr)
        return 2
    settings = TestSettings(
        scenario=Scenario.SESSION,
        task=_TASKS[args.task] if args.task else None,
        server_target_qps=args.session_qps,
        session_count=args.sessions,
        session_turns_min=args.turns_min,
        session_turns_max=args.turns_max,
        session_think_time_mean=args.think_time_s,
        min_duration=0.0,
        watchdog_timeout=600.0,
        seed=args.seed,
        **_stream_targets(args),
    )
    registry = MetricsRegistry()
    latency = args.backend_latency_ms * 1e-3

    def wrap_stream(backend):
        if args.stream:
            from .streaming import StreamModel, StreamingSUT

            return StreamingSUT(backend, model=StreamModel(seed=args.seed))
        return backend

    services = []
    orchestrator = detector = None
    if args.replicas > 0:
        from .fleet import OutlierDetector, ReplicaSet

        def make_backend(index):
            return wrap_stream(
                EchoSUT(latency=latency, name=f"replica-{index}"))

        factory = make_backend
        if args.chaos:
            from .faults import ChaosOrchestrator, ChaosSchedule

            # A rough run-length estimate is all the schedule needs:
            # windows are placed inside the first 60% of it.
            horizon = (args.sessions / args.session_qps
                       + args.turns_max * args.think_time_s)
            schedule = ChaosSchedule.generate(
                args.seed, duration=horizon, replicas=args.replicas,
                zones=args.zones, events=args.chaos_events)
            orchestrator = ChaosOrchestrator(schedule, registry=registry)
            factory = orchestrator.wrap_factory(factory)
        sut = ReplicaSet(
            factory,
            initial_replicas=args.replicas,
            max_replicas=args.replicas,
            policy=args.balancer,
            zones=args.zones,
            seed=args.seed,
            registry=registry,
            cache_factory=per_replica_cache_factory(
                capacity_tokens=args.cache_tokens, registry=registry),
        )
        if orchestrator is not None:
            orchestrator.bind(sut)
            services.append(orchestrator)
            if not args.no_detector:
                detector = OutlierDetector(sut, seed=args.seed,
                                           registry=registry)
                services.append(detector)
    else:
        sut = PrefixCacheSUT(
            wrap_stream(EchoSUT(latency=latency)),
            capacity_tokens=args.cache_tokens, registry=registry)
    result = run_benchmark(sut, SyntheticQSL(), settings,
                           registry=registry, services=services)
    print(result.summary())
    graph = replay_graph_from_settings(settings)
    caches = getattr(sut, "caches", None)
    if caches is not None:
        stats = CacheStats.merged([c.stats for c in caches.values()])
        problems = [p for trail in
                    audit_replica_caches(caches, graph).values()
                    for p in trail]
        events = sum(len(c.events) for c in caches.values())
        print(f"fleet             : {sut.stats.summary()}")
    else:
        stats = sut.stats
        problems = audit_cache_events(sut.events, graph,
                                      sut.capacity_tokens)
        events = len(sut.events)
    print(f"prefix cache      : {stats.hits} hits / "
          f"{stats.partial_hits} partial / {stats.misses} misses "
          f"({stats.evictions} evictions), "
          f"hit rate {stats.hit_rate:.1%}, "
          f"token hit rate {stats.token_hit_rate:.1%}")
    if orchestrator is not None:
        injected = sum(1 for d in orchestrator.trace
                       if d.action == "inject")
        recovered = sum(1 for d in orchestrator.trace
                        if d.action == "recover")
        print(f"chaos             : {injected} faults injected, "
              f"{recovered} recovered over {len(orchestrator.trace)} "
              f"ticks")
        for window in orchestrator.windows:
            closed = (f"{window.end:.3f}" if window.end is not None
                      else "open")
            print(f"  {window.kind:12s} {window.target:10s} "
                  f"[{window.start:.3f} .. {closed}] s")
    if detector is not None:
        ejections = sum(1 for e in detector.trace if e.action == "eject")
        readmits = sum(1 for e in detector.trace if e.action == "readmit")
        print(f"outlier detector  : {ejections} ejections, "
              f"{readmits} readmissions "
              f"({len(detector.trace)} trail events)")
    if getattr(args, "trace", None):
        from .core.trace import write_chrome_trace

        write_chrome_trace(
            result.log, args.trace, snapshots=result.snapshots,
            chaos=orchestrator.windows if orchestrator else None)
        print(f"trace written to {args.trace}")
    if problems:
        print(f"cache audit       : FAILED ({len(problems)} discrepancies; "
              f"first: {problems[0]})")
        return 1
    print(f"cache audit       : clean ({events} events replayed)")
    return 0 if result.valid else 1


def _cmd_run(args) -> int:
    if args.workload == "session":
        if args.sut != "device":
            print("--workload session supports --sut device only",
                  file=sys.stderr)
            return 2
        return _cmd_run_session(args)
    if args.scenario is None:
        print("run requires --scenario (unless --workload session)",
              file=sys.stderr)
        return 2
    if args.sut == "network":
        return _cmd_run_network(args)
    if args.sut == "parallel":
        if args.stream:
            print("--stream supports --sut device and --sut network",
                  file=sys.stderr)
            return 2
        return _cmd_run_parallel(args)
    if args.stream:
        return _cmd_run_stream(args)
    if args.task is None:
        print("--sut device requires --task", file=sys.stderr)
        return 2
    from .harness.tuning import (
        QUICK_SCALE,
        find_max_multistream_n,
        find_max_server_qps,
        measure_offline,
        measure_single_stream,
    )
    from .harness.netbench import SyntheticQSL
    from .sut.device import DeviceModel, ProcessorType
    from .sut.fleet import task_workload
    from .sut.simulated import SimulatedSUT

    task = _TASKS[args.task]
    scenario = _SCENARIOS[args.scenario]
    device = DeviceModel(
        name="cli-device", processor=ProcessorType.GPU,
        peak_gops=args.peak_gops, base_utilization=args.base_utilization,
        saturation_gops=args.saturation_gops,
        overhead=args.overhead_ms * 1e-3, max_batch=args.max_batch,
        engines=args.engines,
    )
    workload = task_workload(task)
    qsl = SyntheticQSL()

    def make_sut():
        return SimulatedSUT(device, workload,
                            batch_window=args.batch_window_ms * 1e-3)

    if scenario is Scenario.SINGLE_STREAM:
        result = measure_single_stream(make_sut, qsl, task, QUICK_SCALE)
        print(result.summary())
    elif scenario is Scenario.OFFLINE:
        result = measure_offline(make_sut, qsl, task, QUICK_SCALE)
        print(result.summary())
    elif scenario is Scenario.SERVER:
        tuned = find_max_server_qps(make_sut, qsl, task, QUICK_SCALE)
        if tuned is None:
            print("result: cannot meet the server QoS bound at any rate")
            return 1
        print(f"max server rate: {tuned.value:.1f} qps "
              f"({tuned.probes} probe runs)")
        print(tuned.result.summary())
    else:
        tuned = find_max_multistream_n(make_sut, qsl, task, QUICK_SCALE)
        if tuned is None:
            print("result: cannot sustain even one stream")
            return 1
        print(f"max streams: {int(tuned.value)}")
        print(tuned.result.summary())
    return 0


def _cmd_fleet(args) -> int:
    from .harness.experiments import (
        result_matrix,
        results_per_task,
        run_fleet,
    )
    from .sut.fleet import build_fleet

    systems = build_fleet()
    if args.systems:
        wanted = set(args.systems)
        known = {s.name for s in systems}
        unknown = wanted - known
        if unknown:
            print(f"unknown systems: {sorted(unknown)}", file=sys.stderr)
            print(f"available: {sorted(known)}", file=sys.stderr)
            return 2
        systems = [s for s in systems if s.name in wanted]

    records = run_fleet(systems)
    print(f"{len(records)} results from {len(systems)} systems\n")
    print(format_coverage_matrix(result_matrix(records)))
    print("\nper model:")
    for task, count in results_per_task(records).items():
        print(f"  {task.value:20s} {count}")
    if args.report:
        from pathlib import Path

        from .harness.report import generate_report

        Path(args.report).write_text(generate_report(
            records, systems=systems, title="MLPerf Inference fleet sweep"))
        print(f"\nreport written to {args.report}")
    return 0


def _cmd_metrics(args) -> int:
    from .core.config import TestSettings
    from .core.trace import write_chrome_trace
    from .faults.resilient import ResilientSUT, RetryPolicy
    from .harness.netbench import SyntheticQSL
    from .metrics import (
        MetricsRegistry,
        render_table,
        to_json,
        to_prometheus_text,
    )
    from .network.simulated import ChannelModel, SimulatedChannelSUT
    from .sut.echo import EchoSUT

    scenario = _SCENARIOS[args.scenario]
    settings = TestSettings(
        scenario=scenario,
        server_target_qps=args.target_qps,
        server_latency_bound=0.1,
        min_query_count=args.queries,
        min_duration=0.0,
        watchdog_timeout=300.0,
        seed=args.seed,
    )
    model = ChannelModel(
        latency=args.net_latency_ms * 1e-3,
        jitter=args.jitter_ms * 1e-3,
        drop_rate=args.drop,
        seed=args.seed,
    )
    registry = MetricsRegistry()
    backend = EchoSUT(latency=args.latency_ms * 1e-3)
    if args.stream:
        from .streaming import StreamingSUT

        backend = StreamingSUT(backend)
    channel = SimulatedChannelSUT(backend, model)
    sut = channel
    if args.outage > 0:
        from .faults import OutageSUT

        sut = OutageSUT(sut, args.outage_start, args.outage)
    if args.drop > 0:
        # A lossy channel needs the retry layer, which also lights up
        # the resilient_* counters in the registry.
        sut = ResilientSUT(sut, RetryPolicy(attempt_timeout=0.200),
                           registry=registry, seed=args.seed)
    if args.breaker:
        from .durability import SelfHealingSUT

        # The standby is a plain local echo: during a primary outage
        # the breaker trips, queries reroute, and the run survives.
        standby = EchoSUT(latency=args.latency_ms * 1e-3, name="standby")
        sut = SelfHealingSUT(sut, standby, registry=registry)
    elif args.outage > 0:
        print("note: --outage without --breaker leaves nothing to shed "
              "the load; expect recorded failures", file=sys.stderr)
    from .core.loadgen import run_benchmark

    if args.resume:
        if not args.journal:
            print("--resume requires --journal PATH", file=sys.stderr)
            return 2
        from .durability import resume_run

        result = resume_run(
            args.journal, sut, SyntheticQSL(),
            registry=registry,
            snapshot_period=args.snapshot_period_ms * 1e-3,
            fsync=args.fsync,
        )
    else:
        journal = None
        if args.journal:
            from .durability import RunJournal

            journal = RunJournal(args.journal, fsync=args.fsync,
                                 registry=registry)
        result = run_benchmark(
            sut, SyntheticQSL(), settings,
            registry=registry,
            snapshot_period=args.snapshot_period_ms * 1e-3,
            journal=journal,
        )

    if args.format == "prom":
        print(to_prometheus_text(registry), end="")
    elif args.format == "json":
        print(to_json(registry))
    else:
        print(result.summary())
        print()
        print(render_table(registry))
        count = len(result.snapshots or [])
        print(f"\n{count} snapshots over {result.metrics.duration:.3f} s "
              f"of virtual time")
    if args.trace:
        write_chrome_trace(result.log, args.trace,
                           transport=channel.transport_records,
                           snapshots=result.snapshots)
        print(f"trace written to {args.trace}")
    return 0 if result.valid else 1


def _cmd_sweep(args) -> int:
    import json
    from pathlib import Path

    from .core.config import TestSettings
    from .fleet import (
        Autoscaler,
        OutlierDetector,
        ReplicaSet,
        SeriesSignal,
        SweepConfig,
        SweepHarness,
    )
    from .harness.netbench import SyntheticQSL
    from .metrics import MetricsRegistry
    from .sut.echo import EchoSUT

    try:
        config = SweepConfig(qps_low=args.qps_low, qps_high=args.qps_high,
                             resolution=args.resolution, mode=args.mode,
                             max_probes=args.max_probes)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    session_workload = args.workload == "session"
    if session_workload:
        # The probed rate is the *session* arrival rate (sessions/s);
        # the latency bound applies per turn (docs/sessions.md).
        settings = TestSettings(
            scenario=Scenario.SESSION,
            server_target_qps=args.qps_low,  # overridden per probe
            server_latency_bound=args.latency_bound_ms * 1e-3,
            session_count=args.sessions,
            session_turns_min=args.turns_min,
            session_turns_max=args.turns_max,
            session_think_time_mean=args.think_time_s,
            min_duration=0.0,
            watchdog_timeout=300.0,
            seed=args.seed,
        )
    else:
        settings = TestSettings(
            scenario=Scenario.SERVER,
            server_target_qps=args.qps_low,  # overridden per probe
            server_latency_bound=args.latency_bound_ms * 1e-3,
            min_query_count=args.queries,
            min_duration=0.0,
            watchdog_timeout=300.0,
            seed=args.seed,
        )
    latency = args.latency_ms * 1e-3
    if args.scale_signal == "cache-miss-rate" and not session_workload:
        print("--scale-signal cache-miss-rate requires --workload session "
              "(no prefix caches otherwise)", file=sys.stderr)
        return 2

    def make_backend(index=None):
        name = "echo" if index is None else f"replica-{index}"
        return EchoSUT(latency=latency, name=name,
                       concurrency=args.concurrency)

    if args.replicas > 0:
        from .sessions import per_replica_cache_factory

        chaos_schedule = None
        if args.chaos:
            from .faults import ChaosSchedule

            # Size the schedule to the *shortest* probe (the qps-high
            # end of the bracket) so every probe run sees both the
            # injection and the recovery side of each window.  One
            # schedule, reused by every probe: the capacity verdicts
            # stay comparable across rates.
            if session_workload:
                horizon = (args.sessions / args.qps_high
                           + args.turns_max * args.think_time_s)
            else:
                horizon = args.queries / args.qps_high
            chaos_schedule = ChaosSchedule.generate(
                args.seed, duration=horizon, replicas=args.replicas,
                zones=args.zones, events=args.chaos_events)

        def make_sut():
            # One registry per probe: live series feed the autoscaler's
            # SeriesSignal and export per-replica prefix_cache_* families.
            registry = MetricsRegistry()
            factory = make_backend
            orchestrator = None
            if chaos_schedule is not None:
                from .faults import ChaosOrchestrator

                orchestrator = ChaosOrchestrator(
                    chaos_schedule, registry=registry)
                factory = orchestrator.wrap_factory(factory)
            fleet = ReplicaSet(
                factory,
                initial_replicas=args.replicas,
                max_replicas=max(args.replicas, 2 * args.replicas),
                policy=args.balancer,
                zones=args.zones,
                attempt_timeout=4.0 * args.latency_bound_ms * 1e-3,
                seed=args.seed,
                registry=registry,
                cache_factory=(per_replica_cache_factory(
                    capacity_tokens=args.cache_tokens, registry=registry)
                    if session_workload else None),
            )
            if orchestrator is not None:
                orchestrator.bind(fleet)
            fleet.sweep_registry = registry
            fleet.chaos_orchestrator = orchestrator
            return fleet

        def services_factory(sut):
            registry = sut.sweep_registry
            services = []
            if sut.chaos_orchestrator is not None:
                services.append(sut.chaos_orchestrator)
                services.append(OutlierDetector(
                    sut, seed=args.seed, registry=registry))
            if args.autoscale:
                if args.scale_signal == "outstanding-series":
                    signal = SeriesSignal(
                        registry, "fleet_outstanding_queries",
                        mode="level", window=4,
                        per_available_replica=True)
                elif args.scale_signal == "cache-miss-rate":
                    signal = SeriesSignal(
                        registry, "prefix_cache_tokens_missed_total",
                        mode="rate", per_available_replica=True)
                else:
                    signal = None  # the stock in-process backlog
                services.append(
                    Autoscaler(sut, signal=signal, registry=registry))
            return services

        if not (args.autoscale or args.chaos):
            services_factory = None
        probed = (f"{args.replicas}-replica echo fleet "
                  f"({args.balancer}"
                  f"{f', {args.zones} zones' if args.zones > 1 else ''}"
                  f"{f', autoscaled on {args.scale_signal}' if args.autoscale else ''}"
                  f"{f', chaos x{args.chaos_events}' if args.chaos else ''})")
    else:
        if args.autoscale:
            print("--autoscale requires --replicas N", file=sys.stderr)
            return 2
        if args.chaos:
            print("--chaos requires --replicas N", file=sys.stderr)
            return 2

        def make_sut():
            backend = make_backend()
            if session_workload:
                from .sessions import PrefixCacheSUT
                return PrefixCacheSUT(
                    backend, capacity_tokens=args.cache_tokens)
            return backend
        services_factory = None
        probed = "single echo backend"
    if session_workload:
        probed += " [session workload, per-replica prefix caches]"

    cache_rows = []
    observe = None
    if session_workload:
        from .sessions import (
            CacheStats,
            audit_cache_events,
            audit_replica_caches,
            replay_graph_from_settings,
        )

        graph = replay_graph_from_settings(settings)

        def observe(sut, result, probe):
            caches = getattr(sut, "caches", None)
            if caches:
                stats = CacheStats.merged(
                    [c.stats for c in caches.values()])
                dirty = sum(
                    len(v) for v in
                    audit_replica_caches(caches, graph).values())
            else:
                stats = sut.stats
                dirty = len(audit_cache_events(
                    sut.events, graph, sut.capacity_tokens))
            cache_rows.append((stats, dirty))

    harness = SweepHarness(
        make_sut, SyntheticQSL(), settings, config,
        services_factory=services_factory,
        probe_observer=observe,
    )
    result = harness.run()
    unit = "sessions/s" if session_workload else "qps"
    print(f"probed: {probed} ({args.latency_ms} ms service time)")
    for position, probe in enumerate(result.probes):
        verdict = "VALID" if probe.valid else "INVALID"
        line = (f"  {probe.qps:10.3f} {unit}  {verdict:7s} "
                f"p99={probe.latency_p99 * 1e3:8.3f} ms  "
                f"completed={probe.completed}")
        if session_workload:
            stats, dirty = cache_rows[position]
            audit = "clean" if dirty == 0 else f"{dirty} PROBLEMS"
            line += (f"  token-hit={stats.token_hit_rate:6.1%} "
                     f"audit={audit}")
        print(line)
    print(result.summary())
    dirty_trails = sum(dirty for _, dirty in cache_rows)
    if session_workload and dirty_trails:
        print(f"prefix-cache audit FAILED: {dirty_trails} discrepancies "
              "across probe runs", file=sys.stderr)
    if args.report:
        report = result.report()
        report["workload"] = args.workload
        if args.chaos:
            report["chaos"] = {
                "zones": args.zones,
                "events": [event._asdict()
                           for event in chaos_schedule.events],
            }
        if session_workload:
            report["probe_cache"] = [
                {
                    "token_hit_rate": stats.token_hit_rate,
                    "hits": stats.hits,
                    "partial_hits": stats.partial_hits,
                    "misses": stats.misses,
                    "evictions": stats.evictions,
                    "audit_problems": dirty,
                }
                for stats, dirty in cache_rows
            ]
        path = Path(args.report)
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"capacity report written to {path}")
    if session_workload and dirty_trails:
        return 1
    return 0 if result.max_qps is not None else 1


def _cmd_check(args) -> int:
    from .submission.artifacts import check_submission_dir

    report = check_submission_dir(args.directory)
    for issue in report.issues:
        print(issue)
    if report.passed:
        print("submission CLEARED")
        return 0
    print(f"submission REJECTED ({len(report.errors)} errors)")
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "tables": _cmd_tables,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "fleet": _cmd_fleet,
        "check": _cmd_check,
        "metrics": _cmd_metrics,
        "sweep": _cmd_sweep,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
