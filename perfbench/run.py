"""Run one benchmark workload, check it, and print its result as JSON.

From the root of a checkout::

    python3 perfbench/run.py --workload server-stack --seed 1 \\
        --seconds 40 --trace 0

The workload is built and executed again and again, each time from the
same seed, until ``--seconds`` of wall time have passed (at least three
times after one warm-up execution).  Every execution must pass the
workload's correctness gates and produce the same sha256 digest;
otherwise ``correct`` is false.

* ``--trace 0`` reports the end-to-end metrics: ``items_per_s`` and
  ``setup_s`` (medians over the executions) and ``peak_rss_mb``.
* ``--trace 1`` spends half the time untraced and half traced, with
  proxies between the layers (``tracing.py``), and reports the per-layer
  ledger (``ledger.py``) of the last traced execution.  Traced digests
  must equal untraced ones.  The spans are written as Chrome trace-event
  JSON to ``perfbench/out/trace-<workload>-seed<seed>.json``.

The last line of standard output is the result object; the line before
it is the run record (environment, digest, every execution's numbers),
also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: BLAS threads in the benchmark process.  The workloads are
#: single-threaded, and one BLAS thread keeps kernel timings steady on a
#: shared host; ``nproc`` is recorded beside it.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")
#: Executions at the start of each measured phase that are checked but
#: left out of the medians: they fill caches and finish lazy set-up.
WARMUP = 1
#: Timed executions per measured phase, however short ``--seconds`` is.
MIN_REPEATS = 3


@dataclass
class Repeat:
    """One execution: its set-up and timed-section walls and outcome."""

    setup_s: float
    execute_s: float
    outcome: object
    traced: bool = False
    #: The tracer (kept for the last traced execution only) and the
    #: event count of a traced execution.
    tracer: object = None
    events: int = 0
    #: Checked like any execution but left out of the medians.
    warmup: bool = False

    @property
    def items_per_s(self) -> float:
        return self.outcome.items / self.execute_s


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def measure(workload, seed: int, size: int, seconds: float, context,
            tracing=None) -> list:
    """Prepare and execute the workload until ``seconds`` have passed.

    With ``tracing`` (the ``tracing`` module) each execution gets a fresh
    tracer; the last execution keeps it as :attr:`Repeat.tracer`.
    """
    repeats = []
    started = time.perf_counter()
    while (len(repeats) < WARMUP + MIN_REPEATS
           or time.perf_counter() - started < seconds):
        if repeats:
            # Only the last traced execution feeds the ledger; keeping
            # every log and span list would grow the process per run.
            repeats[-1].outcome.results = []
            repeats[-1].tracer = None
        gc.collect()
        tracer = tracing.Tracer() if tracing is not None else None
        t0 = time.perf_counter()
        prepared = workload.prepare(seed, size, tracer, str(OUT), context)
        t1 = time.perf_counter()
        finish = prepared.execute()
        t2 = time.perf_counter()
        outcome = finish()
        events = prepared.counter.events if tracer is not None else 0
        del prepared, finish
        repeats.append(Repeat(t1 - t0, t2 - t1, outcome, tracer is not None,
                              tracer, events, len(repeats) < WARMUP))
    if tracing is None:
        repeats[-1].outcome.results = []
    return repeats


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; run from "
              "the root of a checkout of the repository", file=sys.stderr)
        return 2
    for variable in BLAS_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import ledger
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    size = workload.size
    OUT.mkdir(exist_ok=True)
    context = workload.context(args.seed, size)

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = measure(workload, args.seed, size, budget, context)
    traced = (measure(workload, args.seed, size, budget, context, tracing)
              if args.trace else [])
    repeats = untraced + traced

    problems = sorted({p for r in repeats for p in r.outcome.problems})
    digests = sorted({r.outcome.digest for r in repeats})
    if len(digests) > 1:
        problems.append(f"{len(digests)} different digests across "
                        f"{len(repeats)} executions of seed {args.seed}")
    items_per_s = statistics.median(
        r.items_per_s for r in untraced[WARMUP:])
    if args.trace:
        last = traced[-1]
        overhead = 1 - statistics.median(
            r.items_per_s for r in traced[WARMUP:]) / items_per_s
        values = ledger.per_layer(
            last.tracer, last.outcome, last.events,
            round(last.execute_s * 1e9), overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in ledger.PER_LAYER}
    else:
        metrics = {
            "items_per_s": {"value": items_per_s, "unit": "items/s"},
            "setup_s": {
                "value": statistics.median(
                    r.setup_s for r in untraced[WARMUP:]),
                "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }

    stem = f"{args.workload}-seed{args.seed}"
    record = {
        "workload": args.workload,
        "item": workload.item,
        "size": size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "digests": digests,
        "problems": problems,
        "executions": [
            {"traced": r.traced, "warmup": r.warmup,
             "setup_s": r.setup_s,
             "execute_s": r.execute_s, "items": r.outcome.items,
             "issued": r.outcome.issued, "failed": r.outcome.failed}
            for r in repeats],
        "metrics": metrics,
    }
    if args.trace:
        trace_path = OUT / f"trace-{stem}.json"
        traced[-1].tracer.write_chrome_trace(str(trace_path), record)
        record["chrome_trace"] = str(trace_path.relative_to(ROOT))
    (OUT / f"record-{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.outcome.issued for r in repeats),
        "failed": sum(r.outcome.failed for r in repeats),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
