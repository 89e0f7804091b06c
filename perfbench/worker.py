"""One workload process: set up, say ``ready``, measure, report.

Started by run.py, one process at a time.  The process imports
``bptrades`` from the ``src/`` of the checkout it sits in, generates the
workload's requests, prints ``ready`` and then (unless ``--setup-only``)
serves full passes over the requests as a closed loop with one client.
Its last line of output is one JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"  # temporary files and trace output
MIN_PASSES = 3  # the median of three passes discards one slow pass
MAX_FAILURE_REPORTS = 10


def load_package():
    """Import numpy and the checkout's own ``bptrades``; return numpy's version."""
    sys.path.insert(0, str(SRC))
    import numpy

    import bptrades

    where = Path(bptrades.__file__).resolve().parent
    if where != (SRC / "bptrades").resolve():
        raise ImportError(f"bptrades imported from {where}, not from {SRC}")
    return numpy.__version__


@dataclass
class PassResult:
    served_s: float  # time inside requests, the answer checks excluded
    pass_s: float  # wall time of the whole pass, checks included
    small: list[float] = field(default_factory=list)  # latencies of small requests
    attempted: int = 0
    failed: int = 0


def run_pass(requests, tracer=None, failures: "list[str] | None" = None) -> PassResult:
    """Serve every request once and check its answer.

    A request that raises or returns a wrong answer counts as failed, and
    its latency is left out of the small-request samples.
    """
    clock = time.perf_counter
    result = PassResult(0.0, 0.0)
    start = clock()
    for req in requests:
        if tracer is not None:
            tracer.request = req.label
        result.attempted += 1
        t0 = clock()
        try:
            out = req.call()
            elapsed = clock() - t0
            result.served_s += elapsed
            req.check(out)
        except Exception:  # a failed request must not stop the pass
            result.failed += 1
            if failures is not None and len(failures) < MAX_FAILURE_REPORTS:
                failures.append(f"{req.label}{req.args}: {traceback.format_exc(limit=3)}")
            continue
        if req.small:
            result.small.append(elapsed)
    result.pass_s = clock() - start
    return result


def measure(requests, seconds: float, failures: list[str]) -> dict:
    """Full passes until the next one would overrun ``seconds`` (at least three)."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        passes.append(run_pass(requests, failures=failures))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + passes[-1].pass_s > seconds:
            break
    return {
        "passes_s": [p.served_s for p in passes],
        "small_s": [s for p in passes for s in p.small],
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def trace(requests, workload: str, seed: int, failures: list[str]) -> dict:
    """A traced pass between two untraced ones; per-layer metrics of the former.

    The overhead ratio divides the traced pass by the mean of the
    untraced ones, so the first pass's warm-up is shared by both sides.
    """
    from tracing import Tracer

    gc.collect()
    before = run_pass(requests, failures=failures)
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        traced = run_pass(requests, tracer, failures)
    finally:
        tracer.uninstall()
    gc.collect()
    after = run_pass(requests, failures=failures)
    untraced_s = (before.pass_s + after.pass_s) / 2
    tracer.write(SCRATCH / f"trace-{workload}-{seed}.json")
    return {
        "metrics": tracer.metrics(SRC, traced.pass_s, untraced_s),
        "pass_s": traced.pass_s,
        "top": tracer.top_functions(),
        "split": tracer.request_split(),
        "spans": len(tracer.spans),
        "attempted": before.attempted + traced.attempted + after.attempted,
        "failed": before.failed + traced.failed + after.failed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    numpy_version = load_package()
    import workloads

    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH, prefix="tmp-") as tmp:
        requests = workloads.make_requests(args.workload, args.seed, ROOT, Path(tmp))
        print("ready", flush=True)
        if args.setup_only:
            return 0
        failures: list[str] = []
        if args.trace:
            result = trace(requests, args.workload, args.seed, failures)
        else:
            result = measure(requests, args.seconds, failures)
    result.update(
        python=platform.python_version(),
        numpy=numpy_version,
        nproc=len(os.sched_getaffinity(0)),
        requests=len(requests),
        small_requests=sum(r.small for r in requests),
        failures=failures,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
