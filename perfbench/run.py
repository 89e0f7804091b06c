"""The bptrades benchmark.

    python3 perfbench/run.py --workload construct|search|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from that
checkout's ``src/``.  Set-up is timed in fresh interpreters: several
processes only set up, then one more sets up and measures.  With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the per-layer metrics of a traced pass.  Each metric is printed with its
unit and sample count, and the last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  perfbench/README.md
describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import LAYERS, per_layer_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("construct", "search", "cli")
SETUP_SAMPLES = 7  # set-ups per run: the set-up-only processes plus the measuring one
TIME_LIMIT = 170.0  # seconds for the whole run


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("MOLS_THREADS", None)  # the package's default thread count
    # one thread: keep numpy's BLAS pool from starting threads of its own
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def start_worker(argv: list[str], deadline: float) -> tuple[subprocess.Popen, float, threading.Timer]:
    """Start a workload process; return it once it is set up, with the set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.daemon = True
    watchdog.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
        raise BenchError(f"workload process failed during set-up (exit {proc.returncode})")
    return proc, setup, watchdog


def finish_worker(proc: subprocess.Popen, watchdog: threading.Timer) -> "dict | None":
    """Wait for the process; return its result line, if it printed one."""
    out = proc.stdout.read()
    proc.stdout.close()
    code = proc.wait()
    watchdog.cancel()
    if code != 0:
        raise BenchError(f"workload process exited with {code}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(setups: list[float], res: dict) -> tuple[dict, list[str]]:
    small_ms = [s * 1000 for s in res["small_s"]]
    rows = [
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        ("wall_s", statistics.median(res["passes_s"]), "s",
         f"median of {len(res['passes_s'])} passes of {res['requests']} requests: "
         + " ".join(f"{s:.3f}" for s in res["passes_s"])),
        ("small_op_ms", statistics.median(small_ms), "ms",
         f"median of {len(small_ms)} small requests"),
        ("small_op_p90_ms", p90(small_ms), "ms",
         f"p90 of {len(small_ms)} small requests"),
        ("peak_rss_mb", res["peak_rss_kb"] / 1024, "MB", "peak of the measuring process"),
    ]
    return ({name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
            [f"{name:22s} {value:12.6g} {unit:6s} {note}" for name, value, unit, note in rows])


def per_layer(res: dict) -> tuple[dict, list[str]]:
    metrics, lines = {}, []
    for name, unit in per_layer_names():
        value = res["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:22s} {value:12.6g} {unit:6s} one traced pass")
    accounted = (sum(res["metrics"][f"{layer}.self_s"] for layer in LAYERS)
                 + res["metrics"]["bench.self_s"])
    lines.append(f"# self times plus bench.self_s: {accounted:.6f} s of a {res['pass_s']:.6f} s "
                 f"traced pass; {res['spans']} spans")
    lines.append("# top self times: " + ", ".join(f"{n} {s:.3f}s" for n, s in res["top"]))
    for label, names in sorted(res["split"].items()):
        total = sum(names.values())
        top = sorted(names.items(), key=lambda kv: -kv[1])[:4]
        lines.append(f"#   {label}: {total:.3f}s in spans; " + ", ".join(
            f"{n} {100 * s / total:.0f}%" for n, s in top))
    return metrics, lines


def bench(args) -> int:
    deadline = time.monotonic() + TIME_LIMIT
    if not (ROOT / "src" / "bptrades" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {ROOT / 'src' / 'bptrades'}")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup, watchdog = start_worker(common + ["--setup-only"], deadline)
        finish_worker(proc, watchdog)
        setups.append(setup)
    proc, setup, watchdog = start_worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups.append(setup)
    res = finish_worker(proc, watchdog)
    if res is None:
        raise BenchError("workload process printed no result")

    metrics, lines = per_layer(res) if args.trace else end_to_end(setups, res)
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={res['python']} numpy={res['numpy']} nproc={res['nproc']} "
          f"package=src/bptrades")
    for line in lines:
        print(line)
    print(f"{'fail_ratio':22s} {res['failed'] / res['attempted']:12.6g} {'':6s} "
          f"{res['failed']} failed of {res['attempted']} attempted")
    for failure in res["failures"]:
        print(failure, file=sys.stderr)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
