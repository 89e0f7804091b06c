"""Self-test of the benchmark's answer checking.

    python3 perfbench/selftest.py

For each workload, one library entry point is replaced by a planted
fault that answers at once and wrongly for some of its inputs.  One pass
over the requests that reach it must count exactly the faulted requests
as failed and keep their latencies out of the small-request samples, so
a wrong answer can never show up as a fast success.  The same requests
must all pass once the fault is removed.  Exits 0 when every case holds.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import worker


def case(name, requests, owner, attr, fault, faulted) -> bool:
    """Run ``requests`` with ``owner.attr`` replaced by ``fault``, then without."""
    expected = sum(1 for r in requests if faulted(r))
    original = getattr(owner, attr)
    setattr(owner, attr, fault)
    try:
        planted = worker.run_pass(requests)
    finally:
        setattr(owner, attr, original)
    clean = worker.run_pass(requests)
    small = sum(1 for r in requests if r.small)
    small_faulted = sum(1 for r in requests if r.small and faulted(r))
    ok = (
        expected > 0
        and planted.failed == expected
        and len(planted.small) == small - small_faulted
        and clean.failed == 0
        and len(clean.small) == small
    )
    print(f"{name:10s} {'ok' if ok else 'FAILED'}: planted fault failed {planted.failed} of "
          f"{planted.attempted} (expected {expected}), {len(planted.small)} small latencies "
          f"kept of {small}; without it {clean.failed} failed")
    return ok


def main() -> int:
    worker.load_package()
    import workloads
    from bptrades.trades import TradePair

    ok = True
    worker.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.SCRATCH, prefix="selftest-") as tmp:
        tmp = Path(tmp)

        # construct: log_trade returns a stored, corrupted trade for p = 1 (mod 4)
        reqs = [r for r in workloads.make_requests("construct", 1, worker.ROOT, tmp)
                if r.label in ("log_trade", "three_row")]
        t = workloads.dissect.log_trade(11)
        (r0, c0, b0, m0), *rest = t.entries
        wrong = TradePair(11, 1, t.k, ((r0, c0, b0, (m0 + 1) % 11), *rest))
        real = workloads.dissect.log_trade
        ok &= case("construct", reqs, workloads.dissect, "log_trade",
                   lambda p: wrong if p % 4 == 1 else real(p),
                   lambda r: r.label == "log_trade" and r.args[0] % 4 == 1)

        # search: the transversal count is off by one
        reqs = [r for r in workloads.make_requests("search", 1, worker.ROOT, tmp)
                if r.label in ("transversals_11", "spectrum_5")]
        ok &= case("search", reqs, workloads.search, "count_transversals",
                   lambda square, force=False: workloads.TRANSVERSALS_11 - 1,
                   lambda r: r.label == "transversals_11")

        # cli: verify exits 0 at once and prints nothing
        reqs = [r for r in workloads.make_requests("cli", 1, worker.ROOT, tmp) if r.small]
        real_run = workloads.cli.run
        ok &= case("cli", reqs, workloads.cli, "run",
                   lambda argv: 0 if argv[0] == "verify" else real_run(argv),
                   lambda r: r.args[0] == "verify")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
