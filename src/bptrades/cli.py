"""Command-line front end.

JSON on standard output by default, human-readable tables with
``--pretty``.  Exit codes: 0 success, 1 verification or construction
failed, 2 usage or input error, 3 search budget exhausted before the
requested work completed (partial JSON is still emitted).

Verbs raise on failure and ``run`` maps the error to its exit code in
one place: a ``ValueError`` from the library exits with the verb's code
(1 for ``construct``, ``verify`` and ``canon``, 2 for the others), an
``OSError`` exits 2, and ``_Fail`` carries its own code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from bptrades.core import _modulus, gen_bp
from bptrades.dissect import (
    SquareDissection,
    _trade_of_good,
    base_dissection,
    dissection_svg,
    good_dissection,
    log_trade,
    symbol_twice_search,
)
from bptrades.family16 import construct as family_construct, find_k
from bptrades.matrices import size_bounds
from bptrades.rowperm import RowPermutation, three_row_trade, trade_from_rowperm
from bptrades.search import (
    _check_cap,
    _check_spectrum_p,
    count_transversals,
    diagonal_histogram,
    enumerate_orthomorphisms,
    min_distance_from_linear,
    rowperm_sizes,
    spectrum,
    spectrum_all,
)
from bptrades.trades import (
    TradePair,
    canonicalize,
    validate_latin_trade,
    validate_orthogonal_trade,
)

__all__ = ["run", "main", "emit_svg"]

GEN_P_MAX = 2000  # gen prints p^2 cells: at most 4e6, about 25 MB of JSON; also --force's cap
FAMILY_MAX_ENTRIES = 2_000_000  # 3k(k-1) entries: 443,520 at p = 907; 3p for threerow


def emit_svg(d: SquareDissection, path: str) -> None:
    """Write the deterministic SVG rendering of a dissection."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dissection_svg(d))


def _print_json(obj) -> None:
    print(json.dumps(obj))


class _Fail(Exception):
    """A failure of the CLI's own: exit ``code`` with the message on stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load(path: str, reader, what: str):
    """``reader`` applied to the text at ``path``.  An unreadable or
    malformed document exits 2, an invalid one 1."""
    try:
        with open(path, encoding="utf-8") as fh:
            return reader(fh.read())
    except OSError as exc:
        raise _Fail(2, f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, KeyError, TypeError, RecursionError) as exc:
        raise _Fail(2, f"malformed {what} document: {exc}") from None
    except (ValueError, OverflowError) as exc:
        # UnicodeDecodeError, on text that is not UTF-8, lands here too
        raise _Fail(1, f"invalid {what}: {exc}") from None


def _parse_targets(text: str, p: int) -> frozenset:
    # comma-separated sizes; "a..b" spans an inclusive range, a <= b.  Every
    # bound must lie in 0..p*p, checked before a range is expanded, and
    # some size must be named: an empty set would end the search at once
    out = set()
    for part in text.split(","):
        part = part.strip()
        try:
            bounds = [int(x) for x in part.split("..", 1)] if part else []
        except ValueError:
            raise ValueError(f"bad --targets element {part!r}") from None
        if any(not 0 <= b <= p * p for b in bounds):
            raise ValueError(f"--targets element {part!r} is outside 0..{p * p}")
        if len(bounds) == 2 and bounds[1] < bounds[0]:
            raise ValueError(f"--targets range {part!r} ends below its start")
        if bounds:
            out.update(range(bounds[0], bounds[-1] + 1))
    if not out:
        raise ValueError(f"--targets {text!r} names no size")
    return frozenset(out)


def _cmd_gen(args) -> int:
    # before gen_bp, which allocates a p x p array
    if args.p > GEN_P_MAX:
        raise ValueError(f"p={args.p} above {GEN_P_MAX}, the largest order gen prints")
    square = gen_bp(args.p, args.k)
    if args.pretty:
        print(square.to_text(), end="")
    else:
        _print_json(
            {
                "p": args.p,
                "k": args.k,
                "rows": [list(square.row(r)) for r in range(square.order)],
            }
        )
    return 0


def _cmd_verify(args) -> int:
    if args.kind == "dissection":
        d = _load(args.file, SquareDissection.from_json, "dissection")
        _print_json({"valid": True, "order": d.order, "w": d.w, "h": d.h})
        return 0
    trade = _load(args.file, TradePair.from_json, "trade")
    # trades without a stored mate index only claim Latin validity
    if trade.k is None:
        report = validate_latin_trade(trade)
    else:
        report = validate_orthogonal_trade(trade)
    payload = {
        "valid": bool(report),
        "is_latin_trade": report.is_latin_trade,
        "is_orthogonal_trade": report.is_orthogonal_trade,
        "orthogonality_checked": report.orthogonality_checked,
        "size": report.size,
        "failures": [list(f) for f in report.failures[:20]],
    }
    if args.pretty:
        state = "valid" if report else "INVALID"
        print(f"trade of size {report.size}: {state}")
        for code, location in report.failures[:20]:
            print(f"  {code} at {location}")
    else:
        _print_json(payload)
    return 0 if report else 1


def _cmd_canon(args) -> int:
    print(canonicalize(_load(args.file, TradePair.from_json, "trade")).to_json())
    return 0


def _check_force(p: int, force: bool) -> None:
    # --force lifts the exhaustive cap only: the searches still build p x p tables
    if force and p > GEN_P_MAX:
        raise ValueError(f"p={p} above {GEN_P_MAX}, the largest order --force admits")


def _cmd_construct(args) -> int:
    if args.shape == "family":
        # before construct, which allocates 3k(k-1) entries
        k = find_k(args.p)
        if 3 * k * (k - 1) > FAMILY_MAX_ENTRIES:
            raise _Fail(2, f"p={args.p} gives a trade of {3 * k * (k - 1)} entries, "
                           f"above the cap of {FAMILY_MAX_ENTRIES}")
        witness = family_construct(args.p)
        # extra keys are ignored by from_json, so verify/canon accept this;
        # the key goes before the document's closing brace, which gives the
        # bytes of json.dumps on the extended object without a reparse
        intercalate = json.dumps({"cells": [list(t) for t in witness.intercalate]})
        print(f'{witness.trade.to_json()[:-1]}, "intercalate": {intercalate}}}')
    elif args.shape == "threerow":
        # before three_row_trade, which allocates p images and 3p entries;
        # find_k first refuses, with exit 1, a p that three_row_trade refuses
        if 3 * args.p > FAMILY_MAX_ENTRIES and find_k(args.p):
            raise _Fail(2, f"p={args.p} gives a trade of {3 * args.p} entries, "
                           f"above the cap of {FAMILY_MAX_ENTRIES}")
        got = three_row_trade(args.p)
        if got is None:
            raise _Fail(1, f"no three-row trade: p={args.p} is not 1 (mod 6)")
        sigma, k = got
        print(trade_from_rowperm(sigma, k).to_json())
    elif args.shape == "smalltrade":
        print(log_trade(args.p).to_json())
    else:
        d = good_dissection(args.n)
        if args.svg:
            emit_svg(d, args.svg)
        # good_dissection has checked d
        print((_trade_of_good(d) if args.trade else d).to_json())
    return 0


def _spectrum_payload(res) -> dict:
    return {
        "p": res.p,
        "per_k": {str(k): sorted(v) for k, v in sorted(res.per_k.items())},
        "sizes": sorted(res.sizes),
        "exhaustive": res.exhaustive,
        "budget_used": round(res.budget_used, 3),
        "via_duality": list(res.via_duality),
        "certificates": {
            str(size): json.loads(trade.to_json())
            for size, trade in sorted(res.certificates.items())
        },
    }


def _cmd_search(args) -> int:
    if args.what == "spectrum":
        # both refusals of p come before --targets, whose ranges span p*p
        _check_spectrum_p(_modulus(args.p), args.budget)
        targets = None if args.targets is None else _parse_targets(args.targets, args.p)
        if args.k is None:
            res = spectrum_all(args.p, budget=args.budget, targets=targets)
        else:
            res = spectrum(args.p, args.k, budget=args.budget, targets=targets)
        payload = _spectrum_payload(res)
        if args.pretty:
            print(f"p={res.p} sizes: {' '.join(map(str, sorted(res.sizes)))}")
            for k, v in sorted(res.per_k.items()):
                print(f"  k={k}: {' '.join(map(str, sorted(v)))}")
            print(f"exhaustive: {res.exhaustive}")
        else:
            _print_json(payload)
        if res.exhaustive or (targets is not None and targets <= res.sizes):
            return 0
        return 3
    # rowperm
    res = rowperm_sizes(args.p, args.mates, budget=args.budget)
    payload = {
        "p": res.p,
        "mates": res.mates_count,
        "m_values": sorted(res.m_values),
        "nontrivial_m": sorted(res.nontrivial_m),
        "witnesses": {
            str(m): {"images": list(sigma.images), "mates": list(ks)}
            for m, (sigma, ks) in sorted(res.witnesses.items())
        },
        "exhaustive": res.exhaustive,
        "budget_used": round(res.budget_used, 3),
    }
    if args.pretty:
        print(f"p={res.p} mates={res.mates_count}: m in {sorted(res.m_values)}")
    else:
        _print_json(payload)
    return 0 if res.exhaustive else 3


def _cmd_transversals(args) -> int:
    _check_force(args.p, args.force)
    if args.histogram:
        hist = diagonal_histogram(args.p, force=args.force)
        if args.pretty:
            for hits, count in sorted(hist.items()):
                print(f"{hits:3d} {count}")
        else:
            _print_json(
                {"p": args.p, "histogram": {str(h): n for h, n in sorted(hist.items())}}
            )
        return 0
    # before gen_bp, which allocates a p x p array
    _check_cap(args.p, args.force)
    n = count_transversals(gen_bp(args.p, args.k), force=args.force)
    if args.pretty:
        print(n)
    else:
        _print_json({"p": args.p, "k": args.k, "count": n})
    return 0


def _cmd_orthomorphisms(args) -> int:
    _check_force(args.p, args.force)
    if args.min_distance_from is not None:
        d = min_distance_from_linear(args.p, args.min_distance_from, force=args.force)
        _print_json({"p": args.p, "k": args.min_distance_from, "min_distance": d})
        return 0
    n = sum(1 for _ in enumerate_orthomorphisms(args.p, force=args.force))
    _print_json({"p": args.p, "count": n})
    return 0


def _cmd_bounds(args) -> int:
    b = size_bounds(args.p, args.k)
    payload = {
        "p": args.p,
        "k": args.k,
        "K": b.K,
        "symbol_lb": b.symbol_lb,
        "trade_lb": b.trade_lb,
        "perm_lb": b.perm_lb,
    }
    if args.pretty:
        for name in ("K", "symbol_lb", "trade_lb", "perm_lb"):
            print(f"{name:10s} {payload[name]}")
    else:
        _print_json(payload)
    return 0


def _cmd_fixtures(args) -> int:
    os.makedirs(args.dir, exist_ok=True)
    docs = {
        "fig1.json": family_construct(7).trade.to_json(pretty=True),
        "fig2.json": trade_from_rowperm(
            RowPermutation.from_cycle(7, (0, 4, 5)), 3
        ).to_json(pretty=True),
        "fig4.json": family_construct(13).trade.to_json(pretty=True),
        "b13_dissect.json": base_dissection(5).to_json(pretty=True),
    }
    for name, text in docs.items():
        path = os.path.join(args.dir, name)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        print(path, file=sys.stderr)
    if args.data_dir:
        os.makedirs(args.data_dir, exist_ok=True)
        for p, symbols in ((5, 4), (7, 5)):
            trade = symbol_twice_search(p, symbols)
            path = os.path.join(args.data_dir, f"small_trade_{p}.json")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(trade.to_json(pretty=True))
            print(path, file=sys.stderr)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args fills a fresh namespace on every
    # call and leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="bptrades",
        description="Orthogonal trades in the cyclic Latin square family.",
    )
    # the exit code of a ValueError raised by the verb
    parser.set_defaults(code=2)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_pretty(sp):
        sp.add_argument("--pretty", action="store_true", help="human-readable output")

    sp = sub.add_parser("gen", help="print B_p(k)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    add_pretty(sp)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("verify", help="validate a trade or dissection file")
    sp.add_argument("kind", choices=["trade", "dissection"])
    sp.add_argument("--file", required=True)
    add_pretty(sp)
    sp.set_defaults(func=_cmd_verify, code=1)

    sp = sub.add_parser("canon", help="canonical form of a trade file")
    sp.add_argument("--file", required=True)
    sp.set_defaults(func=_cmd_canon, code=1)

    sp = sub.add_parser("construct", help="build a trade or dissection")
    sp.set_defaults(code=1)
    shapes = sp.add_subparsers(dest="shape", required=True)
    for shape, help_text in (
        ("family", "intercalate-free family member (needs p = 1 mod 6)"),
        ("threerow", "three-row trade (needs p = 1 mod 6)"),
        ("smalltrade", "near-logarithmic trade against B_p(2)"),
    ):
        ssp = shapes.add_parser(shape, help=help_text)
        ssp.add_argument("--p", type=int, required=True)
        ssp.set_defaults(func=_cmd_construct, shape=shape)
    ssp = shapes.add_parser("dissection", help="good dissection of the n+3 by n frame")
    ssp.add_argument("--n", type=int, required=True)
    ssp.add_argument("--svg", help="also write an SVG rendering here")
    ssp.add_argument("--trade", action="store_true", help="emit the induced trade")
    ssp.set_defaults(func=_cmd_construct, shape="dissection")

    sp = sub.add_parser("search", help="exhaustive searches")
    what = sp.add_subparsers(dest="what", required=True)
    ssp = what.add_parser("spectrum", help="orthogonal trade sizes")
    ssp.add_argument("--p", type=int, required=True)
    ssp.add_argument("--k", type=int, help="single mate; default all admissible")
    ssp.add_argument("--budget", type=float, help="seconds before giving up")
    ssp.add_argument("--targets", help="sizes to certify, e.g. '0,22,33,36..121'")
    add_pretty(ssp)
    ssp.set_defaults(func=_cmd_search, what="spectrum")
    ssp = what.add_parser("rowperm", help="row-permutation support sizes")
    ssp.add_argument("--p", type=int, required=True)
    ssp.add_argument("--mates", type=int, required=True)
    ssp.add_argument("--budget", type=float)
    add_pretty(ssp)
    ssp.set_defaults(func=_cmd_search, what="rowperm")

    sp = sub.add_parser("transversals", help="count transversals")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--histogram", action="store_true", help="diagonal-hit histogram")
    sp.add_argument("--force", action="store_true", help="lift the exhaustive cap")
    add_pretty(sp)
    sp.set_defaults(func=_cmd_transversals)

    sp = sub.add_parser("orthomorphisms", help="count or scan orthomorphisms")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument(
        "--min-distance-from",
        type=int,
        metavar="K",
        help="minimum distance from the linear map x -> K x",
    )
    sp.add_argument("--force", action="store_true", help="lift the exhaustive cap")
    sp.set_defaults(func=_cmd_orthomorphisms)

    sp = sub.add_parser("bounds", help="size lower bounds for index (1, k)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    add_pretty(sp)
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("fixtures", help="regenerate the shipped JSON fixtures")
    sp.add_argument("--dir", default="fixtures")
    sp.add_argument(
        "--data-dir",
        default=None,
        help="also rewrite the packaged small-trade data files here",
    )
    sp.set_defaults(func=_cmd_fixtures)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _Fail as exc:
        code, message = exc.code, str(exc)
    except BrokenPipeError:
        raise  # main() handles a closed stdout
    except OSError as exc:
        code, message = 2, str(exc)
    except ValueError as exc:
        # library cap messages suggest force=True; the flag spelling applies here
        code, message = args.code, str(exc).replace("force=True", "--force")
    print(message, file=sys.stderr)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into head); send what is
        # still buffered to devnull so the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
