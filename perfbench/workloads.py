"""The benchmark's workloads: seeded request lists with their answer checks.

Every workload turns a seed into a shuffled list of requests.  The
program sees only the generated primes, indices, target sets and file
paths.  A request's ``call`` is the timed part and goes through the
public library API (or ``bptrades.cli.run``); its ``check`` runs outside
the timing and raises ``Wrong`` on a wrong answer.  The checks repeat
the acceptance assertions (tests/test_acceptance.py, c03-c10) and add
spot checks computed here, independently of the package.

No request passes ``budget=``, so every run does the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import bptrades.cli as cli
import bptrades.core as core
import bptrades.dissect as dissect
import bptrades.family16 as family16
import bptrades.rowperm as rowperm
import bptrades.search as search
import bptrades.trades as trades


class Wrong(Exception):
    """A request returned a wrong answer."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Wrong(what)


@dataclass(frozen=True)
class Request:
    label: str  # request kind, for reports and the per-request trace split
    args: tuple  # the generated inputs, for failure reports
    small: bool  # counted in small_op_ms / small_op_p90_ms
    call: Callable[[], object]
    check: Callable[[object], None]


# -- inputs computed here, independently of the package ---------------------------


def primes_up_to(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i, flag in enumerate(sieve) if flag]


def family_root(p: int) -> int:
    """The root of k^2 - k + 1 = 0 (mod p) in [2, (p+1)/2], p = 1 (mod 6)."""
    return next(k for k in range(2, (p + 3) // 2) if (k * k - k + 1) % p == 0)


def family_size(p: int) -> int:
    k = family_root(p)
    return 3 * k * (k - 1)


def mates(p: int) -> list[int]:
    """Admissible orthogonal mates k of B_p(1): k and k - 1 units mod p."""
    return [k for k in range(2, p) if math.gcd(k, p) == 1 == math.gcd(k - 1, p)]


def strata(items: list, n: int) -> list[list]:
    """``items`` cut into ``n`` consecutive runs of near-equal length."""
    return [items[i * len(items) // n : (i + 1) * len(items) // n] for i in range(n)]


def draw(rng: random.Random, items: list, n: int, weight=None, tol: float = 0.0) -> list:
    """One item from each of ``n`` strata of ``items`` (sorted by weight).

    With ``tol`` set, draws repeat until the total weight lies within
    ``tol`` of the total of the strata means, so every seed asks for
    about the same amount of work.
    """
    weight = weight or (lambda x: x)
    parts = strata(sorted(items, key=weight), n)
    target = sum(sum(map(weight, part)) / len(part) for part in parts)
    while True:
        picks = [rng.choice(part) for part in parts]
        if not tol or abs(sum(map(weight, picks)) - target) <= tol * target:
            return picks


def spot_check(t, p: int, k: "int | None", what: str) -> None:
    """Check the header and a stride sample of entries of an ell = 1 trade."""
    expect((t.p, t.ell, t.k) == (p, 1, k), f"{what}: index (p, ell, k) = {(t.p, t.ell, t.k)}")
    entries = t.entries
    for r, c, base, mate in entries[:: max(1, len(entries) // 64)]:
        expect(0 <= r < p and 0 <= c < p and 0 <= mate < p, f"{what}: entry out of range")
        expect(base == (r + c) % p and mate != base, f"{what}: entry {(r, c, base, mate)}")


def perm_orthogonal(p: int, images, k: int) -> bool:
    """Row permutation sigma keeps B_p(1) orthogonal to B_p(k)."""
    supp = [r for r in range(p) if images[r] != r]
    vals = {(k * r - images[r]) % p for r in supp}
    return len(vals) == len(supp) and vals == {(k - 1) * r % p for r in supp}


# -- construct ---------------------------------------------------------------------

FAMILY_DRAWS = 5  # family primes drawn besides the largest trade
FAMILY_LIGHT = 60_000  # draws come from trades below this many entries
PIPELINE_DRAWS = 4
# log_trade latencies have a long upper tail, so their p90 rests on the
# few slowest draws: with 64 draws its spread over ten seeds was 14-18%
# at a fixed machine speed, with 128 it was 3-7%.
LOG_DRAWS = 128
THREE_ROW_DRAWS = 32


def _family_request(p: int) -> Request:
    k = family_root(p)

    def call():
        w = family16.construct(p)
        return w, trades.validate_orthogonal_trade(w.trade), family16.intercalate_witness(w)

    def check(out):
        w, report, intercalate = out
        expect(w.k == k, f"index {w.k}, expected {k}")
        expect(bool(report) and report.is_orthogonal_trade, "trade does not validate")
        expect(w.trade.size == 3 * k * (k - 1), f"size {w.trade.size}")
        expect(w.trade.size % p != 0, "size divisible by p")
        expect(intercalate == w.intercalate, "intercalate witness differs")
        spot_check(w.trade, p, k, "family")

    return Request("family", (p,), False, call, check)


def _pipeline_request(p: int) -> Request:
    def call():
        sigma, trade = dissect.small_rowperm_pipeline(p)
        return (sigma, trade, rowperm.rowperm_orthogonal(sigma, {2}),
                trades.validate_orthogonal_trade(trade))

    def check(out):
        sigma, trade, orthogonal, report = out
        m = len(sigma.support)
        expect(orthogonal and bool(report), "pipeline trade does not validate")
        expect(math.log2(p) < m <= 5 * math.log2(p) + 6, f"{m} moved rows")
        expect(trade.size == m * p, f"size {trade.size} for {m} moved rows")
        expect(sorted(sigma.images) == list(range(p)), "sigma is not a permutation")
        spot_check(trade, p, 2, "pipeline")

    return Request("pipeline", (p,), False, call, check)


def _log_request(p: int) -> Request:
    def call():
        t = dissect.log_trade(p)
        return t, trades.validate_latin_trade(t)

    def check(out):
        t, report = out
        expect(bool(report) and report.is_latin_trade, "trade is not Latin")
        hist = Counter(base for _, _, base, _ in t.entries)
        expect(set(hist.values()) == {2}, "a symbol is not used exactly twice")
        expect(t.size <= 2 * (3 + 5 * math.log((p - 1) / 2, 4)) + 2, f"size {t.size}")
        spot_check(t, p, t.k, "log_trade")

    return Request("log_trade", (p,), True, call, check)


def _three_row_request(p: int) -> Request:
    def call():
        got = rowperm.three_row_trade(p)
        if got is None:
            return None
        sigma, k = got
        return sigma, k, rowperm.trade_from_rowperm(sigma, k), rowperm.rowperm_orthogonal(sigma, {k})

    def check(out):
        if p % 6 != 1:
            expect(out is None, "three-row trade for p != 1 (mod 6)")
            return
        expect(out is not None, "no three-row trade for p = 1 (mod 6)")
        sigma, k, trade, orthogonal = out
        expect(k == family_root(p), f"index {k}")
        expect(len(sigma.support) == 3 and orthogonal, "not a three-row trade")
        expect(perm_orthogonal(p, sigma.images, k), "sigma is not orthogonal")
        expect(trade.size == 3 * p, f"size {trade.size}")
        spot_check(trade, p, k, "three-row")

    return Request("three_row", (p,), False, call, check)


def construct_requests(rng: random.Random, root: Path, tmp: Path) -> list[Request]:
    """The c03-c06 sweeps on a seeded sample.

    The family sweep's largest trade (p = 907, 443,520 entries) is in
    every sample, so peak memory is the sweep's worst case; the other
    family primes are drawn among the light trades so that a pass stays
    short.  Pipeline draws hold the sum of p near its mean, which holds
    their total trade size within a few percent.
    """
    primes = primes_up_to(99991)
    family = [p for p in primes if 100 <= p <= 1009 and p % 6 == 1]
    largest = max(family, key=family_size)
    light = [p for p in family if family_size(p) < FAMILY_LIGHT]
    fam = [largest] + draw(rng, light, FAMILY_DRAWS, family_size, tol=0.02)
    pipe = draw(rng, [p for p in primes if 1000 <= p <= 9973], PIPELINE_DRAWS, tol=0.01)
    logs = draw(rng, [p for p in primes if 11 <= p], LOG_DRAWS)
    three = draw(rng, [p for p in primes if 5 <= p <= 1009], THREE_ROW_DRAWS)
    return (
        [_family_request(p) for p in fam]
        + [_pipeline_request(p) for p in pipe]
        + [_log_request(p) for p in logs]
        + [_three_row_request(p) for p in three]
    )


# -- search ------------------------------------------------------------------------

S5 = frozenset({0, 10, 15, 20, 25})
S7 = frozenset({0, 14, 18, 21}) | frozenset(range(24, 50))
S9 = frozenset({0, 6, 9, 12, 15, 16}) | frozenset(range(18, 82))
S11_TARGETS = frozenset({0, 22, 33}) | frozenset(range(36, 122))
# per-mate spectra for p <= 7, from exhaustive runs; their unions are S5
# and S7.  Sizes 18 and 24..29 need k = 3 or its inverse 5.
SPECTRA = {(5, k): S5 for k in mates(5)}
SPECTRA.update({(7, k): S7 - (frozenset({18, 24, 25, 26, 27, 29}) if k in (2, 4, 6) else set())
                for k in mates(7)})
# Copies of each exhaustive p <= 7 request per pass.  The p = 5 searches
# (about 2 ms) outnumber the p = 7 ones (20-35 ms) four to one, so the
# median of the small requests falls inside the p = 5 class and the p90
# near the middle of the p = 7 class; neither sits on a class boundary.
SMALL_REPEATS = {5: 20, 7: 3}
TARGET_DROPS = {9: 6, 11: 8}  # sizes left out of each target set

TRANSVERSALS_11 = 37851
TRANSVERSALS_13 = 1030367
M_SETS = {(11, 1): set(range(5, 12)), (11, 2): {5, 6, 8, 9, 10, 11}}
NONTRIVIAL_M_SETS = {(11, 3): {5, 9}, (11, 4): set(), (11, 5): set(),
                     (13, 3): {6, 11}, (13, 4): {6, 11}, (13, 5): set()}


def _check_certificates(res, reports, ks) -> None:
    for size, cert in res.certificates.items():
        expect(cert.size == size, f"certificate of size {cert.size} filed under {size}")
        expect(cert.p == res.p and cert.k in ks, f"certificate {size} has index {cert.k}")
    expect(all(reports), "a certificate does not validate")


def _validated(res) -> list:
    return [trades.validate_orthogonal_trade(c) for s, c in res.certificates.items() if s]


def _spectrum_request(p: int, k: int, targets: "frozenset | None") -> Request:
    def call():
        res = search.spectrum(p, k, targets=targets)
        return res, _validated(res)

    def check(out):
        res, reports = out
        if targets is None:
            expect(res.exhaustive, "exhaustive search did not finish")
            expect(res.sizes == SPECTRA[p, k], f"sizes {sorted(res.sizes)}")
            expect(set(res.certificates) == res.sizes, "a size lacks its certificate")
        else:
            expect(targets <= res.sizes <= S9, f"sizes {sorted(res.sizes)}")
        _check_certificates(res, reports, {k})

    return Request(f"spectrum_{p}", (p, k, targets), targets is None, call, check)


def _spectrum_all_request(targets: frozenset) -> Request:
    def call():
        res = search.spectrum_all(11, targets=targets)
        return res, _validated(res)

    def check(out):
        res, reports = out
        expect(targets <= res.sizes <= frozenset(range(122)), f"sizes {sorted(res.sizes)}")
        expect(targets <= set(res.certificates), "a target lacks its certificate")
        _check_certificates(res, reports, mates(11))

    return Request("spectrum_all_11", (11, targets), False, call, check)


def _transversal_request(k: int) -> Request:
    def check(n):
        expect(n == TRANSVERSALS_11, f"{n} transversals")

    return Request("transversals_11", (11, k), False,
                   lambda: search.count_transversals(core.gen_bp(11, k)), check)


def _histogram_request() -> Request:
    p = 13

    def check(hist):
        expect(hist.get(p) == 1, "identity transversal count")
        expect(sum(hist.values()) == TRANSVERSALS_13, f"{sum(hist.values())} transversals")
        for hits in hist:
            expect(hits == p or hits <= p - math.log2(p) - 1, f"hit count {hits}")
            expect(hits == p or p - hits >= math.ceil(math.log2(p) + 1), f"hit count {hits}")

    return Request("histogram_13", (p,), False, lambda: search.diagonal_histogram(p), check)


def _rowperm_request(p: int, count: int) -> Request:
    def check(res):
        expect(res.exhaustive, "search did not finish")
        if (p, count) in M_SETS:
            expect(res.m_values == M_SETS[p, count], f"m values {sorted(res.m_values)}")
        else:
            expect(res.nontrivial_m == NONTRIVIAL_M_SETS[p, count],
                   f"nontrivial m {sorted(res.nontrivial_m)}")
        for m, (sigma, ks) in res.witnesses.items():
            expect(len(ks) == count and sum(r != v for r, v in enumerate(sigma.images)) == m,
                   f"witness for m={m}")
            expect(all(perm_orthogonal(p, sigma.images, k) for k in ks), f"witness for m={m}")

    return Request(f"rowperm_{p}", (p, count), False,
                   lambda: search.rowperm_sizes(p, count), check)


def _distance_request(k: int) -> Request:
    p = 11
    K = min(k, pow(k, -1, p))
    floor = math.log(p) / math.log(K) + 1

    def check(d):
        expect(1 <= d <= p and d > floor - 1e-9, f"distance {d} against floor {floor:.3f}")

    return Request("distance_11", (p, k), False,
                   lambda: search.min_distance_from_linear(p, k), check)


def _targets(rng: random.Random, known: frozenset, drop: int) -> frozenset:
    return known - frozenset(rng.sample(sorted(known), drop))


def search_requests(rng: random.Random, root: Path, tmp: Path) -> list[Request]:
    """The exact searches of c07-c10.

    Target sets hold all but a few sizes of the known spectra: a targeted
    search stops at the last size it certifies, so dropping a few sizes
    changes which certificates are checked but hardly the work.
    """
    reqs = [_spectrum_request(p, k, None)
            for p in (5, 7) for k in mates(p) for _ in range(SMALL_REPEATS[p])]
    reqs += [_spectrum_request(9, k, _targets(rng, S9, TARGET_DROPS[9])) for k in mates(9)]
    reqs.append(_spectrum_all_request(_targets(rng, S11_TARGETS, TARGET_DROPS[11])))
    reqs.append(_transversal_request(rng.choice(mates(11))))
    reqs.append(_histogram_request())
    reqs += [_rowperm_request(11, n) for n in range(1, 6)]
    reqs += [_rowperm_request(13, n) for n in range(3, 6)]
    reqs += [_distance_request(k) for k in rng.sample(range(2, 11), 4)]
    return reqs


# -- cli ---------------------------------------------------------------------------

LARGE_FILE = 10_000  # entries from which verify/canon stop counting as small
SMALL_FILE = 2_000  # drawn small files and constructions stay below this size
LARGE_FAMILY_P = 499  # 58,380 entries
LARGE_PIPELINE_P = 1009  # 15,135 entries, c05's first prime above 1000
CLI_DRAWS = 8  # draws per kind of small file or construction


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``bptrades.cli.run`` in process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def _cli_request(label: str, argv: list[str], small: bool, want_code: int, check_doc) -> Request:
    def check(out):
        code, text = out
        expect(code == want_code, f"exit {code}, expected {want_code}")
        if check_doc is not None:
            check_doc(json.loads(text))
        elif want_code != 0:
            expect(text == "", "output on a rejected input")

    return Request(label, tuple(argv), small, lambda: run_cli(argv), check)


def _corrupt(doc: dict, how: str, rng: random.Random) -> dict:
    bad = json.loads(json.dumps(doc))
    entries = bad["entries"]
    i = rng.randrange(len(entries))
    r, c, base, mate = entries[i]
    if how == "mate":  # breaks the row and column balance
        entries[i][3] = next(s for s in range(bad["p"]) if s not in (base, mate))
    elif how == "duplicate":  # the same cell twice
        entries.append([r, c, base, (mate + 1) % bad["p"]])
    else:  # "range": a residue outside 0..p-1
        entries[i][3] = bad["p"]
    return bad


def _file_requests(path: Path, doc: dict, corruption: "str | None") -> list[Request]:
    n = len(doc["entries"])
    small = n < LARGE_FILE
    if corruption is None:
        def verified(payload):
            expect(payload["valid"] and payload["size"] == n, f"verify says {payload}")

        def canonical(out):
            expect((out["p"], out["ell"]) == (doc["p"], 1) and len(out["entries"]) == n,
                   "canonical form changed the trade")

        return [_cli_request("cli_verify", ["verify", "trade", "--file", str(path)], small, 0,
                             verified),
                _cli_request("cli_canon", ["canon", "--file", str(path)], small, 0, canonical)]
    if corruption == "mate":
        def refuted(payload):
            expect(not payload["valid"] and payload["failures"], "corrupted trade validates")
    else:
        refuted = None  # rejected while loading: a message on stderr only
    return [_cli_request("cli_verify", ["verify", "trade", "--file", str(path)], small, 1,
                         refuted),
            _cli_request("cli_canon", ["canon", "--file", str(path)], small, 1, None)]


def _construct_requests(rng, fixtures: dict, family: list[int], primes: list[int]):
    reqs = []
    for p in family:
        k = family_root(p)

        def fam(doc, p=p, k=k):
            expect(doc["k"] == k and len(doc["entries"]) == 3 * k * (k - 1), "family trade")
            expect(len(doc["intercalate"]["cells"]) == 4, "intercalate missing")
            if p in (7, 13):
                want = fixtures["fig1" if p == 7 else "fig4"]["entries"]
                expect(doc["entries"] == want, f"p={p} differs from the figure fixture")

        reqs.append(_cli_request("cli_construct", ["construct", "family", "--p", str(p)], True,
                                 0, fam))
    for p in draw(rng, [p for p in primes if 5 <= p <= 1009], CLI_DRAWS):
        def three(doc, p=p):
            expect(doc["k"] == family_root(p) and len(doc["entries"]) == 3 * p, "three-row")

        ok = p % 6 == 1
        reqs.append(_cli_request("cli_construct", ["construct", "threerow", "--p", str(p)],
                                 True, 0 if ok else 1, three if ok else None))
    for p in draw(rng, [p for p in primes if 11 <= p], CLI_DRAWS):
        def small_trade(doc, p=p):
            hist = Counter(e[2] for e in doc["entries"])
            expect(doc["p"] == p and set(hist.values()) == {2}, "symbol-twice trade")

        reqs.append(_cli_request("cli_construct", ["construct", "smalltrade", "--p", str(p)],
                                 True, 0, small_trade))
    return reqs


def _other_requests(rng, primes: list[int]) -> list[Request]:
    def spectrum7(doc):
        expect(doc["exhaustive"] and doc["sizes"] == sorted(S7), f"sizes {doc['sizes']}")

    def rowperm11(doc):
        expect(doc["exhaustive"] and doc["nontrivial_m"] == [5, 9], f"m {doc['nontrivial_m']}")

    reqs = [_cli_request("cli_search", ["search", "spectrum", "--p", "7"], True, 0, spectrum7),
            _cli_request("cli_search", ["search", "rowperm", "--p", "11", "--mates", "3"], True,
                         0, rowperm11)]
    for p in draw(rng, [p for p in primes if 5 <= p <= 199], 4):
        k = rng.randrange(2, p)

        def bounds(doc, p=p, k=k):
            K = min(k, pow(k, -1, p))
            expect(doc["K"] == K, f"K={doc['K']}")
            expect(abs(doc["symbol_lb"] - (math.log(p) / math.log(K) + 1)) < 1e-9, "symbol_lb")

        reqs.append(_cli_request("cli_bounds", ["bounds", "--p", str(p), "--k", str(k)], True,
                                 0, bounds))
    for p in draw(rng, list(range(3, 42, 2)), 4):
        k = rng.choice([k for k in range(1, p) if math.gcd(k, p) == 1])

        def gen(doc, p=p, k=k):
            expect(doc["rows"] == [[(k * r + c) % p for c in range(p)] for r in range(p)],
                   "square differs from B_p(k)")

        reqs.append(_cli_request("cli_gen", ["gen", "--p", str(p), "--k", str(k)], True, 0, gen))
    return reqs


def cli_requests(rng: random.Random, root: Path, tmp: Path) -> list[Request]:
    """``bptrades.cli.run`` over trade files written to ``tmp`` at set-up.

    The shipped figure fixtures are read in place and never written.  The
    seed draws the small files and constructions; the large files and the
    corrupted copies are fixed, so the work of a pass and the peak memory
    do not depend on the seed.
    """
    fixture_paths = {name: root / "fixtures" / f"{name}.json" for name in ("fig1", "fig2", "fig4")}
    fixtures = {name: json.loads(path.read_text(encoding="ascii"))
                for name, path in fixture_paths.items()}
    primes = primes_up_to(99991)
    family = [p for p in primes if p % 6 == 1 and p <= 1009]
    light = [p for p in family if family_size(p) < SMALL_FILE]

    docs: dict[str, dict] = {}
    for p in draw(rng, light, CLI_DRAWS, family_size) + [LARGE_FAMILY_P]:
        docs[f"family_{p}"] = json.loads(family16.construct(p).trade.to_json())
    for p in draw(rng, [p for p in primes if 11 <= p <= 150], 4) + [LARGE_PIPELINE_P]:
        docs[f"pipeline_{p}"] = json.loads(dissect.small_rowperm_pipeline(p)[1].to_json())
    corrupted = {f"{name}_{how}": (_corrupt(fixtures[name], how, rng), how)
                 for name, how in zip(fixtures, ("mate", "duplicate", "range"))}
    name = f"pipeline_{LARGE_PIPELINE_P}"
    corrupted[f"{name}_mate"] = (_corrupt(docs[name], "mate", rng), "mate")

    reqs = []
    for name, (doc, how) in [*((n, (d, None)) for n, d in docs.items()), *corrupted.items()]:
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="ascii")
        reqs += _file_requests(path, doc, how)
    for name, path in fixture_paths.items():
        reqs += _file_requests(path, fixtures[name], None)
    reqs += _construct_requests(rng, fixtures, [7, 13] + draw(rng, light, CLI_DRAWS, family_size),
                                primes)
    reqs += _other_requests(rng, primes)
    return reqs


WORKLOADS = {
    "construct": construct_requests,
    "search": search_requests,
    "cli": cli_requests,
}


def make_requests(workload: str, seed: int, root: Path, tmp: Path) -> list[Request]:
    """The workload's seeded request list, in seeded order."""
    rng = random.Random(seed)
    reqs = WORKLOADS[workload](rng, root, tmp)
    rng.shuffle(reqs)
    return reqs
