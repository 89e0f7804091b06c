"""End-to-end acceptance gate.

One test per shipped guarantee.  Each test asserts its substance, then
asserts the pinned wall-clock budget and prints a single PASS line
(visible under -s or in the captured output of a failure).  Budgets are
hard limits; a budget miss fails the gate like any wrong value.
"""

import math
import time

import pytest

from bptrades.core import are_orthogonal, gen_bp, is_prime, primes_up_to
from bptrades.dissect import (
    dissection_to_trade,
    good_dissection,
    log_trade,
    small_rowperm_pipeline,
)
from bptrades.family16 import construct as family_construct
from bptrades.family16 import intercalate_witness
from bptrades.matrices import (
    balance_matrix,
    check_bcc2,
    det_exact,
    size_bounds,
    symbol_system,
)
from bptrades.rowperm import (
    rowperm_orthogonal,
    three_row_trade,
    trade_from_rowperm,
)
from bptrades.search import (
    count_transversals,
    diagonal_histogram,
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

from test_family16 import FIG4_ENTRIES
from test_search import _count_oracle
from test_trades import B13_ENTRIES, FIG1_ENTRIES

EPS = 1e-9


def _passed(num: int, label: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed <= limit, f"{label}: {elapsed:.1f}s over the {limit:.0f}s budget"
    print(f"acceptance {num:02d} PASS {elapsed:8.1f}s / {limit:.0f}s  {label}")


# -- 1: the cyclic family is mutually orthogonal -----------------------------------


def test_c01_mols_family_pairwise_orthogonal():
    t0 = time.perf_counter()
    for p in (5, 7, 11, 13, 101):
        squares = [gen_bp(p, k) for k in range(1, p)]
        pairs = 0
        for i, a in enumerate(squares):
            for b in squares[i + 1 :]:
                assert are_orthogonal(a, b)
                pairs += 1
        assert pairs == (p - 1) * (p - 2) // 2
    _passed(1, "pairwise orthogonality of the cyclic family", t0, 1.0)


# -- 2: figure fixtures byte-for-byte ----------------------------------------------


def test_c02_figure_fixtures_reproduced(shipped_fixture_text):
    t0 = time.perf_counter()
    seven = family_construct(7)
    assert seven.k == 3
    assert seven.trade.entries == FIG1_ENTRIES
    assert seven.trade.size == 18
    assert seven.trade.to_json(pretty=True) == shipped_fixture_text("fig1.json")
    assert validate_orthogonal_trade(seven.trade)

    thirteen = family_construct(13)
    assert thirteen.k == 4
    assert thirteen.trade.entries == FIG4_ENTRIES
    assert thirteen.trade.size == 36
    assert thirteen.trade.to_json(pretty=True) == shipped_fixture_text("fig4.json")
    assert validate_orthogonal_trade(thirteen.trade)
    _passed(2, "figure fixtures reproduced byte-for-byte", t0, 1.0)


@pytest.fixture(scope="module")
def shipped_fixture_text():
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

    def read(name: str) -> str:
        return (root / name).read_text(encoding="ascii")

    return read


# -- 3: intercalate-free family at scale -------------------------------------------


def test_c03_family_construction_every_admissible_prime():
    t0 = time.perf_counter()
    ps = [p for p in primes_up_to(1009) if p % 6 == 1]
    assert len(ps) == 81
    for p in ps:
        w = family_construct(p)
        assert validate_orthogonal_trade(w.trade)
        assert w.trade.size == 3 * w.k * (w.k - 1)
        assert w.trade.size % p != 0
        intercalate_witness(w)
    _passed(3, "family construction for all p = 1 (mod 6) up to 1009", t0, 30.0)


# -- 4: dissection-derived symbol-twice trades -------------------------------------


def test_c04_dissection_pipeline_at_scale():
    t0 = time.perf_counter()
    assert log_trade(13).entries == B13_ENTRIES
    for p in primes_up_to(99991):
        if p < 11:
            continue
        t = log_trade(p)
        assert validate_latin_trade(t)
        hist = {}
        for _, _, base, _ in t.entries:
            hist[base] = hist.get(base, 0) + 1
        assert set(hist.values()) == {2}
        assert t.size <= 2 * (3 + 5 * math.log((p - 1) / 2, 4)) + 2
    _passed(4, "symbol-twice trades for all primes 11..99991", t0, 120.0)


# -- 5: logarithmic row-permutation trades -----------------------------------------


def test_c05_log_rowperm_pipeline_at_scale():
    t0 = time.perf_counter()
    ps = [p for p in primes_up_to(9973) if p >= 11]
    # permutation-level orthogonality is equivalent to trade validity for
    # row-permutation trades; the full validator runs on a sample
    for p in ps:
        sigma, trade = small_rowperm_pipeline(p)
        assert trade.k == 2
        assert rowperm_orthogonal(sigma, {2})
        m = len(sigma.support)
        assert math.log2(p) < m <= 5 * math.log2(p) + 6
        assert trade.size == m * p
    for p in ps[::40] + [ps[-1]]:
        _, trade = small_rowperm_pipeline(p)
        assert validate_orthogonal_trade(trade)
    _passed(5, "O(log p) row-permutation trades for primes 11..9973", t0, 120.0)


# -- 6: three-row trades exist exactly when p = 1 (mod 6) --------------------------


def _support3_exists(p: int) -> bool:
    # translation conjugacy lets the support contain 0; a support of
    # three rows forces a 3-cycle, so two orientations per row pair
    for a in range(1, p):
        for b in range(a + 1, p):
            for ia, ib, i0 in ((b, 0, a), (0, a, b)):
                for k in range(2, p):
                    vals = {(-i0) % p, (k * a - ia) % p, (k * b - ib) % p}
                    if len(vals) < 3:
                        continue
                    if vals == {0, (k - 1) * a % p, (k - 1) * b % p}:
                        return True
    return False


def test_c06_three_row_theorem_both_directions():
    t0 = time.perf_counter()
    for p in primes_up_to(1009):
        if p < 5:
            continue
        got = three_row_trade(p)
        assert (got is not None) == (p % 6 == 1)
        if got is not None:
            sigma, k = got
            assert len(sigma.support) == 3
            assert rowperm_orthogonal(sigma, {k})
    for p in primes_up_to(101):
        if p < 5:
            continue
        assert _support3_exists(p) == (p % 6 == 1)
    _passed(6, "three-row trades exist iff p = 1 (mod 6)", t0, 60.0)


# -- 7: trade-size spectra ---------------------------------------------------------

S5 = frozenset({0, 10, 15, 20, 25})
S7 = frozenset({0, 14, 18, 21}) | frozenset(range(24, 50))
S9 = frozenset({0, 6, 9, 12, 15, 16}) | frozenset(range(18, 82))
S11_TARGETS = frozenset({0, 22, 33}) | frozenset(range(36, 122))


def test_c07_spectra_exact_and_certified():
    t0 = time.perf_counter()
    for p, want, limit in ((5, S5, 600.0), (7, S7, 600.0), (9, S9, 600.0)):
        started = time.perf_counter()
        res = spectrum_all(p, budget=590.0)
        assert res.exhaustive, f"p={p} search did not finish inside the budget"
        assert res.sizes == want
        assert time.perf_counter() - started <= limit

    started = time.perf_counter()
    res = spectrum_all(11, budget=1740.0, targets=S11_TARGETS)
    assert S11_TARGETS <= res.sizes
    for size in sorted(S11_TARGETS):
        cert = res.certificates[size]
        assert cert.size == size
        if size:
            assert validate_orthogonal_trade(cert)
    assert time.perf_counter() - started <= 1800.0
    print(f"acceptance 07 note: p=11 exhaustive={res.exhaustive} "
          f"(certificates cover all {len(S11_TARGETS)} target sizes)")
    _passed(7, "spectra for p=5,7,9 exact; p=11 sizes certified", t0, 3600.0)


# -- 8: row-permutation support-size sets ------------------------------------------

FULL_M_SETS = {
    (5, 1): {4, 5},
    (7, 1): {3, 5, 6, 7},
    (11, 1): set(range(5, 12)),
    (13, 1): {3, 4} | set(range(6, 14)),
    (5, 2): {4, 5},
    (7, 2): {6, 7},
    (11, 2): {5, 6, 8, 9, 10, 11},
    (13, 2): {4, 6} | set(range(8, 14)),
}

NONTRIVIAL_M_SETS = {
    (11, 3): {5, 9},
    (13, 3): {6, 11},
    (13, 4): {6, 11},
    (5, 5): set(),
    (7, 5): set(),
    (11, 5): set(),
    (13, 5): set(),
}


def test_c08_rowperm_support_sizes_exact():
    t0 = time.perf_counter()
    for (p, mates), want in FULL_M_SETS.items():
        res = rowperm_sizes(p, mates)
        assert res.exhaustive
        assert res.m_values == frozenset(want), f"(p={p}, mates={mates})"
    for (p, mates), want in NONTRIVIAL_M_SETS.items():
        res = rowperm_sizes(p, mates)
        assert res.exhaustive
        assert res.nontrivial_m == frozenset(want), f"(p={p}, mates={mates})"
    _passed(8, "row-permutation support sizes reproduce exactly", t0, 1800.0)


# -- 9: transversal counts and diagonal-avoidance ----------------------------------

TRANSVERSAL_COUNTS = {5: 15, 7: 133, 11: 37851, 13: 1030367}


def test_c09_transversal_counts_and_diagonal_gap():
    t0 = time.perf_counter()
    for p, want in TRANSVERSAL_COUNTS.items():
        assert count_transversals(gen_bp(p, 1)) == want
        assert _count_oracle(p) == want
    for p in TRANSVERSAL_COUNTS:
        hist = diagonal_histogram(p)
        assert hist[p] == 1
        assert sum(hist.values()) == TRANSVERSAL_COUNTS[p]
        bound = p - math.log2(p) - 1
        for hits in hist:
            assert hits == p or hits <= bound
            assert hits == p or p - hits >= math.ceil(math.log2(p) + 1)
    _passed(9, "transversal counts match the oracle; diagonal gap holds", t0, 300.0)


# -- 10: orthomorphism distance from the linear maps -------------------------------


def test_c10_orthomorphism_distance_exceeds_bound():
    t0 = time.perf_counter()
    for p in (5, 7, 11):
        for k in range(2, p):
            dist = min_distance_from_linear(p, k)
            floor = size_bounds(p, k).symbol_lb - EPS
            assert dist > floor, f"p={p} k={k}: {dist} <= {floor}"
    _passed(10, "orthomorphism distance beats the logarithmic bound", t0, 600.0)


# -- 11: cross-cutting property suites ---------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    """Every trade producer contributes at least one nonzero trade."""
    items = [
        ("family p=7", family_construct(7).trade),
        ("family p=13", family_construct(13).trade),
        ("family p=31", family_construct(31).trade),
        ("smalltrade p=5", log_trade(5)),
        ("smalltrade p=7", log_trade(7)),
        ("smalltrade p=13", log_trade(13)),
        ("smalltrade p=101", log_trade(101)),
        ("pipeline p=11", small_rowperm_pipeline(11)[1]),
        ("pipeline p=13", small_rowperm_pipeline(13)[1]),
        ("pipeline p=101", small_rowperm_pipeline(101)[1]),
        ("dissection n=6", dissection_to_trade(good_dissection(6))),
        ("dissection n=20", dissection_to_trade(good_dissection(20))),
    ]
    for p in (7, 13, 19):
        sigma, k = three_row_trade(p)
        items.append((f"threerow p={p}", trade_from_rowperm(sigma, k)))
    for size, cert in sorted(spectrum(7, 3).certificates.items()):
        if size:
            items.append((f"spectrum p=7 size={size}", cert))
    return items


def _cofactor_det(entries) -> int:
    m = len(entries)
    if m == 1:
        return entries[0][0]
    total = 0
    for j, v in enumerate(entries[0]):
        if v:
            minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
            total += (-1) ** j * v * _cofactor_det(minor)
    return total


def test_c11_property_suites(corpus):
    t0 = time.perf_counter()
    matrices = []
    for name, trade in corpus:
        again = TradePair.from_json(trade.to_json())
        assert again == trade, name
        assert validate_latin_trade(again), name
        # the row-count size bound is a theorem for prime order only; the
        # n=6 dissection trade lives in an order-5 subsquare of B_15
        if is_prime(trade.p):
            assert check_bcc2(again), name

        if trade.k is not None:
            assert validate_orthogonal_trade(trade), name
            base_hist: dict[int, int] = {}
            mate_hist: dict[int, int] = {}
            for _, _, base, mate in trade.entries:
                base_hist[base] = base_hist.get(base, 0) + 1
                mate_hist[mate] = mate_hist.get(mate, 0) + 1
            assert min(base_hist.values()) >= 3, name
            assert min(mate_hist.values()) >= 3, name
            for s in sorted(base_hist):
                sys = symbol_system(trade, s)
                A = sys.matrix
                for i, row in enumerate(A.entries):
                    assert row[i] > 0
                    assert all(x <= 0 for j, x in enumerate(row) if j != i)
                    assert sum(row) >= 0
                assert all(v % trade.p == 0 for v in A.apply(sys.u))
                if A.m <= 6:
                    matrices.append(A)
            canon = canonicalize(trade)
            assert validate_orthogonal_trade(canon), name
        else:
            D, _ = balance_matrix(trade)
            if D.m <= 6:
                matrices.append(D)

    assert matrices
    for A in matrices:
        assert det_exact(A) == _cofactor_det([list(r) for r in A.entries])

    _passed(11, "round-trips, symbol systems, determinants", t0, 600.0)
