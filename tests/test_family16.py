import hashlib
import itertools
import json
from collections import Counter

import numpy as np
import pytest

import bptrades.trades as trades
from bptrades.core import are_orthogonal, gen_bp, primes_up_to
from bptrades.family16 import FamilyWitness, construct, find_k, intercalate_witness
from bptrades.trades import TradePair, apply_trade, validate_orthogonal_trade

from test_trades import FIG1, FIG1_ENTRIES

# 36-cell trade of index (1,4) in B_13: rows 0, 3, 4, 6, 7, 9, 10
FIG4_ENTRIES = (
    (0, 0, 0, 4), (0, 1, 1, 5), (0, 2, 2, 6),
    (0, 4, 4, 0), (0, 5, 5, 1), (0, 6, 6, 2),
    (3, 1, 4, 8), (3, 2, 5, 9), (3, 3, 6, 7),
    (3, 4, 7, 4), (3, 5, 8, 5), (3, 6, 9, 6),
    (4, 0, 4, 7), (4, 1, 5, 4), (4, 2, 6, 5), (4, 3, 7, 6),
    (6, 2, 8, 12), (6, 3, 9, 10), (6, 4, 10, 11), (6, 5, 11, 8), (6, 6, 12, 9),
    (7, 0, 7, 10), (7, 1, 8, 11), (7, 2, 9, 8), (7, 3, 10, 9), (7, 4, 11, 7),
    (9, 3, 12, 0), (9, 4, 0, 1), (9, 5, 1, 2), (9, 6, 2, 12),
    (10, 0, 10, 0), (10, 1, 11, 1), (10, 2, 12, 2),
    (10, 3, 0, 12), (10, 4, 1, 10), (10, 5, 2, 11),
)


# -- find_k --------------------------------------------------------------------


@pytest.mark.parametrize("p,k", [(7, 3), (13, 4), (19, 8), (31, 6), (37, 11)])
def test_find_k_known_values(p, k):
    assert find_k(p) == k
    assert (k * k - k + 1) % p == 0


def test_find_k_matches_brute_force():
    # the one root of k^2 - k + 1 in 2..(p+1)/2, by scanning every k
    for p in primes_up_to(10_000):
        if p % 6 == 1:
            k = np.arange(2, (p + 1) // 2 + 1)
            assert k[(k * k - k + 1) % p == 0].tolist() == [find_k(p)], p


def test_find_k_rejects_wrong_residue_class():
    with pytest.raises(ValueError):
        find_k(11)
    with pytest.raises(ValueError):
        find_k(5)


def test_find_k_rejects_composite():
    with pytest.raises(ValueError):
        find_k(25)


# -- construction ----------------------------------------------------------------


def test_p7_reproduces_known_trade_exactly():
    w = construct(7)
    assert w.k == 3
    assert w.trade.entries == FIG1_ENTRIES
    assert w.trade == FIG1
    assert w.trade.to_json() == FIG1.to_json()


def test_p13_reproduces_known_trade_exactly():
    w = construct(13)
    assert w.k == 4
    assert w.trade.entries == FIG4_ENTRIES
    assert w.trade.size == 36


def test_p31_validates_with_size_not_divisible():
    w = construct(31)
    assert w.k == 6
    assert w.trade.size == 3 * 6 * 5
    assert w.trade.size % 31 != 0
    assert validate_orthogonal_trade(w.trade).is_orthogonal_trade


def _family_reference(p: int, k: int) -> tuple:
    """The displayed unions cell by cell, the loop form of construct."""
    base: dict = {}
    mate: dict = {}
    for j in range(0, k - 1):
        base[0, j] = j
        base[0, k + j] = (k + j) % p
        mate[0, j] = (k + j) % p
        mate[0, k + j] = j
    for i in range(1, k):
        r0 = i * (k - 1) % p
        r1 = (i * (k - 1) + 1) % p
        for j in range(i, 2 * (k - 1) + 1):
            base[r0, j] = (i * (k - 1) + j) % p
        for j in range(0, k + i - 1):
            base[r1, j] = (i * (k - 1) + j + 1) % p
        for j in range(i, k - 1):
            mate[r0, j] = (i * (k - 1) + j + k) % p
        for j in range(k - 1, k + i - 1):
            mate[r0, j] = (i * (k - 1) + j + 1) % p
        for j in range(k + i - 1, 2 * (k - 1) + 1):
            mate[r0, j] = ((i - 1) * (k - 1) + j) % p
        for j in range(0, i):
            mate[r1, j] = (i * (k - 1) + j + k) % p
        for j in range(i, k):
            mate[r1, j] = (i * (k - 1) + j) % p
        for j in range(k, k + i - 1):
            mate[r1, j] = (i * (k - 1) + j - k + 1) % p
    assert set(base) == set(mate)
    return tuple((r, c, base[r, c], mate[r, c]) for r, c in sorted(base))


@pytest.mark.parametrize("p", [p for p in primes_up_to(151) if p % 6 == 1])
def test_family_sweep_small_primes(p):
    w = construct(p)
    k = w.k
    assert w.trade.entries == _family_reference(p, k)
    assert w.trade.size == 3 * k * (k - 1)
    assert w.trade.size % p != 0
    report = validate_orthogonal_trade(w.trade)
    assert report.is_orthogonal_trade
    # each present symbol occurs at least 3 times
    assert all(n >= 3 for n in report.symbol_histogram.values())


def test_family_documents_pinned():
    # to_json and the intercalate of every fifth p = 1 (mod 6) up to 1009,
    # 17 primes, as built by the sorting construction before it
    h = hashlib.sha256()
    for p in [p for p in primes_up_to(1009) if p % 6 == 1][::5]:
        w = construct(p)
        h.update(w.trade.to_json().encode())
        h.update(json.dumps(intercalate_witness(w)).encode())
    assert h.hexdigest() == "a2f1443521abee8d4ac3cef11b2bbfa26779110a3c69213648573d98f1b5cd76"


@pytest.mark.parametrize("p", [7, 31, 907])
def test_family_request_validates_once(monkeypatch, p):
    # construct, the caller and intercalate_witness share one report
    calls = Counter()
    latin, orth = trades._latin_failures, trades._orthogonality_failures

    def counting_latin(t):
        calls["latin"] += 1
        return latin(t)

    def counting_orth(t):
        calls["orth"] += 1
        return orth(t)

    monkeypatch.setattr(trades, "_latin_failures", counting_latin)
    monkeypatch.setattr(trades, "_orthogonality_failures", counting_orth)
    w = construct(p)
    assert validate_orthogonal_trade(w.trade).is_orthogonal_trade
    assert intercalate_witness(w) == w.intercalate
    assert calls == {"latin": 1, "orth": 1}


@pytest.mark.parametrize("p", [199, pytest.param(907, marks=pytest.mark.slow)])
def test_family_construction_drops_its_columns(p):
    # each column and the entries are dropped once copied, so the traced
    # peak of construct is the trade it keeps plus about one entries copy
    # (the peak was 3.4 times the trade while every column stayed alive)
    import tracemalloc

    construct(13)
    tracemalloc.start()
    try:
        w = construct(p)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.trade.size == 3 * w.k * (w.k - 1)
    assert peak < 2.5 * kept


def test_row_multisets_match():
    w = construct(19)
    rows = {}
    for r, _, b, m in w.trade.entries:
        rows.setdefault(r, ([], []))
        rows[r][0].append(b)
        rows[r][1].append(m)
    for bases, mates in rows.values():
        assert sorted(bases) == sorted(mates)


# -- intercalates ------------------------------------------------------------------


def test_intercalate_p7():
    w = construct(7)
    assert intercalate_witness(w) == ((2, 1, 6), (2, 3, 3), (3, 1, 3), (3, 3, 6))


def test_intercalate_p13():
    w = construct(13)
    assert intercalate_witness(w) == ((3, 1, 8), (3, 4, 4), (4, 1, 4), (4, 4, 8))


@pytest.mark.parametrize("p", [7, 13, 19, 31, 43, 61])
def test_intercalate_validates(p):
    w = construct(p)
    triples = intercalate_witness(w)
    assert len(triples) == 4


def test_base_square_has_no_intercalate_but_traded_square_does():
    # odd-order cyclic squares have no 2x2 subsquare at all
    b7 = gen_bp(7, 1)
    for r1, r2 in itertools.combinations(range(7), 2):
        for c1, c2 in itertools.combinations(range(7), 2):
            assert not (b7[r1, c1] == b7[r2, c2] and b7[r1, c2] == b7[r2, c1])
    w = construct(7)
    applied = apply_trade(w.trade)
    (r1, c1, s1), (_, c2, s2), (r2, _, _), _ = w.intercalate
    assert applied[r1, c1] == applied[r2, c2] == s1
    assert applied[r1, c2] == applied[r2, c1] == s2


def test_witness_mismatch_detected():
    w = construct(7)
    broken = FamilyWitness(w.p, w.k, w.trade,
                           ((2, 1, 5), (2, 3, 3), (3, 1, 3), (3, 3, 6)))
    with pytest.raises(ValueError):
        intercalate_witness(broken)


def _intercalate_reference(w: FamilyWitness) -> tuple:
    """intercalate_witness on the dense traded square: apply the trade,
    read the cells and compare all p^2 pairs against B_p(k)."""
    applied = apply_trade(w.trade)
    for r, c, s in w.intercalate:
        if applied[r, c] != s:
            raise ValueError(f"cell ({r},{c}) holds {applied[r, c]}, expected {s}")
    (r1, c1, s1), (_, c2, s2), (r2, _, _), _ = w.intercalate
    if not (s1 != s2 and applied[r1, c1] == applied[r2, c2] == s1
            and applied[r1, c2] == applied[r2, c1] == s2):
        raise ValueError("witness cells do not form an intercalate")
    if not are_orthogonal(applied, gen_bp(w.p, w.k)):
        raise ValueError("traded square lost orthogonality")
    return w.intercalate


@pytest.mark.parametrize("p", [p for p in primes_up_to(211) if p % 6 == 1])
def test_intercalate_matches_dense_reference(p):
    w = construct(p)
    assert intercalate_witness(w) == _intercalate_reference(w)


@pytest.mark.parametrize("p", [7, 13, 31])
def test_witness_with_other_index_rejected(p):
    # the same entries labelled with the other root 1 - k of k^2 - k + 1
    w = construct(p)
    t = TradePair(p, 1, (1 - w.k) % p, w.trade.array)
    with pytest.raises(ValueError, match="index"):
        intercalate_witness(FamilyWitness(p, w.k, t, w.intercalate))


@pytest.mark.parametrize("p", [7, 13, 31])
def test_witness_with_changed_mate_rejected(p):
    w = construct(p)
    a = w.trade.array.copy()
    a[5, 3] = (a[5, 3] + 1) % p
    if a[5, 3] == a[5, 2]:
        a[5, 3] = (a[5, 3] + 1) % p
    broken = FamilyWitness(p, w.k, TradePair(p, 1, w.k, a), w.intercalate)
    for check in (_intercalate_reference, intercalate_witness):
        with pytest.raises(ValueError):
            check(broken)


def test_witness_cell_outside_square_rejected():
    # (r - 1, c + p) has the code of (r, c) in the row-major entries
    w = construct(13)
    moved = tuple((r - 1, c + 13, s) for r, c, s in w.intercalate)
    broken = FamilyWitness(13, w.k, w.trade, moved)
    with pytest.raises(ValueError, match="leave the square"):
        intercalate_witness(broken)
