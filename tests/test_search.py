import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest

from bptrades.cli import run
from bptrades.core import LatinSquare, gen_bp, is_transversal, orthomorphism_check
from bptrades.matrices import size_bounds
from bptrades.rowperm import rowperm_orthogonal
from bptrades.search import (
    SPECTRUM_P_MAX,
    TRANSVERSAL_CAP,
    BudgetExpired,
    _certificate,
    _cover_search,
    _cover_tables,
    _labeling_table,
    _labels,
    _off_anti_peak,
    _root_representatives,
    _sigma_search,
    _transversal_columns,
    admissible_mates,
    count_transversals,
    diagonal_histogram,
    enumerate_orthomorphisms,
    enumerate_transversals,
    min_distance_from_linear,
    rowperm_sizes,
    spectrum,
    spectrum_all,
)
from bptrades.trades import TradePair, validate_orthogonal_trade

# Transversal counts of the cyclic table, frozen; equal to n times the
# complete-mapping count of Z_n.
CYCLIC_COUNTS = {5: 15, 7: 133, 9: 2025, 11: 37851, 13: 1030367}

DIAG_HIST = {
    5: {0: 4, 1: 10, 5: 1},
    7: {0: 48, 1: 42, 2: 42, 7: 1},
    11: {0: 14860, 1: 12826, 2: 6930, 3: 2090, 4: 880, 5: 220, 6: 44, 11: 1},
    13: {0: 392352, 1: 369200, 2: 178152, 3: 65520, 4: 19084, 5: 4758, 6: 936,
         7: 364, 13: 1},
}

S5 = frozenset({0, 10, 15, 20, 25})
S7 = frozenset({0, 14, 18, 21}) | frozenset(range(24, 50))
S9 = frozenset({0, 6, 9, 12, 15, 16}) | frozenset(range(18, 82))
S11_TARGETS = frozenset({0, 22, 33}) | frozenset(range(36, 122))
# g, the largest agreement of a transversal of B_p(k) other than an
# anti-diagonal with one label, per admissible k
OFF_ANTI_PEAKS = {
    5: {2: 1, 3: 1, 4: 1},
    7: {2: 2, 3: 4, 4: 2, 5: 4, 6: 2},
    9: {2: 6, 5: 6, 8: 6},
}
SPECTRUM_9_8_SHA256 = "25aa71fba0604b9c051dde41661dcda12658f56d018c724baec28cd82ff93523"

MIN_DIST = {
    5: {2: 4, 3: 4, 4: 4},
    7: {2: 5, 3: 3, 4: 5, 5: 3, 6: 5},
    11: {k: 5 for k in range(2, 11)},
}


# -- oracles ----------------------------------------------------------------


def _brute_transversals(L):
    # every permutation of columns, filtered; independent of the search module
    p = L.order
    found = set()
    for cols in itertools.permutations(range(p)):
        if len({L[r, cols[r]] for r in range(p)}) == p:
            found.add(tuple((r, cols[r]) for r in range(p)))
    return found


def _rotation_min(mask, p):
    best, m = mask, mask
    for _ in range(p - 1):
        m = (m >> 1) | ((m & 1) << (p - 1))
        best = min(best, m)
    return best


def _circulant_permanent(p, smask, subsets, sizes):
    # Ryser over column subsets; int64 throughout keeps every term exact
    M = np.zeros((p, p), dtype=np.int64)
    for r in range(p):
        for c in range(p):
            if (smask >> ((r + c) % p)) & 1:
                M[r, c] = 1
    prods = np.prod(subsets @ M.T, axis=1)
    signs = np.where(sizes % 2 == 0, 1, -1) * (-1) ** p
    return int(np.sum(signs * prods))


def _count_oracle(p):
    # inclusion-exclusion over the symbol sets a column permutation may
    # hit: the transversal count is sum over S of (-1)^(p-|S|) times the
    # permanent of the 0/1 circulant selecting symbols in S
    subsets = np.array(
        [[(mask >> j) & 1 for j in range(p)] for mask in range(1 << p)],
        dtype=np.int64,
    )
    sizes = subsets.sum(axis=1)
    memo = {}
    total = 0
    for smask in range(1 << p):
        key = _rotation_min(smask, p)
        if key not in memo:
            memo[key] = _circulant_permanent(p, key, subsets, sizes)
        total += (-1) ** (p - int(sizes[smask])) * memo[key]
    return total


# -- reference loops ------------------------------------------------------------
# The row-by-row searches the bitset kernel replaced: every row tries all
# p values against used-value and used-symbol masks.  Kept as references
# for order as well as content.


def _ref_transversals(L):
    p = L.order
    grid = [L.row(r) for r in range(p)]
    cols = [0] * p

    def rec(r, used_c, used_s):
        if r == p:
            yield tuple(cols)
            return
        for c in range(p):
            if (used_c >> c) & 1 or (used_s >> grid[r][c]) & 1:
                continue
            cols[r] = c
            yield from rec(r + 1, used_c | (1 << c), used_s | (1 << grid[r][c]))

    yield from rec(0, 0, 0)


def _ref_orthomorphisms(p):
    images = [0] * p

    def rec(x, used, used_d):
        if x == p:
            yield tuple(images)
            return
        for v in range(p):
            d = (v - x) % p
            if (used >> v) & 1 or (used_d >> d) & 1:
                continue
            images[x] = v
            yield from rec(x + 1, used | (1 << v), used_d | (1 << d))

    yield from rec(0, 0, 0)


def _ref_sigma_records(p, ks):
    sigma = [0] * p
    sigma[0] = 1
    dmasks = [1 << ((-1) % p) for _ in ks]
    records = []

    def rec(r, used, moved):
        if r == p:
            records.append((moved, tuple(sigma)))
            return
        for v in range(p):
            if (used >> v) & 1:
                continue
            if any((dmasks[i] >> ((k * r - v) % p)) & 1 for i, k in enumerate(ks)):
                continue
            bits = [1 << ((k * r - v) % p) for k in ks]
            for i, b in enumerate(bits):
                dmasks[i] |= b
            sigma[r] = v
            rec(r + 1, used | (1 << v), moved + (v != r))
            for i, b in enumerate(bits):
                dmasks[i] ^= b

    rec(1, 2, 1)
    return records


def _ref_root_representatives(p, k, masks):
    # orbits over all transversals, as cell sets under single-step maps
    def cells(m):
        return [divmod(i, p) for i in range(p * p) if (m >> i) & 1]

    def mask(cs):
        return sum(1 << (r * p + c) for r, c in cs)

    units = [a for a in range(2, p) if math.gcd(a, p) == 1]
    transpose = pow(k, 2, p) == 1
    index = {m: i for i, m in enumerate(masks)}
    seen = set()
    reps = set()
    for start in masks:
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            cs = cells(frontier.pop())
            images = [mask(((r + 1) % p, c) for r, c in cs),
                      mask((r, (c + 1) % p) for r, c in cs)]
            images += [mask((a * r % p, a * c % p) for r, c in cs) for a in units]
            if transpose:
                images.append(mask((c, r) for r, c in cs))
            for im in images:
                if im not in orbit:
                    orbit.add(im)
                    frontier.append(im)
        seen |= orbit
        reps.add(index[min(m for m in orbit if m & 1)])
    return reps


def _ref_cover_tables(p, k):
    # the spectrum tables as built from every transversal: masks in
    # enumeration order, each cell's list and the roots sorted by rank,
    # which puts the anti-diagonals first
    masks = [sum(1 << (r * p + c) for r, c in enumerate(cols))
             for cols in _ref_transversals(gen_bp(p, k))]
    diagonals = {sum(1 << (r * p + (s - r) % p) for r in range(p)) for s in range(p)}
    order = sorted(range(len(masks)), key=lambda i: (masks[i] not in diagonals, i))
    rank = {i: n for n, i in enumerate(order)}
    by_cell = [[] for _ in range(p * p)]
    for i, m in enumerate(masks):
        mm = m
        while mm:
            low = mm & -mm
            by_cell[low.bit_length() - 1].append(i)
            mm ^= low
    for cell in range(p * p):
        by_cell[cell].sort(key=rank.__getitem__)
    roots = sorted(_ref_root_representatives(p, k, masks), key=rank.__getitem__)
    return masks, by_cell, roots


def _ref_diagonal_histogram(p):
    # every transversal through (0, 0) stands for its p column shifts,
    # which hit the diagonal delta(v) times for each residue v
    hist = {}
    for cols in _transversal_columns(gen_bp(p, 1), (0,)):
        delta = [0] * p
        for r, c in enumerate(cols):
            delta[(c - r) % p] += 1
        for hits in delta:
            hist[hits] = hist.get(hits, 0) + 1
    return dict(sorted(hist.items()))


def _ref_agreement_vector(p, mask):
    # a[s] = number of cells (r, c) in the transversal with r + c = s
    a = [0] * p
    m = mask
    while m:
        low = m & -m
        r, c = divmod(low.bit_length() - 1, p)
        a[(r + c) % p] += 1
        m ^= low
    return tuple(a)


def _ref_cover_search(p, k, masks, by_cell, roots, deadline, targets):
    # the cover search before branch and bound: every exact cover from
    # every root is visited and labeled
    full = (1 << (p * p)) - 1
    sizes = set()
    certificates = {}
    chosen = []
    vector_of = {}
    dp_memo = {}
    counter = 0

    def vector(i):
        vec = vector_of.get(i)
        if vec is None:
            vec = vector_of[i] = _ref_agreement_vector(p, masks[i])
        return vec

    def handle_cover():
        vectors = [vector(i) for i in chosen]
        key = tuple(sorted(vectors))
        table = None
        sums = dp_memo.get(key)
        if sums is None:
            table = _labeling_table(p, vectors)
            sums = dp_memo[key] = table[-1]
        bits = sums
        agreement = 0
        while bits:
            if bits & 1:
                size = p * p - agreement
                if size not in sizes:
                    sizes.add(size)
                    if table is None:
                        table = _labeling_table(p, vectors)
                    labels = _labels(p, vectors, table, agreement)
                    certificates[size] = _certificate(
                        p, k, [masks[i] for i in chosen], labels)
            bits >>= 1
            agreement += 1

    def done():
        return targets is not None and targets <= sizes

    def rec(used):
        nonlocal counter
        counter += 1
        if counter % 2048 == 0 and deadline is not None:
            if time.monotonic() > deadline:
                raise BudgetExpired
        if used == full:
            handle_cover()
            return done()
        pivot = ((~used) & (used + 1)).bit_length() - 1
        for i in by_cell[pivot]:
            m = masks[i]
            if m & used:
                continue
            chosen.append(i)
            stop = rec(used | m)
            chosen.pop()
            if stop:
                return True
        return False

    try:
        for root in roots:
            chosen.append(root)
            if rec(masks[root]):
                return sizes, certificates, False
            chosen.pop()
    except BudgetExpired:
        return sizes, certificates, False
    return sizes, certificates, True


def _ref_rowperm_witnesses(p, mates):
    # the first sigma of each moved-row count over every record of the
    # reference loop, mate sets in the order rowperm_sizes takes them
    witnesses = {}
    seen = set()
    for K in itertools.combinations(range(2, p), mates):
        inv = tuple(sorted(pow(k, -1, p) for k in K))
        if min(K, inv) in seen:
            continue
        seen.add(K)
        for m, sigma in _ref_sigma_records(p, K):
            witnesses.setdefault(m, (sigma, K))
    return list(witnesses.items())


@pytest.mark.parametrize("p", [5, 7, 9])
def test_transversals_match_reference_loop(p):
    for k in (k for k in range(1, p) if math.gcd(k, p) == 1):
        L = gen_bp(p, k)
        want = list(_ref_transversals(L))
        got = [tuple(c for _, c in t.cells) for t in enumerate_transversals(L)]
        assert got == want
        assert count_transversals(L) == len(want)


@pytest.mark.parametrize("p", [5, 7, 9])
def test_orthomorphisms_match_reference_loop(p):
    got = [om.images for om in enumerate_orthomorphisms(p)]
    assert got == list(_ref_orthomorphisms(p))


@pytest.mark.parametrize("p", [5, 7, 9])
def test_sigma_search_matches_reference_loop(p):
    mates = [k for k in range(2, p) if math.gcd(k, p) == 1]
    for K in [(k,) for k in mates] + list(itertools.combinations(mates, 2))[:6]:
        records = []
        _sigma_search(p, K, lambda m, sigma: records.append((m, tuple(sigma))), None)
        assert records == _ref_sigma_records(p, K), K


@pytest.mark.parametrize("p", [5, 7, 9])
def test_root_representatives_match_reference(p):
    for k in admissible_mates(p):
        columns = list(_ref_transversals(gen_bp(p, k)))
        masks = [sum(1 << (r * p + c) for r, c in enumerate(cols)) for cols in columns]
        got = _root_representatives(p, k, [cols for cols in columns if not cols[0]])
        assert len(got) == len(set(got))
        assert set(got) == _ref_root_representatives(p, k, masks)


@pytest.mark.parametrize("p", [5, 7, 9])
def test_cover_tables_match_full_enumeration(p):
    for k in admissible_mates(p):
        assert _cover_tables(p, k) == _ref_cover_tables(p, k), k


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_histogram_matches_column_shift_reference(p):
    assert diagonal_histogram(p) == _ref_diagonal_histogram(p)


def test_generic_squares_go_down_the_symbol_test_path():
    # the Klein four-group table: rows are not cyclic shifts, and the
    # column shift is no symbol permutation, so nothing is pinned
    klein = LatinSquare([[r ^ c for c in range(4)] for r in range(4)])
    got = {t.cells for t in enumerate_transversals(klein)}
    assert got == _brute_transversals(klein)
    assert len(got) == count_transversals(klein) == 8
    # here pinning would be wrong: one of the three transversals is
    # through (0, 0), not three fifths of one
    L = LatinSquare([[0, 1, 2, 3, 4], [1, 2, 3, 4, 0], [2, 0, 4, 1, 3],
                     [3, 4, 0, 2, 1], [4, 3, 1, 0, 2]])
    got = [t.cells for t in enumerate_transversals(L)]
    assert got == sorted(_brute_transversals(L))
    assert count_transversals(L) == 3


def test_relabeled_cyclic_square_counts_through_the_pinned_path():
    # B_7(3) with its symbols permuted: not cyclic rows, but the column
    # shift still acts as one symbol permutation
    relabel = [3, 6, 0, 5, 1, 4, 2]
    L = gen_bp(7, 3)
    M = LatinSquare([[relabel[x] for x in L.row(r)] for r in range(7)])
    assert [t.cells for t in enumerate_transversals(M)] == [
        t.cells for t in enumerate_transversals(L)]
    assert count_transversals(M) == CYCLIC_COUNTS[7]


def _spectrum_outputs(res):
    # everything a spectrum result reports, certificates as their bytes
    certificates = [(size, cert.to_json()) for size, cert in res.certificates.items()]
    return res.sizes, res.per_k, res.exhaustive, res.via_duality, certificates


def _with_and_without_bound(monkeypatch, search):
    pruned = _spectrum_outputs(search())
    with monkeypatch.context() as patch:
        patch.setattr("bptrades.search._cover_search", _ref_cover_search)
        unpruned = _spectrum_outputs(search())
    return pruned, unpruned


@pytest.mark.parametrize("p", [5, 7])
def test_spectrum_bound_matches_unpruned_search(monkeypatch, p):
    for k in admissible_mates(p):
        pruned, unpruned = _with_and_without_bound(monkeypatch, lambda: spectrum(p, k))
        assert pruned == unpruned, k
        assert pruned[2]
    pruned, unpruned = _with_and_without_bound(monkeypatch, lambda: spectrum_all(p))
    assert pruned == unpruned


def test_targeted_spectrum_bound_matches_unpruned_search(monkeypatch):
    for targets in (S9, S9 - {6, 9, 12, 15, 16}):
        for k in admissible_mates(9):
            pruned, unpruned = _with_and_without_bound(
                monkeypatch, lambda: spectrum(9, k, targets=targets))
            assert pruned == unpruned, k
    pruned, unpruned = _with_and_without_bound(
        monkeypatch, lambda: spectrum_all(11, targets=S11_TARGETS))
    assert pruned == unpruned


def _parts_instance(p, covers):
    # an exact-cover instance of order p from agreement vectors: each
    # cover lists, per part, its number of cells on each anti-diagonal,
    # and its parts take those cells in turn
    anti = [[(r, (s - r) % p) for r in range(p)] for s in range(p)]
    masks = []
    for vectors in covers:
        taken = [0] * p
        for vec in vectors:
            cells = [cell for s, n in enumerate(vec) for cell in anti[s][taken[s]:taken[s] + n]]
            masks.append(sum(1 << (r * p + c) for r, c in cells))
            taken = [t + n for t, n in zip(taken, vec)]
    by_cell = [[i for i, m in enumerate(masks) if m >> cell & 1] for cell in range(p * p)]
    return masks, by_cell


def test_cover_bound_keeps_a_cover_that_meets_it():
    # an order-3 exact-cover instance built from agreement vectors (row
    # i of a matrix: cells of one part on each anti-diagonal).  The
    # anti-diagonals give agreements {0, 3, 9} and the second cover
    # {1, 2, 4, 5}; the third reaches 6 only with every part at its
    # maximum, 2 + 2 + 2, so its bound equals the lowest agreement still
    # missing and a bound one too tight loses size 3
    p = 3
    masks, by_cell = _parts_instance(p, (
        ((3, 0, 0), (0, 3, 0), (0, 0, 3)),
        ((0, 1, 2), (1, 1, 1), (2, 1, 0)),
        ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
    ))
    roots = [0, 3, 6]
    pruned = _cover_search(p, 2, masks, by_cell, roots, None, None)
    unpruned = _ref_cover_search(p, 2, masks, by_cell, roots, None, None)
    assert pruned[0] == unpruned[0] == {0, 3, 4, 5, 6, 7, 8, 9}
    assert [(size, cert.to_json()) for size, cert in pruned[1].items()] == [
        (size, cert.to_json()) for size, cert in unpruned[1].items()]
    assert pruned[2] and unpruned[2]


def test_anti_diagonal_allowance_keeps_a_cover_that_meets_it():
    # the order-3 instance above plus a fourth cover: anti-diagonal 1 and
    # two parts X = (2, 0, 1), Y = (1, 0, 2) on the cells of the other
    # two.  Its best labeling agrees in 2 + 3 + 2 = 7 cells.  The root X
    # comes last, when every agreement up to 6 is found: with anti-
    # diagonal 1 still free and two transversals to place, the bound is
    # 2 + 3 + 2 = 7, exactly the lowest agreement still missing.  A bound
    # with g - 1, or with the free anti-diagonal counted as met, loses
    # size 2
    p = 3
    masks, by_cell = _parts_instance(p, (
        ((3, 0, 0), (0, 3, 0), (0, 0, 3)),
        ((0, 1, 2), (1, 1, 1), (2, 1, 0)),
        ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
        ((2, 0, 1), (0, 3, 0), (1, 0, 2)),
    ))
    roots = [0, 3, 9]
    assert _off_anti_peak(p, masks, roots) == 2
    pruned = _cover_search(p, 2, masks, by_cell, roots, None, None)
    unpruned = _ref_cover_search(p, 2, masks, by_cell, roots, None, None)
    assert pruned[0] == unpruned[0] == {0, 2, 3, 4, 5, 6, 7, 8, 9}
    assert [(size, cert.to_json()) for size, cert in pruned[1].items()] == [
        (size, cert.to_json()) for size, cert in unpruned[1].items()]
    assert pruned[2] and unpruned[2]


@pytest.mark.parametrize("p", [5, 7, 9])
def test_off_anti_peak_read_off_the_roots(p):
    # g from the orbit roots equals the largest peak over every
    # transversal other than an anti-diagonal
    got = {}
    for k in admissible_mates(p):
        masks, _, roots = _cover_tables(p, k)
        peaks = [max(_ref_agreement_vector(p, m)) for m in masks]
        g = _off_anti_peak(p, masks, roots)
        assert g == max(t for t in peaks if t < p), k
        got[k] = g
    assert got == OFF_ANTI_PEAKS[p]


def test_spectrum_order_nine_certificates_pinned():
    # sha256 of the 70 certificates of the exhaustive spectrum(9, 8), as
    # the unpruned cover search found them (about 100 s); the bound
    # leaves the first certificate of every size where it was
    res = spectrum(9, 8)
    assert res.exhaustive
    assert res.sizes == S9
    digest = hashlib.sha256()
    for cert in res.certificates.values():
        digest.update(cert.to_json().encode() + b"\n")
    assert digest.hexdigest() == SPECTRUM_9_8_SHA256


@pytest.mark.parametrize("mates", range(1, 6))
@pytest.mark.parametrize("p", [5, 7, 11])
def test_rowperm_witnesses_match_reference(p, mates):
    res = rowperm_sizes(p, mates)
    got = [(m, sigma.images, ks) for m, (sigma, ks) in res.witnesses.items()]
    assert got == [(m, sigma, ks) for m, (sigma, ks) in _ref_rowperm_witnesses(p, mates)]
    assert res.exhaustive


def test_spectrum_json_pinned(capsys):
    # sha256 of `bptrades search spectrum --p 7` as the row-by-row search
    # printed it, with the timing field budget_used zeroed
    assert run(["search", "spectrum", "--p", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["budget_used"] = 0
    digest = hashlib.sha256((json.dumps(doc) + "\n").encode()).hexdigest()
    assert digest == "51f68a29c03beef1bc4cf270eca0cd3b91c3de83e9afdd60e7fb8898aeb06787"


# -- transversal enumeration -------------------------------------------------


@pytest.mark.parametrize("p", [5, 7])
def test_enumeration_matches_brute_force(p):
    L = gen_bp(p, 1)
    got = {t.cells for t in enumerate_transversals(L)}
    assert got == _brute_transversals(L)


@pytest.mark.parametrize("p,want", [(5, 15), (7, 133), (9, 2025), (11, 37851)])
def test_cyclic_counts(p, want):
    assert count_transversals(gen_bp(p, 1)) == want


def test_count_matches_enumeration():
    L = gen_bp(7, 3)
    assert count_transversals(L) == sum(1 for _ in enumerate_transversals(L))


@pytest.mark.parametrize("p,want", [(5, 15), (7, 133), (11, 37851)])
def test_count_oracle_agrees(p, want):
    assert _count_oracle(p) == want
    assert count_transversals(gen_bp(p, 1)) == want


def test_row_scaled_square_has_same_count():
    # B_9(2) is a row permutation of B_9(1)
    assert count_transversals(gen_bp(9, 2)) == CYCLIC_COUNTS[9]


def test_enumeration_is_lexicographic_and_valid():
    L = gen_bp(7, 1)
    cols = []
    for t in enumerate_transversals(L):
        assert is_transversal(L, t)
        cols.append(tuple(c for _, c in t.cells))
    assert cols == sorted(cols)
    assert cols[0] == (0, 1, 2, 3, 4, 5, 6)


def test_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        list(enumerate_transversals(gen_bp(17, 1)))
    with pytest.raises(ValueError, match="cap"):
        count_transversals(gen_bp(17, 1))
    assert TRANSVERSAL_CAP == 13


def test_force_overrides_cap(monkeypatch):
    monkeypatch.setattr("bptrades.search.TRANSVERSAL_CAP", 3)
    with pytest.raises(ValueError, match="cap"):
        diagonal_histogram(5)
    assert diagonal_histogram(5, force=True) == DIAG_HIST[5]
    with pytest.raises(ValueError, match="cap"):
        min_distance_from_linear(5, 2)
    assert min_distance_from_linear(5, 2, force=True) == 4
    assert count_transversals(gen_bp(5, 1), force=True) == CYCLIC_COUNTS[5]


# -- diagonal histograms ------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_diagonal_histogram_frozen(p):
    assert diagonal_histogram(p) == DIAG_HIST[p]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_histogram_mass_is_transversal_count(p):
    assert sum(diagonal_histogram(p).values()) == CYCLIC_COUNTS[p]


def test_histogram_rejects_a_non_integral_total(monkeypatch):
    # a pinned list with delta values (3, 2) would stand for 20/8
    # transversals with 3 hits, which no orbit can
    monkeypatch.setattr(
        "bptrades.search._backtrack", lambda *args, **kwargs: iter([[0, 1, 2, 4, 0]]))
    with pytest.raises(RuntimeError, match="not integral"):
        diagonal_histogram(5)


def test_histogram_via_brute_force():
    L = gen_bp(7, 1)
    hist = {}
    for cells in _brute_transversals(L):
        hits = sum(1 for r, c in cells if r == c)
        hist[hits] = hist.get(hits, 0) + 1
    assert hist == DIAG_HIST[7]


def test_main_diagonal_is_the_unique_full_hit():
    for p in (5, 7, 11):
        assert diagonal_histogram(p)[p] == 1


def test_near_diagonal_gap():
    # no transversal meets the diagonal in p-1, p-2, or p-3 cells
    hist = diagonal_histogram(7)
    assert not {4, 5, 6} & set(hist)
    cutoff = 11 - math.log2(11) - 1
    assert all(key == 11 or key <= cutoff for key in diagonal_histogram(11))


def test_histogram_requires_prime():
    with pytest.raises(ValueError, match="prime"):
        diagonal_histogram(9)


# -- spectra ------------------------------------------------------------------


def test_admissible_mates():
    assert admissible_mates(5) == (2, 3, 4)
    assert admissible_mates(9) == (2, 5, 8)
    assert admissible_mates(11) == tuple(range(2, 11))


def test_spectrum_rejects_bad_k():
    with pytest.raises(ValueError, match="admissible"):
        spectrum(7, 1)
    with pytest.raises(ValueError, match="admissible"):
        spectrum(9, 3)
    with pytest.raises(ValueError, match="admissible"):
        spectrum(9, 4)


def test_spectrum_order_five_exact():
    res = spectrum_all(5)
    assert res.sizes == S5
    assert res.exhaustive
    assert set(res.per_k) == {2, 3, 4}
    assert all(v == S5 for v in res.per_k.values())
    assert res.via_duality == (3,)


def test_spectrum_order_seven_exact():
    res = spectrum_all(7)
    assert res.sizes == S7
    assert res.exhaustive
    assert res.per_k[3] == res.per_k[5]
    assert res.per_k[2] == res.per_k[4]


def test_order_seven_eighteen_needs_k_three():
    res = spectrum_all(7)
    assert 18 in res.per_k[3]
    assert 18 not in res.per_k[2]
    assert 18 not in res.per_k[6]


def test_spectrum_duality_by_direct_computation():
    assert spectrum(7, 3).sizes == spectrum(7, 5).sizes
    assert spectrum(5, 2).sizes == spectrum(5, 3).sizes


def test_zero_and_full_always_present():
    res = spectrum(7, 2)
    assert 0 in res.sizes
    assert 49 in res.sizes


def test_certificates_validate_and_round_trip():
    res = spectrum_all(7)
    assert set(res.certificates) == set(res.sizes)
    for size, trade in res.certificates.items():
        report = validate_orthogonal_trade(trade)
        assert report and report.size == size
        again = TradePair.from_json(trade.to_json())
        assert again == trade
        assert validate_orthogonal_trade(again)


def assert_sizes_clear_lower_bound(res):
    # the closed-form size bound comes from |T| > ln(p) * x / ln(x) at
    # x = average symbol occurrences; x is at least max(3, log_K p + 1),
    # and the closed form replaces that by log_K p, which only stays
    # below the honest floor while log_K p >= e.  Outside that regime
    # the closed form exceeds genuine sizes (k = p-1 gives 25.6 > 14 for
    # p = 7), so it is asserted only where the derivation supports it.
    p = res.p
    for k, sizes in res.per_k.items():
        b = size_bounds(p, k)
        x0 = max(3.0, b.symbol_lb)
        floor = math.log(p) * x0 / math.log(x0)
        if math.log(p) / math.log(b.K) >= math.e:
            floor = max(floor, b.trade_lb)
        assert all(s > floor for s in sizes if s), k


def test_nonzero_sizes_clear_lower_bound():
    # p = 11 is checked on its proved spectrum, in the opt-in slow suite
    for p in (5, 7):
        assert_sizes_clear_lower_bound(spectrum_all(p))


def test_spectrum_budget_expiry_is_partial():
    res = spectrum(11, 2, budget=0.05)
    assert not res.exhaustive
    assert res.sizes <= frozenset(range(0, 122))
    assert res.budget_used < 5


def test_spectrum_budget_bounds_the_enumeration(capsys):
    # B_17(2) has far too many transversals to enumerate in half a
    # second; the budget stops the enumeration and the result keeps the
    # symbol swaps, which need no search
    res = spectrum(17, 2, budget=0.5)
    assert not res.exhaustive
    assert res.budget_used < 5
    assert res.sizes == {0} | {17 * m for m in range(2, 18)}
    for size, trade in res.certificates.items():
        report = validate_orthogonal_trade(trade)
        assert report and report.size == size
    assert run(["search", "spectrum", "--p", "17", "--k", "2", "--budget", "0.5"]) == 3
    assert json.loads(capsys.readouterr().out)["exhaustive"] is False


def test_spectrum_requires_budget_above_cap(capsys, monkeypatch):
    # without a budget B_17 would be enumerated until memory runs out;
    # the refusal must come before any enumeration starts
    def enumerate_covers(*args):
        raise AssertionError("the cover tables were built")

    monkeypatch.setattr("bptrades.search._cover_tables", enumerate_covers)
    for search in (lambda: spectrum(17, 2), lambda: spectrum_all(17)):
        with pytest.raises(ValueError, match="budget is required above the cap"):
            search()
    assert run(["search", "spectrum", "--p", "17"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "budget is required above the cap" in err


def test_spectrum_bounds_checked_before_listing_mates(capsys, monkeypatch):
    # listing the admissible mates of p = 4,000,037 took 6.5 s and 204 MB
    # only to refuse it; the mate check is two gcds
    def admissible_mates(p):
        raise AssertionError("the admissible mates were listed")

    monkeypatch.setattr("bptrades.search.admissible_mates", admissible_mates)
    with pytest.raises(ValueError, match="budget is required above the cap"):
        spectrum_all(17)
    huge = 4_000_037
    for search in (lambda: spectrum(huge, 2, budget=1.0), lambda: spectrum_all(huge, budget=1.0)):
        with pytest.raises(ValueError, match=f"p={huge} above the spectrum ceiling 31"):
            search()
    with pytest.raises(ValueError, match="admissible"):
        spectrum(9, 4)
    assert spectrum(5, 2).sizes == S5
    assert run(["search", "spectrum", "--p", str(SPECTRUM_P_MAX + 2), "--budget", "1"]) == 2
    assert "above the spectrum ceiling" in capsys.readouterr().err
    # at the ceiling itself the budget runs out and the symbol swaps stand
    res = spectrum(SPECTRUM_P_MAX, 2, budget=0.0)
    assert res.sizes == {0} | {SPECTRUM_P_MAX * m for m in range(2, SPECTRUM_P_MAX + 1)}


@pytest.mark.parametrize("budget", [math.nan, math.inf, -1.0])
def test_budget_must_be_finite_and_non_negative(budget):
    # a NaN deadline never compares as passed, so it lifted the cap on p
    # without ever stopping the search
    for search in (lambda: spectrum(5, 2, budget=budget),
                   lambda: spectrum_all(5, budget=budget),
                   lambda: rowperm_sizes(5, 1, budget=budget)):
        with pytest.raises(ValueError, match="finite number of seconds"):
            search()


def test_spectrum_targets_stop_early():
    targets = frozenset({0, 22, 33})
    res = spectrum(11, 2, targets=targets)
    assert targets <= res.sizes
    assert not res.exhaustive
    for size in targets:
        report = validate_orthogonal_trade(res.certificates[size])
        assert report and report.size == size


def test_symbol_swap_sizes_surface_first():
    # relabeling m symbols of the base square is an orthogonal trade of
    # size m*p for every admissible k; those come out of the first cover
    res = spectrum(11, 2, targets=frozenset({0, 22, 33}))
    multiples = {11 * m for m in range(2, 12)} | {0}
    assert multiples <= res.sizes


def test_spectrum_all_order_nine_slow_marker():
    # full order-9 union is exercised in the acceptance suite; here only
    # the plumbing: a tight budget must still report honest partiality
    # (the exhaust takes about 0.4 s, so 0.02 s stops it)
    res = spectrum_all(9, budget=0.02)
    assert not res.exhaustive
    assert {0, 81} <= res.sizes


# -- row-permutation searches -------------------------------------------------


FULL_M = {
    (5, 1): {4, 5},
    (7, 1): {3, 5, 6, 7},
    (11, 1): set(range(5, 12)),
    (5, 2): {4, 5},
    (7, 2): {6, 7},
    (11, 2): {5, 6, 8, 9, 10, 11},
}


@pytest.mark.parametrize("p,mates", sorted(FULL_M))
def test_rowperm_m_sets_frozen(p, mates):
    res = rowperm_sizes(p, mates)
    assert res.m_values == frozenset(FULL_M[p, mates])
    assert res.exhaustive


def test_rowperm_nontrivial_views():
    assert rowperm_sizes(11, 3).nontrivial_m == {5, 9}
    assert rowperm_sizes(11, 5).nontrivial_m == frozenset()


def test_rowperm_witnesses_check_out():
    res = rowperm_sizes(11, 2)
    for m, (sigma, ks) in res.witnesses.items():
        assert len(sigma.support) == m
        assert len(ks) == 2
        assert rowperm_orthogonal(sigma, set(ks))
        low = min(min(k, pow(k, -1, 11)) for k in ks)
        assert m > math.log(11) / math.log(low)


def test_rowperm_shift_always_present():
    for p in (5, 7, 11):
        for mates in (1, 2):
            assert p in rowperm_sizes(p, mates).m_values


def test_rowperm_rejects_bad_input():
    with pytest.raises(ValueError, match="prime"):
        rowperm_sizes(9, 1)
    with pytest.raises(ValueError, match="cap"):
        rowperm_sizes(17, 1)
    with pytest.raises(ValueError, match="mates"):
        rowperm_sizes(7, 0)
    with pytest.raises(ValueError, match="mates"):
        rowperm_sizes(7, 6)


def test_rowperm_rejects_a_witness_that_fails_the_check(monkeypatch):
    monkeypatch.setattr("bptrades.search.rowperm_orthogonal", lambda sigma, ks: False)
    with pytest.raises(RuntimeError, match="does not preserve"):
        rowperm_sizes(5, 1)


def test_rowperm_budget_expiry():
    # the pruned walk of (13, 1) takes milliseconds, so only a spent
    # budget stops it: the deadline is checked before each mate set
    res = rowperm_sizes(13, 1, budget=0)
    assert not res.exhaustive


# -- orthomorphisms -----------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7])
def test_orthomorphism_count_equals_transversal_count(p):
    oms = list(enumerate_orthomorphisms(p))
    assert len(oms) == CYCLIC_COUNTS[p]
    for om in oms:
        assert orthomorphism_check(om)


def test_orthomorphism_enumeration_is_lexicographic():
    images = [om.images for om in enumerate_orthomorphisms(5)]
    assert images == sorted(images)


def test_orthomorphism_cap():
    with pytest.raises(ValueError, match="cap"):
        list(enumerate_orthomorphisms(17))


@pytest.mark.parametrize("p", [5, 7, 11])
def test_min_distances_frozen(p):
    for k in range(2, p):
        assert min_distance_from_linear(p, k) == MIN_DIST[p][k]


def test_min_distance_by_brute_force():
    # order 7: compare against a direct scan of all 133 orthomorphisms
    # and all linear maps
    for k in (2, 3, 6):
        best = 7
        for om in enumerate_orthomorphisms(7):
            d = sum(1 for x in range(7) if om.images[x] != k * x % 7)
            if d:
                best = min(best, d)
        assert best == min_distance_from_linear(7, k) == MIN_DIST[7][k]


def test_min_distance_clears_perm_bound():
    for p in (5, 7, 11):
        for k in range(2, p):
            assert min_distance_from_linear(p, k) > size_bounds(p, k).perm_lb - 1 - 1e-9


def test_min_distance_rejects_bad_input():
    with pytest.raises(ValueError, match="prime"):
        min_distance_from_linear(9, 2)
    with pytest.raises(ValueError, match="out of range"):
        min_distance_from_linear(7, 1)
