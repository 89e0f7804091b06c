"""Exhaustive searches: trade-size spectra, row-permutation support sets,
transversal and orthomorphism enumeration.

Every exhaustive walk runs on one backtracking kernel, ``_backtrack``.
It fills rows in order with distinct values (the columns of a
transversal, the images of an orthomorphism or of a row permutation)
whose symbols must not repeat, and it walks only the free candidates of
each row, lowest first via ``avail & -avail``: the bitset form of the
candidate lists of Knuth's "Dancing Links" (arXiv cs/0011047).  Results
therefore come out in lexicographic order.  Under a cyclic constraint
row r gives value c the symbol (c + t_r) mod n, so the values that
constraint blocks are one right shift, by t_r, of the used-symbol mask
stored twice over (bits s and s + n for each used symbol s).  A general
Latin square instead tests the symbol of each free column.

A Latin square orthogonal to B_p(k) is the same thing as a labeling of a
partition of the p x p grid into p disjoint transversals of B_p(k).  The
spectrum search therefore enumerates such partitions as exact covers by
transversal bitmasks, and factors the p! symbol labelings into a
subset-sum dynamic program over per-transversal agreement vectors
(agreement of transversal tau with label s = number of cells (r, c) of
tau with r + c = s).  The trade size is p^2 minus the total agreement.

Row-permutation searches and orthomorphism scans cut the space by the
affine conjugation symmetry, which preserves support sizes and per-k
orthogonality; sets of achievable values are unaffected.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import gcd, log2
from operator import getitem, ne

import numpy as np

from bptrades.core import (
    LatinSquare,
    Modulus,
    Orthomorphism,
    Transversal,
    _as_modulus,
    gen_bp,
)
from bptrades.rowperm import RowPermutation, rowperm_orthogonal
from bptrades.trades import TradePair, validate_orthogonal_trade

__all__ = [
    "TRANSVERSAL_CAP",
    "SpectrumResult",
    "RowPermSearchResult",
    "enumerate_transversals",
    "count_transversals",
    "diagonal_histogram",
    "admissible_mates",
    "spectrum",
    "spectrum_all",
    "rowperm_sizes",
    "enumerate_orthomorphisms",
    "min_distance_from_linear",
]

TRANSVERSAL_CAP = 13


class BudgetExpired(Exception):
    """Internal signal: the search deadline passed; partial results stand."""


def _worker_count(threads: "int | None") -> int:
    """Threads for a spectrum search: ``threads``, else MOLS_THREADS,
    else 1; at least 1 and at most the number of CPUs."""
    if threads is None:
        raw = os.environ.get("MOLS_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(f"MOLS_THREADS={raw!r} is not an integer") from None
    return max(1, min(threads, os.cpu_count() or 1))


def _deadline(budget: "float | None") -> "float | None":
    return None if budget is None else time.monotonic() + budget


# -- the kernel ------------------------------------------------------------------


def _backtrack(n, shifts=None, prefix=(), grid=None, deadline=None):
    """Yield every extension of ``prefix`` to a list of n distinct values,
    one per row, in which no symbol repeats; lexicographic order.

    With ``grid``, row r gives value c the symbol grid[r][c].  Otherwise
    each shift t in shifts[r] is a constraint of its own, giving value c
    the symbol (c + t) % n.  The yielded list is reused: copy it to keep
    it.  Raises BudgetExpired once ``deadline`` has passed.
    """
    full = (1 << n) - 1
    if grid is None:
        # constraint i keeps its doubled used-symbol mask in lane i of
        # ``seen``, 2n bits wide; offs[r] holds the per-lane shifts
        width = 2 * n
        offs = [tuple(width * i + t for i, t in enumerate(row)) for row in shifts]
        add = [
            [
                sum((1 << (c + t) % n | 1 << (c + t) % n + n) << width * i
                    for i, t in enumerate(row))
                for c in range(n)
            ]
            for row in shifts
        ]
    else:
        add = [[1 << s for s in row] for row in grid]
    cols = list(prefix) + [0] * (n - len(prefix))
    used = seen = 0
    for r, c in enumerate(prefix):
        used |= 1 << c
        seen |= add[r][c]
    r = start = len(prefix)
    if r == n:
        yield cols
        return
    last = n - 1
    avail_at = [0] * n
    used_at = [0] * n
    seen_at = [0] * n
    nodes = 0
    descend = True
    while True:
        if descend:
            descend = False
            if grid is None:
                blocked = used
                for o in offs[r]:
                    blocked |= seen >> o
                avail = full & ~blocked
            else:
                free = full & ~used
                avail = 0
                row = grid[r]
                while free:
                    low = free & -free
                    free ^= low
                    if not seen >> row[low.bit_length() - 1] & 1:
                        avail |= low
        if avail:
            low = avail & -avail
            avail ^= low
            c = low.bit_length() - 1
            cols[r] = c
            if r == last:
                yield cols
                continue
            if deadline is not None:
                nodes += 1
                if not nodes & 4095 and time.monotonic() > deadline:
                    raise BudgetExpired
            avail_at[r] = avail
            used_at[r] = used
            seen_at[r] = seen
            used |= low
            seen |= add[r][c]
            r += 1
            descend = True
        elif r > start:
            r -= 1
            avail = avail_at[r]
            used = used_at[r]
            seen = seen_at[r]
        else:
            return


# -- transversals ----------------------------------------------------------------


def _check_cap(order: int, force: bool) -> None:
    if order > TRANSVERSAL_CAP and not force:
        raise ValueError(
            f"order {order} above the exhaustive cap {TRANSVERSAL_CAP};"
            " pass force=True to override"
        )


def _transversal_columns(L: LatinSquare, prefix=()):
    """The kernel over L: column lists of the transversals extending
    ``prefix``.  Rows that are cyclic shifts of 0..n-1 take the shift
    test, any other square the symbol test."""
    n = L.order
    cells = L.cells
    if (cells == (cells[:, :1] + np.arange(n)) % n).all():
        return _backtrack(n, [(int(t),) for t in cells[:, 0]], prefix)
    return _backtrack(n, prefix=prefix, grid=[L.row(r) for r in range(n)])


def enumerate_transversals(L: LatinSquare, force: bool = False):
    """Yield every transversal of L exactly once, lexicographic by the
    column chosen in each row."""
    _check_cap(L.order, force)
    p = L.order
    for cols in _transversal_columns(L):
        yield Transversal(p, tuple(enumerate(cols)))


def count_transversals(L: LatinSquare, force: bool = False) -> int:
    """Number of transversals of L, without materializing them.

    When the cells show that shifting every column by one acts as a
    single symbol permutation, that shift permutes the transversals in
    orbits of size n, each with exactly one member through (0, 0); only
    those are counted.
    """
    _check_cap(L.order, force)
    n = L.order
    cells = L.cells
    shifted = np.roll(cells, -1, axis=1)
    perm = np.empty(n, dtype=np.int64)
    perm[cells[0]] = shifted[0]
    if (perm[cells] == shifted).all():
        return n * sum(1 for _ in _transversal_columns(L, (0,)))
    return sum(1 for _ in _transversal_columns(L))


def diagonal_histogram(p: "int | Modulus", force: bool = False) -> dict[int, int]:
    """Histogram of diagonal-hit counts over all transversals of B_p(1).

    Exploits the column-shift symmetry: transversals with column 0 in row
    0 represent each shift orbit once, and the p shifts of a
    representative hit the diagonal delta(v) times for each residue v,
    where delta(v) counts rows with c_r - r = v.  Checks that the only
    keys are p itself or values at most p - log2(p) - 1.
    """
    mod = _as_modulus(p)
    if not mod.prime:
        raise ValueError(f"p={mod.p} must be prime")
    p = mod.p
    _check_cap(p, force)
    hist: Counter = Counter()
    unhit = 0  # shifts of representatives that miss the diagonal
    diff = [[(c - r) % p for c in range(p)] for r in range(p)]
    for cols in _backtrack(p, [(r,) for r in range(p)], (0,)):
        delta = Counter(map(getitem, diff, cols))
        unhit += p - len(delta)
        hist.update(delta.values())
    if unhit:
        hist[0] += unhit
    cutoff = p - log2(p) - 1
    bad = [key for key in hist if key != p and key > cutoff]
    if bad:
        raise AssertionError(f"diagonal-hit keys {bad} violate the gap bound")
    return dict(sorted(hist.items()))


# -- spectra ---------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumResult:
    """Achievable orthogonal-trade sizes, with one certificate per size.

    ``per_k`` maps each admissible k to the sizes found for index (1, k);
    ``via_duality`` lists the k whose entry was copied from its inverse
    via transposition.  ``exhaustive`` is True only when every cover
    enumeration ran to completion.
    """

    p: int
    per_k: dict[int, frozenset]
    sizes: frozenset
    certificates: dict[int, TradePair] = field(repr=False)
    exhaustive: bool = True
    budget_used: float = 0.0
    via_duality: tuple[int, ...] = ()


def admissible_mates(p: int) -> tuple[int, ...]:
    """The k in 2..p-1 with B_p(k) Latin and orthogonal to B_p(1)."""
    return tuple(
        k for k in range(2, p) if gcd(k, p) == 1 and gcd(k - 1, p) == 1
    )


def _root_representatives(p: int, k: int, pinned: list[tuple[int, ...]]) -> list[int]:
    """One root index per orbit of transversals under the maps that fix
    the search problem: translations, unit scalings, and the transpose
    when k is self-inverse.

    ``pinned`` lists the column tuples of the transversals of B_p(k)
    through (0, 0) in lexicographic order, which puts them first among
    all transversals; every orbit meets them.  The orbit search runs on
    them alone, closing under unit scalings, the transpose, and the
    translate that moves the row-1 cell to (0, 0) (repeated, it steps
    through all p translates through (0, 0)).  Each orbit is represented
    by its member of least bitmask, that is, least column tuple read from
    the last row up.

    Achievable size sets are invariant under these maps, so every
    partition orbit is reached from some representative through (0, 0);
    restricting the first branch this way only drops repeats.
    """
    index = {cols: i for i, cols in enumerate(pinned)}
    scalings = []
    for a in range(2, p):
        if gcd(a, p) == 1:
            inv = pow(a, -1, p)
            scalings.append((a, [inv * r % p for r in range(p)]))
    transpose = pow(k, 2, p) == 1
    seen: set = set()
    reps = []
    for start in index:
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for cols in orbit:
            c1 = cols[1]
            images = [tuple((cols[(r + 1) % p] - c1) % p for r in range(p))]
            images += [tuple(a * cols[j] % p for j in rows) for a, rows in scalings]
            if transpose:
                inverse = [0] * p
                for r, c in enumerate(cols):
                    inverse[c] = r
                images.append(tuple(inverse))
            for im in images:
                if im not in seen:
                    seen.add(im)
                    orbit.append(im)
        reps.append(index[min(orbit, key=lambda cols: cols[::-1])])
    return reps


def _agreement_vector(p: int, mask: int) -> tuple[int, ...]:
    # a[s] = number of cells (r, c) in the transversal with r + c = s
    a = [0] * p
    m = mask
    while m:
        low = m & -m
        cell = low.bit_length() - 1
        r, c = divmod(cell, p)
        a[(r + c) % p] += 1
        m ^= low
    return tuple(a)


def _labeling_table(p: int, vectors: "list[tuple[int, ...]]") -> list[int]:
    # dp[S] = bitset of agreement sums after labeling the first
    # popcount(S) transversals with the label set S; dp[-1] holds every
    # achievable total
    full = (1 << p) - 1
    dp = [0] * (1 << p)
    dp[0] = 1
    for state in range(full):
        cur = dp[state]
        if not cur:
            continue
        vec = vectors[bin(state).count("1")]
        free = full ^ state
        while free:
            bit = free & -free
            free ^= bit
            dp[state | bit] |= cur << vec[bit.bit_length() - 1]
    return dp


def _labels(p: int, vectors, dp: list[int], target: int) -> list[int]:
    # walk the table back from the full label set, taking for each
    # transversal the least label that keeps the remaining total reachable
    labels = [0] * p
    state, remaining = (1 << p) - 1, target
    for i in range(p - 1, -1, -1):
        for s in range(p):
            bit = 1 << s
            if not state & bit:
                continue
            a = vectors[i][s]
            if remaining >= a and (dp[state ^ bit] >> (remaining - a)) & 1:
                labels[i] = s
                state ^= bit
                remaining -= a
                break
    return labels


def _certificate(
    p: int, k: int, chosen_masks: list[int], labels: list[int]
) -> TradePair:
    entries = []
    for mask, s in zip(chosen_masks, labels):
        m = mask
        while m:
            low = m & -m
            cell = low.bit_length() - 1
            r, c = divmod(cell, p)
            base = (r + c) % p
            if base != s:
                entries.append((r, c, base, s))
            m ^= low
    return TradePair(p, 1, k, tuple(entries))


def _spectrum_worker(
    p: int,
    k: int,
    masks: list[int],
    by_cell: list[list[int]],
    roots: list[int],
    deadline: "float | None",
    targets: "frozenset | None",
    dp_memo: dict,
):
    full = (1 << (p * p)) - 1
    sizes: set[int] = set()
    certificates: dict[int, TradePair] = {}
    chosen: list[int] = []
    vector_of: dict[int, tuple[int, ...]] = {}
    counter = 0

    def vector(i: int) -> tuple[int, ...]:
        vec = vector_of.get(i)
        if vec is None:
            vec = vector_of[i] = _agreement_vector(p, masks[i])
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
                        p, k, [masks[i] for i in chosen], labels
                    )
            bits >>= 1
            agreement += 1

    def done() -> bool:
        return targets is not None and targets <= sizes

    def rec(used: int):
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

    exhausted = True
    try:
        for root in roots:
            chosen.append(root)
            stop = rec(masks[root])
            chosen.pop()
            if stop:
                exhausted = False
                break
    except BudgetExpired:
        chosen.clear()
        exhausted = False
    return sizes, certificates, exhausted


def spectrum(
    p: "int | Modulus",
    k: int,
    budget: "float | None" = None,
    threads: "int | None" = None,
    targets: "frozenset | None" = None,
) -> SpectrumResult:
    """Sizes of orthogonal trades of index (1, k) in B_p.

    Enumerates partitions of the grid into transversals of B_p(k) (exact
    cover by bitmasks, anti-diagonals tried first so near-identity
    labelings surface early) and runs the labeling DP per partition.
    Stops early once ``targets`` is covered or the budget expires, in
    which case exhaustive is False.
    """
    mod = _as_modulus(p)
    p = mod.p
    if k not in admissible_mates(p):
        raise ValueError(f"k={k} is not an admissible orthogonal mate mod {p}")
    start = time.monotonic()
    deadline = _deadline(budget)
    workers = _worker_count(threads)

    bits = [[1 << (r * p + c) for c in range(p)] for r in range(p)]
    masks = []
    pinned = []
    for cols in _transversal_columns(gen_bp(mod, k)):
        if not cols[0]:
            pinned.append(tuple(cols))
        masks.append(sum(map(getitem, bits, cols)))
    diagonals = {
        sum(1 << (r * p + (s - r) % p) for r in range(p)) for s in range(p)
    }
    order = sorted(range(len(masks)), key=lambda i: (masks[i] not in diagonals, i))
    rank = {i: n for n, i in enumerate(order)}
    by_cell: list[list[int]] = [[] for _ in range(p * p)]
    for i, m in enumerate(masks):
        mm = m
        while mm:
            low = mm & -mm
            by_cell[low.bit_length() - 1].append(i)
            mm ^= low
    for cell in range(p * p):
        by_cell[cell].sort(key=rank.__getitem__)

    roots = sorted(_root_representatives(p, k, pinned), key=rank.__getitem__)
    slices = [roots[w::workers] for w in range(workers)]
    dp_memo: dict = {}
    if workers == 1:
        results = [
            _spectrum_worker(p, k, masks, by_cell, roots, deadline, targets, dp_memo)
        ]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _spectrum_worker, p, k, masks, by_cell, sl, deadline, targets, {}
                )
                for sl in slices
            ]
            results = [f.result() for f in futures]

    sizes: set[int] = set()
    certificates: dict[int, TradePair] = {}
    exhaustive = True
    for s_part, c_part, ex_part in results:
        sizes |= s_part
        for size, cert in sorted(c_part.items()):
            certificates.setdefault(size, cert)
        exhaustive = exhaustive and ex_part
    return SpectrumResult(
        p=p,
        per_k={k: frozenset(sizes)},
        sizes=frozenset(sizes),
        certificates=certificates,
        exhaustive=exhaustive,
        budget_used=time.monotonic() - start,
    )


def spectrum_all(
    p: "int | Modulus",
    budget: "float | None" = None,
    threads: "int | None" = None,
    targets: "frozenset | None" = None,
) -> SpectrumResult:
    """Union of spectrum(p, k) over admissible k.

    Transposition maps index-(1, k) trades to index-(1, k^-1) trades of
    the same size, so only one k per inverse pair is enumerated; the
    copied entries are listed in via_duality.
    """
    mod = _as_modulus(p)
    p = mod.p
    start = time.monotonic()
    deadline = _deadline(budget)
    ks = admissible_mates(p)
    canonical = tuple(k for k in ks if k <= pow(k, -1, p))
    per_k: dict[int, frozenset] = {}
    certificates: dict[int, TradePair] = {}
    union: set[int] = set()
    exhaustive = True
    dual: list[int] = []
    for k in canonical:
        remaining = None if targets is None else targets - union
        if remaining is not None and not remaining:
            exhaustive = False
            break
        left = None if deadline is None else max(0.0, deadline - time.monotonic())
        res = spectrum(mod, k, budget=left, threads=threads, targets=remaining)
        per_k[k] = res.per_k[k]
        inv = pow(k, -1, p)
        if inv != k:
            per_k[inv] = res.per_k[k]
            dual.append(inv)
        union |= res.sizes
        for size, cert in sorted(res.certificates.items()):
            certificates.setdefault(size, cert)
        exhaustive = exhaustive and res.exhaustive
    return SpectrumResult(
        p=p,
        per_k=dict(sorted(per_k.items())),
        sizes=frozenset(union),
        certificates=certificates,
        exhaustive=exhaustive,
        budget_used=time.monotonic() - start,
        via_duality=tuple(sorted(dual)),
    )


# -- row-permutation support sizes ---------------------------------------------


@dataclass(frozen=True)
class RowPermSearchResult:
    """Achievable moved-row counts for trades preserving ``mates_count``
    orthogonal mates simultaneously, with one witness per count."""

    p: int
    mates_count: int
    m_values: frozenset
    witnesses: dict[int, tuple[RowPermutation, tuple[int, ...]]] = field(repr=False)
    exhaustive: bool = True
    budget_used: float = 0.0

    @property
    def nontrivial_m(self) -> frozenset:
        return self.m_values - {self.p - 1, self.p}


def _sigma_search(p, ks, record, deadline):
    # exhaustive over sigma with sigma(0) = 1; affine conjugation maps any
    # permutation with nonempty support to such a representative without
    # changing the support size or the preserved mate set.  Mate k needs
    # the values sigma(r) - k*r distinct: the symbols of shift -k*r.
    shifts = [tuple(-k * r % p for k in ks) for r in range(p)]
    rows = range(p)
    for sigma in _backtrack(p, shifts, (1,), deadline=deadline):
        record(sum(map(ne, sigma, rows)), sigma)


def rowperm_sizes(
    p: "int | Modulus", mates: int, budget: "float | None" = None
) -> RowPermSearchResult:
    """Moved-row counts m achievable by permutations preserving
    orthogonality with ``mates`` squares B_p(k) simultaneously.

    Exhausts all mate sets (up to the inverse-set symmetry) and all
    permutations up to affine conjugation; m = p is always present (the
    shifts) and m = p-1 whenever some scaling avoids the mate set.
    """
    mod = _as_modulus(p)
    if not mod.prime:
        raise ValueError(f"p={mod.p} must be prime")
    p = mod.p
    if p > TRANSVERSAL_CAP:
        raise ValueError(f"p={p} above the exhaustive cap {TRANSVERSAL_CAP}")
    if not 1 <= mates <= 5:
        raise ValueError(f"mates={mates} out of range 1..5")
    start = time.monotonic()
    deadline = _deadline(budget)

    witnesses: dict[int, tuple[RowPermutation, tuple[int, ...]]] = {}
    exhaustive = True
    seen = set()
    for K in itertools.combinations(range(2, p), mates):
        inv = tuple(sorted(pow(k, -1, p) for k in K))
        if min(K, inv) in seen:
            continue
        seen.add(K)

        def record(m, sigma, K=K):
            if m not in witnesses:
                rp = RowPermutation(p, tuple(sigma))
                if not rowperm_orthogonal(rp, set(K)):
                    raise RuntimeError(
                        f"search witness {rp.images} does not preserve mates {K}")
                witnesses[m] = (rp, K)

        try:
            _sigma_search(p, K, record, deadline)
        except BudgetExpired:
            exhaustive = False
            break
    return RowPermSearchResult(
        p=p,
        mates_count=mates,
        m_values=frozenset(witnesses),
        witnesses=witnesses,
        exhaustive=exhaustive,
        budget_used=time.monotonic() - start,
    )


# -- orthomorphisms --------------------------------------------------------------


def _orthomorphism_images(p: int, prefix=()):
    # the image v of x must be new, and so must v - x: the symbol of shift -x
    return _backtrack(p, [(-x % p,) for x in range(p)], prefix)


def enumerate_orthomorphisms(p: "int | Modulus", force: bool = False):
    """Yield every orthomorphism of Z_p, lexicographic by image tuple."""
    p = _as_modulus(p).p
    _check_cap(p, force)
    for images in _orthomorphism_images(p):
        yield Orthomorphism(p, tuple(images))


def min_distance_from_linear(p: "int | Modulus", k: int, force: bool = False) -> int:
    """Exact minimum Hamming distance from x -> k*x to any other
    orthomorphism of Z_p.

    Scans normalized representatives (theta(0) = 0; every orthomorphism
    has exactly one fixed point, so each translation-conjugacy orbit is
    represented exactly once); within an orbit the distance to the
    linear map varies over the residue histogram of theta(x) - k*x, so
    the orbit minimum is p minus the largest frequency (excluding the
    linear map itself, frequency p at 0).
    """
    mod = _as_modulus(p)
    if not mod.prime:
        raise ValueError(f"p={mod.p} must be prime")
    p = mod.p
    _check_cap(p, force)
    if not 2 <= k <= p - 1:
        raise ValueError(f"k={k} out of range 2..{p - 1}")
    linear = [k * x % p for x in range(p)]
    best = p
    for images in _orthomorphism_images(p, (0,)):
        freq = Counter((v - w) % p for v, w in zip(images, linear))
        for count in freq.values():
            if count != p and p - count < best:
                best = p - count
    return best
