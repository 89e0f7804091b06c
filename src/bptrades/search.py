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

The cover tables come from the transversals through (0, 0) alone, which
the kernel enumerates p times faster than all of them.  Shifting every
column by u maps a transversal of B_p(k) to another, so the transversals
whose row-0 column is u are exactly those through (0, 0) shifted by u.
Sorting each shift group and appending the groups in turn gives the
masks in the lexicographic order of the full enumeration, and each cell
lists its transversals in that order, once its anti-diagonal has been
moved to the front.  The orbit roots are read off the group through
(0, 0), and only that group's column tuples are kept.

Row-permutation searches and orthomorphism scans cut the space by the
affine conjugation symmetry, which preserves support sizes and per-k
orthogonality; sets of achievable values are unaffected.

The spectrum and row-permutation walks keep one witness per value, the
first in walk order, and skip a subtree once every value it could still
produce has one; the distance scan skips a subtree that cannot beat its
best so far (branch and bound).  A skipped subtree holds no new value
and no earlier witness, so the results match the full walk's.
``exhaustive`` therefore proves that every reachable value was
witnessed, not that every leaf was visited.

The cover search bounds the agreement a partial cover can still gain
by the transversals left to place.  Only an anti-diagonal agrees with
its label in all p cells; any other transversal agrees in at most g
cells, g read off the orbit roots (every map the roots are taken under
permutes the anti-diagonals, so keeps that peak).  The anti-diagonals
are pairwise disjoint, so of the ``left`` transversals still to place
at most f = min(left, anti-diagonals disjoint from the cover) are
anti-diagonals, and they gain at most f*p + (left - f)*g.  g is 1 at
p = 5, 2 or 4 at p = 7, and 6 at p = 9 and 11.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from math import gcd, isfinite, lcm, log2
from operator import getitem, itemgetter, ne, or_

import numpy as np

from bptrades.core import (
    LatinSquare,
    Modulus,
    Orthomorphism,
    Transversal,
    _as_modulus,
)
from bptrades.rowperm import RowPermutation, rowperm_orthogonal
from bptrades.trades import TradePair, validate_orthogonal_trade

__all__ = [
    "TRANSVERSAL_CAP",
    "SPECTRUM_P_MAX",
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

# The largest p a spectrum search accepts, budget or not.  Above the cap
# a budget always runs out, and the symbol-swap fallback then builds
# about p^3/2 certificate entries, once per mate that spectrum_all
# enumerates: at p = 31 that takes ~0.4 s for spectrum_all and ~0.03 s
# for spectrum on a 2-core machine, at p = 61 already 7 s for spectrum_all.
SPECTRUM_P_MAX = 31


class BudgetExpired(Exception):
    """Internal signal: the search deadline passed; partial results stand."""


def _deadline(budget: "float | None") -> "float | None":
    # a NaN deadline would never compare as passed, an infinite one never pass
    if budget is None:
        return None
    if not isfinite(budget) or budget < 0:
        raise ValueError(f"budget={budget} must be a finite number of seconds >= 0")
    return time.monotonic() + budget


# -- the kernel ------------------------------------------------------------------


def _backtrack(n, shifts=None, prefix=(), grid=None, deadline=None, prune=None):
    """Yield every extension of ``prefix`` to a list of n distinct values,
    one per row, in which no symbol repeats; lexicographic order.

    With ``grid``, row r gives value c the symbol grid[r][c].  Otherwise
    each shift t in shifts[r] is a constraint of its own, giving value c
    the symbol (c + t) % n.  ``prune(r, cols)`` is called on each descent
    to a row r the prefix does not fill, with cols[:r] set; when it
    returns true, row r gets no candidates.  The yielded list is reused:
    copy it to keep it.  Raises BudgetExpired once ``deadline`` has passed.
    """
    full = (1 << n) - 1
    if grid is None:
        # constraint i keeps its doubled used-symbol mask in lane i of
        # ``seen``, 2n bits wide; offs[r] holds the per-lane shifts,
        # and add[r][c] the bits value c sets in every lane: lane i's
        # doubled one-hot list rotated left by the row's shift t
        width = 2 * n
        offs = [tuple(width * i + t for i, t in enumerate(row)) for row in shifts]
        dbl = [1 << s | 1 << s + n for s in range(n)]
        lanes = [[x << width * i for x in dbl] for i in range(len(shifts[0]))]
        add = [
            list(map(sum, zip(*(lane[t:] + lane[:t] for lane, t in zip(lanes, row)))))
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
            if prune is not None and prune(r, cols):
                avail = 0
            elif grid is None:
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

    A transversal is a column list c with r + c_r distinct; it hits the
    diagonal delta(0) times, where delta(v) counts the rows with
    d_r = c_r - r = v.  The maps (r, c) -> (a*r + t, a*c + t') with a a
    unit form a group G of order p^2 (p - 1).  They permute the
    transversals and send v to a*v + t' - t, so they keep the multiset
    of values of delta.  Hence, for an orbit O of G and a member T:

    - the p column shifts of a transversal hit the diagonal delta(v)
      times, once for each residue v, so #{v : delta(v) = h} * |O| / p
      members of O hit it h times;
    - each ordered pair of rows with equal d is carried to rows 0 and 1,
      with d = 0 there, by exactly one map in G, so O meets the
      transversals through (0, 0) and (1, 1) |O| * pairs(T) / |G| times,
      where pairs(T) = sum over v of delta(v) * (delta(v) - 1).

    Only those pinned transversals are enumerated; each stands for
    #{v : delta(v) = h} * p * (p - 1) / pairs(T) transversals with h
    hits, summed exactly over a common denominator.  The orbits with
    pairs = 0, where c - id is a permutation too, miss the pinned set:
    each of their members hits the diagonal once, and there are p times
    as many as those through (0, 0), which two kernel lanes (shifts r
    and -r) count.  Checks that the only keys are p itself or values at
    most p - log2(p) - 1.
    """
    mod = _as_modulus(p, require_prime=True)
    p = mod.p
    _check_cap(p, force)
    # shape of a pinned transversal: the sorted nonzero values of delta
    diff = [[(c - r) % p for c in range(p)] for r in range(p)]
    shapes: Counter = Counter()
    for cols in _backtrack(p, [(r,) for r in range(p)], (0, 1)):
        shapes[tuple(sorted(Counter(map(getitem, diff, cols)).values()))] += 1
    weights = {shape: sum(h * (h - 1) for h in shape) for shape in shapes}
    denom = lcm(*weights.values())
    totals: Counter = Counter()
    for shape, count in shapes.items():
        share = count * p * (p - 1) * (denom // weights[shape])
        totals[0] += (p - len(shape)) * share
        for h in shape:
            totals[h] += share
    unpaired = sum(1 for _ in _backtrack(p, [(r, -r % p) for r in range(p)], (0,)))
    totals[1] += p * unpaired * denom
    hist = {}
    for h, total in totals.items():
        if total % denom:
            raise RuntimeError(f"diagonal-hit total for {h} hits is not integral")
        if total:
            hist[h] = total // denom
    cutoff = p - log2(p) - 1
    bad = [key for key in hist if key != p and key > cutoff]
    if bad:
        raise RuntimeError(f"diagonal-hit keys {bad} violate the gap bound")
    return dict(sorted(hist.items()))


# -- spectra ---------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumResult:
    """Achievable orthogonal-trade sizes, with one certificate per size.

    ``per_k`` maps each admissible k to the sizes found for index (1, k);
    ``via_duality`` lists the k whose entry was copied from its inverse
    via transposition.  ``exhaustive`` is True only when every cover
    search ran to completion, so that every reachable size has a
    certificate; a completed search skips the partial covers whose
    bound shows they can reach no size not already certified.
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


def _root_representatives(
    p: int, k: int, pinned: list[tuple[int, ...]], deadline: "float | None" = None
) -> list[int]:
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
    restricting the first branch this way only drops repeats.  Raises
    BudgetExpired once ``deadline`` has passed.
    """
    index = {cols: i for i, cols in enumerate(pinned)}
    # the scaling by a puts column a*cols[r/a] in row r; the translate
    # that moves the row-1 cell to (0, 0) puts cols[r+1] - cols[1]
    scalings = []
    for a in range(2, p):
        if gcd(a, p) == 1:
            inv = pow(a, -1, p)
            scalings.append(
                (itemgetter(*(inv * r % p for r in range(p))), [a * c % p for c in range(p)])
            )
    repin = [[(c - c1) % p for c in range(p)] for c1 in range(p)]
    transpose = pow(k, 2, p) == 1
    seen: set = set()
    reps = []
    for n, start in enumerate(index):
        if deadline is not None and not n & 255 and time.monotonic() > deadline:
            raise BudgetExpired
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for cols in orbit:
            images = [itemgetter(*cols[1:], cols[0])(repin[cols[1]])]
            images += [itemgetter(*rows(cols))(times) for rows, times in scalings]
            if transpose:
                images.append(tuple(sorted(range(p), key=cols.__getitem__)))
            for im in images:
                if im not in seen:
                    seen.add(im)
                    orbit.append(im)
        reps.append(index[min(orbit, key=lambda cols: cols[::-1])])
    return reps


def _cover_tables(p: int, k: int, deadline: "float | None" = None):
    """The exact-cover tables of B_p(k), built from the transversals
    through (0, 0) alone.

    Returns ``masks``, the cell bitmask of every transversal in
    lexicographic order of its column tuple; ``by_cell``, for each cell
    the indices of the transversals through it, its anti-diagonal first
    and then in index order; and ``roots``, the orbit roots of
    ``_root_representatives`` with the anti-diagonal first.

    Column tuples starting with u are the tuples through (0, 0) shifted
    by u, so each shift group is sorted on its own and appended in turn.
    Raises BudgetExpired once ``deadline`` has passed.
    """
    pinned = [
        tuple(cols)
        for cols in _backtrack(p, [(k * r % p,) for r in range(p)], (0,), deadline=deadline)
    ]
    roots = _root_representatives(p, k, pinned, deadline)
    bits = [[1 << (r * p + c) for c in range(p)] for r in range(p)]
    cells = [range(r * p, r * p + p) for r in range(p)]
    masks: list[int] = []
    by_cell: list[list[int]] = [[] for _ in range(p * p)]
    for u in range(p):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExpired
        shift = [*range(u, p), *range(u)]
        group = sorted(itemgetter(*cols)(shift) for cols in pinned)
        base = len(masks)
        for i, cols in enumerate(group, base):
            masks.append(sum(map(getitem, bits, cols)))
            for cell in map(getitem, cells, cols):
                by_cell[cell].append(i)
        # the anti-diagonal through (0, u) goes to the front of its cells
        anti = tuple(shift[-r] for r in range(p))
        i = base + bisect_left(group, anti)
        for cell in map(getitem, cells, anti):
            by_cell[cell].remove(i)
            by_cell[cell].insert(0, i)
    front = by_cell[0][0]  # the anti-diagonal through (0, 0)
    return masks, by_cell, sorted(roots, key=lambda j: (j != front, j))


def _anti_diagonals(p: int) -> list[int]:
    # the cell bitmask of each anti-diagonal r + c = s, in order of s
    return [sum(1 << r * p + (s - r) % p for r in range(p)) for s in range(p)]


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
        vec = vectors[state.bit_count()]
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
    return TradePair(p, 1, k, np.array(entries))


def _symbol_swaps(p: int, k: int):
    """The trades that cycle the symbols 0..m-1 of B_p(1), m = 0, 2..p,
    as a partial spectrum result: they need no search.  The anti-diagonal
    cover, which the cover search tries first, yields the same sizes."""
    antis = _anti_diagonals(p)
    certificates = {
        m * p: _certificate(p, k, antis, [(s + 1) % m if s < m else s for s in range(p)])
        for m in (0, *range(2, p + 1))
    }
    return set(certificates), certificates, False


def _off_anti_peak(p: int, masks: list[int], roots: list[int]) -> int:
    """g: the largest agreement of a transversal other than an
    anti-diagonal with a single label, read off ``roots``.

    Translations, unit scalings and the transpose permute the
    anti-diagonals, so they permute agreement vectors and keep the peak;
    the orbit roots meet every orbit, so their peaks are every peak.
    Only an anti-diagonal has peak p.
    """
    antis = _anti_diagonals(p)
    peaks = (max((masks[i] & a).bit_count() for a in antis) for i in roots)
    return max((t for t in peaks if t < p), default=0)


def _cover_search(
    p: int,
    k: int,
    masks: list[int],
    by_cell: list[list[int]],
    roots: list[int],
    deadline: "float | None",
    targets: "frozenset | None",
):
    """Exact covers of the grid from each root in turn, each labeled by
    the DP.  Returns the sizes found, a certificate per size and whether
    every reachable size was witnessed.

    Branch and bound: a labeled transversal agrees with its label in at
    most max(vector) cells, its peak.  Only an anti-diagonal has peak p;
    every other transversal has peak at most g (``_off_anti_peak``, so
    ``roots`` must meet every orbit of the masks under maps that permute
    the anti-diagonals).  The anti-diagonals are pairwise disjoint, and
    only those still disjoint from a partial cover can join it.  So a
    partial cover whose peaks sum to ``top``, with ``left`` transversals
    still to place and f = min(left, anti-diagonals it does not meet),
    leads only to agreements of at most top + f*p + (left - f)*g.  Its
    subtree is skipped when every size from p^2 minus that up to p^2
    already has a certificate: it could add none, so the sizes and the
    first certificate of each are those of the full walk.
    """
    full = (1 << (p * p)) - 1
    sizes: set[int] = set()
    certificates: dict[int, TradePair] = {}
    chosen: list[int] = []
    # vector(i)[s] = number of cells of transversal i on anti-diagonal s
    antis = _anti_diagonals(p)
    vector_of: dict[int, tuple[int, ...]] = {}
    # max(vector(i)), and bit s set when transversal i meets anti-diagonal
    # s; both filled on first use
    peaks = [-1] * len(masks)
    hits = [0] * len(masks)
    g = _off_anti_peak(p, masks, roots)
    dp_memo: dict[tuple, int] = {}
    counter = 0
    # bit a of ``found`` is set once size p^2 - a has a certificate;
    # ``reach`` is its lowest clear bit, so agreements below it are done
    found = 0
    reach = 0

    def vector(i: int) -> tuple[int, ...]:
        vec = vector_of.get(i)
        if vec is None:
            mask = masks[i]
            vec = vector_of[i] = tuple((mask & a).bit_count() for a in antis)
        return vec

    def handle_cover():
        nonlocal found, reach
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
                    found |= 1 << agreement
                    if table is None:
                        table = _labeling_table(p, vectors)
                    labels = _labels(p, vectors, table, agreement)
                    certificates[size] = _certificate(
                        p, k, [masks[i] for i in chosen], labels
                    )
            bits >>= 1
            agreement += 1
        reach = (~found & (found + 1)).bit_length() - 1

    def done() -> bool:
        return targets is not None and targets <= sizes

    def rec(used: int, free: int, top: int, options: list[int]) -> bool:
        # extend the partial cover ``chosen`` (cells ``used``, anti-diagonals
        # ``free`` unmet) by each free transversal of ``options`` in turn
        nonlocal counter
        counter += 1
        if counter % 2048 == 0 and deadline is not None:
            if time.monotonic() > deadline:
                raise BudgetExpired
        # a child with top t reaches new sizes only if t + rest >= reach,
        # rest = f*p + (left - f)*g; the cheaper p*left bounds it first
        left = p - len(chosen) - 1
        loose = p * left
        floor = g * left
        for i in options:
            m = masks[i]
            if m & used:
                continue
            t = peaks[i]
            if t < 0:
                vec = vector(i)
                t = peaks[i] = max(vec)
                hits[i] = sum(1 << s for s, n in enumerate(vec) if n)
            t += top
            if t + loose < reach:
                continue
            unmet = free & ~hits[i]
            f = unmet.bit_count()
            if t + floor + (f if f < left else left) * (p - g) < reach:
                continue
            chosen.append(i)
            child = used | m
            if child == full:
                handle_cover()
                stop = done()
            else:
                # branch on the lowest uncovered cell
                stop = rec(child, unmet, t, by_cell[(~child & (child + 1)).bit_length() - 1])
            chosen.pop()
            if stop:
                return True
        return False

    try:
        if rec(0, (1 << p) - 1, 0, roots):
            return sizes, certificates, False
    except BudgetExpired:
        return sizes, certificates, False
    return sizes, certificates, True


def _check_spectrum_p(p: int, budget: "float | None") -> None:
    # before any O(p) work, such as listing the admissible mates
    if p > TRANSVERSAL_CAP and budget is None:
        raise ValueError(
            f"p={p} above the exhaustive cap {TRANSVERSAL_CAP};"
            " a budget is required above the cap"
        )
    if p > SPECTRUM_P_MAX:
        raise ValueError(f"p={p} above the spectrum ceiling {SPECTRUM_P_MAX}")


def spectrum(
    p: "int | Modulus",
    k: int,
    budget: "float | None" = None,
    targets: "frozenset | None" = None,
) -> SpectrumResult:
    """Sizes of orthogonal trades of index (1, k) in B_p.

    Enumerates partitions of the grid into transversals of B_p(k) (exact
    cover by bitmasks, anti-diagonals tried first so near-identity
    labelings surface early) and runs the labeling DP per partition.
    Stops early once ``targets`` is covered or the budget expires, in
    which case exhaustive is False.  A budget that expires while the
    transversals are still being enumerated leaves the symbol swaps,
    sizes m*p, which need no search.  Above ``TRANSVERSAL_CAP`` a budget
    is required: the enumeration alone would not finish.  p above
    ``SPECTRUM_P_MAX`` is refused.
    """
    mod = _as_modulus(p)
    p = mod.p
    _check_spectrum_p(p, budget)
    if not (1 < k < p and gcd(k, p) == gcd(k - 1, p) == 1):
        raise ValueError(f"k={k} is not an admissible orthogonal mate mod {p}")
    start = time.monotonic()
    deadline = _deadline(budget)
    try:
        masks, by_cell, roots = _cover_tables(p, k, deadline)
    except BudgetExpired:
        sizes, certificates, exhaustive = _symbol_swaps(p, k)
    else:
        sizes, certificates, exhaustive = _cover_search(
            p, k, masks, by_cell, roots, deadline, targets
        )
    return SpectrumResult(
        p=p,
        per_k={k: frozenset(sizes)},
        sizes=frozenset(sizes),
        certificates=dict(sorted(certificates.items())),
        exhaustive=exhaustive,
        budget_used=time.monotonic() - start,
    )


def spectrum_all(
    p: "int | Modulus",
    budget: "float | None" = None,
    targets: "frozenset | None" = None,
) -> SpectrumResult:
    """Union of spectrum(p, k) over admissible k.

    Transposition maps index-(1, k) trades to index-(1, k^-1) trades of
    the same size, so only one k per inverse pair is enumerated; the
    copied entries are listed in via_duality.
    """
    mod = _as_modulus(p)
    p = mod.p
    _check_spectrum_p(p, budget)
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
        res = spectrum(mod, k, budget=left, targets=remaining)
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


def _sigma_search(p, ks, record, deadline, witnessed=None):
    """Call record(m, sigma) for the permutations sigma with sigma(0) = 1
    that preserve every mate in ``ks``, m being the moved-row count, in
    lexicographic order.

    Affine conjugation maps any permutation with nonempty support to such
    a representative without changing the support size or the preserved
    mate set.  Mate k needs the values sigma(r) - k*r distinct: the
    symbols of shift -k*r.

    With ``witnessed``, the counts that already have a witness, a subtree
    is skipped when every count its leaves can reach is witnessed or was
    recorded in this call.  With rows < r set, a later row r' can still
    stay fixed only while value r' is unused and, for every mate k, its
    symbol (1 - k)*r' is unseen; value c in row r rules out row c and the
    rows (c - k*r) / (1 - k).  So m lies between the moved count so far
    plus the ruled-out rows >= r, and the moved count plus p - r.
    """
    shifts = [tuple(-k * r % p for k in ks) for r in range(p)]
    rows = range(p)
    prune = None
    if witnessed is not None:
        have = sum(1 << m for m in witnessed)
        # rule[r][c]: the rows that value c in row r rules out.  Lane k
        # has bit x/(1 - k) at x; rotating it right by k*r puts that of
        # c - k*r at c, as the kernel builds its symbol tables
        lanes = [[1 << c * pow(1 - k, -1, p) % p for c in range(p)] for k in ks]
        rule = []
        for r in rows:
            ruled = [1 << c for c in range(p)]
            for k, lane in zip(ks, lanes):
                t = k * r % p
                ruled = list(map(or_, ruled, lane[-t:] + lane[:-t]))
            rule.append(ruled)
        moved_at = [0] * p
        out_at = [0] * p

        def prune(r, sigma):
            c = sigma[r - 1]
            moved = moved_at[r] = moved_at[r - 1] + (c != r - 1)
            out = out_at[r] = out_at[r - 1] | rule[r - 1][c]
            # bits lo..hi: the counts the leaves below can have
            span = (2 << moved + p - r) - (1 << moved + (out >> r).bit_count())
            return have & span == span

    for sigma in _backtrack(p, shifts, (1,), deadline=deadline, prune=prune):
        m = sum(map(ne, sigma, rows))
        record(m, sigma)
        if prune is not None:
            have |= 1 << m


def rowperm_sizes(
    p: "int | Modulus", mates: int, budget: "float | None" = None
) -> RowPermSearchResult:
    """Moved-row counts m achievable by permutations preserving
    orthogonality with ``mates`` squares B_p(k) simultaneously.

    Exhausts all mate sets (up to the inverse-set symmetry) and all
    permutations up to affine conjugation; m = p is always present (the
    shifts) and m = p-1 whenever some scaling avoids the mate set.
    """
    mod = _as_modulus(p, require_prime=True)
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
        # a pruned walk can be shorter than the kernel's deadline stride
        if deadline is not None and time.monotonic() > deadline:
            exhaustive = False
            break

        def record(m, sigma, K=K):
            if m not in witnesses:
                rp = RowPermutation(p, tuple(sigma))
                if not rowperm_orthogonal(rp, set(K)):
                    raise RuntimeError(
                        f"search witness {rp.images} does not preserve mates {K}")
                witnesses[m] = (rp, K)

        try:
            _sigma_search(p, K, record, deadline, witnesses)
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


def _orthomorphism_images(p: int, prefix=(), prune=None):
    # the image v of x must be new, and so must v - x: the symbol of shift -x
    return _backtrack(p, [(-x % p,) for x in range(p)], prefix, prune=prune)


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
    mod = _as_modulus(p, require_prime=True)
    p = mod.p
    _check_cap(p, force)
    if not 2 <= k <= p - 1:
        raise ValueError(f"k={k} out of range 2..{p - 1}")
    linear = [k * x % p for x in range(p)]
    best = p
    # with rows < x set and c_d = #{i < x : theta(i) - k*i = d}, no count
    # below exceeds max_d c_d + p - x: skip the subtree once that cannot
    # beat ``best``.  counts[x] packs c_d into bits d*width.., tops[x] is
    # max_d c_d
    width = p.bit_length()
    ones = (1 << width) - 1
    counts = [0] * p
    tops = [0] * p

    def prune(x, images):
        d = (images[x - 1] - linear[x - 1]) % p * width
        packed = counts[x] = counts[x - 1] + (1 << d)
        top = tops[x - 1]
        if packed >> d & ones > top:
            top += 1
        tops[x] = top
        return top + p - x <= p - best

    for images in _orthomorphism_images(p, (0,), prune):
        freq = Counter((v - w) % p for v, w in zip(images, linear))
        for count in freq.values():
            if count != p and p - count < best:
                best = p - count
    return best
