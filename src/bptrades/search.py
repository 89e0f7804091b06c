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
column by u maps a transversal of B_p(k) to another, so shift group u,
the transversals whose row-0 column is u, is the group through (0, 0)
shifted by u.  Every transversal covers exactly one row-0 cell, so the
lowest uncovered cell of a partial cover lies in row 0, and the search
reads only these p groups.  They are stored one after another, each
opening with its anti-diagonal and the rest in lexicographic order, the
order the full enumeration gives them; each comes from the previous one
by rotating every row one column and sorting again.  The orbit roots
are read off group 0, each orbit in one step from its first member, and
only that group's column tuples are kept.

The moved-row walk of the row-permutation search cuts the space by the
affine conjugation symmetry, which preserves support sizes and per-k
orthogonality; sets of achievable values are unaffected.  It walks one
mate set K per class.  Read the graph of sigma as p points S of AG(2, p):
sigma preserves mate k exactly when S meets every line y - k*x = c once,
so with D = {inf, 0} u K, S meets every line of every slope in D once,
and m = p - |S n {y = x}|.  A linear map that fixes slope 1 maps y = x
onto itself and S to a set that meets every line of every slope in its
image of D once, so the set of m depends only on the orbit of D under
the stabiliser of slope 1 in PGL(2, p), which acts on the other p slopes
as AGL(1, p).  A mate set in a class already walked can only repeat its
counts, and is skipped.  The distance
from a linear orthomorphism x -> k*x is read off the same walk: an
orthomorphism theta differs from it exactly on the rows that the row
permutation k^-1 * theta moves.

The spectrum and row-permutation walks keep one witness per value, the
first in walk order, and skip a subtree once every value it could still
produce has one (branch and bound).  A skipped subtree holds no new
value and no earlier witness, so the results match the full walk's.
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
from dataclasses import dataclass, field, replace
from math import gcd, isfinite, lcm, log2
from operator import getitem, itemgetter, ne, or_

import numpy as np

from bptrades.core import LatinSquare, Orthomorphism, Transversal, _integer, _mate, _modulus
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
# a budget always runs out, and the symbol-swap fallback then reads
# about p^3/2 certificate entries off their closed form, once per mate
# that spectrum_all enumerates: on a 2-core machine ~0.05 s at p = 31
# (~3 ms for spectrum), and ~0.15 s for the 30 mates of p = 61.
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


def diagonal_histogram(p: int, force: bool = False) -> dict[int, int]:
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
    p = _modulus(p, prime=True)
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
    p = _modulus(p)
    return tuple(k for k in range(2, p) if gcd(k * (k - 1), p) == 1)


def _root_representatives(
    p: int, k: int, pinned: list[tuple[int, ...]], deadline: "float | None" = None
) -> list[int]:
    """One root index per orbit of transversals under the maps that fix
    the search problem: translations, unit scalings, and the transpose
    when k is self-inverse.

    ``pinned`` lists the column tuples of the transversals of B_p(k)
    through (0, 0) in lexicographic order, which puts them first among
    all transversals; every orbit meets them.  A map (r, c) -> (a*r + s,
    a*c + t) is a scaling after a translation, and the scaling fixes
    (0, 0); the transpose commutes with the scalings and swaps the two
    shifts of a translation.  So the orbit of T meets the pinned list in
    the distinct translates of T, and of its transpose, that move a cell
    to (0, 0), each scaled by every unit, and is read off its first
    member in one step.  It is represented by its member of least
    bitmask, that is, least column tuple read from the last row up.

    Achievable size sets are invariant under these maps, so every
    partition orbit is reached from some representative through (0, 0);
    restricting the first branch this way only drops repeats.  Raises
    BudgetExpired once ``deadline`` has passed.
    """
    # the scaling by a puts column a*cols[r/a] in row r; the translate
    # that moves the row-r cell to (0, 0) puts cols[x+r] - cols[r] in row x
    units = [(a, pow(a, -1, p)) for a in range(1, p) if gcd(a, p) == 1]
    scalings = [(itemgetter(*(inv * r % p for r in range(p))), [a * c % p for c in range(p)])
                for a, inv in units]
    repin = [[(c - c1) % p for c in range(p)] for c1 in range(p)]
    unmet = {cols: i for i, cols in enumerate(pinned)}  # orbits not yet met
    reps = []
    for n, start in enumerate(pinned):
        if deadline is not None and not n & 255 and time.monotonic() > deadline:
            raise BudgetExpired
        if start not in unmet:
            continue
        turned = tuple(sorted(range(p), key=start.__getitem__)) if k * k % p == 1 else start
        translates = {itemgetter(*cols[r:], *cols[:r])(repin[c])
                      for cols in {start, turned} for r, c in enumerate(cols)}
        orbit = {itemgetter(*rows(cols))(times) for cols in translates for rows, times in scalings}
        reps.append(unmet[min(orbit, key=lambda cols: cols[::-1])])
        if any(unmet.pop(cols, None) is None for cols in orbit):
            raise RuntimeError(f"an orbit image of {start} is not a pinned transversal")
    return reps


def _cover_tables(p: int, k: int, deadline: "float | None" = None):
    """The exact-cover tables of B_p(k), built from the transversals
    through (0, 0) alone.

    Returns ``masks``, the cell bitmasks of shift groups 0..p-1 in turn,
    each group its anti-diagonal and then the rest in lexicographic order
    of their column tuples; ``groups``, the index range of each; and
    ``roots``, the orbit roots of ``_root_representatives`` in index
    order, the anti-diagonal through (0, 0) first.  Above each mask sit
    its rows in reverse order, so that the pair compares like the column
    tuple, and rotating every row one column, which makes each group the
    next, acts on both halves.  Raises BudgetExpired once ``deadline``
    has passed.
    """
    pinned = [
        tuple(cols)
        for cols in _backtrack(p, [(k * r % p,) for r in range(p)], (0,), deadline=deadline)
    ]
    roots = _root_representatives(p, k, pinned, deadline)
    area = p * p
    # cell (r, c) sets bit r*p + c of the mask and bit (p-1-r)*p + c of
    # the reversed rows above it
    bits = [
        [1 << area + (p - 1 - r) * p + c | 1 << r * p + c for c in range(p)] for r in range(p)
    ]
    keys = [sum(map(getitem, bits, cols)) for cols in pinned]
    anti = bisect_left(pinned, tuple(-r % p for r in range(p)))
    keys.insert(0, keys.pop(anti))
    full = (1 << area) - 1
    # column p-1 of both halves wraps to column 0; the others step right
    wrap = sum(1 << r * p + p - 1 for r in range(2 * p))
    step = (1 << 2 * area) - 1 ^ wrap
    masks: list[int] = []
    for u in range(p):
        if u:
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExpired
            keys = [(x & step) << 1 | (x & wrap) >> p - 1 for x in keys]
            keys[1:] = sorted(keys[1:])
        masks += [x & full for x in keys]
    n = len(pinned)
    groups = [range(u * n, u * n + n) for u in range(p)]
    # group 0 is the pinned order with the anti-diagonal moved to the front
    return masks, groups, sorted(0 if j == anti else j + (j < anti) for j in roots)


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
    # the masks partition the grid, so labels @ bits is the mate of every
    # cell, row-major; the trade holds the cells whose mate is not the base
    n = (p * p + 7) // 8
    masks = np.frombuffer(b"".join(m.to_bytes(n, "little") for m in chosen_masks),
                          dtype=np.uint8).reshape(len(chosen_masks), n)
    bits = np.unpackbits(masks, axis=1, count=p * p, bitorder="little")
    mate = np.array(labels, dtype=np.int64) @ bits
    r, c = np.divmod(np.arange(p * p), p)
    base = (r + c) % p
    return TradePair(p, 1, k, np.column_stack((r, c, base, mate))[mate != base])


def _symbol_swaps(p: int, k: int) -> dict[int, TradePair]:
    """The trades that cycle the symbols 0..m-1 of B_p(1), m = 0, 2..p,
    by size: they need no search.  The anti-diagonal cover, which the
    cover search tries first, yields the same sizes.  The trade for m
    holds the cells with s = (r + c) mod p < m, and the mate of s is
    (s + 1) mod m; m = 0 selects no cell."""
    r, c = np.divmod(np.arange(p * p), p)
    s = (r + c) % p
    return {
        m * p: TradePair(p, 1, k, np.column_stack((r, c, s, (s + 1) % max(m, 1)))[s < m])
        for m in (0, *range(2, p + 1))
    }


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
    options: "list[range] | list[list[int]]",
    roots: list[int],
    deadline: "float | None",
    targets: "frozenset | None",
):
    """Exact covers of the grid from each root in turn, each labeled by
    the DP.  Returns a certificate per size found and whether every
    reachable size was witnessed.

    A partial cover branches on its lowest uncovered cell, trying the
    transversals of ``options[cell]`` in turn.  Every transversal covers
    exactly one row-0 cell, so until a cover is complete that cell is in
    row 0: the tables of ``_cover_tables`` list only cells 0..p-1.

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
                if size not in certificates:
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
        return targets is not None and targets <= certificates.keys()

    def rec(used: int, free: int, top: int, choices) -> bool:
        # extend the partial cover ``chosen`` (cells ``used``, anti-diagonals
        # ``free`` unmet) by each free transversal of ``choices`` in turn;
        # one node may scan 79,259 of them (p = 13), so each reads the clock
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExpired
        # a child with top t reaches new sizes only if t + rest >= reach,
        # rest = f*p + (left - f)*g; the cheaper p*left bounds it first
        left = p - len(chosen) - 1
        loose = p * left
        floor = g * left
        for i in choices:
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
                stop = rec(child, unmet, t, options[(~child & (child + 1)).bit_length() - 1])
            chosen.pop()
            if stop:
                return True
        return False

    try:
        if rec(0, (1 << p) - 1, 0, roots):
            return certificates, False
    except BudgetExpired:
        return certificates, False
    return certificates, True


def _check_spectrum_p(p: int, budget: "float | None") -> None:
    # before any O(p) work, such as listing the admissible mates
    if p > TRANSVERSAL_CAP and budget is None:
        raise ValueError(
            f"p={p} above the exhaustive cap {TRANSVERSAL_CAP};"
            " a budget is required above the cap"
        )
    if p > SPECTRUM_P_MAX:
        raise ValueError(f"p={p} above the spectrum ceiling {SPECTRUM_P_MAX}")


def _spectra(
    p: int, ks: tuple[int, ...], budget: "float | None", targets: "frozenset | None"
) -> SpectrumResult:
    # the mates in turn under one deadline, each searching only for the
    # targets the earlier ones left; an earlier certificate of a size stands
    if targets is not None and not targets:
        raise ValueError("targets names no size")
    start = time.monotonic()
    deadline = _deadline(budget)
    per_k: dict[int, frozenset] = {}
    certificates: dict[int, TradePair] = {}
    exhaustive = True
    for k in ks:
        remaining = None if targets is None else targets.difference(certificates)
        if remaining is not None and not remaining:
            exhaustive = False
            break
        try:
            masks, groups, roots = _cover_tables(p, k, deadline)
        except BudgetExpired:
            found, complete = {}, False
        else:
            found, complete = _cover_search(p, k, masks, groups, roots, deadline, remaining)
        if not complete and (remaining is None or not remaining <= found.keys()):
            # the budget expired; the covers' own certificates take precedence
            found = {**_symbol_swaps(p, k), **found}
        per_k[k] = frozenset(found)
        for size in sorted(found):
            if size not in certificates:
                trade = certificates[size] = found[size]
                # a certificate stays a proof: a wrong label or mate is caught here
                if trade.size != size or not validate_orthogonal_trade(trade):
                    raise RuntimeError(f"certificate for size {size} is not an "
                                       f"orthogonal trade of that size")
        exhaustive = exhaustive and complete
    return SpectrumResult(
        p=p,
        per_k=per_k,
        sizes=frozenset(certificates),
        certificates=certificates,
        exhaustive=exhaustive,
        budget_used=time.monotonic() - start,
    )


def spectrum(
    p: int,
    k: int,
    budget: "float | None" = None,
    targets: "frozenset | None" = None,
) -> SpectrumResult:
    """Sizes of orthogonal trades of index (1, k) in B_p.

    Enumerates partitions of the grid into transversals of B_p(k) (exact
    cover by bitmasks, anti-diagonals tried first so near-identity
    labelings surface early) and runs the labeling DP per partition.
    Stops early once ``targets`` is covered or the budget expires, in
    which case exhaustive is False; an empty ``targets`` is refused.  A
    budget that expires, while the transversals are enumerated or while
    the covers are searched, leaves at least the symbol swaps, sizes
    m*p, which need no search.  Above ``TRANSVERSAL_CAP`` a budget is
    required: the enumeration alone would not finish.  p above
    ``SPECTRUM_P_MAX`` is refused.
    """
    p = _modulus(p)
    _check_spectrum_p(p, budget)
    return _spectra(p, (_mate(k, p),), budget, targets)


def spectrum_all(
    p: int,
    budget: "float | None" = None,
    targets: "frozenset | None" = None,
) -> SpectrumResult:
    """Sizes of orthogonal trades of index (1, k) in B_p over every
    admissible k.

    Transposition maps index-(1, k) trades to index-(1, k^-1) trades of
    the same size, so only the mates k <= k^-1 are searched, in turn
    under one budget; each entry is copied to k^-1, and the copies are
    listed in via_duality.  A mate searches only for the targets the
    earlier ones left, and none is searched once every target is met.
    """
    p = _modulus(p)
    _check_spectrum_p(p, budget)
    res = _spectra(p, tuple(k for k in admissible_mates(p) if k <= pow(k, -1, p)), budget, targets)
    per_k = {**res.per_k, **{pow(k, -1, p): sizes for k, sizes in res.per_k.items()}}
    return replace(res, per_k=dict(sorted(per_k.items())),
                   via_duality=tuple(sorted(per_k.keys() - res.per_k.keys())))


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
        inverses = [pow(1 - k, -1, p) for k in ks]
        lanes = [[1 << c * inv % p for c in range(p)] for inv in inverses]
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


def _mate_class(p: int, K: "tuple[int, ...]") -> "set[tuple[int, ...]]":
    """The mate sets K' with {inf, 0} u K' in the orbit of D = {inf, 0} u K
    under the maps of the projective line of slopes that fix slope 1.

    Such a map that sends a to inf and b to 0, a != b in D, is one of
    them: x -> (x - b)(1 - a) / ((x - a)(1 - b)), in homogeneous form
    (u : v) -> ((a_v - a_u)(b_v*u - b_u*v) : (b_v - b_u)(a_v*u - a_u*v))
    with inf = (1 : 0).  (a, b) = (0, inf) is x -> 1/x, the inverse set.
    """
    D = [(1, 0), (0, 1)] + [(k, 1) for k in K]
    members = set()
    for (au, av), (bu, bv) in itertools.permutations(D, 2):
        images = []
        for u, v in D:
            x = (av - au) * (bv * u - bu * v) % p
            y = (bv - bu) * (av * u - au * v) % p
            if x and y:
                images.append(x * pow(y, -1, p) % p)
        members.add(tuple(sorted(images)))
    return members


def rowperm_sizes(
    p: int, mates: int, budget: "float | None" = None
) -> RowPermSearchResult:
    """Moved-row counts m achievable by permutations preserving
    orthogonality with ``mates`` squares B_p(k) simultaneously.

    Exhausts all mate sets, one per ``_mate_class`` (every set of a class
    has the same counts), and all permutations up to affine conjugation;
    m = p is always present (the shifts) and m = p-1 whenever some
    scaling avoids the mate set.  Each count's witness is the first mate
    set in lexicographic order that reaches it, with its first sigma.
    """
    p = _modulus(p, prime=True)
    if p > TRANSVERSAL_CAP:
        raise ValueError(f"p={p} above the exhaustive cap {TRANSVERSAL_CAP}")
    mates = _integer(mates, "mates")
    if not 1 <= mates <= 5:
        raise ValueError(f"mates={mates} out of range 1..5")
    start = time.monotonic()
    deadline = _deadline(budget)

    witnesses: dict[int, tuple[RowPermutation, tuple[int, ...]]] = {}
    exhaustive = True
    seen = set()
    for K in itertools.combinations(range(2, p), mates):
        if K in seen:
            continue
        seen |= _mate_class(p, K)
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


def enumerate_orthomorphisms(p: int, force: bool = False):
    """Yield every orthomorphism of Z_p, lexicographic by image tuple."""
    p = _modulus(p)
    _check_cap(p, force)
    # the image v of x must be new, and so must v - x: the symbol of shift -x
    for images in _backtrack(p, [(-x % p,) for x in range(p)]):
        yield Orthomorphism(p, tuple(images))


def min_distance_from_linear(p: int, k: int, force: bool = False) -> int:
    """Exact minimum Hamming distance from x -> k*x to any other
    orthomorphism of Z_p.

    Let theta be an orthomorphism that differs from x -> k*x on a set D.
    Then sigma = k^-1 * theta is a row permutation that moves exactly D,
    and it preserves mate k^-1: the values sigma(x) - k^-1 * x =
    k^-1 * (theta(x) - x) are distinct.  Conversely every such sigma
    other than the identity gives the orthomorphism k * sigma.  So the
    distance is the least moved-row count of ``_sigma_search`` for the
    mate set {k^-1}, whose pruned walk records every count the full walk
    reaches.
    """
    p = _modulus(p, prime=True)
    _check_cap(p, force)
    k = _mate(k, p)
    counts: set[int] = set()
    _sigma_search(p, (pow(k, -1, p),), lambda m, sigma: counts.add(m), None, ())
    return min(counts)
