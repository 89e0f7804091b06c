"""Explicit orthogonal-trade family of size 3k(k-1) for p = 1 mod 6.

k solves k^2 - k + 1 = 0 mod p, normalized into [2, (p+1)/2].  The
trade occupies row 0 plus the row pairs i(k-1), i(k-1)+1 for
1 <= i <= k-1; its mate is given by six explicit column-range tables.
Applying the trade plants an intercalate (a 2x2 subsquare) into the
traded square, something no cyclic square of odd order contains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bptrades.core import _modulus
from bptrades.rowperm import find_k
from bptrades.trades import TradePair, validate_orthogonal_trade

__all__ = ["FamilyWitness", "find_k", "construct", "intercalate_witness"]


@dataclass(frozen=True)
class FamilyWitness:
    p: int
    k: int
    trade: TradePair
    intercalate: tuple[tuple[int, int, int], ...]


def _range_cells(p: int, k: int, ranges: list[tuple[int, ...]]) -> tuple[np.ndarray, ...]:
    """Row-major (rows, cols, symbols) of column ranges (i, row, lo, hi, shift).

    A range covers the cells (i(k-1) + row, j) for lo <= j < hi, holding
    i(k-1) + j + shift, all mod p; a range with hi <= lo is empty.  The
    ranges of a row are disjoint, so ordering them by (row, lo) orders
    their cells.
    """
    i, row, lo, hi, shift = np.array(ranges, dtype=np.int64).T
    row = (i * (k - 1) + row) % p
    order = np.lexsort((lo, row))
    row, lo, hi, shift = row[order], lo[order], hi[order], (i * (k - 1) + shift)[order]
    n = np.maximum(hi - lo, 0)
    j = np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)
    return np.repeat(row, n), j, (j + np.repeat(shift, n)) % p


def construct(p: int) -> FamilyWitness:
    """Build the size-3k(k-1) orthogonal trade of index (1, k).

    Cell sets follow the displayed unions verbatim, one column range per
    (i, row, lo, hi, shift) below; ranges that come out empty (the first
    mate set at i = k-1, the last at i = 0) contribute no cells.
    """
    p = _modulus(p, prime=True)
    k = find_k(p)
    # row 0 is row i(k-1) at i = 0
    base = [(0, 0, 0, k - 1, 0), (0, 0, k, 2 * k - 1, 0)]
    mate = [(0, 0, 0, k - 1, k), (0, 0, k, 2 * k - 1, -k)]
    for i in range(1, k):
        base += [(i, 0, i, 2 * (k - 1) + 1, 0), (i, 1, 0, k + i - 1, 1)]
        mate += [
            # row i(k-1) of the mate, three column ranges
            (i, 0, i, k - 1, k),
            (i, 0, k - 1, k + i - 1, 1),
            (i, 0, k + i - 1, 2 * (k - 1) + 1, -(k - 1)),
            # row i(k-1)+1 of the mate, three column ranges
            (i, 1, 0, i, k),
            (i, 1, i, k, 0),
            (i, 1, k, k + i - 1, 1 - k),
        ]
    # each column is dropped once copied, and the entries once the trade
    # holds its own copy: the peak stays near two copies of the trade
    rows, cols, symbols = _range_cells(p, k, base)
    entries = np.empty((len(rows), 4), dtype=np.int64)
    entries[:, 0], entries[:, 1], entries[:, 2] = rows, cols, symbols
    del rows, cols, symbols
    rows, cols, entries[:, 3] = _range_cells(p, k, mate)
    if not (np.array_equal(entries[:, 0], rows) and np.array_equal(entries[:, 1], cols)):
        raise ValueError("base and mate cell sets differ; construction bug")
    del rows, cols
    trade = TradePair(p, 1, k, entries)
    del entries
    if trade.size != 3 * k * (k - 1):
        raise ValueError(f"size {trade.size} != 3k(k-1) = {3 * k * (k - 1)}")
    report = validate_orthogonal_trade(trade)
    if not report.is_orthogonal_trade:
        raise ValueError(f"constructed trade invalid: {report.failures[:3]}")
    intercalate = (
        ((k - 1) % p, 1, 2 * k % p),
        ((k - 1) % p, k, k),
        (k % p, 1, k),
        (k % p, k, 2 * k % p),
    )
    return FamilyWitness(p=p, k=k, trade=trade, intercalate=intercalate)


def intercalate_witness(w: FamilyWitness) -> tuple[tuple[int, int, int], ...]:
    """Check the 2x2 subsquare the trade plants and return its triples.

    The trade must have index (1, k) in B_p, with the witness's p and k,
    and pass validate_orthogonal_trade.  As k - 1 is a unit, that O(size)
    test equals the dense p^2 test that the traded square is Latin and
    orthogonal to B_p(k) (see the trades module), so that square is never
    built.  Its cells (k-1,1), (k-1,k), (k,1), (k,k) must hold 2k, k, k,
    2k: a binary search finds each in the row-major entries, and a cell
    the trade does not cover holds its B_p(1) symbol (r + c) mod p.
    """
    t, p = w.trade, w.p
    if (t.p, t.ell, t.k) != (p, 1, w.k):
        raise ValueError(f"trade of index {(t.p, t.ell, t.k)}, not (p, 1, k) = {(p, 1, w.k)}")
    report = validate_orthogonal_trade(t)
    if not report.is_orthogonal_trade:
        raise ValueError(f"not an orthogonal trade: {report.failures[:3]}")
    (r1, c1, s1), (_, c2, s2), (r2, _, _), _ = w.intercalate
    cells = ((r1, c1, s1), (r1, c2, s2), (r2, c1, s2), (r2, c2, s1))
    if s1 == s2 or tuple(map(tuple, w.intercalate)) != cells:
        raise ValueError("witness cells do not form an intercalate")
    if not all(0 <= r < p and 0 <= c < p for r, c, _ in cells):
        raise ValueError(f"witness cells {cells} leave the square")
    for r, c, s in cells:
        i = int(np.searchsorted(t._cells, r * p + c))
        held = int(t.array[i, 3]) if i < t.size and t._cells[i] == r * p + c else (r + c) % p
        if held != s:
            raise ValueError(f"cell ({r},{c}) holds {held}, expected {s}")
    return w.intercalate
