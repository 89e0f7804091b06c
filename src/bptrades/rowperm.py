"""Orthogonal trades whose mate permutes whole rows of B_p.

A permutation sigma of Z_p with support R yields the trade that
replaces row r by row sigma(r) for r in R.  The traded square stays
orthogonal to B_p(k) exactly when the values k*r - sigma(r) are
pairwise distinct over all of Z_p; off the support these are (k-1)*r,
so the support values must hit {(k-1)*r : r in R} exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from bptrades.core import _integer, _mate, _modulus
from bptrades.matrices import TradeMatrix, symbol_system
from bptrades.trades import TradePair

__all__ = [
    "RowPermutation",
    "rowperm_orthogonal",
    "trade_from_rowperm",
    "rowperm_from_symbol",
    "trade_from_matrix",
    "three_row_trade",
    "find_k",
]


@dataclass(frozen=True)
class RowPermutation:
    """Permutation of Z_p as an image table; support = moved rows.

    Supports of size 1 cannot occur in a permutation and size 2 (a
    transposition) can never carry a valid trade, so both are rejected
    at construction.
    """

    p: int
    images: tuple[int, ...]
    support: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        p = _integer(self.p, "p")
        images = tuple(map(_integer, self.images, repeat("image")))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "images", images)
        if len(images) != p:
            raise ValueError(f"expected {p} images, got {len(images)}")
        if sorted(images) != list(range(p)):
            raise ValueError("images are not a permutation of Z_p")
        support = tuple(r for r in range(p) if images[r] != r)
        if len(support) in (1, 2):
            raise ValueError(f"support of size {len(support)} cannot carry a trade")
        object.__setattr__(self, "support", support)

    @classmethod
    def from_cycle(cls, p: int, cycle: "tuple[int, ...]") -> "RowPermutation":
        return cls.from_map(p, dict(zip(cycle, cycle[1:] + cycle[:1])))

    @classmethod
    def from_map(cls, p: int, moved: dict[int, int]) -> "RowPermutation":
        images = list(range(_integer(p, "p")))
        for a, b in moved.items():
            a = _integer(a, "row")
            if not 0 <= a < len(images):
                raise ValueError(f"row {a} out of range 0..{len(images) - 1}")
            images[a] = b
        return cls(p, tuple(images))


def rowperm_orthogonal(sigma: RowPermutation, ks: "set[int] | frozenset[int]") -> bool:
    """Whether the row-permuted square is orthogonal to B_p(k) for all k in ks."""
    p = sigma.p
    ks = [_mate(k, p) for k in ks]
    supp = sigma.support
    for k in ks:
        vals = {(k * r - sigma.images[r]) % p for r in supp}
        target = {(k - 1) * r % p for r in supp}
        if len(vals) != len(supp) or vals != target:
            return False
    return True


def trade_from_rowperm(sigma: RowPermutation, k: int) -> TradePair:
    """The index-(1,k) trade moving each supported row r onto row sigma(r)."""
    if not sigma.support:
        raise ValueError("identity permutation carries no trade")
    if not rowperm_orthogonal(sigma, {k}):
        raise ValueError(f"row permutation is not orthogonal for k={k}")
    p = sigma.p
    # whole rows: row r holds r + c over the mate's sigma(r) + c, and the
    # ascending support makes the stacked rows row-major already
    rows = np.array(sigma.support, dtype=np.int64)
    cols = np.arange(p)
    a = np.empty((len(rows), p, 4), dtype=np.int64)
    a[:, :, 0] = rows[:, None]
    a[:, :, 1] = cols
    a[:, :, 2] = (rows[:, None] + cols) % p
    a[:, :, 3] = (np.array(sigma.images)[rows][:, None] + cols) % p
    return TradePair(p, 1, k, a.reshape(-1, 4))


def rowperm_from_symbol(t: TradePair, s: int) -> RowPermutation:
    """Row permutation read off a symbol of an index-(1,k) orthogonal trade.

    The phi of the symbol's linear system, extended by the identity,
    satisfies rowperm_orthogonal for the trade's own k.
    """
    sys = symbol_system(t, s)
    return RowPermutation.from_map(t.p, sys.phi)


def trade_from_matrix(A: TradeMatrix, u: tuple[int, ...], k: int, p: int) -> TradePair:
    """Rebuild a row-permutation trade from a P1-P3 matrix system.

    Each row and each column must hold k on the diagonal and exactly
    -1 and -(k-1) off it (u labels the rows).  These entries form a
    bipartite 2-regular multigraph, split into phi and phi_prime by one
    walk for every k: each cycle starts at its least row, along that
    row's least -1 column as phi, and alternates.  For k != 2 the phi
    edges are exactly the -1 entries; for k = 2, where the two roles
    coincide, the walk fixes the orientation.  A -2 entry would force
    phi = phi_prime on a row, which no trade allows.
    """
    return trade_from_rowperm(_rowperm_from_matrix(A, u, k, p), k)


def _rowperm_from_matrix(A: TradeMatrix, u: tuple[int, ...], k: int, p: int) -> RowPermutation:
    # the phi of trade_from_matrix, extended by the identity
    p = _modulus(p)
    k = _mate(k, p)
    m = A.m
    if len(u) != m or len(set(u)) != m:
        raise ValueError("u must label the rows with distinct residues")
    if any(not 0 <= x < p for x in u):
        raise ValueError(f"u entries out of range mod {p}")

    # the column check keeps a k != 2 matrix whose -1 entries share a
    # column out of the walk, which reads phi off the rows alone
    pair = sorted((-1, 1 - k))
    cols: list[list[int]] = []
    rows_of: list[list[int]] = [[] for _ in range(m)]
    for i, row in enumerate(A.entries):
        if row[i] != k:
            raise ValueError(f"diagonal entry ({i},{i}) = {row[i]}, expected {k}")
        off = [j for j in range(m) if j != i and row[j]]
        if sorted(row[j] for j in off) != pair:
            raise ValueError(f"row {i} does not split into -1 and {1 - k}")
        cols.append(off)
        for j in off:
            rows_of[j].append(i)
    for j, rs in enumerate(rows_of):
        if sorted(A.entries[i][j] for i in rs) != pair:
            raise ValueError(f"column {j} does not split into -1 and {1 - k}")
    phi_map: dict[int, int] = {}
    for start in range(m):
        if u[start] in phi_map:
            continue
        i, j = start, min(j for j in cols[start] if A.entries[start][j] == -1)
        while True:
            phi_map[u[i]] = u[j]
            i = rows_of[j][1] if rows_of[j][0] == i else rows_of[j][0]
            if i == start:
                break
            j = cols[i][1] if cols[i][0] == j else cols[i][0]
    if any(v % p for v in A.apply(u)):
        raise ValueError(f"A*u != 0 mod {p}")
    return RowPermutation.from_map(p, phi_map)


def three_row_trade(p: int) -> "tuple[RowPermutation, int] | None":
    """The three-cycle trade (0 -> 1 -> find_k(p) -> 0), present iff p = 1 mod 6."""
    p = _modulus(p, prime=True)
    if p % 6 != 1:
        return None
    k = find_k(p)
    sigma = RowPermutation.from_cycle(p, (0, 1, k))
    if not rowperm_orthogonal(sigma, {k}):
        raise RuntimeError(f"three-cycle (0 1 {k}) does not preserve B_{p}({k})")
    return sigma, k


def find_k(p: int) -> int:
    """The root of k^2 - k + 1 = 0 mod p lying in [2, (p+1)/2].

    k is a root exactly when -k is a primitive cube root of unity, since
    x^3 - 1 = (x - 1)(x^2 + x + 1); those exist iff p = 1 mod 6.  The
    least x with w = x^((p-1)/3) != 1 gives one, w, and the roots are
    k = p - w and 1 + w: a pair k, 1-k, of which the lesser lands in the
    range.
    """
    p = _modulus(p, prime=True)
    if p % 6 != 1:
        raise ValueError(f"p={p} is not 1 mod 6; no k with k^2-k+1 = 0 exists")
    w = next(w for w in (pow(x, (p - 1) // 3, p) for x in range(2, p)) if w != 1)
    k = min(p - w, 1 + w)
    if (k * k - k + 1) % p:
        raise RuntimeError(f"{k} is not a root of k^2 - k + 1 mod {p}")
    return k
