"""Exact integer linear algebra for trade matrices and size bounds.

A trade matrix has positive diagonal, non-positive off-diagonal and
non-negative row sums.  Two producers live here: the per-symbol linear
system of an orthogonal trade, and the symbol-indexed balance matrix of
a Latin trade.  Determinants are exact (fraction-free elimination over
big integers); only the logarithmic bound evaluations use floats, with
a fixed absolute slack of 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

from bptrades.core import _integer, _mate, _modulus
from bptrades.trades import TradePair, validate_latin_trade, validate_orthogonal_trade

__all__ = [
    "TradeMatrix",
    "SymbolSystem",
    "DominanceReport",
    "SizeBounds",
    "symbol_system",
    "balance_matrix",
    "det_exact",
    "dominance_report",
    "size_bounds",
    "check_bcc2",
]

SLACK = 1e-9


@dataclass(frozen=True)
class TradeMatrix:
    """Square integer matrix with the sign pattern of a trade system;
    m and the entries follow the integer rule and are stored as ints."""

    m: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = _integer(self.m, "m")
        entries = tuple(tuple(map(_integer, row, repeat("entry"))) for row in self.entries)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "entries", entries)
        if m < 1 or len(entries) != m:
            raise ValueError(f"expected {m} rows, got {len(entries)}")
        for i, row in enumerate(entries):
            if len(row) != m:
                raise ValueError(f"row {i} has {len(row)} entries, expected {m}")
            if row[i] <= 0:
                raise ValueError(f"diagonal entry ({i},{i}) = {row[i]} not positive")
            if any(row[j] > 0 for j in range(m) if j != i):
                raise ValueError(f"positive off-diagonal in row {i}")
            if sum(row) < 0:
                raise ValueError(f"row {i} sums to {sum(row)} < 0")

    def minor_matrix(self, i: int) -> "TradeMatrix":
        """Delete row and column i (the paper's A-prime reduction)."""
        keep = [j for j in range(self.m) if j != i]
        return TradeMatrix(
            self.m - 1,
            tuple(tuple(self.entries[r][c] for c in keep) for r in keep),
        )

    def apply(self, u: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sum(row[j] * u[j] for j in range(self.m)) for row in self.entries)


@dataclass(frozen=True)
class SymbolSystem:
    """Per-symbol linear system of an index-(1,k) orthogonal trade."""

    matrix: TradeMatrix
    rows: tuple[int, ...]
    u: tuple[int, ...]
    phi: dict[int, int]
    phi_prime: dict[int, int]
    symbol: int
    k: int


@dataclass(frozen=True)
class DominanceReport:
    diagonally_dominant: bool
    irreducible: bool
    has_strict_row: bool
    nonsingular_guaranteed: bool


@dataclass(frozen=True)
class SizeBounds:
    K: int
    symbol_lb: float
    trade_lb: float
    perm_lb: float


def symbol_system(t: TradePair, s: int) -> SymbolSystem:
    """Assemble the linear system a symbol of an orthogonal trade satisfies.

    With R the rows holding symbol s, phi(r) locates s among the mates
    (s sits at cell (r, s - phi(r)) of the mate set) and
    phi_prime(r) = (k*r - phi(r)) / (k - 1).  The matrix carries k on
    the diagonal, -1 at phi and -(k-1) at phi_prime; both maps must be
    fixed-point-free permutations of R, anything else signals a corrupt
    trade.  A*u = 0 (mod p) is asserted before returning.
    """
    if t.ell != 1:
        raise ValueError(f"symbol systems need index (1, k); got ell={t.ell}")
    report = validate_orthogonal_trade(t)
    if not report.is_orthogonal_trade:
        raise ValueError(f"not an orthogonal trade: {report.failures[:3]}")
    if t.k is None:
        raise ValueError("orthogonality index k is not set")
    p, k = t.p, t.k
    rows = tuple(sorted(r for r, _, b, _ in t.entries if b == s))
    if not rows:
        raise ValueError(f"symbol {s} does not occur in the trade")
    index = {r: i for i, r in enumerate(rows)}

    phi: dict[int, int] = {}
    for r, c, _, mate in t.entries:
        if mate == s:
            if r not in index:
                raise ValueError(f"mate symbol {s} in row {r} outside R")
            phi[r] = (s - c) % p
    if sorted(phi) != list(rows) or sorted(phi.values()) != list(rows):
        raise ValueError(f"phi for symbol {s} is not a permutation of R")
    if any(phi[r] == r for r in rows):
        raise ValueError(f"phi for symbol {s} has a fixed point; corrupt trade")

    inv_km1 = pow(k - 1, -1, p)
    phi_prime = {r: (k * r - phi[r]) * inv_km1 % p for r in rows}
    if any(v not in index for v in phi_prime.values()):
        raise ValueError(f"phi_prime for symbol {s} leaves R; corrupt trade")
    if any(phi_prime[r] in (r, phi[r]) for r in rows):
        raise ValueError(f"phi_prime for symbol {s} collides with phi or identity")

    entries = []
    for r in rows:
        row = [0] * len(rows)
        row[index[r]] = k
        row[index[phi[r]]] -= 1
        row[index[phi_prime[r]]] -= k - 1
        entries.append(row)
    matrix = TradeMatrix(len(rows), entries)
    if any(v % p for v in matrix.apply(rows)):
        raise ValueError(f"A*u != 0 mod {p} for symbol {s}; corrupt trade")
    return SymbolSystem(matrix, rows, rows, phi, phi_prime, s, k)


def balance_matrix(t: TradePair) -> tuple[TradeMatrix, tuple[int, ...]]:
    """Symbol-indexed balance matrix of a Latin trade in B_p(1).

    One row per distinct symbol; diagonal counts the symbol's cells,
    and entry (i, j) drops by one per cell whose mate is s_i and base
    is s_j.  Row and column sums vanish, and D*u = 0 (mod p) for the
    symbol vector u.
    """
    if t.ell != 1:
        raise ValueError(f"balance matrix needs a trade in B_p(1); got ell={t.ell}")
    report = validate_latin_trade(t)
    if not report.is_latin_trade:
        raise ValueError(f"not a Latin trade: {report.failures[:3]}")
    if t.size == 0:
        raise ValueError("empty trade has no balance matrix")
    symbols = tuple(sorted({b for _, _, b, _ in t.entries}))
    index = {s: i for i, s in enumerate(symbols)}
    m = len(symbols)
    grid = [[0] * m for _ in range(m)]
    for _, _, base, mate in t.entries:
        grid[index[base]][index[base]] += 1
        grid[index[mate]][index[base]] -= 1
    matrix = TradeMatrix(m, grid)
    if any(v % t.p for v in matrix.apply(symbols)):
        raise ValueError(f"D*u != 0 mod {t.p}; inconsistent trade")
    return matrix, symbols


def det_exact(A: TradeMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    m = A.m
    a = [list(row) for row in A.entries]
    sign = 1
    prev = 1
    for i in range(m - 1):
        if a[i][i] == 0:
            for r in range(i + 1, m):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, m):
            for c in range(i + 1, m):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    det = sign * a[m - 1][m - 1]
    diag_product = math.prod(A.entries[i][i] for i in range(m))
    if det > diag_product:
        raise RuntimeError(f"det {det} exceeds diagonal product {diag_product}")
    return det


def _strongly_connected(A: TradeMatrix) -> bool:
    # Kosaraju on the nonzero off-diagonal digraph; m stays tiny
    m = A.m
    fwd = [[j for j in range(m) if j != i and A.entries[i][j] != 0] for i in range(m)]
    rev = [[j for j in range(m) if j != i and A.entries[j][i] != 0] for i in range(m)]

    def reach(adj: list[list[int]]) -> int:
        seen = {0}
        stack = [0]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen)

    return reach(fwd) == m and reach(rev) == m


def dominance_report(A: TradeMatrix) -> DominanceReport:
    """Dominance, irreducibility and the strict-row condition for A.

    nonsingular_guaranteed is the conjunction; when it holds the exact
    determinant cannot vanish.
    """
    dominant = all(
        2 * abs(row[i]) >= sum(abs(x) for x in row) for i, row in enumerate(A.entries)
    )
    strict = any(
        2 * abs(row[i]) > sum(abs(x) for x in row) for i, row in enumerate(A.entries)
    )
    irreducible = _strongly_connected(A)
    return DominanceReport(
        diagonally_dominant=dominant,
        irreducible=irreducible,
        has_strict_row=strict,
        nonsingular_guaranteed=dominant and irreducible and strict,
    )


def size_bounds(p: int, k: int) -> SizeBounds:
    """Lower bounds for index-(1,k) orthogonal trades in B_p.

    K = min(k, 1/k); symbol_lb = log_K(p) + 1 bounds each symbol's
    occurrence count (strict >), trade_lb bounds the trade size and
    perm_lb the number of rows moved by a row-permutation trade.
    Logarithms are natural.
    """
    p = _modulus(p, prime=True)
    k = _mate(k, p)
    K = min(k, pow(k, -1, p))
    log_K_p = math.log(p) / math.log(K)
    symbol_lb = log_K_p + 1
    trade_lb = math.log(p) * log_K_p / math.log(log_K_p)
    return SizeBounds(K=K, symbol_lb=symbol_lb, trade_lb=trade_lb, perm_lb=symbol_lb)


def check_bcc2(t: TradePair) -> bool:
    """Size bound |T| >= m * p^(1/m) + 2, with m+1 the nonempty rows.

    Holds for prime p.  Composite orders can violate it: a trade
    supported on a subsquare of order q | p satisfies only the bound
    for q, so callers on composite-order trades get the raw inequality,
    not a theorem.
    """
    report = validate_latin_trade(t)
    if not report.is_latin_trade:
        raise ValueError(f"not a Latin trade: {report.failures[:3]}")
    if t.size == 0:
        return True
    m = len(t.rows_used()) - 1
    if m == 0:
        return False
    return t.size >= m * t.p ** (1.0 / m) + 2 - SLACK
