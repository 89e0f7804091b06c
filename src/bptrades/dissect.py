"""Square dissections of n x (n+3) rectangles and the small trades they give.

Cutting each square of a dissection along its anti-diagonal, and adding
two corner triangles, tiles the right triangle with legs w + h.  The
right-angle vertices of the tiles are cells of a Latin trade in the
addition table of Z_{w+h}; when the dissection is good, every symbol of
that trade occurs exactly twice.  The good dissections are built in
closed form: doubling the dissection for a quartered frame and wrapping
it in at most five squares keeps the square count at O(log n), so for
prime p = 2n + 3 this yields a trade of size O(log p) whose balance
matrix feeds trade_from_matrix with k = 2.  The levels are built in a
loop on plain square lists; only the finished dissection is validated
as a partition and checked for goodness, once, in time linear in its
squares apart from one sort of their corners.

Frame: x rightward in [0, w], y upward in [0, h].  The goodness
conditions treat (0, h) as the distinguished corner, and the two
forbidden anti-diagonals become x + y = h + 1 and x + y = h + 2.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

from bptrades.core import _integer, _modulus
from bptrades.matrices import balance_matrix
from bptrades.rowperm import RowPermutation, _rowperm_from_matrix, trade_from_matrix
from bptrades.rowperm import trade_from_rowperm
from bptrades.trades import TradePair, validate_latin_trade

__all__ = [
    "SquareDissection",
    "GoodnessReport",
    "check_good",
    "base_dissection",
    "good_dissection",
    "dissection_to_trade",
    "dissection_svg",
    "log_trade",
    "small_rowperm_pipeline",
    "symbol_twice_search",
]

Square = tuple[int, int, int]


@dataclass(frozen=True)
class SquareDissection:
    """Integer squares partitioning a w x h rectangle.

    ``w``, ``h`` and every square component must be integers (Python or
    numpy; bool and float are refused).  Construction validates the
    partition: positive sides, containment, total area w*h, and then
    the corner counts of a tiling, which rule out overlaps.  Squares
    are stored sorted as tuples of Python ints.
    """

    w: int
    h: int
    squares: tuple[Square, ...]

    def __post_init__(self) -> None:
        w, h = _integer(self.w, "w"), _integer(self.h, "h")
        if w < 1 or h < 1:
            raise ValueError(f"rectangle {w}x{h} is degenerate")
        squares = []
        for sq in self.squares:
            sq = tuple(_integer(v, "square component") for v in sq)
            if len(sq) != 3:
                raise ValueError(f"square {sq} is not (x, y, side)")
            squares.append(sq)
        squares = tuple(sorted(squares))
        # a cover count is the 2-D prefix sum of its corner differences, so
        # the squares tile the rectangle exactly when the corners that count
        # +1 (squares' lower-left and upper-right, rectangle's other two)
        # and those that count -1 are equal multisets
        area, plus, minus = 0, [(w, 0), (0, h)], [(0, 0), (w, h)]
        for x, y, s in squares:
            if s < 1:
                raise ValueError(f"square {(x, y, s)} has nonpositive side")
            if x < 0 or y < 0 or x + s > w or y + s > h:
                raise ValueError(f"square {(x, y, s)} leaves the rectangle")
            area += s * s
            plus += ((x, y), (x + s, y + s))
            minus += ((x + s, y), (x, y + s))
        if area != w * h:
            raise ValueError(f"square areas cover {area} of {w * h}")
        plus.sort()
        minus.sort()
        if plus != minus:
            # the least point whose counts differ is the least at the
            # first mismatch; contained squares of full area that do not
            # tile must overlap
            px, py = next(min(a, b) for a, b in zip(plus, minus) if a != b)
            raise ValueError(
                f"squares overlap: corner counts at ({px}, {py}) differ from a tiling")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "squares", squares)

    @property
    def order(self) -> int:
        return len(self.squares)

    def to_json(self, pretty: bool = False) -> str:
        obj = {
            "n": self.h,
            "w": self.w,
            "h": self.h,
            "squares": [list(sq) for sq in self.squares],
        }
        if pretty:
            return json.dumps(obj, indent=2) + "\n"
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "SquareDissection":
        obj = json.loads(text)
        return cls(obj["w"], obj["h"], tuple(tuple(sq) for sq in obj["squares"]))


@dataclass(frozen=True)
class GoodnessReport:
    """Flags certifying that a dissection converts to a symbol-twice trade.

    ``failures`` lists (flag, detail) pairs with the offending
    coordinates; the report is truthy when every flag holds.
    """

    g1_oplus_free: bool
    g2_origin_side_ge_3: bool
    g4_avoids_lines: bool
    pairing_ok: bool
    vertex_collision_free: bool
    failures: tuple[tuple[str, str], ...] = ()

    def __bool__(self) -> bool:
        return (
            self.g1_oplus_free
            and self.g2_origin_side_ge_3
            and self.g4_avoids_lines
            and self.pairing_ok
            and self.vertex_collision_free
        )


def _trade_vertices(d: SquareDissection) -> list[tuple[int, int]]:
    # lower-left and upper-right corners plus the two filler vertices
    pts = []
    for x, y, s in d.squares:
        pts.append((x, y))
        pts.append((x + s, y + s))
    pts.append((d.w, 0))
    pts.append((0, d.h))
    return pts


def check_good(d: SquareDissection) -> GoodnessReport:
    """Decide whether a dissection yields a symbol-twice trade.

    g1: no lattice point touches four squares.  g2: the square with a
    corner at (0, h) has side at least 3.  g4: no square corner lies on
    x + y = h + 1 or x + y = h + 2.  pairing_ok: over the squares'
    lower-left and upper-right corners plus the filler vertices (w, 0)
    and (0, h), every residue (x + y) mod (w + h) occurs exactly twice.
    vertex_collision_free: those vertices are pairwise distinct.
    """
    failures: list[tuple[str, str]] = []
    modulus = d.w + d.h

    # in a partition a point touches four squares only as a corner of all four
    corners = [
        pt
        for x, y, s in d.squares
        for pt in ((x, y), (x + s, y), (x, y + s), (x + s, y + s))
    ]
    touching = Counter(corners)
    g1 = True
    for px, py in sorted(pt for pt, cnt in touching.items() if cnt >= 4):
        g1 = False
        failures.append(
            ("g1", f"point ({px}, {py}) touches {touching[px, py]} squares"))

    origin_sq = next(
        ((x, y, s) for x, y, s in d.squares if x == 0 and y + s == d.h), None
    )
    g2 = origin_sq is not None and origin_sq[2] >= 3
    if not g2:
        failures.append(("g2", f"corner (0, {d.h}) square {origin_sq}"))

    g4 = True
    for px, py in corners:
        if px + py in (d.h + 1, d.h + 2):
            g4 = False
            failures.append(("g4", f"corner ({px}, {py}) on x+y={px + py}"))

    vertices = _trade_vertices(d)
    residues = Counter((px + py) % modulus for px, py in vertices)
    pairing = all(cnt == 2 for cnt in residues.values())
    for res in sorted(r for r, cnt in residues.items() if cnt != 2):
        failures.append(("pairing", f"residue {res} hit {residues[res]} times"))

    dup = sorted(pt for pt, cnt in Counter(vertices).items() if cnt > 1)
    vertex_ok = not dup
    for pt in dup:
        failures.append(("vertex", f"vertex {pt} reused"))

    return GoodnessReport(g1, g2, g4, pairing, vertex_ok, tuple(failures))


# -- constructing good dissections -----------------------------------------------


def _checked_good(d: SquareDissection) -> SquareDissection:
    report = check_good(d)
    if not report:
        raise RuntimeError(
            f"built {d.w}x{d.h} dissection is not good: {report.failures}")
    return d


def _base_squares(n: int) -> list[Square]:
    squares = [(0, 0, n)] + [(n, y, 3) for y in range(0, n - 2, 3)]
    y = n - n % 3
    if n % 3 == 1:
        squares += [(n, y, 1), (n + 1, y, 1), (n + 2, y, 1)]
    elif n % 3 == 2:
        squares += [(n, y, 2), (n + 2, y, 1), (n + 2, y + 1, 1)]
    return squares


def _good_squares(n: int) -> list[Square]:
    # level n = 4k + z holds its own squares and those of level k, doubled
    # and moved down by a + z (a = 2k); the moves compose to one scale and
    # shift per level, and the list runs from the base level up
    levels, scale, shift = [], 1, 0
    while n > 14:
        z = 3 + (n - 3) % 4
        a = (n - z) // 2
        own = [(0, 0, a + z), (a + z, 0, a + 3), (a + 6, a + 3, a + z - 3)]
        own += [(x, y, 1) for x in range(a + z, a + 6) for y in range(a + 3, a + z)]
        levels.append((scale, shift, own))
        scale, shift, n = 2 * scale, shift + scale * (a + z), a // 2
    levels.append((scale, shift, _base_squares(n)))
    return [(scale * x, scale * y + shift, scale * s)
            for scale, shift, own in reversed(levels) for x, y, s in own]


def base_dissection(n: int) -> SquareDissection:
    """Good dissection of n x (n+3) for 3 <= n <= 14, at most 8 squares.

    The n-square sits at the origin and 3-squares stack up the 3-wide
    strip beside it.  A remainder n mod 3 of 1 tops the strip with three
    unit squares; a remainder of 2 with a 2-square and two unit squares
    stacked on its right.
    """
    if not 3 <= n <= 14:
        raise ValueError(f"n={n} out of range 3..14")
    return _checked_good(SquareDissection(n + 3, n, tuple(_base_squares(n))))


def good_dissection(n: int) -> SquareDissection:
    """Good dissection of n x (n+3) using at most 3 + 5*log4(n+1) squares.

    For n <= 14 this is base_dissection.  For n = 4k + z (z in 3..6,
    k >= 3) the dissection for k is doubled into the a x (a+6) top-left
    corner, a = 2k, and wrapped in three squares of sides a+z, a+3 and
    a+z-3 plus the (6-z) x (z-3) unit squares left between them.  The
    intermediate levels are plain square lists; the finished dissection
    is validated and checked for goodness once.
    """
    if n < 3:
        raise ValueError(f"n={n} must be at least 3")
    return _checked_good(SquareDissection(n + 3, n, tuple(_good_squares(n))))


# -- conversion to trades ----------------------------------------------------


def dissection_to_trade(d: SquareDissection) -> TradePair:
    """Latin trade in Z_{w+h} read off the triangle tiling of a good dissection.

    Each square (x, y, s) contributes the entries (x, y, x+y, x+y+s) and
    (x+s, y+s, x+y+2s, x+y+s); the filler triangles contribute
    (w, 0, w, 0) and (0, h, h, 0), all mod w+h.  The result has size
    2*order + 2 and every symbol occurs exactly twice.  A composite
    modulus is allowed; validity in the Z_{w+h} addition table is
    checked either way.
    """
    report = check_good(d)
    if not report:
        raise ValueError(f"dissection is not good: {report.failures}")
    return _trade_of_good(d)


def _trade_of_good(d: SquareDissection) -> TradePair:
    # dissection_to_trade for a dissection that check_good has passed
    modulus = d.w + d.h
    entries = []
    for x, y, s in d.squares:
        entries.append((x, y, (x + y) % modulus, (x + y + s) % modulus))
        entries.append(
            (x + s, y + s, (x + y + 2 * s) % modulus, (x + y + s) % modulus)
        )
    entries.append((d.w, 0, d.w % modulus, 0))
    entries.append((0, d.h, d.h % modulus, 0))
    t = TradePair(modulus, 1, None, np.array(entries))
    rep = validate_latin_trade(t)
    if not rep.is_latin_trade:
        raise ValueError(f"dissection trade failed validation: {rep.failures}")
    if any(cnt != 2 for cnt in rep.symbol_histogram.values()):
        raise ValueError("dissection trade is not symbol-twice")
    return t


def dissection_svg(d: SquareDissection) -> str:
    """Deterministic SVG: the embedding triangle, squares at 16px per unit,
    the two filler triangles, and dashed anti-diagonal cut lines."""
    unit = 16
    total = d.w + d.h

    def pt(x: int, y: int) -> str:
        return f"{x * unit},{(total - y) * unit}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total * unit}"'
        f' height="{total * unit}" viewBox="0 0 {total * unit} {total * unit}">',
        f'<polygon points="{pt(0, 0)} {pt(total, 0)} {pt(0, total)}"'
        ' fill="none" stroke="black"/>',
        f'<polygon points="{pt(d.w, 0)} {pt(total, 0)} {pt(d.w, d.h)}"'
        ' fill="#dddddd" stroke="black"/>',
        f'<polygon points="{pt(0, d.h)} {pt(0, total)} {pt(d.w, d.h)}"'
        ' fill="#dddddd" stroke="black"/>',
    ]
    for x, y, s in d.squares:
        lines.append(
            f'<rect x="{x * unit}" y="{(total - y - s) * unit}"'
            f' width="{s * unit}" height="{s * unit}" fill="none" stroke="black"/>'
        )
        lines.append(
            f'<line x1="{x * unit}" y1="{(total - y - s) * unit}"'
            f' x2="{(x + s) * unit}" y2="{(total - y) * unit}"'
            ' stroke="black" stroke-dasharray="4 4"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# -- the O(log p) pipeline ------------------------------------------------------


def _stored_small_trade(p: int) -> TradePair:
    text = (
        resources.files("bptrades").joinpath(f"data/small_trade_{p}.json").read_text()
    )
    return TradePair.from_json(text)


def log_trade(p: int) -> TradePair:
    """Symbol-twice Latin trade in B_p of size O(log p), p an odd prime >= 5.

    p = 5 and 7 sit below the dissection construction and use stored
    trades found by symbol_twice_search; larger primes go through
    good_dissection((p-3)/2), so the size is at most
    2*(3 + 5*log4((p-1)/2)) + 2.
    """
    p = _modulus(p, prime=True)
    if p < 5:
        raise ValueError(f"p={p} admits no symbol-twice trade")
    if p in (5, 7):
        return _stored_small_trade(p)
    return _trade_of_good(good_dissection((p - 3) // 2))


def small_rowperm_pipeline(p: int) -> tuple[RowPermutation, TradePair]:
    """Orthogonal trade of index (1, 2) permuting O(log p) rows of B_p.

    Chains log_trade -> balance_matrix -> the row permutation that
    trade_from_matrix recovers with k = 2 -> trade_from_rowperm.  The
    symbol-twice property pins every diagonal entry of the balance matrix
    at 2 and rules out -2 off the diagonal, which is exactly what the
    k = 2 recovery needs.  The moved rows are the symbols of the small
    trade, so their count is half its size.
    """
    t = log_trade(p)
    D, u = balance_matrix(t)
    sigma = _rowperm_from_matrix(D, u, 2, t.p)
    return sigma, trade_from_rowperm(sigma, 2)


# -- exhaustive search for the sub-dissection primes ------------------------------


def _cell_sets(p: int, extra: tuple[int, ...]):
    # the cell walk of symbol_twice_search, yielding (row, col, base)
    # lists; anti-diagonals are disjoint, so no cell repeats
    pairs = [
        [((r1, (s - r1) % p, s), (r2, (s - r2) % p, s))
         for r1, r2 in itertools.combinations(range(p), 2)]
        for s in extra
    ]
    cells = [(0, 0, 0), (1, p - 1, 0)]

    def walk(i: int, rows: int, rows2: int, cols: int, cols2: int):
        # rows and columns met at all, and met at least twice
        left = len(pairs) - i
        if max(rows.bit_count() - rows2.bit_count(),
               cols.bit_count() - cols2.bit_count()) > 2 * left:
            return
        if not left:
            yield list(cells)
            return
        for pair in pairs[i]:
            (r1, c1, _), (r2, c2, _) = pair
            r, c = 1 << r1 | 1 << r2, 1 << c1 | 1 << c2
            cells.extend(pair)
            yield from walk(i + 1, rows | r, rows2 | rows & r,
                            cols | c, cols2 | cols & c)
            del cells[-2:]

    yield from walk(0, 0b11, 0, 1 | 1 << (p - 1), 0)


def _mate_completions(p: int, cells: list[tuple[int, int, int]]):
    # the mate walk of symbol_twice_search, yielding trades
    cells = sorted(cells)
    row_bases: list[list[int]] = [[] for _ in range(p)]
    row_left, col_left = [0] * p, [0] * p
    for r, c, s in cells:
        row_bases[r].append(s)
        row_left[r] |= 1 << s
        col_left[c] |= 1 << s
    mates = [0] * len(cells)

    def walk(i: int):
        if i == len(cells):
            yield TradePair(p, 1, None, np.array(
                [(r, c, s, m) for (r, c, s), m in zip(cells, mates)]))
            return
        r, c, s = cells[i]
        free = row_left[r] & col_left[c] & ~(1 << s)
        for m in row_bases[r]:
            bit = 1 << m
            if free & bit:
                row_left[r] ^= bit
                col_left[c] ^= bit
                mates[i] = m
                yield from walk(i + 1)
                row_left[r] ^= bit
                col_left[c] ^= bit

    yield from walk(0)


def symbol_twice_search(p: int, symbols: int) -> "TradePair | None":
    """Exhaustive search for a symbol-twice trade in B_p on a given number
    of symbols (size 2*symbols) that the k = 2 pipeline accepts.

    Candidates are normalized up to translation and scaling by fixing
    cells (0, 0) and (1, p-1) with base symbol 0, so a None return rules
    out the size entirely.  For each set of other symbols, in
    combinations order, a cell walk places each symbol's pair of
    anti-diagonal cells in itertools.product order.  Each used row and
    column needs two cells and a pair settles at most two lone ones, so
    the walk prunes once the lone rows or columns outnumber twice the
    pairs left.  A mate walk then gives each cell, in row-major order,
    an untaken base of its row, in column order, other than its own and
    still left in its column.  The first completion that balance_matrix
    and trade_from_matrix(D, u, 2, p) accept is returned: the first hit
    in lexicographic order.
    """
    p = _modulus(p)
    symbols = _integer(symbols, "symbols")
    if symbols < 3 or symbols > p:
        return None
    for extra in itertools.combinations(range(1, p), symbols - 1):
        for cells in _cell_sets(p, extra):
            for t in _mate_completions(p, cells):
                try:
                    D, u = balance_matrix(t)
                    trade_from_matrix(D, u, 2, p)
                except ValueError:
                    continue
                return t
    return None
