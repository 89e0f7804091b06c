"""Latin trades and orthogonal trades in B_p(ell).

A trade pairs a cell set T of B_p(ell) with a disjoint mate T' on the
same cells.  Swapping T for T' must leave a Latin square; an orthogonal
trade of index (ell, k) additionally keeps the result orthogonal to
B_p(k).  Validation is local: row/column mate-vs-base multiset balance
decides the Latin property, and the superimposed pair test against
B_p(k) reduces to an O(size) set comparison because the untouched cells
already realize every ordered pair exactly once.

Each fact relabels by a bijection that sends a correct base to its own
cell, coded r*p + c: within row r, s -> s - ell*r; within column c,
s -> (s - c)/ell (bijections of Z_p); and for orthogonality, the pair
(s, k*r + c) -> the cell of B_p(ell) x B_p(k) that holds it (a
bijection of Z_p^2).  A bijection keeps the multiset equality the fact
asks for, and the base side becomes the trade's cell codes, which the
constructor sorted already.  A fact then holds when the relabelled
mates, sorted once, equal those codes: a valid trade costs three sorts,
none of its base (timsort where the codes come in long ascending runs,
as from a trade built row by row, numpy's default sort otherwise).
Only a fact that fails is diagnosed, from the sorted (line, symbol) and
(symbol, aux) codes.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from bptrades.core import LatinSquare, _integer, _modulus, _unit, gen_bp

__all__ = [
    "TradePair",
    "ValidationReport",
    "validate_latin_trade",
    "validate_orthogonal_trade",
    "apply_trade",
    "difference_trade",
    "canonicalize",
]

Entry = tuple[int, int, int, int]

# The largest modulus whose codes (line*p + symbol, k*r + c) stay below
# 2^63, so the int64 validators cannot wrap.
P_MAX = 3_037_000_499

# The compact document exactly as to_json writes it, with numbers of at
# most 18 digits, so each fits an int64.  from_json reads such a text
# without json.loads; [0-9], as \d would match any Unicode digit.
_NUMBER = r"(?:0|[1-9][0-9]{0,17})"
_COMPACT = re.compile(
    rf'[ \t\n\r]*\{{"p": ({_NUMBER}), "ell": ({_NUMBER}), "k": ({_NUMBER}|null), '
    r'"entries": \[(.*)\]\}[ \t\n\r]*', re.DOTALL)
# one entry and the separator after it; the entries text plus ", " is a
# run of these exactly when sub leaves nothing.  A repeated group in
# _COMPACT would keep backtracking state for every entry.
_ROW = re.compile(rf"\[{_NUMBER}, {_NUMBER}, {_NUMBER}, {_NUMBER}\], ")
# json.dumps's text for the entries, by indent: one entry, the separator
# between entries, and the text before the closing bracket
_LAYOUTS = {
    None: ("[%d, %d, %d, %d]", ", ", ""),
    2: ("\n    [\n      %d,\n      %d,\n      %d,\n      %d\n    ]", ",", "\n  "),
}


class TradePair:
    """A trade T/T' with index (ell, k); entries are (row, col, base, mate).

    Entries come as any (n, 4) integer array-like: a sequence of
    4-tuples, a JSON list of lists or an ndarray.  Construction checks
    well-formedness only (integers, residue ranges, unit ell and k,
    distinct cells) and normalizes entry order to row-major.  Whether the
    entries actually form a Latin or orthogonal trade is decided by the
    validators, so partial or broken inputs can still be represented
    and reported on.  ``k`` is None when the orthogonality index is
    unknown (e.g. for a plain difference of squares).

    ``array`` is the read-only, row-major (size, 4) int64 array of the
    entries; ``entries`` reads it as a tuple of 4-tuples.  ``_cells``
    holds the cell codes r*p + c, ascending, which the constructor sorts
    the entries by and the validators compare against.  Instances are
    immutable, down to the array's data, so each validator computes its
    report once per trade and returns the stored report afterwards.
    Copies and pickles rebuild the trade through the constructor, without
    the stored reports.
    """

    __slots__ = ("p", "ell", "k", "array", "_cells", "_reports")

    def __init__(self, p: int, ell: int, k: "int | None",
                 entries: "Sequence[Sequence[int]] | np.ndarray"):
        p = _modulus(p)
        if p > P_MAX:
            raise ValueError(f"p={p} exceeds {P_MAX}, the largest supported modulus")
        ell = _unit(ell, p, "ell")
        k = None if k is None else _unit(k, p, "k")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "k", k)
        array, cells = _checked_array(p, entries)
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_reports", {})

    def __reduce__(self):
        return TradePair, (self.p, self.ell, self.k, self.array)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TradePair is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TradePair):
            return NotImplemented
        return ((self.p, self.ell, self.k) == (other.p, other.ell, other.k)
                and np.array_equal(self.array, other.array))

    def __hash__(self) -> int:
        return hash((self.p, self.ell, self.k, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"<TradePair p={self.p} ell={self.ell} k={self.k} size={self.size}>"

    @property
    def entries(self) -> tuple[Entry, ...]:
        """Row-major tuple of (row, col, base, mate) entries."""
        return tuple(zip(*self.array.T.tolist()))

    @property
    def size(self) -> int:
        return len(self.array)

    def rows_used(self) -> tuple[int, ...]:
        return tuple(np.unique(self.array[:, 0]).tolist())

    def to_json(self, pretty: bool = False) -> str:
        """The JSON document of FORMATS.md, byte for byte ``json.dumps``'s
        (with ``indent=2`` and a final newline when ``pretty``)."""
        indent = 2 if pretty else None
        text = json.dumps({"p": self.p, "ell": self.ell, "k": self.k, "entries": []},
                          indent=indent)
        if self.size:
            row, sep, close = _LAYOUTS[indent]
            rows = sep.join([row] * self.size) % tuple(self.array.ravel().tolist())
            i = text.rindex("[]") + 1
            text = text[:i] + rows + close + text[i:]
        return text + "\n" if pretty else text

    @classmethod
    def from_json(cls, text: str) -> "TradePair":
        """The trade of a JSON document; the compact layout of ``to_json``
        is read without ``json.loads``, with the same result."""
        m = _COMPACT.fullmatch(text)
        if m is not None and (not m[4] or _ROW.sub("", m[4] + ", ") == ""):
            p, ell, k, rows = m.groups()
            entries = np.fromstring(rows.replace("[", "").replace("]", ""),
                                    dtype=np.int64, sep=",")
            return cls(int(p), int(ell), None if k == "null" else int(k),
                       entries.reshape(-1, 4))
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise TypeError("a trade document must be a JSON object")
        entries = obj["entries"]
        # the constructor scans a sequence for booleans; a document
        # without a true or false literal holds none, so an array skips it
        if "true" not in text and "false" not in text:
            entries = np.asarray(entries)
        return cls(obj["p"], obj["ell"], obj.get("k"), entries)


def _checked_array(p: int, entries: "Sequence[Sequence[int]] | np.ndarray"
                   ) -> tuple[np.ndarray, np.ndarray]:
    # one pass for the ranges; the cell codes r*p + c then give the
    # row-major order and, once sorted, the duplicates as equal neighbours.
    # Returns the entries and their cell codes, both read-only.
    a = np.asarray(entries)
    if a.shape == (0,):
        a = np.empty((0, 4), dtype=np.int64)
    if a.ndim != 2 or a.shape[1] != 4:
        raise ValueError(
            f"entries of shape {a.shape} are not (row, col, base, mate) rows")
    if a.dtype.kind not in "iu":
        raise ValueError(f"entries of dtype {a.dtype} are not integers")
    if not isinstance(entries, np.ndarray):
        # np.asarray reads a boolean among integers as 0 or 1
        for row in entries:
            try:
                for v in row:
                    _integer(v, "entry component")
            except ValueError:
                raise ValueError(f"entry {json.dumps(list(row), default=np.generic.item)}"
                                 " holds a boolean, not an integer") from None
    if len(a) and (a.min() < 0 or a.max() >= p):
        i = np.flatnonzero(((a < 0) | (a >= p)).any(axis=1))[0]
        raise ValueError(
            f"entry {tuple(a[i].tolist())} has residues out of range mod {p}")
    # a copy, so the caller's array cannot change the trade
    a = a.astype(np.int64)
    code = a[:, 0] * p + a[:, 1]
    if not (code[1:] > code[:-1]).all():
        order = np.argsort(code, kind="stable")
        a, code = a[order], code[order]
        dup = np.flatnonzero(code[1:] == code[:-1])
        if len(dup):
            raise ValueError(f"duplicate cell {tuple(a[dup[0], :2].tolist())}")
    # a read-only view of a read-only base: the view's flag cannot be
    # set back, so the data of a trade never changes
    a.flags.writeable = code.flags.writeable = False
    return a.view(), code


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of trade validation.

    ``failures`` holds (code, location) pairs; codes are prefixed
    ``latin:`` or ``orth:``.  ``is_orthogonal_trade`` is meaningful only
    when ``orthogonality_checked`` is set (validate_latin_trade leaves
    it unset and the flag false).  ``symbol_histogram`` maps each base
    symbol to its count, in ascending order of symbol.  It is counted
    from ``_symbols``, the trade's read-only base column, on first read,
    and is read-only, as a report is shared by every caller that
    validates the same trade.
    """

    is_latin_trade: bool
    is_orthogonal_trade: bool
    orthogonality_checked: bool
    size: int
    failures: tuple[tuple[str, str], ...]
    _symbols: np.ndarray = field(compare=False, repr=False)

    def __bool__(self) -> bool:
        return self.is_latin_trade and (
            self.is_orthogonal_trade or not self.orthogonality_checked
        )

    @cached_property
    def symbol_histogram(self) -> Mapping[int, int]:
        # np.unique, not a bincount: symbols range up to p, which comes
        # from user JSON
        symbols, counts = np.unique(self._symbols, return_counts=True)
        return MappingProxyType(dict(zip(symbols.tolist(), counts.tolist())))


def _wrapped(x: np.ndarray, p: int) -> np.ndarray:
    # a difference of two residues, -p < x < p, reduced mod p in place:
    # on large arrays a masked add takes less than half the time of a %
    np.add(x, p, out=x, where=x < 0)
    return x


def _sorted(x: np.ndarray) -> np.ndarray:
    # x sorted in place along its last axis.  A trade built row by row
    # leaves its codes in long ascending runs, which timsort merges in
    # about one pass; on short runs (a transposed trade, as canonicalize
    # may build) and on few codes numpy's default sort is the faster one.
    runs = x.shape[-1] >= 1024 and np.count_nonzero(x[..., 1:] < x[..., :-1]) * 64 < x.size
    x.sort(kind="stable" if runs else None)
    return x


def _line_codes(t: TradePair, s: np.ndarray, shift: np.ndarray) -> np.ndarray:
    # the symbols s relabelled within each line, as (2, size) codes with
    # each row sorted: in row r by s -> s - ell*r (shift), coded
    # r*p + (s - ell*r), and in column c by s -> (s - c)/ell, coded
    # (s - c)/ell * p + c.  A correct base codes its own cell r*p + c
    # under both.  Every code stays below p^2.
    a, p = t.array, t.p
    c = a[:, 1]
    x = np.empty((2, len(a)), dtype=np.int64)
    np.subtract(s, shift, out=x[0])
    np.subtract(s, c, out=x[1])
    _wrapped(x, p)
    if t.ell != 1:
        x[1] *= pow(t.ell, -1, p)
        x[1] %= p
    x[0] += t._cells
    x[0] -= c
    x[1] *= p
    x[1] += c
    return _sorted(x)


def _unbalanced_lines(line: np.ndarray, base: np.ndarray, mate: np.ndarray, p: int) -> list[int]:
    # the lines whose mate multiset differs from their base multiset, from
    # lexicographically sorted (line, symbol) codes
    b_sorted = np.sort(line * p + base)
    m_sorted = np.sort(line * p + mate)
    bad = b_sorted != m_sorted
    return sorted(set((b_sorted[bad] // p).tolist()) | set((m_sorted[bad] // p).tolist()))


def _latin_failures(t: TradePair) -> list[tuple[str, str]]:
    a = t.array
    failures: list[tuple[str, str]] = []
    if len(a) == 0:
        return failures
    r, c, base, mate = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    p = t.p
    shift = r if t.ell == 1 else t.ell * r % p

    # base = ell*r + c exactly when the row relabelling takes it to c;
    # then its codes are the cell codes, sorted already
    correct = _wrapped(base - shift, p) == c
    if correct.all():
        base_codes = t._cells
    else:
        failures += [
            ("latin:base", f"cell ({a[i, 0]}, {a[i, 1]}): base {a[i, 2]} is not "
                           f"{t.ell}*{a[i, 0]}+{a[i, 1]} mod {p}")
            for i in np.flatnonzero(~correct)
        ]
        base_codes = _line_codes(t, base, shift)
    clash = mate == base
    if clash.any():
        failures += [
            ("latin:disjoint", f"cell ({a[i, 0]}, {a[i, 1]}): mate equals base {a[i, 2]}")
            for i in np.flatnonzero(clash)
        ]

    # per line, the mate multiset must equal the base multiset.  A
    # relabelling within each line keeps that, so the fact holds when the
    # sorted codes of the two sides are equal; only a fact whose codes
    # differ is diagnosed.
    mate_codes = _line_codes(t, mate, shift)
    if not (mate_codes == base_codes).all():
        base_codes = np.broadcast_to(base_codes, mate_codes.shape)
        for code, line, m, b in zip(("latin:row_balance", "latin:col_balance"), (r, c),
                                    mate_codes, base_codes):
            if not np.array_equal(m, b):
                failures += [(code, f"line {ln}: mate symbols do not rearrange base symbols")
                             for ln in _unbalanced_lines(line, base, mate, p)]
    return failures


def _pair_failures(t: TradePair) -> list[tuple[str, str]]:
    a, p = t.array, t.p
    aux = (t.k * a[:, 0] + a[:, 1]) % p
    # pairs as codes symbol*p + aux; equal neighbours among the new pairs
    # are collisions, and a binary search against the removed pairs finds
    # the foreign ones
    new_pairs = np.sort(a[:, 3] * p + aux)
    old_pairs = np.sort(a[:, 2] * p + aux)
    failures: list[tuple[str, str]] = []
    starts = np.flatnonzero(np.concatenate(([True], new_pairs[1:] != new_pairs[:-1])))
    uniq = new_pairs[starts]
    counts = np.diff(starts, append=len(new_pairs))
    for v, n in zip(uniq[counts > 1].tolist(), counts[counts > 1].tolist()):
        failures.append(("orth:pair_collision",
                         f"pair (mate {v // p}, aux {v % p}) occurs {n} times"))
    # every pair the trade introduces must be one the trade removed,
    # otherwise it collides with an untouched cell of the superposition
    at = np.minimum(np.searchsorted(old_pairs, uniq), len(old_pairs) - 1)
    for v in uniq[old_pairs[at] != uniq].tolist():
        failures.append(("orth:pair_foreign",
                         f"pair (mate {v // p}, aux {v % p}) survives elsewhere "
                         f"in the superposition"))
    return failures


def _orthogonality_failures(t: TradePair) -> list[tuple[str, str]]:
    a = t.array
    if len(a) == 0:
        return []
    p, ell, mate = t.p, t.ell, a[:, 3]
    # On a Latin trade base = ell*r + c, and the pair (s, k*r + c) sits in
    # B_p(ell) x B_p(k) at row r + (base - s)/(k - ell), column s - ell*row.
    # That cell map is a bijection of Z_p^2 taking the removed pairs to
    # the trade's cells, so the new pairs are the removed ones exactly
    # when their cells sort to the cell codes.  Before the first % the
    # row stays within (p - 1)^2 + (p - 1) of 0.
    row = a[:, 2] - mate
    row *= pow(t.k - ell, -1, p)
    row += a[:, 0]
    row %= p
    col = _wrapped(mate - (row if ell == 1 else ell * row % p), p)
    row *= p
    row += col
    if (_sorted(row) == t._cells).all():
        return []
    return _pair_failures(t)


def validate_latin_trade(t: TradePair) -> ValidationReport:
    """Check that swapping T for T' leaves a Latin square.

    Violations are collected, not thrown: the report lists every cell
    with a wrong base symbol or a mate equal to its base, and every row
    or column whose mate multiset differs from its base multiset.  The
    report is computed once per trade; later calls return it again.
    """
    report = t._reports.get("latin")
    if report is None:
        failures = tuple(_latin_failures(t))
        report = t._reports["latin"] = ValidationReport(
            is_latin_trade=not failures,
            is_orthogonal_trade=False,
            orthogonality_checked=False,
            size=t.size,
            failures=failures,
            _symbols=t.array[:, 2],
        )
    return report


def validate_orthogonal_trade(t: TradePair) -> ValidationReport:
    """Check the Latin property and orthogonality to B_p(k) after the swap.

    Requires k set (empty trades pass with k unset) and k distinct from
    ell with k - ell a unit mod p; under that condition the superimposed
    squares realize every ordered pair once, so the traded square stays
    orthogonal iff the introduced (mate, B_p(k)) pairs are distinct and
    are exactly the removed (base, B_p(k)) pairs.  The index is checked
    on every call; the report is computed once per trade, on top of the
    trade's Latin report, and later calls return it again.
    """
    if t.size:
        if t.k is None:
            raise ValueError("orthogonality index k is not set")
        if t.k == t.ell:
            raise ValueError(f"index k={t.k} equals ell; no orthogonal mate to preserve")
        if math.gcd(t.k - t.ell, t.p) != 1:
            raise ValueError(
                f"k-ell={t.k - t.ell} is not a unit mod {t.p}; "
                f"B_{t.p}({t.ell}) and B_{t.p}({t.k}) are not orthogonal")
    report = t._reports.get("orth")
    if report is None:
        latin = validate_latin_trade(t)
        # orthogonality is only tested on a Latin trade
        failures = latin.failures or tuple(_orthogonality_failures(t))
        report = t._reports["orth"] = ValidationReport(
            is_latin_trade=latin.is_latin_trade,
            is_orthogonal_trade=not failures,
            orthogonality_checked=True,
            size=t.size,
            failures=failures,
            _symbols=latin._symbols,
        )
    return report


def apply_trade(t: TradePair) -> LatinSquare:
    """Return B_p(ell) with mate symbols substituted on the trade cells."""
    report = validate_latin_trade(t)
    if not report.is_latin_trade:
        raise ValueError(f"not a Latin trade: {report.failures[:3]}")
    cells = np.array(gen_bp(t.p, t.ell).cells)
    a = t.array
    cells[a[:, 0], a[:, 1]] = a[:, 3]
    return LatinSquare._proved(cells)


def difference_trade(L: LatinSquare, M: LatinSquare) -> TradePair:
    """The trade turning L into M; L must be labeled B_p(ell).

    The orthogonality index of the result is unknown, so k is None.
    """
    if L.label is None:
        raise ValueError("left square carries no (p, ell) label")
    if L.order != M.order:
        raise ValueError(f"order mismatch: {L.order} vs {M.order}")
    p, ell = L.label
    r, c = np.nonzero(L.cells != M.cells)
    entries = np.column_stack((r, c, L.cells[r, c], M.cells[r, c]))
    return TradePair(p, ell, None, entries)


def _scaled(t: TradePair) -> TradePair:
    # (r, c, base, mate) -> (r, c/ell, base/ell, mate/ell) moves the trade
    # into B_p(1); the index k follows as k/ell
    if t.ell == 1:
        return t
    inv = pow(t.ell, -1, t.p)
    return TradePair(t.p, 1, t.k * inv % t.p, t.array * (1, inv, inv, inv) % t.p)


def _transposed(t: TradePair) -> TradePair:
    # transposing the applied square fixes B_p(1) and swaps the index k
    # for its inverse, via k^-1 * (k*r + c) = k^-1 * c + r
    return TradePair(t.p, 1, pow(t.k, -1, t.p), t.array[:, [1, 0, 2, 3]])


def _translated(t: TradePair) -> TradePair:
    # shift rows by -r0 and columns by -c0 so the least cell is (0, 0);
    # symbols absorb both shifts, keeping the trade inside B_p(1) and
    # translating the superimposed pairs coordinate-wise
    r0, c0 = t.array[0, :2].tolist()
    if (r0, c0) == (0, 0):
        return t
    s = r0 + c0
    return TradePair(t.p, 1, t.k, (t.array - (r0, c0, s, s)) % t.p)


def canonicalize(t: TradePair) -> TradePair:
    """Normalize an orthogonal trade to index (1, K), K = min(k', 1/k').

    Steps: scale columns and symbols by 1/ell; transpose when the index
    exceeds its inverse; translate so cell (0, 0) with base symbol 0 is
    present.  Idempotent and size-preserving; input and output are both
    re-validated.
    """
    report = validate_orthogonal_trade(t)
    if not report.is_orthogonal_trade:
        raise ValueError(f"input is not an orthogonal trade: {report.failures[:3]}")
    if t.size == 0:
        return t
    out = _scaled(t)
    if out.k > pow(out.k, -1, out.p):
        out = _transposed(out)
    out = _translated(out)
    check = validate_orthogonal_trade(out)
    if not check.is_orthogonal_trade:
        raise ValueError(f"canonical form failed re-validation: {check.failures[:3]}")
    return out
