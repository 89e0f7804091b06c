"""Cyclic Latin squares B_p(k) and their basic combinatorics.

The square B_p(k) has cell (i, j) = k*i + j mod p.  For prime p the
family {B_p(1), ..., B_p(p-1)} is a complete set of p-1 mutually
orthogonal Latin squares.  This module holds the square type itself,
the integer, modulus and mate rules that every module checks its
inputs by, orthogonality and transversal checks, and orthomorphisms
of Z_p.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

__all__ = [
    "LatinSquare",
    "Transversal",
    "Orthomorphism",
    "gen_bp",
    "are_orthogonal",
    "mols_family",
    "is_transversal",
    "orthomorphism_check",
    "transversal_from_orthomorphism",
    "orthomorphism_distance",
    "is_prime",
    "primes_up_to",
]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(limit: int) -> list[int]:
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(sieve[q * q :: q]))
    return [i for i, flag in enumerate(sieve) if flag]


def _integer(value: object, name: str) -> int:
    """``value`` as an int if it is a Python or numpy integer, else
    ValueError: the integer rule of FORMATS.md.  ``int()`` would
    truncate 7.9 and accept True or "7"."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}={value!r} is not an integer")
    return int(value)


def _modulus(p: object, prime: bool = False) -> int:
    """The modulus rule: p an odd integer at least 3, and prime when
    ``prime`` is set."""
    p = _integer(p, "p")
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p={p} must be odd and at least 3")
    if prime and not is_prime(p):
        raise ValueError(f"p={p} must be prime")
    return p


def _unit(x: object, p: int, name: str) -> int:
    """x an integer in 1..p-1 coprime to the modulus p."""
    x = _integer(x, name)
    if not (1 <= x < p and math.gcd(x, p) == 1):
        raise ValueError(f"{name}={x} is not a unit mod {p} in 1..{p - 1}")
    return x


def _mate(k: object, p: int) -> int:
    """The mate rule: k in 2..p-1 with k and k - 1 units mod p, so that
    B_p(k) is an orthogonal mate of B_p(1)."""
    k = _integer(k, "k")
    if not 2 <= k < p:
        why = f"out of range 2..{p - 1}"
    elif math.gcd(k * (k - 1), p) != 1:
        why = "k or k-1 is not a unit"
    else:
        return k
    raise ValueError(f"k={k} is not an admissible orthogonal mate mod {p} ({why})")


class LatinSquare:
    """Dense Latin square over symbols 0..n-1.

    ``LatinSquare(rows)`` and ``from_text`` sort every row and column
    to check the Latin property.  ``_proved`` skips the sorts where the
    same call has proved it: in ``gen_bp``, which checks that k is a
    unit, in ``transpose``, and in ``apply_trade`` after
    ``validate_latin_trade``.  Instances are immutable: ``cells`` is a
    read-only view of a private read-only array.  Copies and
    pickles rebuild the square through the checked constructor, keeping
    its label.  ``label`` records (p, k) when the square was produced as
    B_p(k), None otherwise.
    """

    __slots__ = ("_cells", "order", "label")

    def __init__(self, rows: "Sequence[Sequence[int]] | np.ndarray",
                 label: "tuple[int, int] | None" = None):
        # a copy, so the caller's array cannot change the square
        cells = np.array(rows, dtype=np.int64)
        if cells.ndim != 2 or cells.shape[0] != cells.shape[1]:
            raise ValueError(f"expected a square array, got shape {cells.shape}")
        n = cells.shape[0]
        if n == 0:
            raise ValueError("empty square")
        ref = np.arange(n)
        if not (np.sort(cells, axis=1) == ref).all():
            raise ValueError("rows are not permutations of 0..n-1")
        if not (np.sort(cells, axis=0) == ref[:, None]).all():
            raise ValueError("columns are not permutations of 0..n-1")
        self._store(cells, label)

    @classmethod
    def _proved(cls, cells: np.ndarray, label=None) -> "LatinSquare":
        # an (n, n) int64 array that the caller has proved Latin, and that
        # no one else writes to
        square = cls.__new__(cls)
        square._store(cells, label)
        return square

    def _store(self, cells: np.ndarray, label: "tuple[int, int] | None") -> None:
        # a read-only view of a read-only base: the view's flag cannot be
        # set back, so the cells of a square never change
        cells.flags.writeable = False
        object.__setattr__(self, "_cells", cells.view())
        object.__setattr__(self, "order", len(cells))
        object.__setattr__(self, "label", label)

    def __reduce__(self):
        return LatinSquare, (self._cells, self.label)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LatinSquare is immutable")

    def __getitem__(self, rc: tuple[int, int]) -> int:
        return int(self._cells[rc])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatinSquare):
            return NotImplemented
        return self.order == other.order and bool((self._cells == other._cells).all())

    def __hash__(self) -> int:
        return hash((self.order, self._cells.tobytes()))

    def __repr__(self) -> str:
        tag = f" label={self.label}" if self.label else ""
        return f"<LatinSquare order={self.order}{tag}>"

    @property
    def cells(self) -> np.ndarray:
        """Read-only (n, n) array view."""
        return self._cells

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self._cells[i])

    def transpose(self) -> "LatinSquare":
        return LatinSquare._proved(self._cells.T)

    def to_text(self) -> str:
        lines = [str(self.order)]
        lines += [" ".join(str(int(x)) for x in row) for row in self._cells]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "LatinSquare":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty square text")
        n = int(lines[0])
        if len(lines) != n + 1:
            raise ValueError(f"expected {n} rows after the header, got {len(lines) - 1}")
        rows = [[int(tok) for tok in ln.split()] for ln in lines[1:]]
        if any(len(r) != n for r in rows):
            raise ValueError("ragged row in square text")
        return cls(rows)


def gen_bp(p: int, k: int) -> LatinSquare:
    """Build B_p(k), the square with cell (i, j) = k*i + j mod p.

    Requires 1 <= k <= p-1 and gcd(k, p) = 1 (automatic for prime p).
    """
    n = _modulus(p)
    k = _unit(k, n, "k")
    i = np.arange(n, dtype=np.int64)
    rows = (k * i[:, None] + i[None, :]) % n
    return LatinSquare._proved(rows, label=(n, k))


def are_orthogonal(left: LatinSquare, right: LatinSquare) -> bool:
    """True when the n^2 superimposed symbol pairs are pairwise distinct."""
    if left.order != right.order:
        raise ValueError(f"order mismatch: {left.order} vs {right.order}")
    n = left.order
    pairs = left.cells.reshape(-1) * n + right.cells.reshape(-1)
    return int(np.bincount(pairs, minlength=n * n).max()) == 1


def mols_family(p: int) -> list[LatinSquare]:
    """The complete family [B_p(1), ..., B_p(p-1)]; p must be prime."""
    p = _modulus(p, prime=True)
    return [gen_bp(p, k) for k in range(1, p)]


@dataclass(frozen=True)
class Transversal:
    """A set of n cells of an order-n square, one per row."""

    order: int
    cells: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = _integer(self.order, "order")
        cells = tuple((_integer(r, "row"), _integer(c, "column")) for r, c in self.cells)
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "cells", cells)
        if len(cells) != n:
            raise ValueError(f"expected {n} cells, got {len(cells)}")
        for r, c in cells:
            if not (0 <= r < n and 0 <= c < n):
                raise ValueError(f"cell ({r}, {c}) out of range for order {n}")
        if [r for r, _ in cells] != sorted({r for r, _ in cells}):
            raise ValueError("cells must be sorted by row, one per row")

    def to_json(self) -> str:
        return json.dumps({"p": self.order, "cells": [list(c) for c in self.cells]})

    @classmethod
    def from_json(cls, text: str) -> "Transversal":
        obj = json.loads(text)
        return cls(_integer(obj["p"], "p"), obj["cells"])


def is_transversal(square: LatinSquare, t: Transversal) -> bool:
    """Cells hit every row, every column and every symbol exactly once."""
    if t.order != square.order:
        raise ValueError(f"order mismatch: {t.order} vs {square.order}")
    n = square.order
    cols = {c for _, c in t.cells}
    if len(cols) != n:
        return False
    symbols = {square[r, c] for r, c in t.cells}
    return len(symbols) == n


@dataclass(frozen=True)
class Orthomorphism:
    """A map x -> images[x] on Z_p; validity is decided by orthomorphism_check."""

    p: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        p = _integer(self.p, "p")
        images = tuple(map(_integer, self.images, repeat("image")))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "images", images)
        if len(images) != p:
            raise ValueError(f"expected {p} images, got {len(images)}")
        for x in images:
            if not 0 <= x < p:
                raise ValueError(f"image {x} out of range mod {p}")

    @classmethod
    def linear(cls, p: int, k: int) -> "Orthomorphism":
        p, k = _integer(p, "p"), _integer(k, "k")
        return cls(p, tuple(k * x % p for x in range(p)))

    def to_json(self) -> str:
        return json.dumps({"p": self.p, "images": list(self.images)})

    @classmethod
    def from_json(cls, text: str) -> "Orthomorphism":
        obj = json.loads(text)
        return cls(obj["p"], obj["images"])


def orthomorphism_check(phi: Orthomorphism) -> bool:
    """True when both x -> phi(x) and x -> phi(x) - x are permutations of Z_p."""
    p = phi.p
    if len(set(phi.images)) != p:
        return False
    return len({(phi.images[x] - x) % p for x in range(p)}) == p


def transversal_from_orthomorphism(phi: Orthomorphism) -> Transversal:
    """Transversal of B_p(1) with cells (x, phi(x) - x mod p)."""
    if not orthomorphism_check(phi):
        raise ValueError("not an orthomorphism")
    p = phi.p
    return Transversal(p, tuple((x, (phi.images[x] - x) % p) for x in range(p)))


def orthomorphism_distance(phi: Orthomorphism, psi: Orthomorphism) -> int:
    """Hamming distance: the number of points where the images disagree."""
    if phi.p != psi.p:
        raise ValueError(f"modulus mismatch: {phi.p} vs {psi.p}")
    return sum(1 for a, b in zip(phi.images, psi.images) if a != b)
