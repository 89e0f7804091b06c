import copy
import itertools
import math
import pickle

import numpy as np
import pytest

from bptrades.core import (
    LatinSquare,
    Orthomorphism,
    Transversal,
    are_orthogonal,
    gen_bp,
    is_prime,
    is_transversal,
    mols_family,
    orthomorphism_check,
    orthomorphism_distance,
    primes_up_to,
    transversal_from_orthomorphism,
    _modulus,
)
from bptrades.dissect import log_trade, small_rowperm_pipeline, symbol_twice_search
from bptrades.family16 import construct, find_k
from bptrades.matrices import TradeMatrix, size_bounds, symbol_system
from bptrades.rowperm import (
    RowPermutation,
    rowperm_orthogonal,
    three_row_trade,
    trade_from_matrix,
    trade_from_rowperm,
)
from bptrades.search import (
    admissible_mates,
    diagonal_histogram,
    enumerate_orthomorphisms,
    min_distance_from_linear,
    rowperm_sizes,
    spectrum,
    spectrum_all,
)
from bptrades.trades import TradePair, apply_trade

from test_trades import FIG1, FIG1_ENTRIES


# -- oracles ---------------------------------------------------------------


def _orthogonal_oracle(a: LatinSquare, b: LatinSquare) -> bool:
    """Orthogonality by literal pair collection, no arithmetic shortcuts."""
    pairs = set()
    n = a.order
    for i in range(n):
        for j in range(n):
            pairs.add((a[i, j], b[i, j]))
    return len(pairs) == n * n


def _transversals_oracle(square: LatinSquare) -> set[tuple[tuple[int, int], ...]]:
    """All transversals by brute force over column permutations."""
    n = square.order
    found = set()
    for cols in itertools.permutations(range(n)):
        symbols = {square[r, cols[r]] for r in range(n)}
        if len(symbols) == n:
            found.add(tuple((r, cols[r]) for r in range(n)))
    return found


# -- primality helpers -----------------------------------------------------


def test_is_prime_small_range():
    sieve = set(primes_up_to(2000))
    for n in range(2000):
        assert is_prime(n) == (n in sieve)


def test_primes_up_to_edges():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


# -- the modulus rule --------------------------------------------------------


def test_modulus_prime_constructor_rejects_composite():
    with pytest.raises(ValueError, match="^p=9 must be prime$"):
        _modulus(9, prime=True)
    with pytest.raises(ValueError, match="^p=2 must be odd and at least 3$"):
        _modulus(2, prime=True)
    assert _modulus(13, prime=True) == 13


def test_modulus_odd_constructor_admits_composite():
    assert _modulus(9) == 9
    with pytest.raises(ValueError, match="^p=8 must be odd and at least 3$"):
        _modulus(8)


# -- the integer rule ------------------------------------------------------

FIG1_FALSE_ROW = ((False, 0, 0, 3),) + FIG1_ENTRIES[1:]


@pytest.mark.parametrize("call, message", [
    # each was accepted before (gen_bp(7.9, 2) built B_7(2)) or raised TypeError
    (lambda: gen_bp(7.9, 2), "p=7.9 is not an integer"),
    (lambda: gen_bp(7, True), "k=True is not an integer"),
    (lambda: construct(7.9), "p=7.9 is not an integer"),
    (lambda: _modulus(7.0, prime=True), "p=7.0 is not an integer"),
    (lambda: TradePair(7, True, 3, FIG1_ENTRIES), "ell=True is not an integer"),
    (lambda: TradePair(7, 1, np.bool_(True), FIG1_ENTRIES), "k=np.True_ is not"),
    (lambda: TradePair("7", 1, 3, FIG1_ENTRIES), "p='7' is not an integer"),
    (lambda: TradePair(7, 1, 3, FIG1_FALSE_ROW),
     r"entry \[false, 0, 0, 3\] holds a boolean"),
    (lambda: TradePair(7, 1, 3, [[np.True_, np.int64(0), 0, 3]]),
     r"entry \[true, 0, 0, 3\] holds a boolean"),
    # image tables and transversal cells; orthomorphism_check called the
    # first valid
    (lambda: Orthomorphism(3, (False, 2, True)), "image=False is not an integer"),
    (lambda: Transversal(3, ((0, 0.0), (1, 2.0), (2, 1.0))), "column=0.0 is not an integer"),
    (lambda: RowPermutation(5, (1.0, 2, 0, 3, 4)), "image=1.0 is not an integer"),
    # read as row 1
    (lambda: RowPermutation.from_map(5, {True: 2, 2: 3, 3: 1}), "row=True is not an integer"),
    # built a 1x1 matrix, and a float system passed trade_from_matrix
    (lambda: TradeMatrix(True, ((1,),)), "m=True is not an integer"),
    (lambda: trade_from_matrix(
        TradeMatrix(3, tuple(tuple(map(float, row)) for row in S0.matrix.entries)), S0.u, 3, 7),
     "entry=3.0 is not an integer"),
])
def test_integer_rule_refuses_non_integers(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# the row permutation of fig2.json, which preserves mate 3 of B_7
SIGMA7 = RowPermutation.from_cycle(7, (0, 4, 5))
S0 = symbol_system(FIG1, 0)

# every public entry point that takes p, ell or k, called with v in its place
P_ELL_K_CALLS = {
    "gen_bp-p": lambda v: gen_bp(v, 1),
    "gen_bp-k": lambda v: gen_bp(7, v),
    "mols_family": mols_family,
    "Orthomorphism-p": lambda v: Orthomorphism(v, (0, 2, 4, 1, 3)),
    "Orthomorphism.linear-p": lambda v: Orthomorphism.linear(v, 2),
    "Orthomorphism.linear-k": lambda v: Orthomorphism.linear(7, v),
    "Transversal-order": lambda v: Transversal(v, ((0, 0), (1, 1), (2, 2))),
    "TradePair-p": lambda v: TradePair(v, 1, 3, FIG1_ENTRIES),
    "TradePair-ell": lambda v: TradePair(7, v, 3, FIG1_ENTRIES),
    "TradePair-k": lambda v: TradePair(7, 1, v, FIG1_ENTRIES),
    "size_bounds-p": lambda v: size_bounds(v, 3),
    "size_bounds-k": lambda v: size_bounds(7, v),
    "RowPermutation-p": lambda v: RowPermutation(v, SIGMA7.images),
    "RowPermutation.from_cycle": lambda v: RowPermutation.from_cycle(v, (0, 4, 5)),
    "RowPermutation.from_map": lambda v: RowPermutation.from_map(v, {0: 4, 4: 5, 5: 0}),
    "rowperm_orthogonal": lambda v: rowperm_orthogonal(SIGMA7, {v}),
    "trade_from_rowperm": lambda v: trade_from_rowperm(SIGMA7, v),
    "trade_from_matrix-k": lambda v: trade_from_matrix(S0.matrix, S0.u, v, 7),
    "trade_from_matrix-p": lambda v: trade_from_matrix(S0.matrix, S0.u, 3, v),
    "find_k": find_k,
    "three_row_trade": three_row_trade,
    "construct": construct,
    "log_trade": log_trade,
    "small_rowperm_pipeline": small_rowperm_pipeline,
    "symbol_twice_search": lambda v: symbol_twice_search(v, 4),
    "diagonal_histogram": diagonal_histogram,
    "admissible_mates": admissible_mates,
    "spectrum-p": lambda v: spectrum(v, 3),
    "spectrum-k": lambda v: spectrum(7, v),
    "spectrum_all": spectrum_all,
    "rowperm_sizes": lambda v: rowperm_sizes(v, 1),
    "enumerate_orthomorphisms": lambda v: next(enumerate_orthomorphisms(v)),
    "min_distance_from_linear-p": lambda v: min_distance_from_linear(v, 3),
    "min_distance_from_linear-k": lambda v: min_distance_from_linear(7, v),
}


@pytest.mark.parametrize("value", [7.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("name", sorted(P_ELL_K_CALLS))
def test_every_p_ell_k_entry_point_refuses_non_integers(name, value):
    # 7.0 reached range() or gcd as a TypeError, or passed as 7; True passed as 1
    with pytest.raises(ValueError, match=f"={value!r} is not an integer"):
        P_ELL_K_CALLS[name](value)


def test_integer_rule_accepts_numpy_integers():
    sq = gen_bp(np.int64(7), np.int32(3))
    assert sq == gen_bp(7, 3)
    assert sq.label == (7, 3) and all(type(v) is int for v in sq.label)
    assert type(_modulus(np.int16(13), prime=True)) is int
    assert construct(np.int64(13)).trade == construct(13).trade
    rows = tuple(tuple(np.int64(v) for v in e) for e in FIG1_ENTRIES)
    t = TradePair(np.int64(7), np.uint8(1), np.int32(3), rows)
    assert t == FIG1
    assert t.to_json() == FIG1.to_json()


# -- LatinSquare -----------------------------------------------------------


def test_latin_square_rejects_bad_rows():
    with pytest.raises(ValueError):
        LatinSquare([[0, 1], [0, 1]])
    with pytest.raises(ValueError):
        LatinSquare([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        LatinSquare([[0, 1], [1, 0], [0, 1]])


def test_latin_square_is_immutable():
    sq = gen_bp(5, 2)
    with pytest.raises(ValueError):
        sq.cells[0, 0] = 3
    with pytest.raises(AttributeError):
        sq.order = 7


def test_array_input_is_copied_and_read_only():
    # the caller's array, and its flag, stay the caller's
    a = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    sq = LatinSquare(a)
    assert a.flags.writeable
    a[0, 0] = 5
    assert sq[0, 0] == 0
    with pytest.raises(ValueError):
        sq.cells[0, 0] = 1


def test_cells_flag_cannot_be_set_back():
    # the cells are a read-only view of a read-only base, on every path
    # that builds a square
    a = np.array([[0, 1], [1, 0]])
    squares = (gen_bp(5, 2), gen_bp(7, 3).transpose(), LatinSquare(a),
               LatinSquare([[0, 1], [1, 0]]), apply_trade(FIG1),
               copy.copy(gen_bp(5, 2)))
    for sq in squares:
        with pytest.raises(ValueError):
            sq.cells.flags.writeable = True


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda sq: pickle.loads(pickle.dumps(sq)),
])
def test_copies_keep_cells_and_label(clone):
    for sq in (gen_bp(5, 2), gen_bp(7, 3).transpose(), LatinSquare([[0, 1], [1, 0]])):
        again = clone(sq)
        assert again == sq and again.label == sq.label
        assert not again.cells.flags.writeable
        with pytest.raises(AttributeError):
            again.order = 3


def test_copies_go_through_the_checked_constructor():
    # a square whose cells are not Latin does not survive a round-trip
    bad = LatinSquare._proved(np.array([[0, 1], [0, 1]]))
    with pytest.raises(ValueError, match="columns"):
        copy.copy(bad)
    with pytest.raises(ValueError, match="columns"):
        pickle.loads(pickle.dumps(bad))


@pytest.mark.parametrize("n", range(3, 32, 2))
def test_trusted_squares_equal_checked_ones(n):
    # gen_bp and transpose skip the Latin check; LatinSquare(rows) makes it
    for k in (k for k in range(1, n) if math.gcd(k, n) == 1):
        rows = [[(k * i + j) % n for j in range(n)] for i in range(n)]
        sq = gen_bp(n, k)
        assert sq == LatinSquare(rows) and sq.label == (n, k)
        tr = sq.transpose()
        assert tr == LatinSquare([list(col) for col in zip(*rows)])
        assert tr.label is None
        for square in (sq, tr):
            assert not square.cells.flags.writeable
            with pytest.raises(ValueError):
                square.cells[0, 0] = 1


def test_text_round_trip():
    sq = gen_bp(7, 3)
    again = LatinSquare.from_text(sq.to_text())
    assert again == sq
    assert again.label is None


def test_from_text_rejects_ragged():
    with pytest.raises(ValueError):
        LatinSquare.from_text("2\n0 1\n1")


# -- B_p(k) ----------------------------------------------------------------


def test_gen_bp_cell_formula():
    sq = gen_bp(11, 4)
    for i in range(11):
        for j in range(11):
            assert sq[i, j] == (4 * i + j) % 11
    assert sq.label == (11, 4)


def test_gen_bp_rejects_non_unit():
    with pytest.raises(ValueError):
        gen_bp(9, 3)
    with pytest.raises(ValueError):
        gen_bp(9, 6)
    assert gen_bp(9, 4).label == (9, 4)


def test_gen_bp_rejects_out_of_range_k():
    with pytest.raises(ValueError):
        gen_bp(7, 0)
    with pytest.raises(ValueError):
        gen_bp(7, 7)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_mols_family_pairwise_orthogonal(p):
    fam = mols_family(p)
    assert len(fam) == p - 1
    for a, b in itertools.combinations(fam, 2):
        assert are_orthogonal(a, b)
        assert _orthogonal_oracle(a, b)


def test_mols_family_requires_prime():
    with pytest.raises(ValueError):
        mols_family(9)


@pytest.mark.parametrize(
    "call",
    [
        mols_family,
        diagonal_histogram,
        lambda p: rowperm_sizes(p, 1),
        lambda p: min_distance_from_linear(p, 2),
        three_row_trade,
        find_k,
        log_trade,
        lambda p: size_bounds(p, 2),
        construct,
    ],
    ids=["mols_family", "diagonal_histogram", "rowperm_sizes", "min_distance_from_linear",
         "three_row_trade", "find_k", "log_trade", "size_bounds", "construct"],
)
def test_prime_only_operations_share_one_check(call):
    with pytest.raises(ValueError, match=r"^p=9 must be prime$"):
        call(9)


def test_orthogonality_matches_gcd_rule_prime():
    # for prime p: B_p(l) and B_p(k) orthogonal iff gcd(k - l, p) = 1
    p = 7
    for ell in range(1, p):
        for k in range(1, p):
            expected = math.gcd(k - ell, p) == 1
            got = are_orthogonal(gen_bp(p, ell), gen_bp(p, k))
            assert got == expected == _orthogonal_oracle(gen_bp(p, ell), gen_bp(p, k))


def test_orthogonality_composite_order_nine():
    # gcd(4 - 1, 9) = 3: the pair fails; gcd(2 - 1, 9) = 1: the pair holds
    b1, b2, b4 = gen_bp(9, 1), gen_bp(9, 2), gen_bp(9, 4)
    assert not are_orthogonal(b1, b4)
    assert not _orthogonal_oracle(b1, b4)
    assert are_orthogonal(b1, b2)
    assert _orthogonal_oracle(b1, b2)


def test_are_orthogonal_order_mismatch():
    with pytest.raises(ValueError):
        are_orthogonal(gen_bp(5, 1), gen_bp(7, 1))


# -- transversals ----------------------------------------------------------


def test_transversal_diagonal_of_b3():
    # B_3(1)[r, r] = 2r mod 3: symbols 0, 2, 1 are distinct
    t = Transversal(3, ((0, 0), (1, 1), (2, 2)))
    assert is_transversal(gen_bp(3, 1), t)


def test_transversal_rejects_malformed():
    with pytest.raises(ValueError):
        Transversal(3, ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        Transversal(3, ((0, 0), (0, 1), (2, 2)))
    with pytest.raises(ValueError):
        Transversal(3, ((0, 0), (1, 3), (2, 2)))


def test_transversal_repeated_column_rejected_by_check():
    sq = gen_bp(5, 1)
    t = Transversal(5, ((0, 0), (1, 0), (2, 1), (3, 2), (4, 3)))
    assert not is_transversal(sq, t)


def test_transversal_json_round_trip():
    t = Transversal(3, ((0, 0), (1, 1), (2, 2)))
    assert Transversal.from_json(t.to_json()) == t


@pytest.mark.parametrize(
    "text, message",
    [
        # int() truncated these to p = 3 and cell (0, 0)
        ('{"p": 3.9, "cells": [[0, 0], [1, 1], [2, 2]]}', "p=3.9 is not an integer"),
        ('{"p": 3, "cells": [[0, 0.5], [1, 1], [2, 2]]}', "column=0.5 is not an integer"),
        ('{"p": 3, "cells": [[true, 0], [1, 1], [2, 2]]}', "row=True is not an integer"),
    ],
)
def test_transversal_from_json_rejects_non_integers(text, message):
    with pytest.raises(ValueError, match=message):
        Transversal.from_json(text)


@pytest.mark.parametrize("p", [3, 5])
def test_is_transversal_agrees_with_oracle(p):
    sq = gen_bp(p, 1)
    cellsets = _transversals_oracle(sq)
    for cols in itertools.permutations(range(p)):
        t = Transversal(p, tuple((r, cols[r]) for r in range(p)))
        assert is_transversal(sq, t) == (t.cells in cellsets)


# -- orthomorphisms --------------------------------------------------------


def test_linear_orthomorphism_check():
    # x -> kx is an orthomorphism of Z_p exactly for k not in {0, 1}
    p = 11
    for k in range(p):
        phi = Orthomorphism.linear(p, k)
        assert orthomorphism_check(phi) == (k not in (0, 1))


def test_orthomorphism_check_rejects_non_permutation():
    assert not orthomorphism_check(Orthomorphism(5, (0, 0, 1, 2, 3)))


def test_transversal_from_orthomorphism_is_transversal():
    for p in (5, 7):
        sq = gen_bp(p, 1)
        for k in range(2, p):
            t = transversal_from_orthomorphism(Orthomorphism.linear(p, k))
            assert is_transversal(sq, t)


def test_transversal_from_orthomorphism_rejects_invalid():
    with pytest.raises(ValueError):
        transversal_from_orthomorphism(Orthomorphism.linear(7, 1))


def test_orthomorphism_distance():
    a = Orthomorphism.linear(7, 2)
    b = Orthomorphism.linear(7, 3)
    # 2x = 3x mod 7 only at x = 0
    assert orthomorphism_distance(a, b) == 6
    assert orthomorphism_distance(a, a) == 0
    with pytest.raises(ValueError):
        orthomorphism_distance(a, Orthomorphism.linear(5, 2))


def test_orthomorphism_json_round_trip():
    phi = Orthomorphism.linear(7, 3)
    assert Orthomorphism.from_json(phi.to_json()) == phi


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"p": 5.2, "images": [0, 2, 4, 1, 3]}', "p=5.2 is not an integer"),
        ('{"p": 5, "images": [0, 2.0, 4, 1, 3]}', "image=2.0 is not an integer"),
    ],
)
def test_orthomorphism_from_json_rejects_non_integers(text, message):
    with pytest.raises(ValueError, match=message):
        Orthomorphism.from_json(text)


def test_affine_orthomorphism_example():
    # x -> 2x + 1 mod 5 gives cells (x, x + 1)
    phi = Orthomorphism(5, tuple((2 * x + 1) % 5 for x in range(5)))
    assert orthomorphism_check(phi)
    t = transversal_from_orthomorphism(phi)
    assert t.cells == tuple((x, (x + 1) % 5) for x in range(5))
    assert is_transversal(gen_bp(5, 1), t)


@pytest.mark.parametrize("p,count", [(5, 15), (7, 133)])
def test_transversal_orthomorphism_bijection(p, count):
    # transversals of B_p(1) and orthomorphisms of Z_p are in bijection via
    # phi(x) = symbol in row x; counts 15 and 133 come from the brute force
    sq = gen_bp(p, 1)
    trans = _transversals_oracle(sq)
    assert len(trans) == count
    images_seen = set()
    for cells in trans:
        phi = Orthomorphism(p, tuple(sq[r, c] for r, c in cells))
        assert orthomorphism_check(phi)
        assert transversal_from_orthomorphism(phi).cells == cells
        images_seen.add(phi.images)
    assert len(images_seen) == count
