import math

import numpy as np
import pytest

from bptrades.matrices import TradeMatrix, balance_matrix, size_bounds, symbol_system
from bptrades.rowperm import (
    RowPermutation,
    rowperm_orthogonal,
    rowperm_from_symbol,
    three_row_trade,
    trade_from_matrix,
    trade_from_rowperm,
)
from bptrades.search import spectrum
from bptrades.trades import validate_orthogonal_trade

from test_trades import B13, FIG1, FIG2

FIG2_SIGMA = RowPermutation.from_map(7, {0: 4, 4: 5, 5: 0})


# -- RowPermutation ----------------------------------------------------------


def test_support_is_computed():
    assert FIG2_SIGMA.support == (0, 4, 5)
    assert RowPermutation(5, (0, 1, 2, 3, 4)).support == ()


def test_transpositions_rejected():
    with pytest.raises(ValueError):
        RowPermutation(5, (1, 0, 2, 3, 4))


def test_non_permutation_rejected():
    with pytest.raises(ValueError):
        RowPermutation(3, (0, 0, 2))
    with pytest.raises(ValueError):
        RowPermutation(3, (0, 1))


def test_from_cycle():
    sigma = RowPermutation.from_cycle(7, (0, 1, 3))
    assert sigma.images[0] == 1 and sigma.images[1] == 3 and sigma.images[3] == 0
    assert sigma.support == (0, 1, 3)


@pytest.mark.parametrize("call, message", [
    # raised IndexError
    (lambda: RowPermutation.from_cycle(5, (0, 7, 1)), r"^row 7 out of range 0\.\.4$"),
    # read -1 as row 4
    (lambda: RowPermutation.from_map(5, {-1: 0, 0: 1, 1: 4}), r"^row -1 out of range 0\.\.4$"),
    (lambda: RowPermutation.from_map(5, {1.0: 2, 2: 3, 3: 1}), "^row=1.0 is not an integer$"),
])
def test_from_map_checks_every_key(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_from_map_accepts_numpy_keys():
    sigma = RowPermutation.from_map(7, {np.int64(0): 4, np.int32(4): 5, np.uint8(5): 0})
    assert sigma == FIG2_SIGMA


# -- orthogonality test ------------------------------------------------------


def test_fig2_sigma_orthogonal_for_k3():
    assert rowperm_orthogonal(FIG2_SIGMA, {3})


def test_three_cycle_zero_one_three_orthogonal_for_k3():
    assert rowperm_orthogonal(RowPermutation.from_cycle(7, (0, 1, 3)), {3})


def test_identity_orthogonal_for_all_k():
    assert rowperm_orthogonal(RowPermutation(7, tuple(range(7))), {2, 3, 4, 5, 6})


def test_fig2_sigma_not_orthogonal_for_k2_or_k4():
    # k=2: the differences 2r - sigma(r) all collapse to 3
    assert not rowperm_orthogonal(FIG2_SIGMA, {2})
    # k=4: differences are distinct but miss the required set 3*{0,4,5}
    assert not rowperm_orthogonal(FIG2_SIGMA, {4})
    assert not rowperm_orthogonal(FIG2_SIGMA, {3, 4})


def test_k_one_rejected():
    with pytest.raises(ValueError):
        rowperm_orthogonal(FIG2_SIGMA, {1})


# -- trades from row permutations ---------------------------------------------


def test_trade_from_fig2_sigma_is_fig2():
    t = trade_from_rowperm(FIG2_SIGMA, 3)
    assert t == FIG2
    assert t.entries == FIG2.entries
    assert t.size == 21 == 7 * len(FIG2_SIGMA.support)


def test_trade_from_rowperm_rejects_identity():
    with pytest.raises(ValueError):
        trade_from_rowperm(RowPermutation(7, tuple(range(7))), 3)


def test_trade_from_rowperm_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        trade_from_rowperm(FIG2_SIGMA, 4)


# -- sigma from a symbol of a trade -------------------------------------------


def test_fig1_symbol_zero_gives_fig2_sigma():
    sigma = rowperm_from_symbol(FIG1, 0)
    assert sigma.images == FIG2_SIGMA.images


def test_fig1_symbol_five_gives_valid_sigma():
    sigma = rowperm_from_symbol(FIG1, 5)
    assert set(sigma.support) == {2, 3, 5}
    assert rowperm_orthogonal(sigma, {3})


@pytest.mark.parametrize("trade", [FIG1, FIG2], ids=["fig1", "fig2"])
def test_every_symbol_yields_orthogonal_rowperm(trade):
    assert trade.k is not None
    for s in sorted({b for _, _, b, _ in trade.entries}):
        sigma = rowperm_from_symbol(trade, s)
        assert rowperm_orthogonal(sigma, {trade.k})
        t = trade_from_rowperm(sigma, trade.k)
        assert validate_orthogonal_trade(t).is_orthogonal_trade
        assert t.size == trade.p * len(sigma.support)


# -- trades from matrix systems ------------------------------------------------


def test_matrix_system_rebuilds_fig2():
    A = symbol_system(FIG1, 0).matrix
    t = trade_from_matrix(A, (0, 4, 5), 3, 7)
    assert t == FIG2


def test_b13_balance_matrix_gives_index_two_trade():
    D, u = balance_matrix(B13)
    t = trade_from_matrix(D, u, 2, 13)
    assert (t.ell, t.k) == (1, 2)
    assert t.rows_used() == (0, 5, 8, 10, 11, 12)
    assert t.size == 13 * 6
    assert validate_orthogonal_trade(t).is_orthogonal_trade


@pytest.mark.parametrize("p", [5, 7])
def test_matrix_walk_matches_symbol_rowperm_for_every_certificate(p):
    # every symbol of every spectrum certificate, k >= 3: the walk reads
    # the same sigma off the symbol's matrix as rowperm_from_symbol does
    pairs = 0
    for k in range(3, p):
        for t in spectrum(p, k).certificates.values():
            for s in sorted({b for _, _, b, _ in t.entries}):
                sys = symbol_system(t, s)
                got = trade_from_matrix(sys.matrix, sys.rows, k, p)
                expected = trade_from_rowperm(rowperm_from_symbol(t, s), k)
                assert got == expected and got.entries == expected.entries
                pairs += 1
    assert pairs == {5: 28, 7: 636}[p]


def test_shared_minus_one_column_rejected():
    # k = 3, rows split into -1 and -2, but the -1 entries of rows 0 and
    # 2 share column 1 and column 0 holds two -2 entries
    A = TradeMatrix(3, ((3, -1, -2), (-2, 3, -1), (-2, -1, 3)))
    with pytest.raises(ValueError, match="^column 0 does not split into -1 and -2$"):
        trade_from_matrix(A, (0, 1, 2), 3, 7)


def test_minus_two_entry_rejected():
    A = TradeMatrix(3, ((2, -2, 0), (-2, 2, 0), (0, 0, 2)))
    with pytest.raises(ValueError):
        trade_from_matrix(A, (0, 1, 2), 2, 7)


def test_duplicate_u_rejected():
    A = symbol_system(FIG1, 0).matrix
    with pytest.raises(ValueError):
        trade_from_matrix(A, (0, 4, 4), 3, 7)


def test_inconsistent_u_rejected():
    A = symbol_system(FIG1, 0).matrix
    with pytest.raises(ValueError):
        trade_from_matrix(A, (0, 4, 6), 3, 7)


# -- three-row family ----------------------------------------------------------


def test_three_row_p7():
    out = three_row_trade(7)
    assert out is not None
    sigma, k = out
    assert k == 3
    assert sigma.support == (0, 1, 3)
    assert trade_from_rowperm(sigma, k).size == 21


def test_three_row_p13():
    out = three_row_trade(13)
    assert out is not None
    sigma, k = out
    assert k == 4  # 4^2 - 4 + 1 = 13
    t = trade_from_rowperm(sigma, k)
    assert t.size == 39
    assert validate_orthogonal_trade(t).is_orthogonal_trade


@pytest.mark.parametrize("p", [5, 11, 17, 23])
def test_three_row_absent_off_residue_class(p):
    assert three_row_trade(p) is None


def test_three_row_rejects_composite():
    with pytest.raises(ValueError):
        three_row_trade(9)


def test_p3_degenerate_full_square_rowperm():
    # p=3 sits outside the p=1 mod 6 family, yet the full 3-cycle moves
    # every row and is orthogonal for k=2 (k^2-k+1 = 3 = 0 has the double
    # root 2 because -3 = 0 is a square); the constructor still declines
    sigma = RowPermutation.from_cycle(3, (0, 1, 2))
    assert rowperm_orthogonal(sigma, {2})
    assert three_row_trade(3) is None


@pytest.mark.parametrize("p", [7, 13, 19, 31, 37, 43])
def test_three_row_k_solves_quadratic(p):
    out = three_row_trade(p)
    assert out is not None
    sigma, k = out
    assert (k * k - k + 1) % p == 0
    assert 2 <= k <= (p + 1) // 2
    assert len(sigma.support) > math.log(p) / math.log(size_bounds(p, k).K)

