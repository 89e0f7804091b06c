import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bptrades.matrices import (
    SLACK,
    TradeMatrix,
    balance_matrix,
    check_bcc2,
    det_exact,
    dominance_report,
    size_bounds,
    symbol_system,
)
from bptrades.rowperm import trade_from_matrix
from bptrades.trades import TradePair

from test_trades import B13, FIG1, FIG2

S0_MATRIX = ((3, -1, -2), (-2, 3, -1), (-1, -2, 3))


def _det_cofactor(rows: tuple[tuple[int, ...], ...]) -> int:
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = tuple(r[:j] + r[j + 1 :] for r in rows[1:])
        total += (-1) ** j * head * _det_cofactor(minor)
    return total


# -- TradeMatrix type --------------------------------------------------------


def test_trade_matrix_sign_pattern_enforced():
    with pytest.raises(ValueError):
        TradeMatrix(2, ((0, -1), (-1, 1)))
    with pytest.raises(ValueError):
        TradeMatrix(2, ((1, 1), (-1, 1)))
    with pytest.raises(ValueError):
        TradeMatrix(2, ((1, -2), (-1, 2)))


def test_trade_matrix_applies_the_integer_rule():
    # True passed as m = 1, and a float system rebuilt FIG2, since
    # -1.0 == -1 and the walk and A*u checks compare values only
    with pytest.raises(ValueError, match="m=True is not an integer"):
        TradeMatrix(True, ((1,),))
    floats = tuple(tuple(map(float, row)) for row in S0_MATRIX)
    with pytest.raises(ValueError, match="entry=3.0 is not an integer"):
        trade_from_matrix(TradeMatrix(3, floats), (0, 4, 5), 3, 7)
    A = TradeMatrix(np.int64(3), [[np.int32(v) for v in row] for row in S0_MATRIX])
    assert A == TradeMatrix(3, S0_MATRIX)
    assert type(A.m) is int and all(type(v) is int for row in A.entries for v in row)
    assert trade_from_matrix(A, (0, 4, 5), 3, 7) == FIG2


def test_minor_matrix_drops_row_and_column():
    A = TradeMatrix(3, S0_MATRIX)
    assert A.minor_matrix(0).entries == ((3, -1), (-2, 3))
    assert A.minor_matrix(1).entries == ((3, -2), (-1, 3))


# -- symbol systems ----------------------------------------------------------


def test_symbol_system_of_fig1_symbol_zero():
    sys0 = symbol_system(FIG1, 0)
    assert sys0.rows == (0, 4, 5)
    assert sys0.phi == {0: 4, 4: 5, 5: 0}
    assert sys0.phi_prime == {0: 5, 4: 0, 5: 4}
    assert sys0.matrix.entries == S0_MATRIX
    assert sys0.matrix.apply((0, 4, 5)) == (-14, 7, 7)


def test_symbol_system_rejects_absent_symbol():
    with pytest.raises(ValueError):
        symbol_system(FIG1, 2)  # symbol 2 does not occur in Fig. 1's trade


def test_symbol_system_requires_index_k():
    with pytest.raises(ValueError, match="index k is not set"):
        symbol_system(TradePair(7, 1, None, ()), 0)


def test_symbol_system_requires_index_one():
    t = TradePair(7, 2, 6, tuple((r, 2 * c % 7, 2 * b % 7, 2 * m % 7)
                                 for r, c, b, m in FIG1.entries))
    with pytest.raises(ValueError):
        symbol_system(t, 0)


@pytest.mark.parametrize("trade", [FIG1, FIG2], ids=["fig1", "fig2"])
def test_symbol_systems_satisfy_p1_p2_p3(trade):
    symbols = sorted({b for _, _, b, _ in trade.entries})
    for s in symbols:
        sys = symbol_system(trade, s)
        A, m, k = sys.matrix.entries, sys.matrix.m, sys.k
        assert m >= 3
        for i in range(m):
            assert A[i][i] == k  # P1
            for j in range(m):
                if j != i:
                    assert A[i][j] in (0, -1, 1 - k)  # P2
            assert sum(A[i]) == 0  # P3 rows
        for j in range(m):
            assert sum(A[i][j] for i in range(m)) == 0  # P3 columns
        assert all(v % trade.p == 0 for v in sys.matrix.apply(sys.u))
        assert all(sys.phi[r] != r for r in sys.rows)
        assert all(sys.phi_prime[r] not in (r, sys.phi[r]) for r in sys.rows)


# -- balance matrices --------------------------------------------------------


def test_balance_matrix_of_b13_trade():
    D, u = balance_matrix(B13)
    assert u == (0, 5, 8, 10, 11, 12)
    assert all(D.entries[i][i] == 2 for i in range(6))
    # mates 0 sit on bases 5 and 8: row of symbol 0 reads 2*0 - 5 - 8
    assert D.entries[0] == (2, -1, -1, 0, 0, 0)
    assert all(v % 13 == 0 for v in D.apply(u))
    assert all(sum(row) == 0 for row in D.entries)
    assert all(sum(D.entries[i][j] for i in range(6)) == 0 for j in range(6))


def test_symbol_twice_balance_has_no_minus_two():
    D, _ = balance_matrix(B13)
    assert all(
        D.entries[i][j] != -2 for i in range(D.m) for j in range(D.m) if i != j
    )


def test_fig1_balance_diagonal_at_least_three():
    D, u = balance_matrix(FIG1)
    assert u == (0, 1, 3, 4, 5, 6)
    assert all(D.entries[i][i] >= 3 for i in range(D.m))


def test_balance_matrix_rejects_invalid():
    with pytest.raises(ValueError):
        balance_matrix(TradePair(7, 1, None, ((0, 0, 0, 3),)))
    with pytest.raises(ValueError):
        balance_matrix(TradePair(7, 1, None, ()))


# -- determinants ------------------------------------------------------------


def test_det_of_zero_row_sum_system_vanishes():
    assert det_exact(TradeMatrix(3, S0_MATRIX)) == 0


def test_det_of_reduced_system_is_seven():
    # k^2 - k + 1 = 7 for k = 3
    A = TradeMatrix(3, S0_MATRIX).minor_matrix(0)
    assert det_exact(A) == 7


def test_det_identity():
    eye = TradeMatrix(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert det_exact(eye) == 1


def test_det_handles_zero_pivot():
    A = TradeMatrix(3, ((2, -2, 0), (-2, 2, 0), (0, -1, 1)))
    assert det_exact(A) == _det_cofactor(A.entries)


def test_det_matches_cofactor_on_produced_matrices():
    mats = [TradeMatrix(3, S0_MATRIX), balance_matrix(B13)[0], balance_matrix(FIG1)[0]]
    mats += [symbol_system(FIG1, s).matrix for s in (0, 1, 3)]
    for A in mats:
        assert det_exact(A) == _det_cofactor(A.entries)


@given(st.integers(1, 5), st.data())
def test_det_matches_cofactor_on_random_trade_matrices(m, data):
    rows = []
    for i in range(m):
        off = [data.draw(st.integers(-3, 0)) for _ in range(m - 1)]
        diag = -sum(off) + data.draw(st.integers(0, 2)) + (1 if sum(off) == 0 else 0)
        row = off[:i] + [diag] + off[i:]
        rows.append(tuple(row))
    A = TradeMatrix(m, tuple(rows))
    assert det_exact(A) == _det_cofactor(A.entries)


# -- dominance ---------------------------------------------------------------


def test_reduced_system_is_nonsingular_by_dominance():
    A = TradeMatrix(3, S0_MATRIX).minor_matrix(0)
    rep = dominance_report(A)
    assert rep.diagonally_dominant
    assert rep.irreducible
    assert rep.has_strict_row
    assert rep.nonsingular_guaranteed
    assert det_exact(A) != 0


def test_zero_row_sum_system_has_no_strict_row():
    rep = dominance_report(TradeMatrix(3, S0_MATRIX))
    assert rep.diagonally_dominant
    assert rep.irreducible
    assert not rep.has_strict_row
    assert not rep.nonsingular_guaranteed


def test_block_diagonal_is_reducible():
    rep = dominance_report(TradeMatrix(2, ((1, 0), (0, 1))))
    assert rep.diagonally_dominant and rep.has_strict_row
    assert not rep.irreducible


# -- size bounds -------------------------------------------------------------


def test_size_bounds_p7_k3():
    b = size_bounds(7, 3)
    assert b.K == 3
    assert b.symbol_lb == pytest.approx(2.7712, abs=1e-4)
    assert b.trade_lb == pytest.approx(6.0299, abs=1e-3)
    assert b.perm_lb == b.symbol_lb


def test_size_bounds_p13_k4():
    b = size_bounds(13, 4)
    assert b.K == 4  # 4^-1 = 10 mod 13
    assert b.symbol_lb == pytest.approx(2.8502, abs=1e-4)


def test_size_bounds_uses_inverse_when_smaller():
    # 5^-1 = 3 mod 7
    assert size_bounds(7, 5).K == 3
    assert size_bounds(7, 5).symbol_lb == size_bounds(7, 3).symbol_lb


def test_size_bounds_rejects_bad_input():
    with pytest.raises(ValueError):
        size_bounds(9, 2)
    with pytest.raises(ValueError):
        size_bounds(7, 1)


def test_fig1_symbol_counts_exceed_symbol_lb():
    lb = size_bounds(7, 3).symbol_lb
    counts = {}
    for _, _, b, _ in FIG1.entries:
        counts[b] = counts.get(b, 0) + 1
    assert set(counts.values()) == {3}
    assert all(n > lb - SLACK for n in counts.values())


def test_trade_lb_below_min_nonzero_spectrum_size():
    assert size_bounds(7, 3).trade_lb < 14


# -- bcc2 bound --------------------------------------------------------------


def test_check_bcc2_fig1():
    # 5 rows: m = 4, bound 4 * 7^(1/4) + 2 = 8.506 <= 18
    assert len(FIG1.rows_used()) == 5
    assert check_bcc2(FIG1)


def test_check_bcc2_b13():
    # 4 rows: m = 3, bound 3 * 13^(1/3) + 2 = 9.054 <= 12
    assert len(B13.rows_used()) == 4
    assert 3 * 13 ** (1 / 3) + 2 == pytest.approx(9.054, abs=1e-3)
    assert check_bcc2(B13)


def test_check_bcc2_empty_and_fig2():
    assert check_bcc2(TradePair(7, 1, None, ()))
    assert check_bcc2(FIG2)
