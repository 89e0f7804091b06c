import copy
import json
import math
import pickle
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bptrades import family16
from bptrades.core import LatinSquare, are_orthogonal, gen_bp
from bptrades.dissect import small_rowperm_pipeline
from bptrades.trades import (
    P_MAX,
    TradePair,
    apply_trade,
    canonicalize,
    difference_trade,
    validate_latin_trade,
    validate_orthogonal_trade,
)

# 18-cell trade of index (1,3) in B_7: rows 0,2,3,4,5 (transcribed once,
# frozen; every trades/family16 regression leans on it)
FIG1_ENTRIES = (
    (0, 0, 0, 3), (0, 1, 1, 4), (0, 3, 3, 0), (0, 4, 4, 1),
    (2, 1, 3, 6), (2, 2, 4, 5), (2, 3, 5, 3), (2, 4, 6, 4),
    (3, 0, 3, 5), (3, 1, 4, 3), (3, 2, 5, 4),
    (4, 2, 6, 0), (4, 3, 0, 1), (4, 4, 1, 6),
    (5, 0, 5, 0), (5, 1, 6, 1), (5, 2, 0, 6), (5, 3, 1, 5),
)

# 21-cell trade of index (1,3) in B_7 cycling whole rows 0 -> 4 -> 5 -> 0
FIG2_ENTRIES = tuple(
    [(0, c, c, (4 + c) % 7) for c in range(7)]
    + [(4, c, (4 + c) % 7, (5 + c) % 7) for c in range(7)]
    + [(5, c, (5 + c) % 7, c) for c in range(7)]
)

# 12-cell Latin trade in B_13 with every symbol used exactly twice
B13_ENTRIES = (
    (0, 0, 0, 5), (0, 5, 5, 0),
    (5, 0, 5, 8), (5, 3, 8, 10), (5, 5, 10, 5),
    (7, 3, 10, 11), (7, 4, 11, 12), (7, 5, 12, 10),
    (8, 0, 8, 0), (8, 3, 11, 8), (8, 4, 12, 11), (8, 5, 0, 12),
)

FIG1 = TradePair(7, 1, 3, FIG1_ENTRIES)
FIG2 = TradePair(7, 1, 3, FIG2_ENTRIES)
B13 = TradePair(13, 1, None, B13_ENTRIES)


def _applied_orthogonal_oracle(t: TradePair, k: int) -> bool:
    """Swap the trade in literally, then count superimposed pairs."""
    cells = np.array(gen_bp(t.p, t.ell).cells)
    for r, c, _, mate in t.entries:
        cells[r, c] = mate
    other = gen_bp(t.p, k).cells
    pairs = {(int(cells[i, j]), int(other[i, j]))
             for i in range(t.p) for j in range(t.p)}
    return len(pairs) == t.p * t.p


# -- construction ------------------------------------------------------------


def test_entries_normalized_row_major():
    t = TradePair(7, 1, 3, tuple(reversed(FIG1_ENTRIES)))
    assert t.entries == FIG1_ENTRIES
    assert t.size == 18


def test_constructor_rejects_malformed():
    with pytest.raises(ValueError):
        TradePair(7, 0, 3, ())
    with pytest.raises(ValueError):
        TradePair(9, 3, None, ())  # ell not a unit mod 9
    with pytest.raises(ValueError):
        TradePair(7, 1, 3, ((0, 0, 0, 7),))
    with pytest.raises(ValueError):
        TradePair(7, 1, 3, ((0, 0, 0, 3), (0, 0, 1, 4)))
    with pytest.raises(ValueError):
        TradePair(8, 1, 3, ())


def test_array_input_matches_tuple_input():
    rng = np.random.default_rng(0)
    shuffled = np.array(FIG1_ENTRIES)[rng.permutation(len(FIG1_ENTRIES))]
    t = TradePair(7, 1, 3, shuffled)
    assert t.entries == FIG1_ENTRIES
    assert t == FIG1 and FIG1 == t
    assert hash(t) == hash(FIG1)
    assert t.to_json() == FIG1.to_json()
    assert t.array.tolist() == [list(e) for e in FIG1_ENTRIES]
    assert TradePair(7, 1, 2, shuffled) != FIG1


def test_array_input_is_copied_and_read_only():
    a = np.array(FIG1_ENTRIES)
    t = TradePair(7, 1, 3, a)
    a[0, 3] = 6
    assert t.entries == FIG1_ENTRIES
    with pytest.raises(ValueError):
        t.array[0, 3] = 6
    with pytest.raises(AttributeError):
        t.k = 2


def test_array_flag_cannot_be_set_back():
    # the array is a read-only view of a read-only base, so a stored
    # report can never go stale
    for t in (FIG1, TradePair(7, 1, 3, np.array(FIG1_ENTRIES)), TradePair(7, 1, 3, ())):
        with pytest.raises(ValueError):
            t.array.flags.writeable = True


def test_array_constructor_rejects_malformed():
    cases = [
        ([[0, 0, 0, 7]], "out of range"),
        ([[0, 0, -1, 3]], "out of range"),
        ([[0, 0, 0, 3], [0, 0, 1, 4]], r"duplicate cell \(0, 0\)"),
        ([[1, 1, 2, 3], [0, 0, 0, 3], [1, 1, 2, 4]], r"duplicate cell \(1, 1\)"),
        ([0, 0, 0, 3], "shape"),
        ([[0, 0, 0]], "shape"),
        ([[0.0, 0.0, 0.0, 3.0]], "dtype"),
    ]
    for rows, reason in cases:
        with pytest.raises(ValueError, match=reason):
            TradePair(7, 1, 3, np.array(rows))


@pytest.mark.parametrize("entries", [
    ((0.0, 0, 0, 3),),
    ((0, 0, 0, 3.5),),
    (("0", 0, 0, 3),),
    ((True, False, False, True),),
    [[0, 0, 0, None]],
])
def test_non_integer_entries_rejected(entries):
    # int() would have read these as (0, 0, 0, 3) and (1, 0, 0, 1)
    with pytest.raises(ValueError, match="not integers"):
        TradePair(7, 1, 3, entries)


def test_modulus_cap_keeps_validator_codes_in_int64():
    # at p = 2^33 + 1 the int64 code line*p + symbol wraps, and a
    # row-balance failure in row 2^33 - 1 would be reported as line 0
    p = 2**33 + 1
    entries = ((p - 2, 1, p - 1, 0),)
    with pytest.raises(ValueError, match="largest supported modulus"):
        TradePair(p, 1, 2, entries)
    with pytest.raises(ValueError, match="largest supported modulus"):
        TradePair(p, 1, 2, np.array(entries))
    # at the cap itself the last row is reported as itself
    t = TradePair(P_MAX, 1, 2, ((P_MAX - 1, 0, P_MAX - 1, 0),))
    report = validate_latin_trade(t)
    assert ("latin:row_balance",
            f"line {P_MAX - 1}: mate symbols do not rearrange base symbols") in report.failures
    assert P_MAX % 2 == 1
    assert (P_MAX - 1) * P_MAX + P_MAX - 1 < 2**63 <= (P_MAX + 2) ** 2
    # the relabellings multiply two residues (ell*r, (s - c)/ell, ell*row)
    # and add a residue to a product ((base - s)/(k - ell) + r)
    assert (P_MAX - 1) ** 2 + (P_MAX - 1) < 2**63
    # below the cap, a 140-entry Latin trade in B_q(ell), at three indices
    from bptrades.dissect import log_trade

    q = 3_037_000_493  # the largest prime below P_MAX, which is composite
    small = log_trade(q)
    assert small.size == 140 and validate_latin_trade(small)
    for ell in (1, 2):
        for k in (2, 3, q - 1):
            t = TradePair(q, ell, k, small.array * (1, ell, ell, ell) % q)
            # each symbol occurs twice, too few for an orthogonal trade
            assert bool(_check_against_reference(t)) == (k != ell)
            for i in (0, 139):
                base, mate = t.array[i, 2:].tolist()
                assert "latin:base" in _check_against_reference(_changed(t, i, 2, q - 1 - base))
                assert "latin:row_balance" in _check_against_reference(
                    _changed(t, i, 3, (mate + 1) % q))


def test_empty_array_input():
    t = TradePair(7, 1, 3, np.empty((0, 4), dtype=np.int64))
    assert t.size == 0 and t.entries == ()
    assert t == TradePair(7, 1, 3, ())


# -- Latin validation --------------------------------------------------------


def test_fig1_is_latin_trade():
    report = validate_latin_trade(FIG1)
    assert report.is_latin_trade
    assert report.failures == ()
    assert report.size == 18


def test_single_cell_is_not_a_trade():
    report = validate_latin_trade(TradePair(7, 1, None, ((0, 0, 0, 3),)))
    assert not report.is_latin_trade
    codes = {code for code, _ in report.failures}
    assert "latin:row_balance" in codes


def test_b13_trade_latin_with_symbols_twice():
    report = validate_latin_trade(B13)
    assert report.is_latin_trade
    assert set(report.symbol_histogram.values()) == {2}
    assert len(report.symbol_histogram) == 6


def test_wrong_base_reported():
    entries = ((0, 0, 1, 3),) + FIG1_ENTRIES[1:]
    report = validate_latin_trade(TradePair(7, 1, 3, entries))
    assert not report.is_latin_trade
    assert any(code == "latin:base" for code, _ in report.failures)


def test_mate_equal_base_reported():
    entries = (
        (0, 0, 0, 0), (0, 1, 1, 0),
        (1, 0, 1, 1), (1, 1, 2, 2),
    )
    report = validate_latin_trade(TradePair(3, 1, None, entries))
    assert any(code == "latin:disjoint" for code, _ in report.failures)


def test_empty_trade_is_valid():
    t = TradePair(7, 1, None, ())
    assert validate_latin_trade(t).is_latin_trade
    report = validate_orthogonal_trade(t)
    assert report.is_orthogonal_trade and report.size == 0


# -- orthogonal validation ---------------------------------------------------


def test_fig1_orthogonal_for_k3():
    report = validate_orthogonal_trade(FIG1)
    assert report.is_orthogonal_trade
    assert _applied_orthogonal_oracle(FIG1, 3)


def test_fig1_not_orthogonal_for_k2():
    t = TradePair(7, 1, 2, FIG1_ENTRIES)
    report = validate_orthogonal_trade(t)
    assert report.is_latin_trade and not report.is_orthogonal_trade
    assert not _applied_orthogonal_oracle(FIG1, 2)


def test_fig1_k2_failure_list_pinned():
    # verify prints these codes and texts, in this order
    report = validate_orthogonal_trade(TradePair(7, 1, 2, FIG1_ENTRIES))
    pairs = ((0, 3), (1, 4), (3, 0), (4, 1), (5, 6), (6, 5))
    assert report.failures == tuple(
        ("orth:pair_collision", f"pair (mate {m}, aux {a}) occurs 3 times")
        for m, a in pairs
    ) + tuple(
        ("orth:pair_foreign",
         f"pair (mate {m}, aux {a}) survives elsewhere in the superposition")
        for m, a in pairs
    )


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_local_orthogonality_check_matches_applied_oracle(k):
    t = TradePair(7, 1, k, FIG1_ENTRIES)
    assert validate_orthogonal_trade(t).is_orthogonal_trade == \
        _applied_orthogonal_oracle(FIG1, k)


def test_fig2_orthogonal_for_k3():
    assert validate_orthogonal_trade(FIG2).is_orthogonal_trade
    assert _applied_orthogonal_oracle(FIG2, 3)


def test_orthogonal_symbols_at_least_three_times():
    for t in (FIG1, FIG2):
        hist = validate_orthogonal_trade(t).symbol_histogram
        assert all(n >= 3 for n in hist.values())


def test_index_k_equal_ell_rejected():
    with pytest.raises(ValueError):
        validate_orthogonal_trade(TradePair(7, 1, 1, FIG1_ENTRIES))


def test_missing_k_rejected_for_nonempty():
    with pytest.raises(ValueError):
        validate_orthogonal_trade(B13)


def test_non_unit_index_gap_rejected():
    # p=9: k-ell=3 shares a factor with 9, the base pair is not orthogonal
    with pytest.raises(ValueError):
        validate_orthogonal_trade(TradePair(9, 1, 4, ((0, 0, 0, 1), (0, 1, 1, 0),
                                                      (1, 0, 1, 0), (1, 1, 2, 2))))


# -- application and differences ---------------------------------------------


def test_apply_fig2_cycles_rows():
    applied = apply_trade(FIG2)
    b7 = gen_bp(7, 1)
    assert applied.row(0) == b7.row(4)
    assert applied.row(4) == b7.row(5)
    assert applied.row(5) == b7.row(0)
    for r in (1, 2, 3, 6):
        assert applied.row(r) == b7.row(r)


def test_apply_differs_in_exactly_size_cells():
    applied = apply_trade(FIG1)
    assert int((applied.cells != gen_bp(7, 1).cells).sum()) == FIG1.size


def test_apply_empty_trade_is_identity():
    t = TradePair(7, 2, None, ())
    assert apply_trade(t) == gen_bp(7, 2)


def test_apply_rejects_invalid():
    with pytest.raises(ValueError):
        apply_trade(TradePair(7, 1, None, ((0, 0, 0, 3),)))


def test_difference_recovers_fig2():
    applied = apply_trade(FIG2)
    diff = difference_trade(gen_bp(7, 1), applied)
    assert diff.entries == FIG2.entries
    assert diff.k is None and diff.ell == 1
    assert validate_latin_trade(diff).is_latin_trade


def test_difference_of_equal_squares_is_empty():
    L = gen_bp(7, 3)
    assert difference_trade(L, L).size == 0


def test_difference_requires_label():
    rows = gen_bp(5, 1).cells
    with pytest.raises(ValueError):
        difference_trade(LatinSquare(rows), gen_bp(5, 2))


def test_apply_after_difference_round_trip():
    M = apply_trade(FIG1)
    assert apply_trade(difference_trade(gen_bp(7, 1), M)) == M


# -- transpose duality -------------------------------------------------------


def test_transposed_applied_square_orthogonal_to_inverse_index():
    # index (1,3) trade: the transposed applied square pairs with B_7(5)
    applied = apply_trade(FIG1)
    assert are_orthogonal(applied.transpose(), gen_bp(7, 5))
    assert not are_orthogonal(applied.transpose(), gen_bp(7, 3))


# -- canonicalization --------------------------------------------------------


def test_canonicalize_fixes_fig1():
    assert canonicalize(FIG1) == FIG1


def test_canonicalize_transposes_index_five():
    t = TradePair(7, 1, 5, tuple((c, r, b, m) for r, c, b, m in FIG1_ENTRIES))
    assert validate_orthogonal_trade(t).is_orthogonal_trade
    out = canonicalize(t)
    assert out.k == 3
    assert out == FIG1


def test_canonicalize_scales_index_two_six():
    t = TradePair(7, 2, 6, tuple((r, 2 * c % 7, 2 * b % 7, 2 * m % 7)
                                 for r, c, b, m in FIG1_ENTRIES))
    assert validate_orthogonal_trade(t).is_orthogonal_trade
    out = canonicalize(t)
    assert (out.ell, out.k) == (1, 3)
    assert out == FIG1


@pytest.mark.parametrize("dr,dc", [(1, 0), (0, 1), (3, 5), (6, 6)])
def test_translates_stay_orthogonal_and_canonicalize(dr, dc):
    p = 7
    moved = TradePair(p, 1, 3, tuple(
        ((r + dr) % p, (c + dc) % p, (b + dr + dc) % p, (m + dr + dc) % p)
        for r, c, b, m in FIG1_ENTRIES))
    assert validate_orthogonal_trade(moved).is_orthogonal_trade
    out = canonicalize(moved)
    assert (0, 0, 0) in {(r, c, b) for r, c, b, _ in out.entries}
    assert out.size == moved.size
    assert canonicalize(out) == out


def test_canonicalize_rejects_invalid():
    with pytest.raises(ValueError):
        canonicalize(TradePair(7, 1, 2, FIG1_ENTRIES))


def _ref_canonicalize(t: TradePair) -> TradePair:
    # the three steps as separate trades: scale, transpose, translate by
    # the first (least) entry of the row-major array
    assert validate_orthogonal_trade(t).is_orthogonal_trade
    if t.size == 0:
        return t
    p, out = t.p, t
    if out.ell != 1:
        inv = pow(out.ell, -1, p)
        out = TradePair(p, 1, out.k * inv % p, out.array * (1, inv, inv, inv) % p)
    if out.k > pow(out.k, -1, p):
        out = TradePair(p, 1, pow(out.k, -1, p), out.array[:, [1, 0, 2, 3]])
    r0, c0 = out.array[0, :2].tolist()
    if (r0, c0) != (0, 0):
        s = r0 + c0
        out = TradePair(p, 1, out.k, (out.array - (r0, c0, s, s)) % p)
    assert validate_orthogonal_trade(out).is_orthogonal_trade
    return out


def _canonical_variants():
    """Each certificate of p = 5, 7, 9 and 11 and the figures, transposed
    or not, translated three ways and scaled into B_p(ell), ell = 1, 2, 4."""
    for seed in _seed_trades():
        if seed.k is None:
            continue
        p = seed.p
        for u in (seed, TradePair(p, 1, pow(seed.k, -1, p), seed.array[:, [1, 0, 2, 3]])):
            for dr, dc in ((0, 0), (1, 0), (p - 1, 2)):
                moved = TradePair(p, 1, u.k, (u.array + (dr, dc, dr + dc, dr + dc)) % p)
                for ell in (1, 2, 4):
                    yield _with_ell(moved, ell)


def test_canonicalize_matches_three_step_reference():
    same = 0
    for t in _canonical_variants():
        out, ref = canonicalize(t), _ref_canonicalize(t)
        assert out == ref
        assert (out is t) == (ref is t)
        same += out is t
    # 550 of the 3,528 variants are canonical already, 72 of them empty
    assert same == 550


def test_canonicalize_builds_at_most_one_trade(monkeypatch):
    builds = []
    init = TradePair.__init__
    monkeypatch.setattr(TradePair, "__init__",
                        lambda self, *args: builds.append(args[0]) or init(self, *args))
    for t in list(_canonical_variants())[::7]:
        builds.clear()
        out = canonicalize(t)
        assert len(builds) == (out is not t)
        builds.clear()
        assert canonicalize(out) is out
        assert builds == []


# -- one report per trade ----------------------------------------------------


def _changed(t: TradePair, i: int, col: int, value: int) -> TradePair:
    a = t.array.copy()
    a[i, col] = value
    return TradePair(t.p, t.ell, t.k, a)


def _corruptions(t: TradePair):
    """t, then copies with a wrong base, a mate equal to its base, an
    unbalanced row and column, and (for a set k) another index."""
    p = t.p
    yield t
    for i in (0, t.size // 2, t.size - 1):
        base, mate = t.array[i, 2:].tolist()
        yield _changed(t, i, 2, (base + 1) % p)
        yield _changed(t, i, 3, base)
        yield _changed(t, i, 3, next(s for s in (mate + 1, mate + 2) if s % p != base) % p)
    if t.k is not None:
        other = next(k for k in range(2, p) if k != t.k and math.gcd(k - t.ell, p) == 1)
        yield TradePair(p, t.ell, other, t.array)


def _validators(t: TradePair):
    if t.k is None:
        return (validate_latin_trade,)
    return (validate_latin_trade, validate_orthogonal_trade)


def test_each_report_computed_once_and_equal_to_a_fresh_one():
    from bptrades.family16 import construct

    codes = set()
    for trade in (FIG1, FIG2, B13, construct(13).trade, construct(31).trade):
        for t in _corruptions(trade):
            # the fresh trade is validated in the opposite order, so the
            # orthogonal report is built before the Latin one it rests on
            fresh = TradePair(t.p, t.ell, t.k, t.entries)
            fresh_reports = [validate(fresh) for validate in reversed(_validators(t))][::-1]
            for validate, fresh_report in zip(_validators(t), fresh_reports):
                report = validate(t)
                assert validate(t) is report
                assert report == fresh_report
                assert report.symbol_histogram == fresh_report.symbol_histogram
                codes.update(code for code, _ in report.failures)
    assert codes == {"latin:base", "latin:disjoint", "latin:row_balance",
                     "latin:col_balance", "orth:pair_collision", "orth:pair_foreign"}


def test_index_errors_raise_on_every_call():
    t = TradePair(7, 1, 1, FIG1_ENTRIES)
    for _ in range(2):
        with pytest.raises(ValueError, match="equals ell"):
            validate_orthogonal_trade(t)
    t = TradePair(7, 1, None, FIG1_ENTRIES)
    assert validate_latin_trade(t)
    for _ in range(2):
        with pytest.raises(ValueError, match="not set"):
            validate_orthogonal_trade(t)


def test_report_histogram_is_read_only():
    for report in (validate_latin_trade(FIG1), validate_orthogonal_trade(FIG1)):
        with pytest.raises(TypeError):
            report.symbol_histogram[0] = 99
        assert report.symbol_histogram[0] == 3


def test_report_histogram_counted_on_first_read():
    # validation alone does not count symbols; the first read does, once,
    # with the symbols in ascending order
    t = TradePair(7, 1, 3, FIG1_ENTRIES)
    for report in (validate_latin_trade(t), validate_orthogonal_trade(t)):
        assert "symbol_histogram" not in vars(report)
        hist = report.symbol_histogram
        assert report.symbol_histogram is hist
        assert list(hist.items()) == sorted(Counter(e[2] for e in FIG1_ENTRIES).items())


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t)),
])
def test_copies_rebuild_the_trade_without_its_reports(clone):
    for t in (FIG1, B13, TradePair(7, 1, None, ())):
        report = validate_latin_trade(t)
        again = clone(t)
        assert again == t and again is not t
        assert (again.p, again.ell, again.k, again.entries) == (t.p, t.ell, t.k, t.entries)
        with pytest.raises(ValueError):
            again.array.flags.writeable = True
        assert validate_latin_trade(again) is not report
        assert validate_latin_trade(again) == report
    assert validate_orthogonal_trade(clone(FIG1)).is_orthogonal_trade
    assert not validate_orthogonal_trade(clone(TradePair(7, 1, 2, FIG1_ENTRIES)))


# -- JSON --------------------------------------------------------------------


def test_json_round_trip():
    for t in (FIG1, FIG2, B13):
        again = TradePair.from_json(t.to_json())
        assert again == t
        if t.k is not None:
            assert validate_orthogonal_trade(again).is_orthogonal_trade


def test_json_key_order_and_null_k():
    text = B13.to_json()
    assert text.startswith('{"p": 13, "ell": 1, "k": null, "entries":')
    obj = json.loads(FIG1.to_json())
    assert obj["entries"] == sorted(obj["entries"])


def test_json_without_k_reads_as_null_k():
    obj = json.loads(FIG1.to_json())
    del obj["k"]
    assert TradePair.from_json(json.dumps(obj)) == TradePair(7, 1, None, FIG1_ENTRIES)


@pytest.mark.parametrize("key, value", [
    ("p", 7.9), ("p", 7.0), ("p", "7"), ("ell", True), ("k", 3.2), ("k", False),
])
def test_json_header_must_be_integers(key, value):
    obj = json.loads(FIG1.to_json())
    obj[key] = value
    with pytest.raises(ValueError, match=f"{key}={value!r} is not an integer"):
        TradePair.from_json(json.dumps(obj))


def test_json_float_entry_rejected():
    obj = json.loads(FIG1.to_json())
    obj["entries"][4][3] = 6.0
    with pytest.raises(ValueError, match="not integers"):
        TradePair.from_json(json.dumps(obj))


@pytest.mark.parametrize("value", [False, True])
def test_json_boolean_among_integer_entries_rejected(value):
    # np.asarray read these as 0 and 1, so fig1 still validated
    obj = json.loads(FIG1.to_json())
    obj["entries"][0][0] = value
    literal = json.dumps(value)
    with pytest.raises(ValueError, match=rf"entry \[{literal}, 0, 0, 3\] holds a boolean"):
        TradePair.from_json(json.dumps(obj))


# The codec as json.dumps and json.loads give it: the references for
# to_json's row templates and from_json's compact-layout reader.


def _ref_to_json(t: TradePair, pretty: bool = False) -> str:
    obj = {"p": t.p, "ell": t.ell, "k": t.k, "entries": t.array.tolist()}
    if pretty:
        return json.dumps(obj, indent=2) + "\n"
    return json.dumps(obj)


def _ref_from_json(text: str) -> TradePair:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise TypeError("a trade document must be a JSON object")
    entries = obj["entries"]
    if "true" not in text and "false" not in text:
        entries = np.asarray(entries)
    return TradePair(obj["p"], obj["ell"], obj.get("k"), entries)


def _outcome(read, text: str):
    try:
        return read(text)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


@st.composite
def _trades(draw, max_size=12):
    # P_MAX has 10 digits and is odd, so it is a modulus
    p = draw(st.sampled_from([3, 5, 7, 9, 15, 1_000_003, P_MAX]))
    units = st.integers(1, p - 1).filter(lambda u: math.gcd(u, p) == 1)
    residue = st.integers(0, p - 1)
    entries = draw(st.lists(st.tuples(residue, residue, residue, residue),
                            max_size=max_size, unique_by=lambda e: e[:2]))
    return TradePair(p, draw(units), draw(st.none() | units), entries)


@settings(max_examples=200, deadline=None)
@given(_trades(), st.booleans())
def test_to_json_matches_json_dumps(t, pretty):
    assert t.to_json(pretty) == _ref_to_json(t, pretty)
    assert TradePair.from_json(t.to_json(pretty)) == t


def test_to_json_matches_json_dumps_on_a_large_trade():
    t = family16.construct(43).trade
    for pretty in (False, True):
        assert t.to_json(pretty) == _ref_to_json(t, pretty)


def _check_entries(t: TradePair) -> tuple:
    entries = t.entries
    assert type(entries) is tuple
    assert entries == tuple(zip(*t.array.T.tolist()))
    assert all(type(e) is tuple and len(e) == 4 and all(type(v) is int for v in e)
               for e in entries)
    return entries


@settings(max_examples=200, deadline=None)
@given(_trades())
def test_entries_match_the_array(t):
    # p from 3 to P_MAX puts trades on both sides of p <= 4*size
    _check_entries(t)


def test_entries_are_tuples_of_ints():
    for t in (FIG1, B13, TradePair(5, 1, 2, []), TradePair(P_MAX, 1, 2, [])):
        assert _check_entries(t) == tuple(map(tuple, t.array.tolist()))
    # 15,135 and 25,668 entries: each spans several gathers
    for t in (small_rowperm_pipeline(1009)[1], family16.construct(199).trade):
        assert t.p <= 4 * t.size
        entries = _check_entries(t)
        # one int object per residue
        assert len({id(v) for e in entries for v in e}) <= t.p


def _entries_peak_ratio(t: TradePair) -> float:
    # the traced peak of reading entries over what the result keeps: the
    # tuples, their items shared.  A full collection first empties the
    # free list of 4-tuples, whose reuse tracemalloc does not see
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        entries = t.entries
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / (sys.getsizeof(entries) + sum(map(sys.getsizeof, entries)))


def test_entries_peak_near_the_result():
    # p > 256, where CPython caches no int: an int object per value put
    # the peak at 2.6 times the result, shared ints at 1.05 times
    assert _entries_peak_ratio(small_rowperm_pipeline(1009)[1]) < 1.25


@pytest.mark.slow
def test_entries_peak_near_the_result_on_the_largest_trade():
    # the p = 907 family trade, 443,520 entries
    assert _entries_peak_ratio(family16.construct(907).trade) < 1.25


# replacements for one number of a document, and snippets put between
# two of its characters: each makes, as does deleting one character, a
# text that json.loads reads differently, refuses, or reads the same in
# another layout
_NUMBERS = ["0", "00", "01", "-0", "-1", "+1", "1.0", "1e2", "1E2", " 1", "1 ",
            "1 2", "", "999999999999999999", "1000000000000000000",
            "9999999999999999999", "12345678901234567890", "true", "false", "null",
            '"1"', "[1]", "٣", "1٣"]
_SNIPPETS = [" ", "\t", "\n", "\r", "\x0b", "﻿", "\xa0", "1", "0", ",", ", ",
             "[", "]", "{}", "x", "]]", ", [1, 2, 3, 4]", "[1, 2, 3, 4], ", ', "x": 1',
             ', "k": 2', ', "p": 7', ', "intercalate": {"cells": []}']


def _mutated(text: str) -> list[str]:
    """Every text one replacement, one snippet or one deletion away
    from ``text``."""
    out = [text[:i] + new + text[j:]
           for i, j in (m.span() for m in re.finditer("[0-9]+", text))
           for new in _NUMBERS]
    out += [text[:i] + text[i + 1:] for i in range(len(text))]
    return out + [text[:i] + new + text[i:]
                  for i in range(len(text) + 1) for new in _SNIPPETS]


def _rekeyed(t: TradePair, data) -> str:
    # the four keys reordered, one of them repeated or one dropped,
    # each value in json.dumps's compact form
    items = [("p", t.p), ("ell", t.ell), ("k", t.k), ("entries", t.array.tolist())]
    items = data.draw(st.permutations(items))
    how = data.draw(st.sampled_from(["reorder", "repeat", "drop"]))
    if how == "repeat":
        items.append(data.draw(st.sampled_from(items)))
    elif how == "drop":
        items.pop(data.draw(st.integers(0, 3)))
    return "{" + ", ".join(f"{json.dumps(key)}: {json.dumps(value)}"
                           for key, value in items) + "}"


@pytest.mark.parametrize("t", [
    TradePair(7, 2, 3, [(0, 0, 0, 3), (2, 5, 2, 6)]),
    TradePair(13, 1, None, [(0, 5, 5, 0)]),
    TradePair(5, 1, 2, []),
], ids=["k", "null k", "empty"])
def test_from_json_matches_json_loads_on_every_mutation(t):
    for text in _mutated(t.to_json()):
        assert _outcome(TradePair.from_json, text) == _outcome(_ref_from_json, text), text


@settings(max_examples=300, deadline=None)
@given(_trades(max_size=4), st.data())
def test_from_json_matches_json_loads_on_mutated_documents(t, data):
    text = data.draw(st.sampled_from([_rekeyed(t, data), t.to_json()]))
    if data.draw(st.booleans()):
        text = data.draw(st.sampled_from(_mutated(text)))
    assert _outcome(TradePair.from_json, text) == _outcome(_ref_from_json, text)


def test_from_json_reads_the_compact_layout_without_json_loads(monkeypatch):
    t = family16.construct(499).trade
    compact, pretty = t.to_json(), t.to_json(pretty=True)
    calls, loads = [], json.loads

    def spy(text, *args, **kwargs):
        calls.append(len(text))
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    assert TradePair.from_json(compact) == t
    assert calls == []
    # any other layout is json.loads's
    assert TradePair.from_json(pretty) == t
    assert calls == [len(pretty)]


# -- the validators against their references ---------------------------------
# The checks as they were before each fact relabelled its symbols: six
# sorts of line*p + symbol codes for the Latin facts, and the sorted
# (mate, aux) pairs against the (base, aux) pairs for orthogonality.


def _ref_latin_failures(t: TradePair) -> list[tuple[str, str]]:
    a = t.array
    failures: list[tuple[str, str]] = []
    if len(a) == 0:
        return failures
    r, c, base, mate = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    p = t.p

    wrong = np.nonzero(base != (t.ell * r + c) % p)[0]
    failures += [
        ("latin:base", f"cell ({a[i, 0]}, {a[i, 1]}): base {a[i, 2]} is not "
                       f"{t.ell}*{a[i, 0]}+{a[i, 1]} mod {p}")
        for i in wrong
    ]
    clash = np.nonzero(mate == base)[0]
    failures += [
        ("latin:disjoint", f"cell ({a[i, 0]}, {a[i, 1]}): mate equals base {a[i, 2]}")
        for i in clash
    ]
    for code, line in (("latin:row_balance", r), ("latin:col_balance", c)):
        b_sorted = np.sort(line * p + base)
        m_sorted = np.sort(line * p + mate)
        bad = b_sorted != m_sorted
        if bad.any():
            lines = sorted(set((b_sorted[bad] // p).tolist())
                           | set((m_sorted[bad] // p).tolist()))
            failures += [(code, f"line {ln}: mate symbols do not rearrange base "
                                f"symbols") for ln in lines]
    return failures


def _ref_orthogonality_failures(t: TradePair) -> list[tuple[str, str]]:
    a = t.array
    failures: list[tuple[str, str]] = []
    if len(a) == 0:
        return failures
    r, c, base, mate = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    p = t.p
    aux = (t.k * r + c) % p
    new_pairs = np.sort(mate * p + aux)
    old_pairs = np.sort(base * p + aux)
    if np.array_equal(new_pairs, old_pairs):
        return failures
    starts = np.flatnonzero(np.concatenate(([True], new_pairs[1:] != new_pairs[:-1])))
    uniq = new_pairs[starts]
    counts = np.diff(starts, append=len(new_pairs))
    for v, n in zip(uniq[counts > 1].tolist(), counts[counts > 1].tolist()):
        failures.append(("orth:pair_collision",
                         f"pair (mate {v // p}, aux {v % p}) occurs {n} times"))
    at = np.minimum(np.searchsorted(old_pairs, uniq), len(old_pairs) - 1)
    for v in uniq[old_pairs[at] != uniq].tolist():
        failures.append(("orth:pair_foreign",
                         f"pair (mate {v // p}, aux {v % p}) survives elsewhere "
                         f"in the superposition"))
    return failures


def _fields(report) -> tuple:
    return (report.is_latin_trade, report.is_orthogonal_trade,
            report.orthogonality_checked, report.size, report.failures)


def _has_orthogonal_index(t: TradePair) -> bool:
    # validate_orthogonal_trade raises on any other index
    return t.size == 0 or (t.k is not None and t.k != t.ell
                           and math.gcd(t.k - t.ell, t.p) == 1)


def _check_against_reference(t: TradePair) -> tuple[str, ...]:
    """Both reports of a fresh copy of t equal the references'; returns
    the failure codes seen."""
    t = TradePair(t.p, t.ell, t.k, t.array)
    latin = tuple(_ref_latin_failures(t))
    assert _fields(validate_latin_trade(t)) == (not latin, False, False, t.size, latin)
    if not _has_orthogonal_index(t):
        return tuple(code for code, _ in latin)
    failures = latin or tuple(_ref_orthogonality_failures(t))
    assert _fields(validate_orthogonal_trade(t)) == (not latin, not failures, True,
                                                     t.size, failures)
    return tuple(code for code, _ in failures)


def _with_ell(t: TradePair, ell: int) -> TradePair:
    # (r, c, base, mate) -> (r, ell*c, ell*base, ell*mate) takes a trade of
    # index (1, k) in B_p(1) to one of index (ell, ell*k) in B_p(ell)
    k = None if t.k is None else ell * t.k % t.p
    return TradePair(t.p, ell, k, t.array * (1, ell, ell, ell) % t.p)


def _swapped_mates(t: TradePair, line: int):
    """Copies of t with the mates of two cells of one row (line 0) or one
    column (line 1) swapped: that line stays balanced, the other two
    lines through the cells do not."""
    a = t.array
    order = np.lexsort((a[:, 1 - line], a[:, line]))
    same = np.flatnonzero((a[order[1:], line] == a[order[:-1], line])
                          & (a[order[1:], 3] != a[order[:-1], 3]))
    if len(same) == 0:
        return
    for s in sorted({same[0], same[-1]}):
        i, j = order[s], order[s + 1]
        b = a.copy()
        b[[i, j], 3] = b[[j, i], 3]
        yield TradePair(t.p, t.ell, t.k, b)


def _mutants(t: TradePair):
    """t and its one- and two-entry mutations: a changed base, a changed
    mate, a mate equal to its base, a dropped cell, two bases changed,
    two mates swapped within a row or a column, and another index."""
    p, a = t.p, t.array
    yield t
    if t.size == 0:
        return
    for i in sorted({0, t.size // 3, t.size // 2, t.size - 1}):
        base, mate = a[i, 2:].tolist()
        yield _changed(t, i, 2, (base + 1) % p)
        yield _changed(t, i, 3, (mate + 1) % p)
        yield _changed(t, i, 3, base)
        yield TradePair(p, t.ell, t.k, np.delete(a, i, axis=0))
    b = a.copy()
    b[[0, -1], 2] = (b[[0, -1], 2] + 2) % p
    yield TradePair(p, t.ell, t.k, b)
    for line in (0, 1):
        yield from _swapped_mates(t, line)
    if t.k is not None:
        others = [k for k in range(2, p)
                  if k != t.k and math.gcd(k, p) == math.gcd(k - t.ell, p) == 1]
        yield TradePair(p, t.ell, others[len(others) // 2], a)


def _seed_trades():
    from bptrades.search import spectrum_all

    yield from (FIG1, FIG2, B13)
    s11 = frozenset({0, 22, 33}) | frozenset(range(36, 122))
    for p, targets in ((5, None), (7, None), (9, None), (11, s11)):
        yield from spectrum_all(p, targets=targets).certificates.values()


def test_validators_match_reference_on_mutations(monkeypatch):
    # the relabelled codes decide each fact alone: a line diagnosis runs
    # once per failing Latin fact, a pair diagnosis once per failing
    # orthogonality check, and none for a fact that holds
    import bptrades.trades as trades

    diagnosed = []
    lines, pairs = trades._unbalanced_lines, trades._pair_failures
    monkeypatch.setattr(trades, "_unbalanced_lines",
                        lambda *args: diagnosed.append("lines") or lines(*args))
    monkeypatch.setattr(trades, "_pair_failures",
                        lambda *args: diagnosed.append("pairs") or pairs(*args))
    codes, seeds = Counter(), 0
    for seed in _seed_trades():
        seeds += 1
        for ell in (1, 2):
            for t in _mutants(_with_ell(seed, ell)):
                diagnosed.clear()
                seen = set(_check_against_reference(t))
                assert diagnosed == (
                    ["lines"] * len(seen & {"latin:row_balance", "latin:col_balance"})
                    + ["pairs"] * bool(seen & {"orth:pair_collision", "orth:pair_foreign"}))
                codes.update(seen)
    # FIG1, FIG2, B13 and the certificates of p = 5, 7, 9 and 11
    assert seeds == 3 + 5 + 30 + 70 + 89
    assert set(codes) == {"latin:base", "latin:disjoint", "latin:row_balance",
                          "latin:col_balance", "orth:pair_collision", "orth:pair_foreign"}


@settings(max_examples=300, deadline=None)
@given(_trades(max_size=30))
def test_validators_match_reference_on_random_trades(t):
    _check_against_reference(t)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([FIG1, FIG2, B13, TradePair(9, 1, 2, (  # a certificate of size 6
    (2, 3, 5, 8), (2, 6, 8, 5), (5, 0, 5, 8), (5, 3, 8, 5), (8, 0, 8, 5), (8, 6, 5, 8)))]),
       st.sampled_from([1, 2, 4]), st.data())
def test_validators_match_reference_near_valid_trades(seed, ell, data):
    # one or two entries of a valid trade changed anywhere, in any way
    t = _with_ell(seed, ell)
    a = t.array.copy()
    for _ in range(data.draw(st.integers(1, 2))):
        i = data.draw(st.integers(0, len(a) - 1))
        a[i, data.draw(st.sampled_from([2, 3]))] = data.draw(st.integers(0, t.p - 1))
    _check_against_reference(TradePair(t.p, t.ell, t.k, a))


def test_only_a_wrong_base_is_relabelled(monkeypatch):
    # a correct base codes its own cells, so only the mates are relabelled
    # and sorted; a wrong base is relabelled too, and the reports match
    import bptrades.trades as trades

    calls, line_codes = [], trades._line_codes

    def spy(t, s, shift):
        calls.append(s.tolist())
        return line_codes(t, s, shift)

    monkeypatch.setattr(trades, "_line_codes", spy)
    base, mate = FIG1.array[:, 2].tolist(), FIG1.array[:, 3].tolist()
    assert _check_against_reference(FIG1) == ()
    assert calls == [mate]
    calls.clear()
    wrong = _changed(FIG1, 5, 2, 0)
    assert "latin:base" in _check_against_reference(wrong)
    assert calls == [base[:5] + [0] + base[6:], mate]


def test_a_valid_trade_is_sorted_three_times(monkeypatch):
    # one (2, size) sort of the relabelled mates for the Latin facts, one
    # of the pair cells for orthogonality; on trades built row by row
    # (long runs) and transposed (short runs), below and above 1024 codes
    import bptrades.trades as trades

    shapes, sorted_ = [], trades._sorted
    monkeypatch.setattr(trades, "_sorted", lambda x: shapes.append(x.shape) or sorted_(x))
    for t in (FIG1, family16.construct(67).trade, small_rowperm_pipeline(101)[1]):
        for u in (t, TradePair(t.p, 1, pow(t.k, -1, t.p), t.array[:, [1, 0, 2, 3]])):
            shapes.clear()
            assert validate_orthogonal_trade(TradePair(u.p, u.ell, u.k, u.array))
            assert shapes == [(2, u.size), (u.size,)]


def test_column_failure_reports_columns():
    # the mates of (0, 0) and (0, 4) swapped: row 0 still rearranges its
    # symbols, columns 0 and 4 do not
    a = np.array(FIG1_ENTRIES)
    a[[0, 3], 3] = a[[3, 0], 3]
    report = validate_latin_trade(TradePair(7, 1, 3, a))
    assert report.failures == tuple(
        ("latin:col_balance", f"line {c}: mate symbols do not rearrange base symbols")
        for c in (0, 4))
    assert _check_against_reference(TradePair(7, 1, 3, a))


@pytest.mark.slow
def test_validators_match_reference_on_large_trades():
    # the p = 907 family trade (443,520 entries) and two pipeline trades,
    # each with a few one-entry mutations
    seeds = [family16.construct(907).trade]
    seeds += [small_rowperm_pipeline(p)[1] for p in (1009, 9973)]
    for t in seeds:
        assert _check_against_reference(t) == ()
        p, n = t.p, t.size
        for i in (0, n // 2, n - 1):
            base, mate = t.array[i, 2:].tolist()
            assert "latin:base" in _check_against_reference(_changed(t, i, 2, (base + 1) % p))
            assert _check_against_reference(_changed(t, i, 3, (mate + 1) % p))
        assert _check_against_reference(TradePair(p, 1, 3 if t.k == 2 else 2, t.array))
