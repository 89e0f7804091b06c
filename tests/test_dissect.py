import hashlib
import json
import math

import pytest

from bptrades.core import primes_up_to
from bptrades.dissect import (
    SquareDissection,
    base_dissection,
    check_good,
    dissection_svg,
    dissection_to_trade,
    good_dissection,
    log_trade,
    small_rowperm_pipeline,
    symbol_twice_search,
)
from bptrades.rowperm import rowperm_orthogonal
from bptrades.trades import validate_latin_trade, validate_orthogonal_trade

from test_trades import B13, B13_ENTRIES, FIG1

B13_SQUARES = ((0, 0, 5), (5, 0, 3), (5, 3, 2), (7, 3, 1), (7, 4, 1))


def b13_dissection() -> SquareDissection:
    return SquareDissection(8, 5, B13_SQUARES)


# -- SquareDissection --------------------------------------------------------------


def test_construction_validates_partition():
    d = b13_dissection()
    assert d.order == 5
    assert d.squares == B13_SQUARES


def test_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        SquareDissection(8, 5, ((0, 0, 5), (4, 0, 3), (5, 3, 2), (7, 3, 1), (7, 4, 1)))


def test_rejects_area_gap():
    with pytest.raises(ValueError, match="cover"):
        SquareDissection(8, 5, ((0, 0, 5), (5, 0, 3)))


def test_rejects_out_of_bounds():
    with pytest.raises(ValueError, match="leaves"):
        SquareDissection(4, 4, ((0, 0, 5),))


def test_rejects_nonpositive_side():
    with pytest.raises(ValueError, match="side"):
        SquareDissection(4, 4, ((0, 0, 4), (2, 2, 0)))


def test_json_round_trip():
    d = b13_dissection()
    text = d.to_json()
    assert text.startswith('{"n": 5, "w": 8, "h": 5, "squares":')
    assert SquareDissection.from_json(text) == d


@pytest.mark.parametrize("key, value", [("w", 8.0), ("h", 5.5), ("h", True)])
def test_json_sides_must_be_integers(key, value):
    obj = json.loads(b13_dissection().to_json())
    obj[key] = value
    with pytest.raises(ValueError, match=f"{key}={value!r} is not an integer"):
        SquareDissection.from_json(json.dumps(obj))


def test_json_square_components_must_be_integers():
    obj = json.loads(b13_dissection().to_json())
    obj["squares"][3][2] = 1.0
    with pytest.raises(ValueError, match="square component=1.0 is not an integer"):
        SquareDissection.from_json(json.dumps(obj))


# -- goodness ----------------------------------------------------------------------


def test_b13_dissection_is_good():
    rep = check_good(b13_dissection())
    assert bool(rep)
    assert rep.failures == ()


def test_b13_pairing_residues():
    from collections import Counter

    pts = [(x, y) for x, y, s in B13_SQUARES]
    pts += [(x + s, y + s) for x, y, s in B13_SQUARES]
    pts += [(8, 0), (0, 5)]
    residues = Counter((x + y) % 13 for x, y in pts)
    assert residues == {0: 2, 5: 2, 8: 2, 10: 2, 11: 2, 12: 2}


def test_four_unit_squares_fail_g1():
    d = SquareDissection(2, 2, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)))
    rep = check_good(d)
    assert not rep.g1_oplus_free
    assert ("g1", "point (1, 1) touches 4 squares") in rep.failures


def test_small_origin_square_fails_g2():
    d = SquareDissection(5, 2, ((0, 0, 2), (2, 0, 2), (4, 0, 1), (4, 1, 1)))
    rep = check_good(d)
    assert not rep.g2_origin_side_ge_3
    assert rep.g1_oplus_free


def test_corner_on_forbidden_line_fails_g4():
    d = SquareDissection(1, 1, ((0, 0, 1),))
    rep = check_good(d)
    assert not rep.g4_avoids_lines
    assert not rep.g2_origin_side_ge_3
    assert rep.pairing_ok and rep.vertex_collision_free


# -- base and recursive dissections -----------------------------------------------


def test_base_5_matches_reference():
    assert base_dissection(5).squares == B13_SQUARES


def test_base_3_is_two_squares():
    assert base_dissection(3).squares == ((0, 0, 3), (3, 0, 3))


def test_base_4():
    assert base_dissection(4).squares == (
        (0, 0, 4), (4, 0, 3), (4, 3, 1), (5, 3, 1), (6, 3, 1))


@pytest.mark.parametrize("n", range(3, 15))
def test_base_range(n):
    d = base_dissection(n)
    assert d.w == n + 3 and d.h == n
    assert d.order <= 8
    assert (0, 0, n) in d.squares
    assert (n, 0, 3) in d.squares
    assert check_good(d)


def test_base_out_of_range():
    for n in (2, 15):
        with pytest.raises(ValueError):
            base_dissection(n)


def test_good_dissection_delegates_below_15():
    for n in (3, 5, 14):
        assert good_dissection(n) == base_dissection(n)


def test_good_dissection_15_doubles_base_3():
    d = good_dissection(15)
    # doubled 3x6 dissection sits at the top-left corner
    assert {(0, 9, 6), (6, 9, 6)} <= set(d.squares)
    assert d.order <= 3 + 5 * math.log(16, 4)
    assert check_good(d)


@pytest.mark.parametrize("n", list(range(3, 121)) + [311, 1000, 49994])
def test_good_dissection_invariants(n):
    d = good_dissection(n)
    assert check_good(d)
    assert d.order <= 3 + 5 * math.log(n + 1, 4)
    if n >= 15:
        # the doubled inner dissection is placed unreflected at (0, h-2k)
        z = 3 + (n - 3) % 4
        k = (n - z) // 4
        inner = good_dissection(k)
        placed = {(2 * x, 2 * y + n - 2 * inner.h, 2 * s)
                  for x, y, s in inner.squares}
        assert placed <= set(d.squares)
        assert all(s % 2 == 0 for _, _, s in placed)


def test_good_dissection_rejects_small_n():
    with pytest.raises(ValueError):
        good_dissection(2)


def test_good_dissections_pinned():
    # SHA-256 of the JSON of every good_dissection(n), 3 <= n <= 2000
    text = "\n".join(good_dissection(n).to_json() for n in range(3, 2001))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ca451f17d47ac2dba6c33671af1d487addf3ea21675c69a46a85e71d8140f489")


@pytest.mark.parametrize("build, n", [(base_dissection, 5), (good_dissection, 20)])
def test_built_dissection_that_is_not_good_raises(monkeypatch, build, n):
    # every built dissection goes through check_good, under -O as well
    failing = check_good(SquareDissection(2, 2, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))))
    monkeypatch.setattr("bptrades.dissect.check_good", lambda d: failing)
    with pytest.raises(RuntimeError, match="is not good"):
        build(n)


# -- trades from dissections --------------------------------------------------------


def test_b13_trade_reproduced_exactly():
    t = dissection_to_trade(b13_dissection())
    assert t.entries == B13_ENTRIES
    assert t == B13
    assert t.size == 2 * 5 + 2


def test_trade_on_composite_modulus():
    t = dissection_to_trade(base_dissection(3))
    assert t.p == 9 and t.size == 6
    rep = validate_latin_trade(t)
    assert rep.is_latin_trade
    assert set(rep.symbol_histogram.values()) == {2}


def test_not_good_raises():
    d = SquareDissection(2, 2, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)))
    with pytest.raises(ValueError, match="not good"):
        dissection_to_trade(d)


@pytest.mark.parametrize("n", range(3, 61))
def test_trade_grid_symbol_twice(n):
    d = good_dissection(n)
    t = dissection_to_trade(d)
    assert t.size == 2 * d.order + 2
    rep = validate_latin_trade(t)
    assert rep.is_latin_trade
    assert set(rep.symbol_histogram.values()) == {2}


# -- log_trade and the pipeline -----------------------------------------------------


def test_log_trade_13_is_reference():
    assert log_trade(13) == B13


def test_log_trade_stored_small_primes():
    t5 = log_trade(5)
    assert t5.size == 8
    assert validate_latin_trade(t5).is_latin_trade
    t7 = log_trade(7)
    assert t7.size == 10
    rep = validate_latin_trade(t7)
    assert rep.is_latin_trade
    assert set(rep.symbol_histogram.values()) == {2}


def test_log_trade_size_bound_101():
    t = log_trade(101)
    assert validate_latin_trade(t).is_latin_trade
    assert t.size <= 2 * (3 + 5 * math.log(50, 4)) + 2


def test_log_trade_rejects_bad_moduli():
    for p in (3, 9, 15, 25):
        with pytest.raises(ValueError):
            log_trade(p)
    with pytest.raises(ValueError):
        log_trade(4)


def test_pipeline_13_frozen():
    sigma, trade = small_rowperm_pipeline(13)
    assert sigma.support == (0, 5, 8, 10, 11, 12)
    assert trade.ell == 1 and trade.k == 2
    assert trade.size == 13 * 6
    assert validate_orthogonal_trade(trade).is_orthogonal_trade


def test_pipeline_5_frozen():
    sigma, trade = small_rowperm_pipeline(5)
    assert sigma.images == (1, 0, 4, 3, 2)
    assert trade.size == 20


def test_pipeline_7_frozen():
    sigma, trade = small_rowperm_pipeline(7)
    assert sigma.images == (1, 0, 3, 6, 4, 5, 2)
    assert rowperm_orthogonal(sigma, {2})


@pytest.mark.parametrize("p", [p for p in primes_up_to(200) if p >= 11])
def test_pipeline_sweep(p):
    sigma, trade = small_rowperm_pipeline(p)
    m = len(sigma.support)
    assert m > math.log2(p)
    assert trade.size == p * m
    assert rowperm_orthogonal(sigma, {2})
    assert validate_orthogonal_trade(trade).is_orthogonal_trade


def test_pipeline_rejects_trade_of_partial_rows(monkeypatch):
    # the moved rows are read off column 0 of every p-th entry; a trade
    # that is not made of whole rows is an error, under -O as well
    monkeypatch.setattr("bptrades.dissect.trade_from_matrix",
                        lambda D, u, k, p: FIG1)
    with pytest.raises(ValueError, match="whole rows"):
        small_rowperm_pipeline(7)


def test_pipeline_101_row_bound():
    sigma, _ = small_rowperm_pipeline(101)
    assert len(sigma.support) <= 19


# -- exhaustive small search ---------------------------------------------------------


def test_search_minimality_p5():
    assert symbol_twice_search(5, 3) is None
    t = symbol_twice_search(5, 4)
    assert t is not None and t.size == 8
    assert t == log_trade(5)


def test_search_minimality_p7():
    assert symbol_twice_search(7, 3) is None
    assert symbol_twice_search(7, 4) is None
    t = symbol_twice_search(7, 5)
    assert t is not None and t.size == 10
    assert t == log_trade(7)


def test_search_rejects_tiny_symbol_counts():
    assert symbol_twice_search(5, 2) is None


# -- rendering -------------------------------------------------------------------


def test_svg_deterministic():
    d = b13_dissection()
    svg = dissection_svg(d)
    assert svg == dissection_svg(d)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="208"')
    assert svg.count("<rect") == 5
    assert svg.count("<polygon") == 3
    assert svg.count("stroke-dasharray") == 5
    assert svg.endswith("</svg>\n")
