import hashlib
import itertools
import json
import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bptrades.dissect as dissect
import bptrades.trades as trades
from bptrades.core import primes_up_to
from bptrades.dissect import (
    GoodnessReport,
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
from bptrades.rowperm import RowPermutation, rowperm_orthogonal, trade_from_rowperm
from bptrades.trades import validate_latin_trade, validate_orthogonal_trade

from test_trades import B13, B13_ENTRIES

B13_SQUARES = ((0, 0, 5), (5, 0, 3), (5, 3, 2), (7, 3, 1), (7, 4, 1))


def b13_dissection() -> SquareDissection:
    return SquareDissection(8, 5, B13_SQUARES)


# -- reference checks ---------------------------------------------------------------


def _ref_partition_error(w, h, squares):
    # the partition test before the corner rule: every pair of squares
    # in itertools.combinations order, overlap before area; the message
    # or None
    squares = tuple(sorted(tuple(sq) for sq in squares))
    area = 0
    for x, y, s in squares:
        if s < 1:
            return f"square {(x, y, s)} has nonpositive side"
        if x < 0 or y < 0 or x + s > w or y + s > h:
            return f"square {(x, y, s)} leaves the rectangle"
        area += s * s
    for a, b in itertools.combinations(squares, 2):
        (ax, ay, sa), (bx, by, sb) = a, b
        if ax < bx + sb and bx < ax + sa and ay < by + sb and by < ay + sa:
            return f"squares {a} and {b} overlap"
    if area != w * h:
        return f"square areas cover {area} of {w * h}"
    return None


def _partition_error(w, h, squares):
    try:
        SquareDissection(w, h, tuple(squares))
    except ValueError as exc:
        return str(exc)
    return None


def _ref_check_good(d):
    # check_good before the corner counter: g1 counts, for every corner,
    # the squares whose closed extent holds it
    failures = []
    modulus = d.w + d.h
    corners = set()
    for x, y, s in d.squares:
        corners.update(((x, y), (x + s, y), (x, y + s), (x + s, y + s)))
    g1 = True
    for px, py in sorted(corners):
        touching = sum(
            1 for x, y, s in d.squares if x <= px <= x + s and y <= py <= y + s
        )
        if touching >= 4:
            g1 = False
            failures.append(("g1", f"point ({px}, {py}) touches {touching} squares"))
    origin_sq = next(
        ((x, y, s) for x, y, s in d.squares if x == 0 and y + s == d.h), None
    )
    g2 = origin_sq is not None and origin_sq[2] >= 3
    if not g2:
        failures.append(("g2", f"corner (0, {d.h}) square {origin_sq}"))
    g4 = True
    for x, y, s in d.squares:
        for px, py in ((x, y), (x + s, y), (x, y + s), (x + s, y + s)):
            if px + py in (d.h + 1, d.h + 2):
                g4 = False
                failures.append(("g4", f"corner ({px}, {py}) on x+y={px + py}"))
    vertices = [pt for x, y, s in d.squares for pt in ((x, y), (x + s, y + s))]
    vertices += [(d.w, 0), (0, d.h)]
    residues = Counter((px + py) % modulus for px, py in vertices)
    pairing = all(cnt == 2 for cnt in residues.values())
    for res in sorted(r for r, cnt in residues.items() if cnt != 2):
        failures.append(("pairing", f"residue {res} hit {residues[res]} times"))
    dup = sorted(pt for pt, cnt in Counter(vertices).items() if cnt > 1)
    for pt in dup:
        failures.append(("vertex", f"vertex {pt} reused"))
    return GoodnessReport(g1, g2, g4, pairing, not dup, tuple(failures))


@st.composite
def split_tilings(draw):
    # a good dissection or a grid of equal squares, with squares of even
    # side quartered: each split puts four corners on the split point
    if draw(st.booleans()):
        d = good_dissection(draw(st.integers(3, 40)))
        w, h, squares = d.w, d.h, list(d.squares)
    else:
        side = draw(st.sampled_from([2, 4, 8]))
        cols, rows = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        w, h = cols * side, rows * side
        squares = [(x * side, y * side, side) for x in range(cols) for y in range(rows)]
    assume(any(s % 2 == 0 for _, _, s in squares))
    for _ in range(draw(st.integers(1, 4))):
        even = [sq for sq in squares if sq[2] % 2 == 0]
        if not even:
            break
        x, y, s = draw(st.sampled_from(even))
        squares.remove((x, y, s))
        t = s // 2
        squares += [(x, y, t), (x + t, y, t), (x, y + t, t), (x + t, y + t, t)]
    return w, h, squares


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


def test_rejects_non_integer_components():
    # int() used to turn 1.9 and True into 1 and build four unit squares
    with pytest.raises(ValueError, match="square component=1.9 is not an integer"):
        SquareDissection(2, 2, ((0, 0, 1.9), (1, 0, 1), (0, 1, 1), (1, 1, 1)))
    with pytest.raises(ValueError, match="square component=True is not an integer"):
        SquareDissection(2, 2, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, True)))
    with pytest.raises(ValueError, match="square component=1.0 is not an integer"):
        SquareDissection(2, 2, ((0, 0, 2.0 - 1.0), (1, 0, 1), (0, 1, 1), (1, 1, 1)))
    with pytest.raises(ValueError, match="square component=np.True_ is not"):
        SquareDissection(1, 1, ((0, 0, np.bool_(True)),))


@pytest.mark.parametrize("w, h, message", [
    (8.0, 5, "w=8.0 is not an integer"),
    (8, 5.5, "h=5.5 is not an integer"),
    (True, 5, "w=True is not an integer"),
    ("8", 5, "w='8' is not an integer"),
])
def test_rejects_non_integer_sides(w, h, message):
    with pytest.raises(ValueError, match=message):
        SquareDissection(w, h, B13_SQUARES)


def test_accepts_numpy_integers():
    squares = tuple(tuple(np.int64(v) for v in sq) for sq in B13_SQUARES)
    d = SquareDissection(np.int32(8), np.int64(5), squares)
    assert d == b13_dissection()
    assert all(type(v) is int for v in (d.w, d.h, *itertools.chain(*d.squares)))
    assert d.to_json() == b13_dissection().to_json()


def _kind(message):
    # which check refused: side, leaves, cover or overlap; None accepts
    if message is None:
        return None
    return next(k for k in ("side", "leaves", "cover", "overlap") if k in message)


def _least_corner_mismatch(w, h, squares):
    # the least point whose +1 and -1 corner counts differ, by Counter
    plus = Counter([(w, 0), (0, h)])
    minus = Counter([(0, 0), (w, h)])
    for x, y, s in squares:
        plus.update([(x, y), (x + s, y + s)])
        minus.update([(x + s, y), (x, y + s)])
    return min(pt for pt in plus | minus if plus[pt] != minus[pt])


def test_area_checked_before_overlap():
    # the pair scan named (0, 0, 2) and (1, 0, 1) here; the areas sum to
    # 11 of 9, and the area check now runs before the corner counts
    squares = ((0, 0, 2), (1, 1, 2), (0, 2, 1), (2, 0, 1), (1, 0, 1))
    assert _partition_error(3, 3, squares) == "square areas cover 11 of 9"
    assert _ref_partition_error(3, 3, squares) == "squares (0, 0, 2) and (1, 0, 1) overlap"
    # without the extra squares the areas match and the corners name (0, 2)
    squares = ((0, 0, 2), (1, 1, 2), (2, 0, 1))
    assert _partition_error(3, 3, squares) == (
        "squares overlap: corner counts at (0, 2) differ from a tiling")
    assert _kind(_ref_partition_error(3, 3, squares)) == "overlap"


def test_overlap_names_least_differing_corner():
    # a 6 x 6 unit grid with (1, 1) moved onto (4, 5) and (3, 2) onto
    # (3, 1): the hole at (1, 1) is the least point whose counts differ
    squares = [(x, y, 1) for x in range(6) for y in range(6)]
    squares[20] = (squares[20][0], squares[20][1] - 1, 1)
    squares[7] = (4, 5, 1)
    assert _kind(_ref_partition_error(6, 6, squares)) == "overlap"
    assert _least_corner_mismatch(6, 6, squares) == (1, 1)
    assert _partition_error(6, 6, squares) == (
        "squares overlap: corner counts at (1, 1) differ from a tiling")


def test_overlap_beyond_int64():
    big = 2**70
    assert SquareDissection(big, big, ((0, 0, big),)).squares == ((0, 0, big),)
    assert SquareDissection(2 * big, big, ((0, 0, big), (big, 0, big))).order == 2
    squares = ((0, 0, big), (big - 1, big - 1, 1))
    assert _partition_error(big, big, squares) == (
        f"square areas cover {big * big + 1} of {big * big}")
    squares = ((0, 0, big), (big - 1, 0, big))
    assert _kind(_ref_partition_error(2 * big, big, squares)) == "overlap"
    assert _partition_error(2 * big, big, squares) == (
        f"squares overlap: corner counts at ({big - 1}, 0) differ from a tiling")


def _assert_matches_reference(w, h, squares):
    # the corner rule accepts or refuses as the pair scan does, and with
    # the full area both name the same kind of fault
    got, expected = _partition_error(w, h, squares), _ref_partition_error(w, h, squares)
    assert (got is None) == (expected is None)
    if _kind(expected) in ("side", "leaves"):
        assert got == expected
    if sum(sq[2] ** 2 for sq in squares) == w * h:
        assert _kind(got) == _kind(expected)
    if _kind(got) == "overlap":
        px, py = _least_corner_mismatch(w, h, squares)
        assert got == f"squares overlap: corner counts at ({px}, {py}) differ from a tiling"


@settings(max_examples=150, deadline=None)
@given(split_tilings(), st.data())
def test_shifted_square_overlap_matches_reference(tiling, data):
    # one square moved inside the rectangle keeps the area, so both
    # rules refuse it as an overlap
    w, h, squares = tiling
    i = data.draw(st.integers(0, len(squares) - 1))
    x, y, s = squares[i]
    moved = (data.draw(st.integers(0, w - s)), data.draw(st.integers(0, h - s)), s)
    assume(moved != squares[i])
    squares[i] = moved
    assert _kind(_ref_partition_error(w, h, squares)) == "overlap"
    _assert_matches_reference(w, h, squares)


@settings(max_examples=300, deadline=None)
@given(split_tilings(), st.data())
def test_perturbed_tiling_matches_reference(tiling, data):
    # one square grown or shrunk by 1, dropped or duplicated
    w, h, squares = tiling
    i = data.draw(st.integers(0, len(squares) - 1))
    x, y, s = squares[i]
    how = data.draw(st.sampled_from(["grow", "shrink", "drop", "duplicate"]))
    if how in ("grow", "shrink"):
        squares[i] = (x, y, s + 1 if how == "grow" else s - 1)
    elif how == "drop":
        del squares[i]
    else:
        squares.append(squares[i])
    _assert_matches_reference(w, h, squares)


def test_unit_grid_document_loads_fast():
    # the pair scan took about 10 s on these 40,000 squares
    text = json.dumps({"w": 200, "h": 200,
                       "squares": [[x, y, 1] for x in range(200) for y in range(200)]})
    start = time.perf_counter()
    d = SquareDissection.from_json(text)
    elapsed = time.perf_counter() - start
    assert d.order == 40_000
    assert elapsed < 2.0, f"loading took {elapsed:.2f} s"


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


BAD_TILINGS = [
    (2, 2, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))),
    (5, 2, ((0, 0, 2), (2, 0, 2), (4, 0, 1), (4, 1, 1))),
    (1, 1, ((0, 0, 1),)),
    (4, 4, tuple((x, y, 1) for x in range(4) for y in range(4))),
    (6, 4, ((0, 0, 2), (0, 2, 2), (2, 0, 2), (2, 2, 2), (4, 0, 2), (4, 2, 2))),
]


@pytest.mark.parametrize("w, h, squares", [(8, 5, B13_SQUARES)] + BAD_TILINGS)
def test_check_good_matches_reference_on_fixtures(w, h, squares):
    d = SquareDissection(w, h, squares)
    assert check_good(d) == _ref_check_good(d)


def test_check_good_matches_reference_on_good_dissections():
    for n in range(3, 501):
        d = good_dissection(n)
        assert _ref_partition_error(d.w, d.h, d.squares) is None
        assert check_good(d) == _ref_check_good(d)


@settings(max_examples=150, deadline=None)
@given(split_tilings())
def test_check_good_matches_reference_on_split_tilings(tiling):
    w, h, squares = tiling
    assert _ref_partition_error(w, h, squares) is None
    d = SquareDissection(w, h, tuple(squares))
    rep = check_good(d)
    assert rep == _ref_check_good(d)
    assert not rep.g1_oplus_free


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


def test_good_squares_walk_a_thousand_levels():
    # about a thousand levels, past the interpreter's recursion limit;
    # the outermost, n = 4k + 4 with a = 2k, comes last
    n = 4**1000
    squares = dissect._good_squares(n)
    a = n // 2 - 2
    assert isinstance(squares, list)
    assert squares[-5:] == [(0, 0, a + 4), (a + 4, 0, a + 3), (a + 6, a + 3, a + 1),
                            (a + 4, a + 3, 1), (a + 5, a + 3, 1)]


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


@pytest.mark.parametrize("n", [3, 20, 50_000])
def test_good_dissection_builds_and_checks_once(monkeypatch, n):
    # the recursion runs on square lists; only the result is built and checked
    calls = Counter()
    post_init, real_check = SquareDissection.__post_init__, check_good

    def counting_post_init(self):
        calls["built"] += 1
        post_init(self)

    def counting_check(d):
        calls["checked"] += 1
        return real_check(d)

    monkeypatch.setattr(SquareDissection, "__post_init__", counting_post_init)
    monkeypatch.setattr("bptrades.dissect.check_good", counting_check)
    d = good_dissection(n)
    assert d.h == n and calls == {"built": 1, "checked": 1}


@pytest.mark.parametrize("p", [11, 101, 10007])
def test_log_trade_checks_once(monkeypatch, p):
    # good_dissection checks the dissection; the trade is read off it unchecked
    calls = Counter()
    real_check = check_good

    def counting_check(d):
        calls["checked"] += 1
        return real_check(d)

    monkeypatch.setattr("bptrades.dissect.check_good", counting_check)
    t = log_trade(p)
    assert calls == {"checked": 1}
    assert t == dissection_to_trade(good_dissection((p - 3) // 2))


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


@pytest.mark.parametrize("p", [5, 7, 11, 101])
def test_pipeline_validates_small_trade_once(monkeypatch, p):
    # _trade_of_good and balance_matrix share the small trade's report
    small, checked = [], []
    real_log_trade, real_latin = log_trade, trades._latin_failures

    def recording_log_trade(q):
        small.append(real_log_trade(q))
        return small[-1]

    def counting_latin(t):
        checked.append(t)
        return real_latin(t)

    monkeypatch.setattr("bptrades.dissect.log_trade", recording_log_trade)
    monkeypatch.setattr(trades, "_latin_failures", counting_latin)
    small_rowperm_pipeline(p)
    assert len(small) == 1
    assert sum(t is small[0] for t in checked) == 1


def test_pipeline_builds_its_row_permutation_once(monkeypatch):
    # sigma comes straight from the balance matrix; the trade is built
    # from it, and sigma is not read back out of the trade
    calls = []
    from_map = RowPermutation.from_map.__func__

    def counting_from_map(cls, p, mapping):
        calls.append(p)
        return from_map(cls, p, mapping)

    monkeypatch.setattr(RowPermutation, "from_map", classmethod(counting_from_map))
    sigma, trade = small_rowperm_pipeline(13)
    assert calls == [13]
    assert trade == trade_from_rowperm(sigma, 2)


def test_pipeline_101_row_bound():
    sigma, _ = small_rowperm_pipeline(101)
    assert len(sigma.support) <= 19


# -- exhaustive small search ---------------------------------------------------------


def _ref_matrix_feasible(p, u):
    # necessary condition: every symbol must be the average of two others
    for i, ui in enumerate(u):
        target = 2 * ui % p
        others = [v for j, v in enumerate(u) if j != i]
        if not any(
            (a + b) % p == target for a, b in itertools.combinations(others, 2)
        ):
            return False
    return True


def _ref_mate_completions(p, cellmap):
    # assign mates row by row (a derangement of the row's bases), pruning
    # against the per-column base multisets
    rows, col_base = {}, {}
    for (r, c), s in cellmap.items():
        rows.setdefault(r, []).append((c, s))
        col_base.setdefault(c, Counter())[s] += 1
    if any(len(group) < 2 for group in rows.values()):
        return
    if any(sum(cnt.values()) < 2 for cnt in col_base.values()):
        return
    row_items = sorted((r, sorted(group)) for r, group in rows.items())
    col_mate = {c: Counter() for c in col_base}
    assignment = {}

    def rec(i):
        if i == len(row_items):
            if all(col_mate[c] == col_base[c] for c in col_base):
                yield trades.TradePair(p, 1, None, np.array([
                    (r, c, s, assignment[(r, c)]) for (r, c), s in cellmap.items()
                ]))
            return
        r, group = row_items[i]
        for perm in itertools.permutations([s for _, s in group]):
            if any(m == s for m, (_, s) in zip(perm, group)):
                continue
            ok, taken = True, []
            for m, (c, _) in zip(perm, group):
                col_mate[c][m] += 1
                taken.append((c, m))
                if col_mate[c][m] > col_base[c][m]:
                    ok = False
                    break
            if ok:
                for m, (c, _) in zip(perm, group):
                    assignment[(r, c)] = m
                yield from rec(i + 1)
            for c, m in taken:
                col_mate[c][m] -= 1

    yield from rec(0)


def _ref_cell_maps(p, extra):
    # every cell map of itertools.product order, filtered by brute force:
    # no repeated cell, no row or column holding a single cell
    diag = {s: [(r, (s - r) % p) for r in range(p)] for s in extra}
    bases = [0, 0] + [s for s in extra for _ in range(2)]
    for choice in itertools.product(
            *(itertools.combinations(diag[s], 2) for s in extra)):
        cells = [(0, 0), (1, p - 1)] + [cell for pair in choice for cell in pair]
        if len(set(cells)) < len(cells):
            continue
        rows, cols = Counter(r for r, _ in cells), Counter(c for _, c in cells)
        if min(rows.values()) >= 2 and min(cols.values()) >= 2:
            yield dict(zip(cells, bases))


def _ref_symbol_twice_search(p, symbols):
    # the search before the cell and mate walks
    if symbols < 3 or symbols > p:
        return None
    diag = {s: tuple((r, (s - r) % p) for r in range(p)) for s in range(p)}
    zero_cells = ((0, 0), (1, p - 1))
    for extra in itertools.combinations(range(1, p), symbols - 1):
        if not _ref_matrix_feasible(p, (0,) + extra):
            continue
        pools = [list(itertools.combinations(diag[s], 2)) for s in extra]
        for choice in itertools.product(*pools):
            cellmap = {cell: 0 for cell in zero_cells}
            clash = False
            for s, pair in zip(extra, choice):
                for cell in pair:
                    if cell in cellmap:
                        clash = True
                        break
                    cellmap[cell] = s
                if clash:
                    break
            if clash:
                continue
            for t in _ref_mate_completions(p, cellmap):
                if not validate_latin_trade(t).is_latin_trade:
                    continue
                try:
                    D, u = dissect.balance_matrix(t)
                    dissect.trade_from_matrix(D, u, 2, p)
                except ValueError:
                    continue
                return t
    return None


WALK_EXTRAS = [
    (p, extra)
    for p, most in ((5, 4), (7, 3))
    for n in range(1, most + 1)
    for extra in itertools.combinations(range(1, p), n)
]


@pytest.mark.parametrize("p, extra", WALK_EXTRAS, ids=str)
def test_cell_walk_matches_brute_force(p, extra):
    # the bound prunes only cell maps that leave a row or column of one cell
    walked = [[((r, c), s) for r, c, s in cells] for cells in dissect._cell_sets(p, extra)]
    assert walked == [list(m.items()) for m in _ref_cell_maps(p, extra)]


def _assert_mate_walk_matches_reference(p, cell_sets):
    for cells in cell_sets:
        cellmap = {(r, c): s for r, c, s in cells}
        assert (list(dissect._mate_completions(p, cells))
                == list(_ref_mate_completions(p, cellmap)))


@pytest.mark.parametrize("p, extra", WALK_EXTRAS, ids=str)
def test_mate_walk_matches_reference(p, extra):
    _assert_mate_walk_matches_reference(p, dissect._cell_sets(p, extra))


@pytest.mark.parametrize("p, size", [(5, 2), (5, 3), (5, 4), (7, 2), (7, 3)])
def test_mate_walk_matches_reference_on_anti_diagonal_unions(p, size):
    # every row and column holds the same bases, so completions abound:
    # 120 for p = 5, size = 4
    _assert_mate_walk_matches_reference(p, (
        [(r, c, (r + c) % p) for r in range(p) for c in range(p) if (r + c) % p in bases]
        for bases in itertools.combinations(range(p), size)))


@pytest.mark.parametrize("p, symbols", [(5, 2), (5, 3), (5, 4), (5, 5), (7, 3), (7, 4)])
def test_search_matches_reference(p, symbols):
    assert symbol_twice_search(p, symbols) == _ref_symbol_twice_search(p, symbols)


@pytest.mark.slow
def test_search_matches_reference_p7():
    # the reference takes seconds here, the walks a fraction of one
    t = symbol_twice_search(7, 5)
    assert t is not None and t == _ref_symbol_twice_search(7, 5)


@pytest.mark.parametrize("symbols", [5.0, True, "5"])
def test_search_symbols_must_be_integers(symbols):
    with pytest.raises(ValueError, match=f"symbols={symbols!r} is not an integer"):
        symbol_twice_search(7, symbols)


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
