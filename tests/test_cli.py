import builtins
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bptrades.cli import _build_parser, run
from bptrades.core import gen_bp
from bptrades.dissect import (
    base_dissection,
    check_good,
    dissection_to_trade,
    good_dissection,
    log_trade,
)
from bptrades.family16 import construct as family_construct
from bptrades.matrices import size_bounds
from bptrades.rowperm import three_row_trade, trade_from_rowperm
from bptrades.trades import TradePair, validate_latin_trade, validate_orthogonal_trade

from test_trades import FIG1_ENTRIES

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
DATA = ROOT / "src" / "bptrades" / "data"


def _invoke(capsys, *argv):
    code = run([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def _main(*argv):
    """``bptrades.cli.main`` in a subprocess, from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", "from bptrades.cli import main; main()", *map(str, argv)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )


# index (ell, k) pairs that validate_orthogonal_trade refuses
K_EQUALS_ELL = {"p": 7, "ell": 1, "k": 1, "entries": [[0, 0, 0, 1]]}
NONUNIT_DIFFERENCE = {"p": 9, "ell": 1, "k": 4, "entries": [[0, 0, 0, 1]]}


# -- gen ---------------------------------------------------------------------------


def test_gen_json(capsys):
    code, out, _ = _invoke(capsys, "gen", "--p", 5, "--k", 2)
    assert code == 0
    payload = json.loads(out)
    square = gen_bp(5, 2)
    assert payload == {
        "p": 5,
        "k": 2,
        "rows": [list(square.row(r)) for r in range(5)],
    }


def test_gen_pretty(capsys):
    code, out, _ = _invoke(capsys, "gen", "--p", 5, "--pretty")
    assert code == 0
    assert out == gen_bp(5, 1).to_text()


def test_gen_rejects_even_order(capsys):
    code, _, err = _invoke(capsys, "gen", "--p", 14)
    assert code == 2
    assert "odd" in err


def test_gen_rejects_nonunit_index(capsys):
    code, _, err = _invoke(capsys, "gen", "--p", 9, "--k", 3)
    assert code == 2
    assert "unit" in err


def test_gen_refuses_large_order_before_allocating(capsys, monkeypatch):
    # B_100001 would be a p^2 int64 array of 80 GB
    monkeypatch.setattr("bptrades.cli.gen_bp", _never_called)
    code, out, err = _invoke(capsys, "gen", "--p", 100001)
    assert (code, out) == (2, "")
    assert "above 2000" in err


def _never_called(*args):
    raise AssertionError("called past the cap")


def test_parser_built_once_and_calls_keep_their_own_defaults(capsys):
    # one parser serves every run; no option or exit code leaks between calls
    fig1 = FIXTURES / "fig1.json"
    assert _build_parser() is _build_parser()
    code, out, _ = _invoke(capsys, "verify", "trade", "--file", fig1, "--pretty")
    assert (code, out) == (0, "trade of size 18: valid\n")
    code, out, _ = _invoke(capsys, "verify", "trade", "--file", fig1)
    assert code == 0 and json.loads(out)["valid"] is True
    code, _, err = _invoke(capsys, "construct", "family", "--p", 11)
    assert code == 1 and err
    code, _, err = _invoke(capsys, "gen", "--p", 14)
    assert code == 2 and "odd" in err


# -- verify ------------------------------------------------------------------------


def test_verify_fixture_trade(capsys):
    code, out, _ = _invoke(capsys, "verify", "trade", "--file", FIXTURES / "fig1.json")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["is_orthogonal_trade"] is True
    assert payload["orthogonality_checked"] is True
    assert payload["size"] == 18
    assert payload["failures"] == []


def test_verify_pretty(capsys):
    code, out, _ = _invoke(
        capsys, "verify", "trade", "--file", FIXTURES / "fig1.json", "--pretty"
    )
    assert code == 0
    assert out == "trade of size 18: valid\n"


def test_verify_without_mate_index_checks_latin_only(capsys, tmp_path):
    path = tmp_path / "latin.json"
    path.write_text(TradePair(7, 1, None, FIG1_ENTRIES).to_json())
    code, out, _ = _invoke(capsys, "verify", "trade", "--file", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["orthogonality_checked"] is False


def test_verify_broken_trade_exits_one(capsys, tmp_path):
    entries = ((0, 0, 1, 3),) + FIG1_ENTRIES[1:]
    path = tmp_path / "broken.json"
    path.write_text(TradePair(7, 1, 3, entries).to_json())
    code, out, _ = _invoke(capsys, "verify", "trade", "--file", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["failures"]


def test_verify_rejects_modulus_above_cap(capsys, tmp_path):
    p = 2**33 + 1
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"p": p, "ell": 1, "k": 2,
                                "entries": [[p - 2, 1, p - 1, 0]]}))
    code, out, err = _invoke(capsys, "verify", "trade", "--file", path)
    assert code == 1
    assert out == ""
    assert "largest supported modulus" in err


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = _invoke(capsys, "verify", "trade", "--file", tmp_path / "no.json")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("text", ["not json at all", '{"p": 7}'])
def test_verify_malformed_document(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = _invoke(capsys, "verify", "trade", "--file", path)
    assert code == 2
    assert "malformed" in err


@pytest.mark.parametrize("verb", [("verify", "trade"), ("verify", "dissection"), ("canon",)])
@pytest.mark.parametrize(
    "text, code",
    [
        ("[1, 2]", 2),
        ('"abc"', 2),
        ('{"p": 1e400, "ell": 1, "k": 2, "entries": [], "w": 1e400, "h": 3, "squares": []}', 1),
    ],
)
def test_bad_documents_exit_cleanly(capsys, tmp_path, verb, text, code):
    # not an object is malformed (2); a number too large for an int is an
    # invalid value (1), as NaN is
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert _invoke(capsys, *verb, "--file", path)[:2] == (code, "")


@pytest.mark.parametrize("verb", [("verify", "trade"), ("canon",)])
def test_non_integral_trade_header_exits_one(capsys, tmp_path, verb):
    # int() truncated these to p = 7, k = 3, a valid trade
    doc = json.loads((FIXTURES / "fig1.json").read_text())
    doc.update(p=7.9, k=3.2)
    path = tmp_path / "fig1_float.json"
    path.write_text(json.dumps(doc))
    code, out, err = _invoke(capsys, *verb, "--file", path)
    assert (code, out) == (1, "")
    assert "p=7.9 is not an integer" in err


@pytest.mark.parametrize("verb", [("verify", "trade"), ("canon",)])
def test_boolean_entry_exits_one(capsys, tmp_path, verb):
    # a false among the integers read as 0, so this verified with exit 0
    doc = json.loads((FIXTURES / "fig1.json").read_text())
    doc["entries"][0][0] = False
    path = tmp_path / "fig1_false.json"
    path.write_text(json.dumps(doc))
    code, out, err = _invoke(capsys, *verb, "--file", path)
    assert (code, out) == (1, "")
    assert "entry [false, 0, 0, 3] holds a boolean" in err


def test_non_integral_dissection_exits_one(capsys, tmp_path):
    doc = json.loads((FIXTURES / "b13_dissect.json").read_text())
    doc["w"] = 8.0
    path = tmp_path / "b13_float.json"
    path.write_text(json.dumps(doc))
    code, out, err = _invoke(capsys, "verify", "dissection", "--file", path)
    assert (code, out) == (1, "")
    assert "w=8.0 is not an integer" in err


@pytest.mark.parametrize("verb", [("verify", "trade"), ("canon",)])
@pytest.mark.parametrize(
    "doc, message",
    [(K_EQUALS_ELL, "index k=1 equals ell"), (NONUNIT_DIFFERENCE, "k-ell=3 is not a unit mod 9")],
)
def test_unorthogonal_index_exits_one(capsys, tmp_path, verb, doc, message):
    # the validator's refusal escaped `verify trade` as a traceback
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = _invoke(capsys, *verb, "--file", path)
    assert (code, out) == (1, "")
    assert message in err


_KEYS = st.sampled_from(["p", "ell", "k", "entries", "w", "h", "squares"]) | st.text(max_size=2)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=16,
)
# well-formed trade documents with free indices, so the validators run
_SMALL = st.integers(0, 9)
_TRADES = st.fixed_dictionaries({
    "p": st.sampled_from([5, 7, 9]),
    "ell": _SMALL,
    "k": st.none() | _SMALL,
    "entries": st.lists(st.lists(_SMALL, min_size=4, max_size=4), max_size=4),
})


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.dictionaries(_KEYS, _VALUES, max_size=7) | _VALUES | _TRADES)
def test_document_readers_never_raise(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for verb in (("verify", "trade"), ("verify", "dissection"), ("canon",)):
        assert run([*verb, "--file", str(path)]) in (0, 1, 2), verb


def test_verify_dissection(capsys):
    code, out, _ = _invoke(
        capsys, "verify", "dissection", "--file", FIXTURES / "b13_dissect.json"
    )
    assert code == 0
    assert json.loads(out) == {"valid": True, "order": 5, "w": 8, "h": 5}


# -- canon -------------------------------------------------------------------------


def test_canon_idempotent(capsys, tmp_path):
    code, once, _ = _invoke(capsys, "canon", "--file", FIXTURES / "fig2.json")
    assert code == 0
    trade = TradePair.from_json(once)
    assert validate_orthogonal_trade(trade)
    path = tmp_path / "canon.json"
    path.write_text(once)
    code, twice, _ = _invoke(capsys, "canon", "--file", path)
    assert code == 0
    assert twice == once


def test_canon_missing_file(capsys, tmp_path):
    code, _, err = _invoke(capsys, "canon", "--file", tmp_path / "no.json")
    assert code == 2
    assert "cannot read" in err


# -- construct ---------------------------------------------------------------------


def test_construct_family_matches_fixture(capsys):
    code, out, _ = _invoke(capsys, "construct", "family", "--p", 7)
    assert code == 0
    payload = json.loads(out)
    witness = family_construct(7)
    cells = payload.pop("intercalate")["cells"]
    assert cells == [list(t) for t in witness.intercalate]
    shipped = json.loads((FIXTURES / "fig1.json").read_text())
    assert payload == shipped
    # the trade document survives a verify round-trip despite the extra key
    assert TradePair.from_json(out) == witness.trade


@pytest.mark.parametrize("p", [7, 13, 19, 43, 499])
def test_construct_family_bytes_match_reparsed_document(capsys, p):
    # the intercalate key is spliced into to_json's text; the bytes are
    # those of adding it to the parsed document and dumping that again
    code, out, _ = _invoke(capsys, "construct", "family", "--p", p)
    witness = family_construct(p)
    doc = json.loads(witness.trade.to_json())
    doc["intercalate"] = {"cells": [list(t) for t in witness.intercalate]}
    assert code == 0
    assert out == json.dumps(doc) + "\n"


def test_construct_family_unavailable(capsys):
    code, _, err = _invoke(capsys, "construct", "family", "--p", 11)
    assert code == 1
    assert err


def test_construct_family_refuses_large_trade_before_building(capsys, monkeypatch):
    # k = 23560 at p = 99991: 1.7e9 entries
    monkeypatch.setattr("bptrades.cli.family_construct", _never_called)
    code, out, err = _invoke(capsys, "construct", "family", "--p", 99991)
    assert (code, out) == (2, "")
    assert "1665150120 entries" in err


def test_construct_threerow(capsys):
    code, out, _ = _invoke(capsys, "construct", "threerow", "--p", 7)
    assert code == 0
    sigma, k = three_row_trade(7)
    assert out.strip() == trade_from_rowperm(sigma, k).to_json()
    trade = TradePair.from_json(out)
    assert trade.size == 21
    assert validate_orthogonal_trade(trade)


def test_construct_threerow_refuses_large_trade_before_building(capsys, monkeypatch):
    # p = 1,000,003 took 4.8 s and 942 MB to print 91 MB of JSON; the
    # image lists and the 3p entries grow linearly in p
    monkeypatch.setattr("bptrades.cli.three_row_trade", _never_called)
    code, out, err = _invoke(capsys, "construct", "threerow", "--p", 1000003)
    assert (code, out) == (2, "")
    assert "p=1000003 gives a trade of 3000009 entries, above the cap of 2000000" in err
    # a p that three_row_trade refuses exits 1 above the cap too: a
    # composite, and a prime that is 5 mod 6
    for p in (1000001, 1000037):
        code, out, err = _invoke(capsys, "construct", "threerow", "--p", p)
        assert (code, out) == (1, "") and err
    # the largest prime p = 1 mod 6 under the cap, 3p = 1,999,947, is built
    monkeypatch.setattr("bptrades.cli.three_row_trade", lambda p: None)
    code, _, err = _invoke(capsys, "construct", "threerow", "--p", 666649)
    assert code == 1 and "no three-row trade" in err


def test_construct_threerow_wrong_residue(capsys):
    code, _, err = _invoke(capsys, "construct", "threerow", "--p", 11)
    assert code == 1
    assert "1 (mod 6)" in err


def test_construct_threerow_composite(capsys):
    code, _, err = _invoke(capsys, "construct", "threerow", "--p", 9)
    assert code == 1
    assert "prime" in err


def test_construct_smalltrade(capsys):
    code, out, _ = _invoke(capsys, "construct", "smalltrade", "--p", 13)
    assert code == 0
    assert out.strip() == log_trade(13).to_json()
    assert validate_latin_trade(TradePair.from_json(out))


def test_construct_smalltrade_rejects_composite(capsys):
    code, _, err = _invoke(capsys, "construct", "smalltrade", "--p", 9)
    assert code == 1
    assert "prime" in err


def test_construct_dissection(capsys):
    code, out, _ = _invoke(capsys, "construct", "dissection", "--n", 5)
    assert code == 0
    assert out.strip() == base_dissection(5).to_json()
    shipped = json.loads((FIXTURES / "b13_dissect.json").read_text())
    assert json.loads(out) == shipped


def test_construct_dissection_trade(capsys):
    code, out, _ = _invoke(capsys, "construct", "dissection", "--n", 5, "--trade")
    assert code == 0
    assert out.strip() == dissection_to_trade(base_dissection(5)).to_json()


def test_construct_dissection_trade_checks_once(capsys, monkeypatch):
    real_check, calls = check_good, []
    monkeypatch.setattr("bptrades.dissect.check_good",
                        lambda d: calls.append(d) or real_check(d))
    code, out, _ = _invoke(capsys, "construct", "dissection", "--n", 20, "--trade")
    assert (code, len(calls)) == (0, 1)
    assert out.strip() == dissection_to_trade(good_dissection(20)).to_json()


def test_construct_dissection_svg(capsys, tmp_path):
    path = tmp_path / "out.svg"
    code, _, _ = _invoke(
        capsys, "construct", "dissection", "--n", 5, "--svg", path
    )
    assert code == 0
    first = path.read_text()
    assert first.startswith("<svg")
    _invoke(capsys, "construct", "dissection", "--n", 5, "--svg", path)
    assert path.read_text() == first


@pytest.mark.parametrize(
    "argv",
    [
        ("fixtures", "--dir", "{blocker}/fixtures"),
        ("fixtures", "--dir", "{tmp}/fixtures", "--data-dir", "{blocker}/data"),
        ("construct", "dissection", "--n", "5", "--svg", "{blocker}/out.svg"),
    ],
)
def test_unwritable_output_exits_two(capsys, tmp_path, argv):
    # nothing can be created under a regular file, not even by root
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = [a.format(blocker=blocker, tmp=tmp_path) for a in argv]
    code, out, err = _invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert str(blocker) in err


def test_construct_dissection_rejects_small_frame(capsys):
    code, _, err = _invoke(capsys, "construct", "dissection", "--n", 1)
    assert code == 1
    assert "n=1 must be at least 3" in err


# -- search spectrum ---------------------------------------------------------------


def test_spectrum_small_exact(capsys):
    code, out, _ = _invoke(capsys, "search", "spectrum", "--p", 5)
    assert code == 0
    payload = json.loads(out)
    assert payload["sizes"] == [0, 10, 15, 20, 25]
    assert sorted(payload["per_k"]) == ["2", "3", "4"]
    assert payload["exhaustive"] is True
    assert payload["via_duality"] == [3]
    assert sorted(payload["certificates"]) == sorted(map(str, payload["sizes"]))
    for size, doc in payload["certificates"].items():
        trade = TradePair.from_json(json.dumps(doc))
        assert trade.size == int(size)
        if trade.size:
            assert validate_orthogonal_trade(trade)


def test_spectrum_pretty(capsys):
    code, out, _ = _invoke(capsys, "search", "spectrum", "--p", 5, "--pretty")
    assert code == 0
    assert out.splitlines()[0] == "p=5 sizes: 0 10 15 20 25"
    assert "exhaustive: True" in out


def test_spectrum_targets_with_range(capsys):
    code, out, _ = _invoke(
        capsys,
        "search",
        "spectrum",
        "--p",
        11,
        "--k",
        2,
        "--targets",
        "0,22,33,44..46",
    )
    assert code == 0
    payload = json.loads(out)
    assert {0, 22, 33, 44, 45, 46} <= set(payload["sizes"])
    for size in (0, 22, 33, 44, 45, 46):
        assert str(size) in payload["certificates"]


def test_spectrum_budget_exhaustion_exits_three(capsys):
    code, out, _ = _invoke(
        capsys, "search", "spectrum", "--p", 11, "--k", 2, "--budget", 0.05
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["exhaustive"] is False
    assert payload["sizes"]


@pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
@pytest.mark.parametrize("what", [("spectrum", "--p", "17", "--k", "2"),
                                  ("rowperm", "--p", "13", "--mates", "1")])
def test_search_rejects_a_budget_that_cannot_expire(capsys, monkeypatch, what, budget):
    # the refusal comes before any search: a NaN budget used to lift the
    # cap on p and then never expire
    def search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr("bptrades.search._cover_tables", search)
    monkeypatch.setattr("bptrades.search._sigma_search", search)
    code, out, err = _invoke(capsys, "search", *what, "--budget", budget)
    assert code == 2
    assert out == ""
    assert "finite number of seconds" in err


def test_spectrum_rejects_inadmissible_mate(capsys):
    code, _, err = _invoke(capsys, "search", "spectrum", "--p", 9, "--k", 3)
    assert code == 2
    assert "admissible" in err


def test_spectrum_rejects_malformed_targets(capsys):
    code, _, err = _invoke(capsys, "search", "spectrum", "--p", 5, "--targets", "0,abc")
    assert code == 2
    assert "'abc'" in err
    code, _, err = _invoke(capsys, "search", "spectrum", "--p", 5, "--targets", "1..x")
    assert code == 2
    assert "'1..x'" in err


@pytest.mark.parametrize("targets, message", [
    ("40..36", "--targets range '40..36' ends below its start"),
    ("0,3..2", "--targets range '3..2' ends below its start"),
    (",", "--targets ',' names no size"),
    ("", "--targets '' names no size"),
])
def test_spectrum_refuses_targets_that_name_no_size(capsys, monkeypatch, targets, message):
    # an empty target set would end the search after the first cover
    def search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr("bptrades.search._cover_tables", search)
    code, out, err = _invoke(capsys, "search", "spectrum", "--p", 7, "--k", 3,
                             f"--targets={targets}")
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "targets", ["26", "-1", "0,3..26", "-1..4", "0..1000000000", "-1000000000..0"]
)
def test_spectrum_targets_bounded_before_expansion(capsys, monkeypatch, targets):
    # sizes lie in 0..p*p; the bounds are checked before a range is
    # expanded, and the guard fails fast where a billion-element range
    # would otherwise be built
    def bounded_range(*args):
        span = builtins.range(*args)
        if len(span) > 26:
            raise AssertionError(f"expanded {span} unchecked")
        return span

    monkeypatch.setattr("bptrades.cli.range", bounded_range, raising=False)
    code, out, err = _invoke(capsys, "search", "spectrum", "--p", 5, f"--targets={targets}")
    assert (code, out) == (2, "")
    assert f"--targets element {targets.split(',')[-1]!r} is outside 0..25" in err


@pytest.mark.parametrize("argv, message", [
    (("--p", 4), "must be odd"),
    (("--p", 15), "a budget is required above the cap"),
    (("--p", 100001, "--budget", 1), "above the spectrum ceiling"),
])
def test_spectrum_refuses_p_before_reading_targets(capsys, monkeypatch, argv, message):
    # --targets may span p*p sizes, so both refusals of p come first
    monkeypatch.setattr("bptrades.cli._parse_targets", _never_called)
    code, out, err = _invoke(capsys, "search", "spectrum", *argv,
                             "--targets", "0..10000000000")
    assert (code, out) == (2, "")
    assert message in err


# -- search rowperm ----------------------------------------------------------------


def test_rowperm_single_mate(capsys):
    code, out, _ = _invoke(capsys, "search", "rowperm", "--p", 7, "--mates", 1)
    assert code == 0
    payload = json.loads(out)
    assert payload["m_values"] == [3, 5, 6, 7]
    assert payload["nontrivial_m"] == [3, 5]
    for m, witness in payload["witnesses"].items():
        assert sorted(witness["images"]) == list(range(7))
        assert len(witness["mates"]) == 1


def test_rowperm_two_mates(capsys):
    code, out, _ = _invoke(capsys, "search", "rowperm", "--p", 7, "--mates", 2)
    assert code == 0
    payload = json.loads(out)
    assert payload["m_values"] == [6, 7]
    assert payload["nontrivial_m"] == []


def test_rowperm_rejects_composite(capsys):
    code, _, err = _invoke(capsys, "search", "rowperm", "--p", 4, "--mates", 1)
    assert code == 2
    assert err


# -- transversals ------------------------------------------------------------------


def test_transversal_count(capsys):
    code, out, _ = _invoke(capsys, "transversals", "--p", 7)
    assert code == 0
    assert json.loads(out) == {"p": 7, "k": 1, "count": 133}


def test_transversal_count_other_index(capsys):
    code, out, _ = _invoke(capsys, "transversals", "--p", 5, "--k", 2)
    assert code == 0
    assert json.loads(out)["count"] == 15


def test_transversal_histogram(capsys):
    code, out, _ = _invoke(capsys, "transversals", "--p", 5, "--histogram")
    assert code == 0
    assert json.loads(out) == {"p": 5, "histogram": {"0": 4, "1": 10, "5": 1}}


def test_transversal_cap(capsys):
    code, _, err = _invoke(capsys, "transversals", "--p", 17)
    assert code == 2
    assert "cap" in err
    # the hint must use the flag spelling, not the library keyword
    assert "--force" in err
    assert "force=True" not in err


def test_transversal_cap_checked_before_square_is_built(capsys, monkeypatch):
    # gen_bp(100001) would allocate a p x p int64 array, about 80 GB
    def gen_bp(*args):
        raise AssertionError("the square was built")

    monkeypatch.setattr("bptrades.cli.gen_bp", gen_bp)
    code, out, err = _invoke(capsys, "transversals", "--p", 100001)
    assert (code, out) == (2, "")
    assert "order 100001 above the exhaustive cap 13; pass --force to override" in err


@pytest.mark.parametrize("argv", [
    ("transversals", "--p", 100001, "--force"),
    ("transversals", "--p", 100003, "--histogram", "--force"),
    ("orthomorphisms", "--p", 100001, "--force"),
    ("orthomorphisms", "--p", 100003, "--min-distance-from", 2, "--force"),
], ids=["count", "histogram", "orthomorphisms", "min-distance"])
def test_force_lifts_only_the_exhaustive_cap(capsys, monkeypatch, argv):
    # with --force, transversals --p 100001 reached gen_bp's 80 GB array;
    # the other searches build p x p tables of their own
    for name in ("gen_bp", "count_transversals", "diagonal_histogram",
                 "enumerate_orthomorphisms", "min_distance_from_linear"):
        monkeypatch.setattr(f"bptrades.cli.{name}", _never_called)
    code, out, err = _invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"p={argv[2]} above 2000, the largest order --force admits" in err


def test_transversal_histogram_force_bypasses_cap(capsys, monkeypatch):
    _, expected, _ = _invoke(capsys, "transversals", "--p", 7, "--histogram")
    monkeypatch.setattr("bptrades.search.TRANSVERSAL_CAP", 5)
    code, _, err = _invoke(capsys, "transversals", "--p", 7, "--histogram")
    assert code == 2
    assert "--force" in err
    code, out, _ = _invoke(capsys, "transversals", "--p", 7, "--histogram", "--force")
    assert code == 0
    assert out == expected


def test_transversal_histogram_needs_prime(capsys):
    code, _, err = _invoke(capsys, "transversals", "--p", 9, "--histogram")
    assert code == 2
    assert "prime" in err


# -- orthomorphisms ----------------------------------------------------------------


def test_orthomorphism_count(capsys):
    code, out, _ = _invoke(capsys, "orthomorphisms", "--p", 5)
    assert code == 0
    assert json.loads(out) == {"p": 5, "count": 15}


def test_orthomorphism_min_distance(capsys):
    code, out, _ = _invoke(capsys, "orthomorphisms", "--p", 5, "--min-distance-from", 2)
    assert code == 0
    assert json.loads(out) == {"p": 5, "k": 2, "min_distance": 4}


def test_orthomorphism_min_distance_needs_prime(capsys):
    code, _, err = _invoke(capsys, "orthomorphisms", "--p", 9, "--min-distance-from", 2)
    assert code == 2
    assert "prime" in err


def test_orthomorphism_force_bypasses_cap(capsys, monkeypatch):
    monkeypatch.setattr("bptrades.search.TRANSVERSAL_CAP", 3)
    code, _, err = _invoke(capsys, "orthomorphisms", "--p", 5)
    assert code == 2
    assert "--force" in err
    code, out, _ = _invoke(capsys, "orthomorphisms", "--p", 5, "--force")
    assert code == 0
    assert json.loads(out) == {"p": 5, "count": 15}
    code, out, _ = _invoke(
        capsys, "orthomorphisms", "--p", 5, "--min-distance-from", 2, "--force"
    )
    assert code == 0
    assert json.loads(out)["min_distance"] == 4


# -- bounds ------------------------------------------------------------------------


def test_bounds_payload(capsys):
    code, out, _ = _invoke(capsys, "bounds", "--p", 7, "--k", 3)
    assert code == 0
    payload = json.loads(out)
    b = size_bounds(7, 3)
    assert payload["K"] == b.K
    assert payload["symbol_lb"] == b.symbol_lb
    assert payload["trade_lb"] == b.trade_lb
    assert payload["perm_lb"] == b.perm_lb
    assert payload["symbol_lb"] == pytest.approx(math.log(7, 3) + 1)


def test_bounds_rejects_identity_index(capsys):
    code, _, err = _invoke(capsys, "bounds", "--p", 7, "--k", 1)
    assert code == 2
    assert "out of range" in err


# -- usage and help ----------------------------------------------------------------


def test_help_exits_zero(capsys):
    code, out, _ = _invoke(capsys, "--help")
    assert code == 0
    assert "usage" in out


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("frobnicate",),
        ("gen", "--wat"),
        ("construct",),
        ("gen",),
        ("search", "spectrum", "--p", "5", "--threads", "2"),
        ("construct", "family", "--p", "7", "--pretty"),
        ("construct", "dissection", "--n", "6", "--pretty"),
        ("orthomorphisms", "--p", "5", "--pretty"),
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, _, _ = _invoke(capsys, *argv)
    assert code == 2


def test_closed_stdout_exits_without_traceback():
    # as in `bptrades gen --p 301 | head -c 10`: the ~360 kB document
    # fills the pipe, and the reader closes it after 10 bytes
    proc = _main("gen", "--p", "301")
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


@pytest.mark.parametrize(
    "argv, code",
    [
        (("verify", "trade", "--file", "{doc}"), 1),
        (("fixtures", "--dir", "{blocker}/fixtures"), 2),
        (("search", "spectrum", "--p", "11", "--k", "2", "--budget", "0.05"), 3),
    ],
)
def test_failures_exit_without_traceback(tmp_path, argv, code):
    doc = tmp_path / "k_equals_ell.json"
    doc.write_text(json.dumps(K_EQUALS_ELL))
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = _main(*(a.format(doc=doc, blocker=blocker) for a in argv))
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == code
    assert b"Traceback" not in err
    # a failure says why in one line; a spent budget is no failure
    assert len(err.splitlines()) == (0 if code == 3 else 1)


# -- fixtures ----------------------------------------------------------------------


def test_fixture_regeneration_matches_shipped(capsys, tmp_path):
    fix_dir = tmp_path / "fixtures"
    data_dir = tmp_path / "data"
    code, _, err = _invoke(
        capsys, "fixtures", "--dir", fix_dir, "--data-dir", data_dir
    )
    assert code == 0
    for name in ("fig1.json", "fig2.json", "fig4.json", "b13_dissect.json"):
        assert (fix_dir / name).read_bytes() == (FIXTURES / name).read_bytes()
        assert str(fix_dir / name) in err
    for p in (5, 7):
        name = f"small_trade_{p}.json"
        assert (data_dir / name).read_bytes() == (DATA / name).read_bytes()
