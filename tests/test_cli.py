import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylorders
from weylorders import weylchar
from weylorders.cli import cache_load, cache_store, run
from weylorders.cyclotomic import CycloProduct
from weylorders.errors import CacheInvalid
from weylorders.orders import FactoredOrder
from weylorders.rootsystem import SimpleType, parse_type
from weylorders.weylchar import CharPolyTable, charpolys_classical, charpolys_exceptional


def run_json(capsys, argv, expect=0):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == expect, out
    return json.loads(out) if out.strip() else None


# Runs in a fresh interpreter: imports the CLI, then runs each argv of
# sys.argv[1] in-process and prints, as JSON, the freeze count after the
# import, the count after each command, how often gc.freeze was called, and
# each command's stdout, stderr and exit code.
_FREEZE_CHILD = """
import contextlib, gc, io, json, sys
import weylorders.cli
counts = [gc.get_freeze_count()]
calls = []
freeze = gc.freeze
gc.freeze = lambda: (calls.append(1), freeze())[-1]
outputs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = weylorders.cli.run(argv)
    counts.append(gc.get_freeze_count())
    outputs.append([out.getvalue(), err.getvalue(), code])
print(json.dumps({"counts": counts, "freeze_calls": len(calls), "outputs": outputs}))
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(weylorders.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    return [proc.stdout, proc.stderr, proc.returncode]


def test_run_freezes_the_start_heap_once_and_matches_the_entry_point():
    commands = [["order", "--type", "A1", "--q", "2"], ["charpolys", "--type", "G2"],
                ["order", "--type", "D3", "--q", "2"]]
    out, err, code = _python("-c", _FREEZE_CHILD, json.dumps(commands))
    assert code == 0, err
    doc = json.loads(out)
    counts = doc["counts"]
    assert counts[0] == 0  # importing the CLI freezes nothing
    assert counts[1] > 0  # the first command froze the heap it started with
    assert doc["freeze_calls"] == 1  # and later commands did not freeze again
    assert [o[2] for o in doc["outputs"]] == [0, 0, 2]
    for argv, in_process in zip(commands, doc["outputs"]):
        assert _python("-m", "weylorders.cli", *argv) == in_process, argv


def test_order_command(capsys):
    doc = run_json(capsys, ["order", "--type", "A1", "--q", "9"])
    assert doc["order"] == "720"
    doc = run_json(capsys, ["order", "--type", "B2", "--q", "2", "--factored"])
    assert doc["order"] == "720"
    assert doc["factored"]["N"] == 4
    assert doc["factored"]["degrees"] == [2, 4]


def test_order_rejects_bad_type(capsys):
    assert run(["order", "--type", "D3", "--q", "2"]) == 2
    err = capsys.readouterr().err
    assert "D3" in err


def test_order_rejects_non_prime_power(capsys):
    assert run(["order", "--type", "A1", "--q", "6"]) == 1
    capsys.readouterr()
    assert run(["order", "--type", "A1", "--q", "-4"]) == 1
    err = capsys.readouterr().err
    assert err == "error: -4 is not a prime power\n"


@pytest.mark.parametrize("rank, digits", [(200, 12101), (100000, 3010230102)])
def test_order_refuses_an_unprintable_order_before_computing_it(capsys, monkeypatch, rank, digits):
    def no_value(self):
        raise AssertionError("the order was computed")

    monkeypatch.setattr(FactoredOrder, "value", no_value)
    assert run(["order", "--type", f"A{rank}", "--q", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: |A{rank}(F_2)| has over {digits} decimal digits, past the limit "
        f"of {sys.get_int_max_str_digits()} digits for printing an integer\n"
    )


def test_order_prints_every_order_within_the_digit_limit(capsys):
    doc = run_json(capsys, ["order", "--type", "A100", "--q", "2"])
    assert len(doc["order"]) == 3071
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit: nothing is refused
    try:
        doc = run_json(capsys, ["order", "--type", "A200", "--q", "2"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(doc["order"]) == 12162


def test_charpolys_command(capsys, tmp_path):
    doc = run_json(capsys, ["charpolys", "--type", "G2", "--cache", str(tmp_path)])
    assert doc["group_order"] == "12"
    assert len(doc["entries"]) == 5
    # cache file written; second run loads it
    assert (tmp_path / "charpolys_v1_G2.json").exists()
    doc2 = run_json(capsys, ["charpolys", "--type", "G2", "--cache", str(tmp_path)])
    assert doc2 == doc


def test_charpolys_e8_command(capsys, tmp_path):
    doc = run_json(capsys, ["charpolys", "--type", "E8", "--cache", str(tmp_path)])
    assert doc["group_order"] == "696729600"
    assert len(doc["entries"]) == 106
    assert (tmp_path / "charpolys_v1_E8.json").exists()
    assert cache_load("E8", tmp_path).group_order == 696729600


def test_invariants_command(capsys):
    doc = run_json(capsys, ["invariants", "--type", "E8", "--mu", "30"])
    assert doc["mu"] == 1
    doc = run_json(capsys, ["invariants", "--type", "E8", "--joint", "2", "30"])
    assert doc["mu_joint"] == 8
    doc = run_json(capsys, ["invariants", "--type", "B3", "--joint", "4", "6"])
    assert doc["mu_joint"] == 1
    doc = run_json(capsys, ["invariants", "--type", "B2"])
    assert doc["mu"]["4"] == 1 and doc["mu"]["2"] == 2
    doc = run_json(capsys, ["invariants", "--type", "B40000", "--mu", "3"])
    assert doc["mu"] == 13333


@pytest.mark.parametrize("command", ["charpolys", "invariants"])
def test_rank_beyond_capacity_is_refused_before_enumeration(capsys, monkeypatch, command):
    def no_enumeration(*args):
        raise AssertionError("enumerated before the rank was refused")

    monkeypatch.setattr(weylchar, "_partitions", no_enumeration)
    monkeypatch.setattr(weylchar, "ch_star", no_enumeration)
    assert run([command, "--type", "A40000"]) == 1
    err = capsys.readouterr().err
    assert err == "error: degree of the product exceeds 32767\n"


# the degree list of a rank past sys.maxsize cannot be built; range() says so at once
_HUGE = "A1" + "0" * 39


@pytest.mark.parametrize(
    "argv",
    [
        ["order", "--type", _HUGE, "--q", "2"],
        ["invariants", "--type", _HUGE, "--mu", "3"],
        ["decompose", "--pair", f"{_HUGE}:A1"],
    ],
    ids=["order", "invariants", "decompose"],
)
def test_rank_past_maxsize_is_one_error_line(capsys, argv):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_invariants_mu_reads_no_table(capsys, monkeypatch):
    def no_table(t):
        raise AssertionError(f"the {t} table was loaded for a degree-only answer")

    monkeypatch.setattr(weylchar, "simple_table", no_table)
    doc = run_json(capsys, ["invariants", "--type", "F4", "--mu", "12"])
    assert doc["mu"] == 1


def test_invariants_joint_reads_no_table(capsys, monkeypatch):
    def no_table(t):
        raise AssertionError(f"the {t} table was computed for a degree-only answer")

    monkeypatch.setattr(weylchar, "_table_memo", {})
    monkeypatch.setattr(weylchar, "charpolys_exceptional", no_table)
    weylchar._factor_profile.cache_clear()
    doc = run_json(capsys, ["invariants", "--type", "E8", "--joint", "28", "30"])
    assert doc["mu_joint"] == 1
    # mu_11(E8) = 0, so only A10's parts are read
    doc = run_json(capsys, ["invariants", "--type", "E8xA10", "--joint", "2", "11"])
    assert doc["mu_joint"] == 13
    assert weylchar.mu_prime(parse_type("E8xA10"), 11) == 0


def test_classical_invariants_build_no_table(capsys, monkeypatch):
    def no_table(t):
        raise AssertionError(f"the {t} table was built for a classical invariant")

    monkeypatch.setattr(weylchar, "_table_memo", {})
    monkeypatch.setattr(weylchar, "charpolys_classical", no_table)
    weylchar._factor_profile.cache_clear()
    doc = run_json(capsys, ["invariants", "--type", "B30"])
    assert doc["mu"]["60"] == 1 and doc["index_bound"] == 60
    doc = run_json(capsys, ["invariants", "--type", "D12", "--joint", "4", "6"])
    assert doc["mu_joint"] == 6


def test_reconstruct_command(capsys, tmp_path):
    table = charpolys_classical(SimpleType("B", 2))
    family = {
        "rank": 2,
        "polys": [{str(d): t for d, t in p.exps} for p in table.entries],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    doc = run_json(capsys, ["reconstruct", "--input", str(path)])
    assert doc["type"] == "B2"
    # rank 0 is the empty type
    path.write_text('{"rank": 0, "polys": [{}]}')
    assert run_json(capsys, ["reconstruct", "--input", str(path)]) == {"rank": 0, "type": "1"}


@pytest.mark.parametrize(
    "doc",
    [
        '{"rank": 1}',
        '{"polys": 5, "rank": 1}',
        "[1]",
        '{"polys": [[1]], "rank": 1}',
        '{"rank": 1, "polys": [{"1": 1.2}, {"2": 1.9}]}',
        '{"rank": 1.9, "polys": [{"1": 1}, {"2": true}]}',
        '{"rank": "1", "polys": [{"1": 1}, {"2": 1}]}',
        '{"rank": 1, "polys": [{"1": 1}, {"x": 1}]}',
        '{"rank": 1, "polys": [{"1": 1}, {"0": 2}]}',
        '{"rank": -1, "polys": [{}]}',
    ],
)
def test_reconstruct_rejects_malformed_family_file(capsys, tmp_path, doc):
    path = tmp_path / "family.json"
    path.write_text(doc)
    assert run(["reconstruct", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: malformed family file (")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_coincide_command(capsys):
    doc = run_json(capsys, ["coincide", "--max-rank", "4"])
    assert {"left": "A1xA3", "right": "A2xB2"} in doc["pairs"]
    assert run(["coincide", "--factors", "3", "--max-rank", "4"]) == 2


def test_coincide_refuses_a_rank_bound_below_2(capsys):
    assert run(["coincide", "--max-rank", "1"]) == 1
    assert capsys.readouterr().err == "error: rank bound must be >= 2\n"


def test_max_rank_zero_is_a_usage_error(capsys):
    # not the suite's default bound
    assert run(["verify", "--suite", "pairs", "--max-rank", "0"]) == 2
    assert run(["coincide", "--max-rank", "0"]) == 2
    assert run(["recognize", "--order", "720", "--max-rank", "0"]) == 2
    assert "positive integer" in capsys.readouterr().err


def test_max_rank_negative_is_a_usage_error(capsys):
    # not a determination sweep over no types
    assert run(["verify", "--suite", "determination", "--max-rank", "-2"]) == 2
    assert "positive integer" in capsys.readouterr().err


def test_decompose_command(capsys):
    doc = run_json(capsys, ["decompose", "--pair", "B3xB3:D4xG2"])
    letters = {(w["generator"], w["sign"]) for w in doc["word"]}
    assert letters == {("G2", 1), ("D4", -1)}
    assert run(["decompose", "--pair", "A2-B2"]) == 2
    assert run(["decompose", "--pair", "A2:B2"]) == 1  # not coincident


def test_recognize_command(capsys):
    doc = run_json(capsys, ["recognize", "--order", "720", "--max-rank", "2"])
    assert doc["matches"] == [{"q": 9, "type": "A1"}, {"q": 2, "type": "B2"}]
    assert doc["max_rank"] == 2
    doc = run_json(capsys, ["recognize", "--order", "720"])
    assert doc["matches"] == [{"q": 9, "type": "A1"}, {"q": 2, "type": "B2"}]
    assert doc["max_rank"] is None
    doc = run_json(capsys, ["recognize", "--order", "720", "--max-rank", "1"])
    assert doc["matches"] == [{"q": 9, "type": "A1"}]


def test_verify_pairs_suite(capsys):
    doc = run_json(capsys, ["verify", "--suite", "pairs", "--max-rank", "12"])
    assert doc["ok"] and not doc["missing"] and not doc["unexpected"]


def test_verify_group_axioms_suite(capsys):
    doc = run_json(capsys, ["verify", "--suite", "group-axioms"])
    assert doc["ok"]


def test_verify_determination_suite_small(capsys, tmp_path):
    doc = run_json(
        capsys,
        ["verify", "--suite", "determination", "--max-rank", "5",
         "--cache", str(tmp_path)],
    )
    assert doc["ok"] and doc["types_checked"] > 20
    assert (tmp_path / "charpolys_v1_F4.json").exists()


def test_verify_prop_counter_suite_small(capsys):
    doc = run_json(capsys, ["verify", "--suite", "prop-counter", "--max-rank", "3"])
    # A1, A2, A3, B2, B3, G2 across the ten prime powers up to 16
    assert doc["ok"] and doc["checked"] == 60 and not doc["mismatches"]


def test_verify_prop_counter_suite_rank_8(capsys):
    # E8 over F_16: prod(q^d - 1) has 406 bits, above the factorization limit
    doc = run_json(capsys, ["verify", "--suite", "prop-counter", "--max-rank", "8"])
    assert doc["ok"] and not doc["mismatches"]


def test_verify_compalg_suite(capsys):
    doc = run_json(capsys, ["verify", "--suite", "compalg"])
    assert doc["ok"] and not doc["failures"]


def test_usage_error_unknown_command():
    assert run(["frobnicate"]) == 2


def test_json_deterministic(capsys):
    first = run(["order", "--type", "A2xB3", "--q", "4"])
    out1 = capsys.readouterr().out
    second = run(["order", "--type", "b3 x A2", "--q", "4"])
    out2 = capsys.readouterr().out
    assert first == second == 0
    assert out1 == out2


# --- cache layer ------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    table = charpolys_exceptional(SimpleType("F", 4))
    cache_store(table, tmp_path)
    loaded = cache_load("F4", tmp_path)
    assert loaded is not None
    assert loaded.entries == table.entries
    assert loaded.group_order == table.group_order


def test_cache_missing_returns_none(tmp_path):
    assert cache_load("E8", tmp_path) is None


def test_cache_rejects_tampered_count(tmp_path):
    table = charpolys_exceptional(SimpleType("F", 4))
    path = cache_store(table, tmp_path)
    payload = json.loads(path.read_text())
    payload["entries"][0]["count"] = str(int(payload["entries"][0]["count"]) + 1)
    path.write_text(json.dumps(payload))
    with pytest.raises(CacheInvalid) as info:
        cache_load("F4", tmp_path)
    assert "1152" in str(info.value)


def test_cache_rejects_wrong_group_order(tmp_path):
    table = charpolys_exceptional(SimpleType("G", 2))
    path = cache_store(table, tmp_path)
    payload = json.loads(path.read_text())
    payload["group_order"] = "13"
    path.write_text(json.dumps(payload))
    with pytest.raises(CacheInvalid, match="group order"):
        cache_load("G2", tmp_path)


@pytest.mark.parametrize("field", ["count", "group_order", "merged", "coxeter-moved",
                                   "coxeter-split"])
def test_charpolys_refuses_a_forged_cache_file(capsys, monkeypatch, tmp_path, e7_table, field):
    monkeypatch.setattr(weylchar, "_table_memo", {})
    table = charpolys_exceptional(SimpleType("G", 2))
    if field == "merged":
        # the phi_6 class counted under phi_3 passes validate(), not the gate
        entries = dict(table.entries)
        phi3, phi6 = CycloProduct.from_mapping({3: 1}), CycloProduct.from_mapping({6: 1})
        entries[phi3] += entries.pop(phi6)
        table = CharPolyTable(table.type_label, entries)
    elif field.startswith("coxeter"):
        # E7's Coxeter class phi_2 phi_18, all of it or half, counted under
        # phi_1 phi_18: it passes validate() and the largest exponents
        entries = dict(e7_table.entries)
        coxeter = CycloProduct.from_mapping({2: 1, 18: 1})
        moved = entries[coxeter] // (1 if field == "coxeter-moved" else 2)
        entries[coxeter] -= moved
        entries[CycloProduct.from_mapping({1: 1, 18: 1})] = moved
        table = CharPolyTable(e7_table.type_label, {p: c for p, c in entries.items() if c})
    path = cache_store(table, tmp_path)
    payload = json.loads(path.read_text())
    if field == "count":
        payload["entries"][0]["count"] = str(int(payload["entries"][0]["count"]) + 1)
    elif field == "group_order":
        payload["group_order"] = "13"
    path.write_text(json.dumps(payload))
    label = str(table.type_label)
    assert run(["charpolys", "--type", label, "--cache", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert ": certificate failed: " in captured.err and path.name in captured.err


@pytest.mark.parametrize("payload", [[], 5, "x", None], ids=["list", "int", "str", "null"])
def test_charpolys_refuses_a_cache_file_that_is_not_an_object(capsys, monkeypatch, tmp_path,
                                                              payload):
    monkeypatch.setattr(weylchar, "_table_memo", {})
    path = cache_store(charpolys_exceptional(SimpleType("G", 2)), tmp_path)
    path.write_text(json.dumps(payload))
    assert run(["charpolys", "--type", "G2", "--cache", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert path.name in captured.err and "not a JSON object" in captured.err


def test_cache_rejects_a_file_of_another_type(tmp_path):
    path = cache_store(charpolys_exceptional(SimpleType("G", 2)), tmp_path)
    path.rename(tmp_path / "charpolys_v1_F4.json")
    with pytest.raises(CacheInvalid, match="type label mismatch"):
        cache_load("F4", tmp_path)


def test_cache_rejects_version_mismatch(tmp_path):
    table = charpolys_exceptional(SimpleType("G", 2))
    path = cache_store(table, tmp_path)
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(CacheInvalid):
        cache_load("G2", tmp_path)


def test_cache_rejects_non_integer_exponents(tmp_path):
    table = charpolys_exceptional(SimpleType("G", 2))
    path = cache_store(table, tmp_path)
    payload = json.loads(path.read_text())
    for exps in ({"1": 2.0}, [2]):
        payload["entries"][0]["exps"] = exps
        path.write_text(json.dumps(payload))
        with pytest.raises(CacheInvalid, match="malformed cache payload"):
            cache_load("G2", tmp_path)


def test_cache_rejects_corrupt_json(tmp_path):
    table = charpolys_exceptional(SimpleType("G", 2))
    path = cache_store(table, tmp_path)
    path.write_text("{not json")
    with pytest.raises(CacheInvalid):
        cache_load("G2", tmp_path)
