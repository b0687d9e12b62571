"""The four workloads: what one pass runs, and how each output is checked.

A pass is a list of operations.  An operation is a dict with a ``kind``:
``cli`` operations run ``python -m weylorders.cli``-style commands, one fresh
interpreter each; every other kind is a library call, and the library
operations of a pass share one fresh interpreter.  ``items`` is the number
of items an operation completes when it succeeds.  Inputs come only from the
``random.Random`` handed to the planner, which the runner seeds from
``--seed``; a run repeats the one plan, so every pass does the same work.

Every checker returns a list of problems; an empty list means the output is
right.  Checkers compare against ``mathref``, never against the package.
"""

from __future__ import annotations

import mathref as ref

# --- tables ----------------------------------------------------------------------


def _cli(argv, check, **extra):
    return {"kind": "cli", "argv": argv, "check": check, "items": 1, **extra}


# Products with F4 whose invariants the tables workload asks for.
PAIRS = ("G2xF4", "F4xF4", "A2xF4", "B3xF4", "G2xG2xF4")


def plan_tables(rng, quick):
    big, det_rank, hits = ("G2", 3, 1) if quick else ("F4", 5, 2)
    pair = "G2xG2" if quick else rng.choice(PAIRS)
    fresh = [_cli(["charpolys", "--type", big], "table", type=big),
             _cli(["invariants", "--type", pair], "invariants", type=pair)]
    rng.shuffle(fresh)
    cached = _cli(["charpolys", "--type", big, "--cache", "{cache}"], "table", type=big)
    det = _cli(["verify", "--suite", "determination", "--max-rank", str(det_rank),
                "--cache", "{cache}"], "determination_suite", rank=det_rank)
    return fresh + [cached] * (1 + hits) + [det]


def check_table(op, doc):
    return ref.table_problems(ref.parse(op["type"]), doc)


def check_invariants(op, doc):
    t = ref.parse(op["type"])
    got = {int(i): v for i, v in doc["mu"].items()}
    want = {i: ref.mu(t, i) for i in range(1, doc["index_bound"] + 1) if ref.mu(t, i)}
    return [] if got == want and ref.parse(doc["type"]) == t else [f"mu of {op['type']} is {got}"]


def check_determination_suite(op, doc):
    want = len(ref.semisimple_types(op["rank"], "ABDGFE"))
    if doc["ok"] is not True or doc["types_checked"] != want:
        return [f"determination suite: ok={doc['ok']}, {doc['types_checked']} of {want} types"]
    return []


# --- determination ------------------------------------------------------------------


def plan_determination(rng, quick):
    """The sweep, then round trips drawn evenly from each rank in ``lo..hi``."""
    sweep_rank, lo, hi, per_rank = (5, 6, 7, 2) if quick else (8, 11, 14, 8)
    types = ref.semisimple_types(hi, "ABDGF")
    sweep = {"kind": "verify_determination", "rank": sweep_rank, "alphabet": "ABDGF",
             "items": len(ref.semisimple_types(sweep_rank, "ABDGF"))}
    trips = [{"kind": "roundtrip", "type": ref.render(t), "items": 1}
             for r in range(lo, hi + 1)
             for t in rng.sample([t for t in types if ref.rank(t) == r], per_rank)]
    return [sweep] + trips


def check_verify_determination(op, res):
    if res["ok"] is not True or res["types_checked"] != op["items"]:
        return [f"determination sweep: ok={res['ok']}, {res['types_checked']} types"]
    return []


def check_roundtrip(op, res):
    return [] if ref.parse(res["type"]) == ref.parse(op["type"]) else [
        f"round trip of {op['type']} gave {res['type']}"]


# --- recognize ------------------------------------------------------------------------

GENERATOR_IDS = ([f"B{n}" for n in range(2, 20)] + [f"D{n}" for n in range(4, 24)]
                 + ["G2", "F4", "E6", "E7", "E8"])


def recognition_pool():
    """(type, q) with rank <= 8 (E8 included) and q a prime power <= 16 whose
    order has four distinct primes.

    Recognition scans every type once per prime of the order, so drawing the
    orders from one prime count keeps the work of a pass nearly the same from
    seed to seed (0.46-0.53 s per order on the reference machine)."""
    memo = {}
    return [(ref.render(t), q) for t in ref.semisimple_types(8, "ABDGFE", include_e8=True)
            for q in ref.PRIME_POWERS_TO_16 if ref.order_prime_count(t, q, memo) == 4]


def plan_recognize(rng, quick):
    rank_bound, orders, words, pairs_bound = (8, 1, 2, 10) if quick else (16, 2, 8, 40)
    ops = []
    for name, q in rng.sample(recognition_pool(), orders):
        order = ref.group_order(ref.parse(name), q)
        ops.append({"kind": "recognize", "type": name, "q": q, "order": str(order),
                    "rank_bound": rank_bound, "items": 1})
    for _ in range(words):
        word = [(rng.choice(GENERATOR_IDS), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 8))]
        left, right = ref.sides(ref.word_value(word))
        ops.append({"kind": "decompose", "left": ref.render(left),
                    "right": ref.render(right), "items": 1})
    ops.append({"kind": "two_factor_pairs", "rank_bound": pairs_bound, "items": 0})
    return ops


def check_recognize(op, res):
    m, problems = int(op["order"]), []
    matches = [(ref.parse(t), q) for t, q in res["matches"]]
    if (ref.parse(op["type"]), op["q"]) not in matches:
        problems.append(f"{op['type']} over F_{op['q']} missing from the matches")
    for t, q in matches:
        if ref.group_order(t, q) != m or ref.rank(t) > op["rank_bound"]:
            problems.append(f"match {ref.render(t)} over F_{q} does not have order {m}")
    return problems


def check_decompose(op, res):
    want = ref.pair_value(ref.parse(op["left"]), ref.parse(op["right"]))
    got = ref.word_value(res["word"])
    return [] if got == want else [f"word {res['word']} does not give {op['left']}:{op['right']}"]


def check_two_factor_pairs(op, res):
    got = {frozenset((ref.parse(a), ref.parse(b))) for a, b in res["pairs"]}
    if len(got) != len(res["pairs"]) or got != ref.expected_two_factor_pairs(op["rank_bound"]):
        return [f"two-factor pairs up to rank {op['rank_bound']} differ from the eight families"]
    return []


# --- algebra ----------------------------------------------------------------------------

GAMMA = (1, -1, 1)  # over F_7


def _scalar(rng, p):
    return rng.randrange(p) if p else [rng.randint(-9, 9), rng.randint(1, 9)]


def _octonion(rng, p):
    return [_scalar(rng, p) for _ in range(8)]


def plan_algebra(rng, quick):
    octs, alberts, forms = (2, 2, 2) if quick else (100, 40, 80)
    ops = [{"kind": "oct_pair", "p": p, "a": _octonion(rng, p), "b": _octonion(rng, p), "items": 2}
           for p in (0, 7, 11) for _ in range(octs)]
    for _ in range(alberts):
        x, y = ({"xs": [_scalar(rng, 7) for _ in range(3)],
                 "cs": [_octonion(rng, 7) for _ in range(3)]} for _ in range(2))
        ops.append({"kind": "albert_pair", "x": x, "y": y, "items": 2})
    ops += [{"kind": "e0_form", "x": _scalar(rng, 7), "c": _octonion(rng, 7), "items": 1}
            for _ in range(forms)]
    return ops


def check_oct_pair(op, res):
    p, problems = op["p"], []
    na, nb = ref.norm(op["a"], p), ref.norm(op["b"], p)
    if ref.norm(res["ab"], p) != (na * nb % p if p else na * nb):
        problems.append("N(ab) != N(a) N(b)")
    scalar = [ref.field_value(v, p) for v in res["a_conj_a"]]
    if scalar != [na, 0, 0, na, 0, 0, 0, 0]:
        problems.append("a conj(a) != N(a)")
    return problems


def check_albert_pair(op, res):
    problems = []
    if res["xy"] != res["yx"]:
        problems.append("Jordan product is not commutative")
    x = op["x"]
    if res["q"] % 7 != ref.albert_q(x["xs"], x["cs"], GAMMA, 7):
        problems.append("albert_q disagrees with its expansion")
    return problems


def check_e0_form(op, res):
    want = (op["x"] * op["x"] - ref.norm(op["c"], 7)) % 7
    return [] if res["value"] % 7 == want else ["E0 form is not x^2 - N(c)"]


# --- registry ----------------------------------------------------------------------------

PLANS = {
    "tables": plan_tables,
    "determination": plan_determination,
    "recognize": plan_recognize,
    "algebra": plan_algebra,
}

CHECKS = {
    "table": check_table,
    "invariants": check_invariants,
    "determination_suite": check_determination_suite,
    "verify_determination": check_verify_determination,
    "roundtrip": check_roundtrip,
    "recognize": check_recognize,
    "decompose": check_decompose,
    "two_factor_pairs": check_two_factor_pairs,
    "oct_pair": check_oct_pair,
    "albert_pair": check_albert_pair,
    "e0_form": check_e0_form,
}


def check(op, output):
    return CHECKS[op["check"] if op["kind"] == "cli" else op["kind"]](op, output)

