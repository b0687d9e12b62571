import functools
import random
from itertools import combinations_with_replacement

import pytest

from weylorders import coincidence
from weylorders.coincidence import (
    CoincidencePair,
    compose,
    decompose,
    enumerate_two_factor_pairs,
    evaluate_word,
    expected_two_factor_pairs,
    generator,
    generators,
    identity_pair,
    inverse,
    is_coincidence,
    reduce,
    verify_group_axioms,
)
from weylorders.errors import NoPeelingElement, NotCoincident, TypeParseError
from weylorders.rootsystem import (
    SemisimpleType,
    coxeter_catalogue,
    coxeter_number,
    degrees,
    parse_type,
    render,
    simple_types,
)


def pair(left: str, right: str) -> CoincidencePair:
    return reduce(parse_type(left), parse_type(right))


def test_reduce_examples():
    p = pair("A1xA3", "A2xB2")
    assert (render(p.left), render(p.right)) == ("A1xA3", "A2xB2")
    assert pair("A2", "A2") == identity_pair()
    padded = reduce(parse_type("A2xB2xA5"), parse_type("A3xA1xA5"))
    assert (render(padded.left), render(padded.right)) == ("A2xB2", "A1xA3")


def test_reduce_rejects_unequal_degrees():
    with pytest.raises(NotCoincident):
        reduce(parse_type("A2"), parse_type("B2"))
    # input with sides of different rank is rejected outright
    with pytest.raises(NotCoincident):
        reduce(parse_type("A2xB2xA5"), parse_type("A2xA3xA1xA5"))


def test_compose_and_inverse():
    p = compose(generator("G2"), inverse(generator("D4")))
    assert (render(p.left), render(p.right)) == ("B3xB3", "D4xG2")
    q = pair("A1xA3", "A2xB2")
    assert compose(q, inverse(q)) == identity_pair()
    assert compose(generator("B2"), identity_pair()) == generator("B2")


def test_is_coincidence():
    assert is_coincidence(parse_type("A1xA3"), parse_type("A2xB2"), 3)
    assert is_coincidence(parse_type("A2"), parse_type("A2"), 5)
    assert not is_coincidence(parse_type("A2"), parse_type("B2"), 2)


def test_generators_validate():
    gens = generators(15)
    for gid, g in gens.items():
        assert degrees(g.left) == degrees(g.right), gid
        assert not set(g.left.factors) & set(g.right.factors), gid
    assert (render(gens["B2"].left), render(gens["B2"].right)) == ("A2xB2", "A1xA3")
    assert gens["E8"].left.rank == 49


def test_generator_numeric_coincidence():
    for gid in ("B2", "B5", "D4", "D7", "G2", "F4", "E6", "E7", "E8"):
        g = generator(gid)
        for q in (2, 3):
            assert is_coincidence(g.left, g.right, q), gid


def test_generator_bad_ids():
    for bad in ("B1", "D3", "H4", "E9", "XX"):
        with pytest.raises(TypeParseError):
            generator(bad)


def test_enumerate_two_factor_bounds():
    assert enumerate_two_factor_pairs(3) == []
    found4 = {str(p) for p in enumerate_two_factor_pairs(4)}
    assert "(A1xA3, A2xB2)" in found4
    found7 = {str(p) for p in enumerate_two_factor_pairs(7)}
    assert "(A1xB3, B2xG2)" in found7 and "(A2xB3, A3xG2)" in found7


def test_enumerate_matches_families_rank12():
    got = {str(p) for p in enumerate_two_factor_pairs(12)}
    want = {str(p) for p in expected_two_factor_pairs(12)}
    assert got == want


def sorted_tuple_bucketing(rank_bound):
    """The enumeration keyed by sorted degree tuples, over every pair of simple
    types that fits the rank bound."""
    buckets = {}
    for a, b in combinations_with_replacement(simple_types(rank_bound - 1), 2):
        if a.rank + b.rank <= rank_bound:
            key = tuple(sorted(degrees(a) + degrees(b)))
            buckets.setdefault(key, []).append((a, b))
    found = []
    for sides in buckets.values():
        for i in range(len(sides)):
            for j in range(i + 1, len(sides)):
                if not set(sides[i]) & set(sides[j]):
                    p = reduce(SemisimpleType.of(*sides[i]), SemisimpleType.of(*sides[j]))
                    found.append(coincidence._oriented(p))
    found.sort(key=lambda p: (p.left.rank, render(p.left), render(p.right)))
    return found


def test_enumerate_matches_sorted_tuple_bucketing_and_families():
    for n in range(2, 61):  # from n = 8 on, D4xD4 fills a degree-4 slot to 4
        got = enumerate_two_factor_pairs(n)
        assert got == sorted_tuple_bucketing(n), n
        assert got == expected_two_factor_pairs(n), n


def test_evaluate_word_matches_the_letter_by_letter_fold():
    rng = random.Random(5)
    ids = [f"B{n}" for n in range(2, 12)] + [f"D{n}" for n in range(4, 12)] + [
        "G2", "F4", "E6", "E7", "E8"]
    words = [(), (("B3", 1), ("B3", -1)), (("E8", -1), ("D5", 1), ("E8", 1), ("D5", -1))]
    while len(words) < 200:
        word = tuple((rng.choice(ids), rng.choice((1, -1))) for _ in range(rng.randint(1, 8)))
        words.append(word + tuple((gid, -sign) for gid, sign in word[: rng.randint(0, 2)]))
    for word in words:
        letters = (generator(g) if sign > 0 else inverse(generator(g)) for g, sign in word)
        assert evaluate_word(word) == functools.reduce(compose, letters, identity_pair()), word


def test_decompose_spec_examples():
    w = decompose(pair("B3xB3", "D4xG2"))
    assert sorted(w) == [("D4", -1), ("G2", 1)]
    w = decompose(pair("A1xD4", "B2xB3"))
    assert sorted(w) == [("B2", -1), ("D4", 1)]
    assert decompose(identity_pair()) == ()
    # exact words, letter order included: B, D, then the exceptional letters
    for word in ((("F4", -1), ("E6", 1)), (("B6", -1), ("E6", 1)),
                 (("D7", 1), ("F4", 1)), (("B3", 1), ("G2", -1))):
        assert decompose(evaluate_word(word)) == word


def top_degree_factors(t, h):
    return [f for f in t.factors if coxeter_number(f) == h]


def test_peeling_word_isolates_each_top_pair():
    for h in range(1, 61):
        cat = coxeter_catalogue(h)
        for u in cat:
            for v in cat:
                if u == v:
                    continue
                w = coincidence._peeling_word(u, v)
                assert len(w) <= 2, (u, v, w)
                p = evaluate_word(w)
                assert top_degree_factors(p.left, h) == [u], (u, v, w)
                assert top_degree_factors(p.right, h) == [v], (u, v, w)


def test_decompose_rejects_unreduced_pairs():
    for left, right in (("A2", "B2"), ("A3", "A3"), ("A3xB2", "B2")):
        with pytest.raises(NoPeelingElement):
            decompose(CoincidencePair(parse_type(left), parse_type(right)))


def test_decompose_peels_the_first_top_factor_of_each_side():
    assert decompose(pair("B3xB3", "D4xG2")) == (("D4", -1), ("G2", 1))
    p = pair("A9xA16xA33xB2xB9xB16xE7", "A1xA8xA17xA32xB7xB17xD10")
    assert decompose(p) == (("B17", -1), ("B9", 1), ("D10", -1), ("E7", -1))


def test_decompose_rejects_an_unbalanced_pair():
    # B3 and G2 share the top degree 6 and pass the peel checks; the degrees differ
    with pytest.raises(NotCoincident):
        decompose(CoincidencePair(parse_type("B3"), parse_type("A1xG2")))


def test_decompose_round_trip_on_enumerated_pairs():
    for p in enumerate_two_factor_pairs(40):
        assert evaluate_word(decompose(p)) == p


def test_decompose_random_words():
    rng = random.Random(99)
    ids = [f"B{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)] + [
        "G2", "F4", "E6", "E7", "E8"]
    for _ in range(30):
        word = tuple((rng.choice(ids), rng.choice((1, -1)))
                     for _ in range(rng.randint(1, 4)))
        p = evaluate_word(word)
        assert evaluate_word(decompose(p)) == p


def test_group_axioms():
    report = verify_group_axioms(50, 20, seed=3)
    assert report.ok
    assert report.checks == 250
    doc = report.to_json()
    assert set(doc) == {"samples", "rank_bound", "checks", "violations", "ok"}
    assert doc["ok"] is True and doc["checks"] == 250


def test_composition_keeps_invariants():
    rng = random.Random(17)
    ids = ["B2", "B3", "D4", "D5", "G2", "F4"]
    for _ in range(50):
        w1 = tuple((rng.choice(ids), rng.choice((1, -1))) for _ in range(2))
        w2 = tuple((rng.choice(ids), rng.choice((1, -1))) for _ in range(2))
        p = compose(evaluate_word(w1), evaluate_word(w2))
        assert degrees(p.left) == degrees(p.right)
        assert not set(p.left.factors) & set(p.right.factors)
