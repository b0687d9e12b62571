import math

import pytest

from weylorders.errors import TypeParseError
from weylorders.rootsystem import (
    SemisimpleType,
    SimpleType,
    all_semisimple_types,
    cartan_pairing,
    coxeter_number,
    degrees,
    parse_type,
    positive_root_count,
    reflection_generators,
    render,
    simple_types,
    types_with_degrees,
    weyl_order,
)

# Root counts and Weyl orders for the nine families, per the classification
# tables: (type, |roots|, |W|).
TABLE1 = [
    ("A", lambda n: n >= 1, lambda n: n * (n + 1), lambda n: math.factorial(n + 1)),
    ("B", lambda n: n >= 2, lambda n: 2 * n * n, lambda n: 2**n * math.factorial(n)),
    ("D", lambda n: n >= 4, lambda n: 2 * n * (n - 1), lambda n: 2 ** (n - 1) * math.factorial(n)),
]
TABLE1_EXCEPTIONAL = {
    ("G", 2): (12, 12),
    ("F", 4): (48, 2**7 * 3**2),
    ("E", 6): (72, 2**7 * 3**4 * 5),
    ("E", 7): (126, 2**10 * 3**4 * 5 * 7),
    ("E", 8): (240, 2**14 * 3**5 * 5**2 * 7),
}


def test_degrees_examples():
    assert degrees(SimpleType("E", 8)) == (2, 8, 12, 14, 18, 20, 24, 30)
    assert degrees(SimpleType("A", 1)) == (2,)
    assert degrees(SimpleType("D", 4)) == (2, 4, 4, 6)
    assert degrees(SimpleType("B", 3)) == degrees(SimpleType("C", 3))


def test_positive_root_count_examples():
    assert positive_root_count(parse_type("E8")) == 120
    assert positive_root_count(parse_type("A1")) == 1
    assert positive_root_count(parse_type("A2xB2")) == 7


def test_weyl_order_examples():
    assert weyl_order(parse_type("F4")) == 1152
    assert weyl_order(parse_type("E8")) == 696729600
    assert weyl_order(parse_type("A1")) == 2


@pytest.mark.parametrize("letter,valid,roots,worder", TABLE1)
def test_table1_classical(letter, valid, roots, worder):
    start = {"A": 1, "B": 2, "D": 4}[letter]
    for n in range(start, 31):
        t = SimpleType(letter, n)
        assert math.prod(degrees(t)) == worder(n)
        assert 2 * sum(d - 1 for d in degrees(t)) == roots(n)


def test_table1_exceptional():
    for (letter, n), (roots, worder) in TABLE1_EXCEPTIONAL.items():
        t = SimpleType(letter, n)
        assert weyl_order(SemisimpleType.of(t)) == worder
        assert 2 * positive_root_count(SemisimpleType.of(t)) == roots


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _mat_order(m, cap=40):
    n = len(m)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    acc = m
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = _mat_mul(acc, m)
    raise AssertionError("order exceeds cap")


_BOND_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


@pytest.mark.parametrize(
    "t",
    [SimpleType("A", 1), SimpleType("A", 4), SimpleType("B", 2), SimpleType("B", 5),
     SimpleType("C", 3), SimpleType("D", 4), SimpleType("D", 6), SimpleType("G", 2),
     SimpleType("F", 4), SimpleType("E", 6), SimpleType("E", 7), SimpleType("E", 8)],
    ids=str,
)
def test_generators_are_involutions_with_braid_orders(t):
    gens = reflection_generators(t)
    a = cartan_pairing(t)
    n = t.rank
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for s in gens:
        assert _mat_mul(s, s) == ident
    for i in range(n):
        for j in range(i + 1, n):
            expected = _BOND_ORDER[a[i][j] * a[j][i]]
            assert _mat_order(_mat_mul(gens[i], gens[j])) == expected


def test_a1_generator():
    assert reflection_generators(SimpleType("A", 1)) == [((-1,),)]


def test_g2_product_order_six():
    s1, s2 = reflection_generators(SimpleType("G", 2))
    assert _mat_order(_mat_mul(s1, s2)) == 6


def test_parse_basics():
    assert render(parse_type("A2xB3")) == "A2xB3"
    assert render(parse_type("b3 X a2")) == "A2xB3"
    assert render(parse_type("C3")) == "B3"
    assert render(parse_type("C2")) == "B2"
    assert render(parse_type("B1")) == "A1"
    assert parse_type("A2xA2").factors == (SimpleType("A", 2), SimpleType("A", 2))


@pytest.mark.parametrize("bad", ["D3", "D2", "E5", "E9", "G3", "F5", "C1", "A0", "", "A", "2B", "A2yB3"])
def test_parse_rejects(bad):
    with pytest.raises(TypeParseError):
        parse_type(bad)


def test_parse_render_round_trip():
    for t in all_semisimple_types(6):
        assert parse_type(render(t)) == t


def test_coxeter_number():
    assert coxeter_number(SimpleType("A", 5)) == 6
    assert coxeter_number(SimpleType("B", 3)) == 6
    assert coxeter_number(SimpleType("D", 4)) == 6
    assert coxeter_number(SimpleType("E", 8)) == 30


def test_coxeter_number_is_the_largest_degree():
    types = simple_types(40) + [SimpleType("C", n) for n in range(3, 41)]
    assert len(types) == 40 + 39 + 37 + 5 + 38
    for t in types:
        assert coxeter_number(t) == degrees(t)[-1], t


def test_canonicalization_merges_bc():
    assert SemisimpleType.of(SimpleType("C", 4)) == SemisimpleType.of(SimpleType("B", 4))
    assert SimpleType("C", 5).canonical() == SimpleType("B", 5)


def test_empty_type():
    empty = SemisimpleType(())
    assert empty.rank == 0
    assert degrees(empty) == ()
    assert weyl_order(empty) == 1
    assert render(empty) == "1"


def test_all_semisimple_types_rank_bounds():
    types = list(all_semisimple_types(2))
    names = {render(t) for t in types}
    assert names == {"A1", "A1xA1", "A2", "B2", "G2"}
    for t in all_semisimple_types(5):
        assert 1 <= t.rank <= 5


def test_simple_types_catalogue():
    names = [str(f) for f in simple_types(4)]
    assert names == ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "G2"]
    assert [str(f) for f in simple_types(8, "GFE")] == ["E6", "E7", "E8", "F4", "G2"]
    assert simple_types(5, "C") == simple_types(5, "B")
    assert parse_type("E8") in set(all_semisimple_types(8))
    assert parse_type("E8") not in set(all_semisimple_types(8, "ABDGF"))


@pytest.mark.parametrize("letters, unknown", [("abdgf", "abdfg"), ("ABH", "H"), ("AB2", "2")])
def test_simple_types_refuse_unknown_letters(letters, unknown):
    with pytest.raises(TypeParseError, match=repr(unknown)):
        simple_types(6, letters)


def test_types_with_degrees():
    def names(expr):
        return [render(t) for t in types_with_degrees(degrees(parse_type(expr)))]

    assert names("A1xA3") == names("A2xB2") == ["A1xA3", "A2xB2"]
    assert names("B3xB3") == ["B3xB3", "D4xG2"]
    assert names("E8") == ["E8"]
    assert types_with_degrees(()) == [SemisimpleType(())]
    assert types_with_degrees((3,)) == []
    for t in all_semisimple_types(6):
        assert types_with_degrees(degrees(t)) == sorted(
            (u for u in all_semisimple_types(6) if degrees(u) == degrees(t)),
            key=lambda u: u.factors,
        )
