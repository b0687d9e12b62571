import math
import random
import time

import pytest

from weylorders.cyclotomic import factorize
from weylorders.errors import FactorizationLimitError, WeylOrdersError
from weylorders.orders import (
    check_field_determination,
    in_exception_list,
    order_factored,
    order_value,
    p_contribution_is_largest,
    recognize_order,
    same_order_all_extensions,
    split_prime_power,
)
from weylorders.rootsystem import (
    SemisimpleType,
    SimpleType,
    all_semisimple_types,
    degrees,
    parse_type,
    render,
)


def test_split_prime_power():
    assert split_prime_power(9) == (3, 2)
    assert split_prime_power(8) == (2, 3)
    assert split_prime_power(2**500) == (2, 500)
    assert split_prime_power((2**127 - 1) ** 4) == (2**127 - 1, 4)
    for bad in (0, 1, 6, 12, 100, -4, -8, -27):
        with pytest.raises(WeylOrdersError):
            split_prime_power(bad)


def test_order_examples():
    assert order_value(parse_type("A1"), 9) == 720
    assert order_value(parse_type("B2"), 2) == 720
    assert order_value(parse_type("B2"), 3) == 51840
    assert order_value(parse_type("A2"), 2) == 168
    assert order_value(parse_type("A1"), 2) == 6


def test_g2_symbolic_form():
    fo = order_factored(parse_type("G2"), 5)
    assert fo.n_exp == 6 and fo.degrees == (2, 6)
    assert fo.value() == 5**6 * (5**2 - 1) * (5**6 - 1)


def test_factored_matches_value_randomly():
    rng = random.Random(11)
    prime_powers = [q for q in range(2, 50) if _is_pp(q)]
    types = list(all_semisimple_types(6))
    for _ in range(200):
        t = rng.choice(types)
        q = rng.choice(prime_powers)
        fo = order_factored(t, q)
        value = q ** fo.n_exp * math.prod(q**d - 1 for d in fo.degrees)
        assert order_value(t, q) == value


def _is_pp(q):
    try:
        split_prime_power(q)
        return True
    except WeylOrdersError:
        return False


def test_same_order_all_extensions():
    assert same_order_all_extensions(parse_type("A1xA3"), parse_type("A2xB2"))
    for n in (3, 4, 5):
        assert same_order_all_extensions(parse_type(f"B{n}"), parse_type(f"C{n}"))
    assert not same_order_all_extensions(parse_type("A2"), parse_type("B2"))


def test_bn_cn_orders():
    for n in (3, 4, 5):
        for q in (2, 3, 4, 5):
            assert order_value(parse_type(f"B{n}"), q) == order_value(parse_type(f"C{n}"), q)


def test_p_contribution_examples():
    largest, w = p_contribution_is_largest(parse_type("B2"), 3)
    assert not largest and (w.char_power, w.rival_power) == (81, 128)
    largest, w = p_contribution_is_largest(parse_type("A1"), 8)
    assert not largest and (w.char_power, w.rival_power) == (8, 9)
    largest, w = p_contribution_is_largest(parse_type("A2"), 2)
    assert largest and (w.char_power, w.rival_power) == (8, 7)


def test_p_contribution_refuses_the_empty_type():
    with pytest.raises(WeylOrdersError, match="empty type has no characteristic contribution"):
        p_contribution_is_largest(SemisimpleType(()), 2)


def test_exception_list_examples():
    assert in_exception_list(SimpleType("A", 1), 5)
    assert in_exception_list(SimpleType("B", 2), 3)
    assert not in_exception_list(SimpleType("A", 1), 11)
    assert in_exception_list(SimpleType("A", 1), 31)  # adjacent to 32
    assert not in_exception_list(SimpleType("A", 1), 32)
    assert not in_exception_list(SimpleType("B", 2), 9)
    assert not in_exception_list(SimpleType("G", 2), 3)


def test_field_determination_examples():
    r = check_field_determination(parse_type("A1xA3"), 5, parse_type("A2xB2"), 5)
    assert r.orders_equal and r.q_equal and r.degrees_equal and r.ok

    r = check_field_determination(parse_type("A1"), 4, parse_type("A1"), 8)
    assert not r.orders_equal and r.ok  # vacuous

    r = check_field_determination(parse_type("A1"), 2, parse_type("A1"), 2)
    assert r.orders_equal and r.ok

    with pytest.raises(WeylOrdersError):
        check_field_determination(parse_type("A1"), 2, parse_type("A1"), 3)


def test_recognize_examples():
    assert [(render(t), q) for t, q in recognize_order(720, 2)] == [
        ("A1", 9),
        ("B2", 2),
    ]
    assert [(render(t), q) for t, q in recognize_order(6, 2)] == [("A1", 2)]
    assert recognize_order(7, 4) == []


def test_recognize_refuses_an_order_below_2():
    with pytest.raises(WeylOrdersError, match="m must be >= 2"):
        recognize_order(1)


def test_recognize_without_rank_bound():
    assert [(render(t), q) for t, q in recognize_order(720)] == [("A1", 9), ("B2", 2)]


def test_recognize_zsigmondy_branch():
    # 2^6 - 1 = 3^2 * 7 divides the product part of A1xA1xA2 over F_2, but 6
    # is not a degree: (2^2 - 1)^2 (2^3 - 1) = 63 as well.
    t = parse_type("A1xA1xA2")
    m = order_value(t, 2)
    assert (m // 2**5) % (2**6 - 1) == 0 and 6 not in degrees(t)
    assert (t, 2) in recognize_order(m)
    assert [(render(t), q) for t, q in recognize_order(m, 4)] == [("A1xA1xA2", 2)]


def _scan(m, types):
    """The brute-force oracle: for each prime p | m and each type whose
    positive-root count N divides v = ord_p(m), test q = p^(v/N)."""
    hits = []
    for p, v in factorize(m).items():
        for t, n_exp, degs in types:
            if v % n_exp == 0:
                q = p ** (v // n_exp)
                if q**n_exp * math.prod(q**d - 1 for d in degs) == m:
                    hits.append((t, q))
    return sorted(hits, key=lambda tq: (render(tq[0]), tq[1]))


def test_recognize_matches_scan_oracle():
    """Every order of a type of rank <= 6 over a prime power q <= 16: the
    1,060 pairs give 877 distinct orders, all below the 2^400 limit."""
    types = [(t, sum(d - 1 for d in degrees(t)), degrees(t)) for t in all_semisimple_types(6)]
    prime_powers = [q for q in range(2, 17) if _is_pp(q)]
    pairs = [(t, q) for t, _, _ in types for q in prime_powers]
    assert len(pairs) == 1060
    for m in {order_value(t, q) for t, q in pairs}:
        assert recognize_order(m, 6) == _scan(m, types), m


def test_recognize_matches_grid_oracle():
    """Every order of a type of rank <= 8 over a prime power q <= 16, E8
    included: 2,716 distinct orders, some at or above 2^400.  Recognition
    restricted to q <= 16 must give the grid's inverse map."""
    prime_powers = [q for q in range(2, 17) if _is_pp(q)]
    grid = {}
    for t in all_semisimple_types(8):
        for q in prime_powers:
            grid.setdefault(order_value(t, q), []).append((t, q))
    assert len(grid) == 2716 and max(grid).bit_length() > 400
    for m, pairs in grid.items():
        hits = [(t, q) for t, q in recognize_order(m, 8) if q <= 16]
        assert hits == sorted(pairs, key=lambda tq: (render(tq[0]), tq[1])), m


@pytest.mark.parametrize(
    "name, q",
    [("A4xB5xD6xG2xF4xE8", 2), ("A1", 2**127 - 1), ("E8xE8xE8", 3)],
    ids=["rank-30-F2", "A1-F_2^127-1", "E8xE8xE8-F3"],
)
def test_recognize_large_orders_fast(name, q):
    """Orders above 2^400 or with a 127-bit q are recognised without
    factoring them; the best of three runs takes under 0.1 s."""
    m = order_value(parse_type(name), q)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        hits = recognize_order(m)
        best = min(best, time.perf_counter() - start)
    assert best < 0.1, best
    assert (parse_type(name), q) in hits
    assert all(order_value(t, r) == m for t, r in hits)


def test_recognize_certifies_q_once(monkeypatch):
    # certifying p = 2^127 - 1 factors p - 1; each hit reuses the candidate's (p, e)
    from weylorders import cyclotomic

    calls = []

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(cyclotomic, "factorize", counted)
    p = 2**127 - 1
    assert (parse_type("A1"), p) in recognize_order(p * (p * p - 1))
    assert calls == [p - 1]


def test_recognize_uncertifiable_prime_raises():
    # A1 over F_p with p = 2^521 - 1: certifying p factors p - 1, above 2^400
    p = 2**521 - 1
    with pytest.raises(FactorizationLimitError):
        recognize_order(p * (p * p - 1))


def test_recognize_random_round_trip():
    rng = random.Random(23)
    prime_powers = [2, 3, 4, 5, 7, 8, 9]
    types = list(all_semisimple_types(4))
    for _ in range(100):
        t = rng.choice(types)
        q = rng.choice(prime_powers)
        hits = recognize_order(order_value(t, q), t.rank)
        assert (t, q) in hits


def test_theorem_weyl_extension_property():
    # same order at q implies same order at every power of q
    t1, t2 = parse_type("A1xA3"), parse_type("A2xB2")
    for q in (2, 3, 4):
        for r in (2, 3, 4):
            assert order_value(t1, q**r) == order_value(t2, q**r)


def test_second_largest_for_b2_f3():
    # the characteristic contribution is the runner-up prime power
    m = order_value(parse_type("B2"), 3)
    powers = sorted((p**e for p, e in factorize(m).items()), reverse=True)
    assert powers[0] == 128 and powers[1] == 81


def test_cross_characteristic_collision_search():
    """Search rank <= 3, q <= 32 for cross-characteristic order collisions.

    Reports findings rather than assuming the conjecture that the rank-1/
    rank-2 720 coincidence is the only one; in this range it is.
    """
    prime_powers = [q for q in range(2, 33) if _is_pp(q)]
    by_order = {}
    for t in all_semisimple_types(3):
        for q in prime_powers:
            by_order.setdefault(order_value(t, q), []).append((t, q))
    collisions = []
    for m, hits in by_order.items():
        chars = {split_prime_power(q)[0] for _, q in hits}
        if len(chars) > 1:
            collisions.append((m, sorted((render(t), q) for t, q in hits)))
    assert collisions == [(720, [("A1", 9), ("B2", 2)])]
