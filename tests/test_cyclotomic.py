import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorders.cyclotomic import (
    FACTOR_INPUT_LIMIT,
    CycloProduct,
    cyclotomic_value,
    euler_phi,
    factor_power_minus_one,
    factorize,
    is_prime,
    ord_p_power_diff,
    pairwise_products,
    sumset,
)
from weylorders.errors import FactorizationLimitError


def _eval(p, q):
    """A cyclotomic product evaluated at q >= 2, one value per factor."""
    return math.prod(cyclotomic_value(d, q) ** t for d, t in p.exps)


def test_first_cyclotomics():
    assert [cyclotomic_value(d, 2) for d in (1, 2, 3, 4, 6)] == [1, 3, 7, 5, 3]
    assert cyclotomic_value(6, 3) == 7  # phi_6 = x^2 - x + 1
    assert cyclotomic_value(5, 10) == 11111
    assert cyclotomic_value(12, 2) == 13  # phi_12 = x^4 - x^2 + 1


def test_cyclotomic_rejects_zero():
    for n, q in ((0, 2), (-1, 3), (3, 1), (3, 0), (2, -4)):
        with pytest.raises(ValueError):
            cyclotomic_value(n, q)


def test_phi12_divides_x12_minus_one():
    assert factor_power_minus_one(12).degree == 12
    for q in (2, 3, 7, 10):
        assert math.prod(cyclotomic_value(e, q) for e in (1, 2, 3, 4, 6, 12)) == q**12 - 1


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("d", list(range(1, 201)))
def test_product_over_divisors_is_x_d_minus_one(d):
    # oracle: phi_d(q) = prod over e | d of (q^e - 1)^mu(d / e), Moebius inversion
    for q in (2, 3, 5, 12):
        oracle = math.prod(
            (Fraction(q**e - 1) ** _mobius(d // e) for e in range(1, d + 1) if d % e == 0),
            start=Fraction(1),
        )
        assert cyclotomic_value(d, q) == oracle
    assert _eval(factor_power_minus_one(d), 2) == 2**d - 1


def test_factor_power_minus_one():
    assert factor_power_minus_one(1).as_dict() == {1: 1}
    assert factor_power_minus_one(6).as_dict() == {1: 1, 2: 1, 3: 1, 6: 1}
    assert factor_power_minus_one(4).as_dict() == {1: 1, 2: 1, 4: 1}


@given(st.integers(min_value=1, max_value=120), st.integers(min_value=2, max_value=20))
@settings(max_examples=60, deadline=None)
def test_factor_power_minus_one_evaluates(d, q):
    assert _eval(factor_power_minus_one(d), q) == q**d - 1


def test_eval_cyclo_product():
    assert _eval(CycloProduct.from_mapping({2: 1}), 8) == 9
    assert _eval(CycloProduct.one(), 5) == 1
    assert _eval(CycloProduct.from_mapping({1: 1, 2: 1, 3: 1, 6: 1}), 2) == 63


def test_cyclo_product_degree_and_division():
    p = CycloProduct.from_mapping({1: 2, 6: 1})
    assert p.degree == 4
    q = p.exact_div(CycloProduct.from_mapping({1: 1}))
    assert q.as_dict() == {1: 1, 6: 1}
    with pytest.raises(ValueError):
        p.exact_div(CycloProduct.from_mapping({5: 1}))


def test_cyclo_product_decodes_at_the_edges():
    p = CycloProduct.from_mapping({12: 1, 1: 3, 2: 2})
    assert p.exps == ((1, 3), (2, 2), (12, 1))
    assert p.as_dict() == {1: 3, 2: 2, 12: 1}
    assert p.indices() == (1, 2, 12)
    assert (p.degree, p.exponent(1), p.exponent(7), p.exponent(12)) == (9, 3, 0, 1)
    assert str(p) == "phi1^3*phi2^2*phi12"
    assert str(CycloProduct.one()) == "1" and CycloProduct.one().exps == ()
    q = CycloProduct.from_mapping({2: 1, 12: 2})
    assert (p * q).as_dict() == {1: 3, 2: 3, 12: 3}
    assert (p * q).exact_div(q) == p


def test_cyclo_product_rejects_over_capacity():
    top = (1 << 15) - 1
    assert CycloProduct.from_mapping({1: top}).degree == top
    for exps in ({1: top + 1}, {2: 1 << 15}, {1: 20000, 2: 20000}, {3: 20000},
                 {10**30: 1}):
        with pytest.raises(ValueError):
            CycloProduct.from_mapping(exps)
    half = CycloProduct.from_mapping({1: 20000})
    with pytest.raises(ValueError):
        half * half


def test_cyclo_product_exact_div_rejects_borrows():
    phi = {d: CycloProduct.from_mapping({d: 1}) for d in (1, 2, 3)}
    with pytest.raises(ValueError):  # phi2 is missing from a middle slot
        (phi[1] * phi[3]).exact_div(phi[2])
    with pytest.raises(ValueError):  # the phi3 slot would absorb the borrow
        phi[3].exact_div(phi[1] * phi[1])
    with pytest.raises(ValueError):  # a slot above every slot of the dividend
        phi[1].exact_div(phi[3])


def test_cyclo_product_equality_is_by_type():
    # a product is its packed integer: it equals and hashes as that int
    p = CycloProduct.from_mapping({2: 1})
    assert isinstance(p, int)
    assert p == int(p) and hash(p) == hash(int(p))
    assert {int(p): "x"}[p] == "x"
    for bad in (lambda: p * 2, lambda: 2 * p):
        with pytest.raises(TypeError):
            bad()
    assert str(CycloProduct.one()) == "1"


def test_pairwise_products_multiplies_counts():
    phi = {d: CycloProduct.from_mapping({d: 1}) for d in (1, 2)}
    got = pairwise_products({phi[1]: 2, phi[2]: 3}, {phi[1]: 5, phi[2]: 7})
    assert got == {phi[1] * phi[1]: 10, phi[1] * phi[2]: 14 + 15, phi[2] * phi[2]: 21}
    assert all(type(k) is CycloProduct for k in got)
    half = CycloProduct.from_mapping({1: 20000})
    with pytest.raises(ValueError):
        pairwise_products({half: 1}, {CycloProduct.one(): 1, half: 1})


def test_sumset_refuses_degrees_past_the_slot_bound():
    # degrees 16,383 and 16,384: their sum 32,767 is the most a product holds
    low, high = (CycloProduct.from_mapping({1: e, 2: 1}) for e in (16382, 16383))
    left, right = {CycloProduct.one(), low}, {CycloProduct.from_mapping({3: 1}), high}
    got = sumset(left, right)
    assert got == pairwise_products(dict.fromkeys(left, 1), dict.fromkeys(right, 1)).keys()
    assert all(type(k) is CycloProduct for k in got)
    assert max(p.degree for p in got) == 32767
    for bad in ({high}, right):
        with pytest.raises(ValueError, match="exceeds 32767"):
            sumset(bad, right)
        with pytest.raises(ValueError, match="exceeds 32767"):
            pairwise_products(dict.fromkeys(bad, 1), dict.fromkeys(right, 1))


def test_ord_p_power_diff_examples():
    assert ord_p_power_diff(3, 2, 1, 6) == 2  # 63 = 3^2 * 7
    assert ord_p_power_diff(7, 2, 1, 3) == 1
    assert ord_p_power_diff(5, 2, 1, 3) == 0


def test_ord_p_power_diff_rejects_p_dividing_a():
    with pytest.raises(ValueError):
        ord_p_power_diff(2, 2, 1, 5)
    with pytest.raises(ValueError):
        ord_p_power_diff(3, 4, 3, 5)


def _direct_valuation(m, p):
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=-29, max_value=29),
    st.integers(min_value=1, max_value=30),
)
@settings(max_examples=300, deadline=None)
def test_ord_p_power_diff_matches_direct_valuation(p, abs_a, b, n):
    a = abs_a
    if b == 0 or abs(b) >= a or math.gcd(a, b) != 1:
        return
    if a % p == 0 or b % p == 0:
        with pytest.raises(ValueError):
            ord_p_power_diff(p, a, b, n)
        assert _direct_valuation(a**n - b**n, p) == 0
        return
    assert ord_p_power_diff(p, a, b, n) == _direct_valuation(a**n - b**n, p)


def test_ord_2_both_congruence_cases():
    # a - b = 0 mod 4 versus a + b = 0 mod 4
    assert ord_p_power_diff(2, 5, 1, 4) == _direct_valuation(5**4 - 1, 2)
    assert ord_p_power_diff(2, 3, 1, 4) == _direct_valuation(3**4 - 1, 2)
    assert ord_p_power_diff(2, 7, 3, 6) == _direct_valuation(7**6 - 3**6, 2)
    assert ord_p_power_diff(2, 9, 5, 12) == _direct_valuation(9**12 - 5**12, 2)


def test_factorize_roundtrip():
    for m in (2, 97, 720, 2**31 - 1, 10**12 + 39, 600851475143):
        fac = factorize(m)
        assert math.prod(p**e for p, e in fac.items()) == m
        assert all(is_prime(p) for p in fac)


def test_factorize_big_semiprime():
    p, q = 1000003, 999999000001
    assert factorize(p * q) == {p: 1, q: 1}


def test_factorize_size_limit():
    with pytest.raises(FactorizationLimitError):
        factorize(FACTOR_INPUT_LIMIT + 1)


def test_concurrent_memoization():
    import threading

    from weylorders.weylchar import _products_by_key

    results = []

    def worker():
        results.append((cyclotomic_value(105, 2), tuple(_products_by_key(8).items())))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8 and len(set(results)) == 1
    assert len(results[0][1]) == 224


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(2, 30):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
