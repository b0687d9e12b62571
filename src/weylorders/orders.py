"""Exact orders of finite semisimple groups and their determination properties.

The order of the rational-point group over a field with q elements is
q^N * prod(q^d - 1) over the fundamental degrees d, where N is the number
of positive roots.  Equality of orders at a fixed q is equivalent to
equality of degree multisets, which this module exploits and cross-checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .cyclotomic import cyclotomic_value, factorize, is_prime
from .errors import WeylOrdersError
from .rootsystem import (
    SemisimpleType,
    SimpleType,
    degrees,
    positive_root_count,
    render,
    types_with_degrees,
)

__all__ = [
    "FactoredOrder",
    "order_factored",
    "order_value",
    "same_order_all_extensions",
    "p_contribution_is_largest",
    "ContributionWitness",
    "in_exception_list",
    "check_field_determination",
    "FieldDeterminationReport",
    "recognize_order",
    "split_prime_power",
]


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n, k >= 1: bisection finds the top bits of the root,
    then Newton's method descends from just above it."""
    s = (n.bit_length() - 1) // k  # 2^s <= root < 2^(s + 1)
    e = max(s - 2 * k.bit_length(), 0)
    lo, hi = 1 << (s - e), 1 << (s - e + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**k <= n >> (k * e) else (lo, mid)
    x = (lo + 1) << e
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def _prime_power(q: int) -> Optional[Tuple[int, int]]:
    """(p, t) with q = p^t and p prime, or None: each integer t-th root of q
    is tested, and q = r^t has a prime r for at most one t."""
    if q < 2:
        return None
    for t in range(1, q.bit_length()):
        r = _iroot(q, t)
        if r**t == q and is_prime(r):
            return r, t
    return None


def split_prime_power(q: int) -> Tuple[int, int]:
    """Write q = p^t with p prime, or raise."""
    pt = _prime_power(q)
    if pt is None:
        raise WeylOrdersError(f"{q} is not a prime power")
    return pt


@dataclass(frozen=True)
class FactoredOrder:
    """The symbolic order q^N * prod(q^d - 1)."""

    p: int
    t: int
    n_exp: int
    degrees: Tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.t

    def value(self) -> int:
        q = self.q
        return q**self.n_exp * math.prod(q**d - 1 for d in self.degrees)

    def __str__(self) -> str:
        prods = "".join(f"(q^{d}-1)" for d in self.degrees)
        return f"q^{self.n_exp}{prods} at q={self.q}"


def order_factored(t: SemisimpleType, q: int) -> FactoredOrder:
    p, e = split_prime_power(q)
    return FactoredOrder(p, e, positive_root_count(t), degrees(t))


def order_value(t: SemisimpleType, q: int) -> int:
    return order_factored(t, q).value()


def same_order_all_extensions(t1: SemisimpleType, t2: SemisimpleType) -> bool:
    """True iff the degree multisets agree, hence the orders agree at every q."""
    return degrees(t1) == degrees(t2)


@dataclass(frozen=True)
class ContributionWitness:
    char_prime: int
    char_power: int  # q^N
    rival_prime: int
    rival_power: int  # largest prime power in the prime-to-p part


def p_contribution_is_largest(t: SemisimpleType, q: int) -> Tuple[bool, ContributionWitness]:
    """Compare q^N with the largest prime power dividing the rest of the order,
    prod(q^d - 1), which is factored one cyclotomic value phi_e(q) at a time."""
    fo = order_factored(t, q)
    if fo.n_exp == 0:
        raise WeylOrdersError("empty type has no characteristic contribution")
    char_power = fo.q**fo.n_exp
    rest: Dict[int, int] = {}
    for e, c in Counter(e for d in fo.degrees for e in range(1, d + 1) if d % e == 0).items():
        for r, k in factorize(cyclotomic_value(e, fo.q)).items():
            rest[r] = rest.get(r, 0) + c * k
    rp, re = max(rest.items(), key=lambda pe: pe[0] ** pe[1])
    witness = ContributionWitness(fo.p, char_power, rp, rp**re)
    return char_power > witness.rival_power, witness


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def in_exception_list(t: SimpleType, q: int) -> bool:
    """The full list of simple groups whose characteristic does not contribute
    the largest prime power to the order: rank-1 groups over q in
    {8, 9, 2^r with 2^r+1 prime, primes adjacent to a power of two}, and the
    rank-2 symplectic/orthogonal group over the 3-element field."""
    t = t.canonical()
    p, _ = split_prime_power(q)
    if t == SimpleType("B", 2):
        return q == 3
    if t != SimpleType("A", 1):
        return False
    if q in (8, 9):
        return True
    if p == 2 and is_prime(q + 1):
        return True
    if q == p and (_is_power_of_two(q - 1) or _is_power_of_two(q + 1)):
        return True
    return False


@dataclass
class FieldDeterminationReport:
    t1: str
    q1: int
    t2: str
    q2: int
    order1: int
    order2: int
    orders_equal: bool
    q_equal: Optional[bool] = None
    degrees_equal: Optional[bool] = None

    @property
    def ok(self) -> bool:
        if not self.orders_equal:
            return True  # nothing to determine
        return bool(self.q_equal and self.degrees_equal)


def check_field_determination(
    t1: SemisimpleType, q1: int, t2: SemisimpleType, q2: int
) -> FieldDeterminationReport:
    """If the orders over q1 and q2 (same characteristic) agree, assert that
    q1 = q2 and the degree multisets match."""
    p1, _ = split_prime_power(q1)
    p2, _ = split_prime_power(q2)
    if p1 != p2:
        raise WeylOrdersError("fields must share their characteristic")
    o1, o2 = order_value(t1, q1), order_value(t2, q2)
    report = FieldDeterminationReport(render(t1), q1, render(t2), q2, o1, o2, o1 == o2)
    if o1 == o2:
        report.q_equal = q1 == q2
        report.degrees_equal = degrees(t1) == degrees(t2)
    return report


def _peel_degrees(r: int, q: int, n_exp: int, top: int) -> List[Tuple[int, ...]]:
    """The degree multisets, degrees <= top, with prod(q^d - 1) = r and
    sum(d - 1) = n_exp, each listed largest degree first."""
    if n_exp == 0:
        return [()] if r == 1 else []
    d = min(top, n_exp + 1)
    while d >= 2 and r % (q**d - 1):
        d -= 1
    if d < 2:
        return []
    out = [(d,) + rest for rest in _peel_degrees(r // (q**d - 1), q, n_exp - d + 1, d)]
    if (q, d) == (2, 6):  # 2^6 - 1 = 3^2 * 7 has no primitive prime divisor
        out += _peel_degrees(r, q, n_exp, 5)
    return out


def recognize_order(
    m: int, rank_bound: Optional[int] = None
) -> List[Tuple[SemisimpleType, int]]:
    """All (type, q) with order m, of total rank <= rank_bound if one is given.

    m is never factored.  A type of dimension D = N + sum(d_i) = sum(2 d_i - 1)
    has at most D // 3 degrees, so q^D (1 - q^-2)^(D // 3) <= m < q^D, and as
    (1 - q^-2)^(1/3) > 1 - 1/q the one candidate is q = iroot(m, D) + 1;
    q >= 2 gives 6^(D/3) <= m, so D <= 7/6 log2(m).  For a candidate q that
    divides m and is a prime power, q^N is the largest power of q dividing m,
    as the rest R = prod(q^d - 1) is prime to q.  R fixes the degrees: by
    Zsigmondy's theorem each q^d - 1 (d >= 2) has a prime factor dividing no
    q^e - 1 with e < d, so the largest d <= N + 1 with (q^d - 1) | R is the
    top degree, and the rest is peeled the same way.  The exceptions are
    2^6 - 1, where both "6 is a degree" and "it is not" are tried, and
    q^2 - 1 with q + 1 a power of two, harmless as 2 is the smallest degree.
    The types come from ``types_with_degrees``; each is checked by exact
    evaluation at the candidate's own q = p^e, so q is certified once.
    """
    if m < 2:
        raise WeylOrdersError("m must be >= 2")
    hits = []
    for q in {_iroot(m, dim) + 1 for dim in range(3, m.bit_length() * 7 // 6 + 1)}:
        if m % q or (pe := _prime_power(q)) is None:
            continue
        n_exp, r = 0, m
        while r % q == 0:
            n_exp, r = n_exp + 1, r // q
        for degs in _peel_degrees(r, q, n_exp, n_exp + 1):
            hits += [
                (t, q) for t in types_with_degrees(degs)
                if (rank_bound is None or t.rank <= rank_bound)
                and FactoredOrder(*pe, positive_root_count(t), degrees(t)).value() == m
            ]
    hits.sort(key=lambda tq: (render(tq[0]), tq[1]))
    return hits
