"""Exact cyclotomic and p-adic-valuation arithmetic.

Products of cyclotomic polynomials, the factorization of x^d - 1, cyclotomic
values at integers, valuation rules for a^n - b^n, and integer factorization
utilities (trial division by the 13 smallest primes, then Brent's rho, with
deterministic primality certification).
All arithmetic is arbitrary-precision; nothing here touches floating point.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Collection, Dict, FrozenSet, Iterable, Mapping, Tuple

from .errors import FactorizationLimitError

__all__ = [
    "CycloProduct",
    "pairwise_products",
    "sumset",
    "max_exponents",
    "cyclotomic_value",
    "factor_power_minus_one",
    "ord_p_power_diff",
    "factorize",
    "is_prime",
    "euler_phi",
    "FACTOR_INPUT_LIMIT",
]

#: Inputs at or above this bound are rejected rather than factored.
FACTOR_INPUT_LIMIT = 1 << 400


@functools.cache
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("phi is defined for n >= 1")
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


@functools.cache
def cyclotomic_value(n: int, q: int) -> int:
    """phi_n(q) for q >= 2: q^n - 1 divided exactly by phi_d(q) over the
    proper divisors d of n."""
    if n < 1 or q < 2:
        raise ValueError(f"phi_{n}({q}) needs n >= 1 and q >= 2")
    return (q**n - 1) // math.prod(cyclotomic_value(d, q) for d in range(1, n) if n % d == 0)


# Packed layout of a CycloProduct: slot d (bits _WIDTH*d and up) holds the
# phi_d exponent and slot 0 holds the degree sum(e * phi(d)).  The top bit of
# every slot is a guard that stays clear: every exponent is at most the
# degree, so bounding the degree by _SLOT_MAX bounds every slot, and sums of
# two such values never carry into the next slot.
_WIDTH = 16
_SLOT_MAX = (1 << (_WIDTH - 1)) - 1
_SLOT_MASK = (1 << _WIDTH) - 1
_GUARD = 1 << (_WIDTH - 1)


@functools.lru_cache(maxsize=64)
def _guards(slots: int) -> int:
    """The guard bits of slots 0 .. slots - 1."""
    return ((1 << (_WIDTH * slots)) - 1) // _SLOT_MASK * _GUARD


class CycloProduct(int):
    """A product of cyclotomic polynomials: an int in a packed layout.

    Slot d holds the phi_d exponent and slot 0 the degree, so multiplying two
    products adds the integers, and products hash and compare as ints.  Only
    this module does integer arithmetic on products; elsewhere they are
    built by ``from_mapping`` and combined by ``*``, ``exact_div``,
    ``pairwise_products`` and ``sumset``.  A product's truth value is
    meaningless: ``one()`` is 0.
    """

    __slots__ = ()

    @staticmethod
    def from_mapping(m: Mapping[int, int]) -> "CycloProduct":
        packed = degree = 0
        for d, t in m.items():
            d, t = int(d), int(t)
            if not t:
                continue
            if d < 1 or t < 1:
                raise ValueError(f"bad cyclotomic factor phi_{d}^{t}")
            big = d > 2 * _SLOT_MAX**2  # then phi(d) >= sqrt(d / 2) > _SLOT_MAX
            degree += 0 if big else t * euler_phi(d)
            if big or degree > _SLOT_MAX:
                raise ValueError(f"degree of the product exceeds {_SLOT_MAX}")
            packed += t << (_WIDTH * d)
        return CycloProduct(packed + degree)

    @staticmethod
    def one() -> "CycloProduct":
        return CycloProduct(0)

    @property
    def exps(self) -> Tuple[Tuple[int, int], ...]:
        """The (index, multiplicity) pairs, sorted by index."""
        out = []
        rest, d = self >> _WIDTH, 1
        while rest:
            t = rest & _SLOT_MASK
            if t:
                out.append((d, t))
            rest >>= _WIDTH
            d += 1
        return tuple(out)

    def as_dict(self) -> Dict[int, int]:
        return dict(self.exps)

    def exponent(self, d: int) -> int:
        return (self >> (_WIDTH * d)) & _SLOT_MASK if d > 0 else 0

    def indices(self) -> Tuple[int, ...]:
        return tuple(d for d, _ in self.exps)

    @property
    def degree(self) -> int:
        return self & _SLOT_MASK

    def __repr__(self) -> str:
        return f"CycloProduct({self})"

    def __mul__(self, other: "CycloProduct") -> "CycloProduct":
        # Raising rather than returning NotImplemented keeps p * 2 and 2 * p
        # from falling through to integer multiplication.
        if not isinstance(other, CycloProduct):
            raise TypeError(f"cannot multiply a cyclotomic product by {type(other).__name__}")
        packed = int(self) + other
        if packed & _GUARD:
            raise ValueError(f"degree of the product exceeds {_SLOT_MAX}")
        return CycloProduct(packed)

    __rmul__ = __mul__

    def exact_div(self, other: "CycloProduct") -> "CycloProduct":
        # With every guard bit set on the left, a slot whose exponent would go
        # negative borrows its own guard instead of the next slot's exponent.
        guards = _guards(max(self, other).bit_length() // _WIDTH + 1)
        diff = (self | guards) - other
        if diff & guards != guards:
            raise ValueError(f"{other} does not divide {self}")
        return CycloProduct(diff ^ guards)

    def __str__(self) -> str:
        return "*".join(
            f"phi{d}" if t == 1 else f"phi{d}^{t}" for d, t in self.exps
        ) or "1"


def _check_product_degree(left: Iterable[int], right: Iterable[int]) -> None:
    """No pair's degree exceeds the largest degrees' sum, so checking that sum
    keeps every slot of every packed sum below its guard."""
    # the largest degree (slot 0) on each side, summed
    degree = sum(max(map(_SLOT_MASK.__and__, m), default=0) for m in (left, right))
    if degree > _SLOT_MAX:
        raise ValueError(f"degree of the product exceeds {_SLOT_MAX}")


def pairwise_products(
    left: Mapping[CycloProduct, int], right: Mapping[CycloProduct, int]
) -> Dict[CycloProduct, int]:
    """Every product p * q over p in left and q in right, with count
    left[p] * right[q] summed over the pairs that give one product.

    The packed integers are added and each distinct sum is wrapped once.
    """
    _check_product_degree(left, right)
    counts: Dict[int, int] = {}
    get = counts.get
    rights = list(right.items())
    for p, c1 in left.items():
        for q, c2 in rights:
            key = p + q
            counts[key] = get(key, 0) + c1 * c2
    return dict(zip(map(CycloProduct, counts), counts.values()))


def sumset(
    left: Collection[CycloProduct], right: Collection[CycloProduct]
) -> FrozenSet[CycloProduct]:
    """Every product p * q over p in left and q in right, once: the support
    of ``pairwise_products``, with no counts to keep."""
    _check_product_degree(left, right)
    return frozenset(map(CycloProduct, {p + q for p in left for q in right}))


def max_exponents(products: Iterable[CycloProduct]) -> Dict[int, int]:
    """Largest exponent of each phi_d over the products, for every d present.

    All slots are compared at once: with every guard bit set on the running
    maximum, subtracting a product leaves a slot's guard set exactly where
    the maximum's exponent is at least the product's.
    """
    packed = list(products)
    guards = _guards(max(packed, default=0).bit_length() // _WIDTH + 1)
    top = 0
    for k in packed:
        keep = ((top | guards) - k) & guards
        keep -= keep >> (_WIDTH - 1)  # all bits of the slots where top is larger
        top = k ^ ((top ^ k) & keep)
    return CycloProduct(top).as_dict()


def factor_power_minus_one(d: int) -> CycloProduct:
    """x^d - 1 as a cyclotomic product: one phi_e for each divisor e of d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return CycloProduct.from_mapping({e: 1 for e in range(1, d + 1) if d % e == 0})


def _valuation(m: int, p: int) -> int:
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def ord_p_power_diff(p: int, a: int, b: int, n: int) -> int:
    """Valuation of p in a^n - b^n, by the cyclotomic-form valuation rules.

    Requires gcd(a, b) = 1 and |a| >= |b| + 1 >= 2.  Rejects p | a or p | b,
    where the value would trivially be 0 under the coprimality hypothesis.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if math.gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    if not (abs(a) >= abs(b) + 1 >= 2):
        raise ValueError("need |a| >= |b| + 1 >= 2")
    if a % p == 0 or b % p == 0:
        raise ValueError(f"{p} divides a or b; a^n - b^n is then prime to {p}")

    if p == 2:
        # a, b both odd; exactly one of a-b, a+b is 0 mod 4.  Sum the
        # contributions of the homogeneous cyclotomic forms at indices 2^i | n.
        v2n = _valuation(n, 2)
        total = _valuation(a - b, 2)  # index-1 form, always a - b
        if (a - b) % 4 == 0:
            total += v2n  # each form at 2^i, 1 <= i <= v, contributes 1
        else:
            if v2n >= 1:
                total += _valuation(a + b, 2)  # index-2 form is a + b
                total += v2n - 1  # forms at 2^i, i >= 2
        return total

    # odd p: f = multiplicative order of a/b mod p
    ab = a * pow(b, -1, p) % p
    f = 1
    acc = ab
    while acc != 1:
        acc = acc * ab % p
        f += 1
    if n % f:
        return 0
    return _valuation(a**f - b**f, p) + _valuation(n, p)


# --- integer factorization -------------------------------------------------

# The 13 smallest primes: trial divisors, and the Miller-Rabin bases that are
# deterministic below this bound.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981


def _miller_rabin(n: int, base: int) -> bool:
    if base % n == 0:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality with a deterministic certificate at desk scale.

    Below the proven Miller-Rabin bound the fixed 13-base test is exact;
    above it a Pocklington certificate is built from the factorization of
    n - 1, so n must be below 2^400 (``FACTOR_INPUT_LIMIT``).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _MR_DETERMINISTIC_BOUND:
        return all(_miller_rabin(n, b) for b in _SMALL_PRIMES)
    if not all(_miller_rabin(n, b) for b in _SMALL_PRIMES):
        return False
    return _pocklington(n)


def _pocklington(n: int) -> bool:
    """Certify primality of n by Pocklington's criterion on n - 1, factored whole."""
    for p in factorize(n - 1):
        for a in range(2, 1000):
            if pow(a, n - 1, n) != 1:
                return False
            if math.gcd(pow(a, (n - 1) // p, n) - 1, n) == 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant)."""
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(m: int) -> Dict[int, int]:
    """Full prime factorization of m >= 1 as {prime: exponent}.

    Trial division by the 13 smallest primes, then rho splitting with
    certified primality.
    Inputs at or beyond 2^400 are rejected (desk-scale guarantee).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m >= FACTOR_INPUT_LIMIT:
        raise FactorizationLimitError(f"input exceeds 2^400: {m.bit_length()} bits")
    out: Dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        d = _brent_rho(v)
        stack.append(d)
        stack.append(v // d)
    return dict(sorted(out.items()))

