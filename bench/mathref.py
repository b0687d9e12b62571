"""Reference mathematics the benchmark checks the program's outputs against.

Everything here is written from the classification tables and textbook
formulas and imports nothing from the package under test, so a wrong answer
from the package cannot also be a wrong reference.

A type is a sorted tuple of ``(letter, rank)`` pairs; ``render`` and
``parse`` convert to and from the package's ``A1xB2`` notation.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

EXCEPTIONAL_DEGREES = {
    ("G", 2): (2, 6),
    ("F", 4): (2, 6, 8, 12),
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
}

PRIME_POWERS_TO_16 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


# --- types --------------------------------------------------------------------


def parse(s: str) -> tuple:
    if s == "1":
        return ()
    out = []
    for token in s.split("x"):
        letter, rank = token[0], int(token[1:])
        out.append(("B" if letter == "C" else letter, rank))
    return tuple(sorted(out))


def render(t) -> str:
    return "x".join(f"{letter}{rank}" for letter, rank in sorted(t)) or "1"


def simple_degrees(letter: str, n: int) -> tuple:
    if letter == "A":
        return tuple(range(2, n + 2))
    if letter in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if letter == "D":
        return tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
    return EXCEPTIONAL_DEGREES[(letter, n)]


def degrees(t) -> tuple:
    return tuple(sorted(d for f in t for d in simple_degrees(*f)))


def rank(t) -> int:
    return sum(n for _, n in t)


def group_order(t, q: int) -> int:
    """|G(F_q)| = q^N * prod (q^d - 1) with N = sum (d - 1)."""
    ds = degrees(t)
    return q ** sum(d - 1 for d in ds) * math.prod(q**d - 1 for d in ds)


def simple_types(rank_bound: int, letters: str, include_e8: bool) -> list:
    out = []
    if "A" in letters:
        out += [("A", n) for n in range(1, rank_bound + 1)]
    if "B" in letters:
        out += [("B", n) for n in range(2, rank_bound + 1)]
    if "D" in letters:
        out += [("D", n) for n in range(4, rank_bound + 1)]
    for letter, n in EXCEPTIONAL_DEGREES:
        if letter in letters and n <= rank_bound and (letter, n) != ("E", 8):
            out.append((letter, n))
    if "E" in letters and include_e8 and rank_bound >= 8:
        out.append(("E", 8))
    return sorted(out)


def semisimple_types(rank_bound: int, letters: str, include_e8: bool = False) -> list:
    """Every nonempty multiset of simple types with total rank <= rank_bound."""
    simples = simple_types(rank_bound, letters, include_e8)
    out = []

    def rec(start: int, budget: int, acc: list) -> None:
        for idx in range(start, len(simples)):
            f = simples[idx]
            if f[1] <= budget:
                acc.append(f)
                out.append(tuple(acc))
                rec(idx, budget - f[1], acc)
                acc.pop()

    rec(0, rank_bound, [])
    return out


# --- primes and cyclotomic values -------------------------------------------------


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):  # exact below 3.3e24
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> set:
    """Distinct primes of n by trial division; n stays far below 2^64 here."""
    out = set()
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
            if _is_probable_prime(n):
                break
        p += 1 if p == 2 else 2
    if n > 1:
        out.add(n)
    return out


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def cyclotomic_value(e: int, q: int) -> int:
    """Phi_e(q) from q^e - 1 = prod over k | e of Phi_k(q), by Moebius inversion."""
    num = den = 1
    for k in range(1, e + 1):
        if e % k == 0:
            m = _mobius(e // k)
            if m == 1:
                num *= q**k - 1
            elif m == -1:
                den *= q**k - 1
    return num // den


def order_prime_count(t, q: int, memo: dict) -> int:
    """Number of distinct primes dividing |G(F_q)|, from the Phi_e(q) with e | d."""
    primes = prime_factors(q)
    for d in set(degrees(t)):
        for e in range(1, d + 1):
            if d % e == 0:
                key = (e, q)
                if key not in memo:
                    memo[key] = prime_factors(cyclotomic_value(e, q))
                primes |= memo[key]
    return len(primes)


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


# --- characteristic-polynomial tables -----------------------------------------------


def shephard_todd_holds(entries, ds) -> bool:
    """sum_w x^{dim Fix w} == prod (x + d_i - 1), dim Fix w being the phi_1 exponent.

    ``entries`` is a list of ({index: exponent}, count)."""
    n = len(ds)
    lhs = [0] * (n + 1)
    for exps, count in entries:
        lhs[exps.get(1, 0)] += count
    rhs = [1]
    for d in ds:  # multiply by (x + d - 1)
        nxt = [0] * (len(rhs) + 1)
        for i, c in enumerate(rhs):
            nxt[i] += c * (d - 1)
            nxt[i + 1] += c
        rhs = nxt
    return lhs == rhs


def table_problems(t, doc) -> list:
    """Checks on a JSON table from ``charpolys``; returns what failed."""
    ds = degrees(t)
    entries = [
        ({int(d): int(v) for d, v in e["exps"].items()}, int(e["count"]))
        for e in doc["entries"]
    ]
    problems = []
    if parse(doc["type"]) != t:
        problems.append(f"type {doc['type']} is not {render(t)}")
    if int(doc["group_order"]) != math.prod(ds):
        problems.append("group order is not the product of the degrees")
    if sum(c for _, c in entries) != math.prod(ds):
        problems.append("counts do not sum to the product of the degrees")
    for exps, _ in entries:
        if sum(euler_phi(d) * v for d, v in exps.items()) != len(ds):
            problems.append(f"entry {exps} does not have degree {len(ds)}")
    if not shephard_todd_holds(entries, ds):
        problems.append("Shephard-Todd identity fails")
    return problems


def mu(t, i: int) -> int:
    return sum(1 for d in degrees(t) if d % i == 0)


# --- coincidence pairs ----------------------------------------------------------------

_EXCEPTIONAL_GENERATORS = {
    "G2": ("A2xB3", "A3xG2"),
    "F4": ("A1xB4xB6", "B2xB5xF4"),
    "E6": ("A4xG2xA8xB6", "A3xA6xB5xE6"),
    "E7": ("A1xB7xB9", "B2xB8xE7"),
    "E8": ("A1xB4xB7xB10xB12xB15", "B3xB5xB8xB11xB14xE8"),
}


def _b(n: int) -> tuple:
    return ("A", 1) if n == 1 else ("B", n)


def generator_sides(gid: str) -> tuple:
    """The generator pair (left, right) of the paper, as types."""
    if gid in _EXCEPTIONAL_GENERATORS:
        left, right = _EXCEPTIONAL_GENERATORS[gid]
        return parse(left), parse(right)
    n = int(gid[1:])
    if gid[0] == "B":
        return tuple(sorted([("A", 2 * n - 2), ("B", n)])), tuple(sorted([("A", 2 * n - 1), _b(n - 1)]))
    return tuple(sorted([("A", n - 2), ("D", n)])), tuple(sorted([("A", n - 1), _b(n - 1)]))


def word_value(word) -> Counter:
    """A word's value in the free abelian group on simple types: left minus right."""
    acc = Counter()
    for gid, sign in word:
        left, right = generator_sides(gid)
        acc.update({f: sign for f in left})
        acc.update({f: -sign for f in right})
    return Counter({f: v for f, v in acc.items() if v})


def pair_value(left, right) -> Counter:
    acc = Counter(left)
    acc.subtract(Counter(right))
    return Counter({f: v for f, v in acc.items() if v})


def sides(value: Counter) -> tuple:
    left = tuple(sorted(f for f, v in value.items() for _ in range(max(v, 0))))
    right = tuple(sorted(f for f, v in value.items() for _ in range(max(-v, 0))))
    return left, right


def expected_two_factor_pairs(rank_bound: int) -> set:
    """The eight families of two-factor coincidence pairs, per-side rank <= bound,
    each pair as a frozenset of its two (reduced) sides."""
    raw = []
    n = 2
    while 3 * n - 2 <= rank_bound:
        raw.append(((("A", 2 * n - 2), _b(n)), (("A", 2 * n - 1), _b(n - 1))))
        n += 1
    n = 4
    while 2 * n - 2 <= rank_bound:
        raw.append(((("A", n - 2), ("D", n)), (("A", n - 1), _b(n - 1))))
        n += 1
    n = 2
    while 3 * n - 1 <= rank_bound:
        raw.append(((_b(n - 1), ("D", 2 * n)), (("B", 2 * n - 1), _b(n))))
        n += 1
    for left, right in (("A1xA5", "A4xG2"), ("A1xB3", "B2xG2"), ("A1xD6", "B5xG2"),
                        ("A2xB3", "A3xG2"), ("B3xB3", "D4xG2")):
        raw.append((parse(left), parse(right)))
    out = set()
    for left, right in raw:
        if rank(left) <= rank_bound:
            out.add(frozenset(sides(pair_value(left, right))))
    return out


# --- octonions and the Albert algebra ------------------------------------------------


def field_value(raw, p):
    """Decode a serialized field element: an int mod p, or [num, den] over Q."""
    return raw % p if p else Fraction(raw[0], raw[1])


def norm(coords, p):
    """N(x, y) = det x - det y for the split octonion with 2x2 blocks x, y."""
    a, b, c, d, e, f, g, h = (field_value(v, p) for v in coords)
    out = (a * d - b * c) - (e * h - f * g)
    return out % p if p else out


def albert_q(xs, cs, gamma, p):
    """Q(X) = (x1^2 + x2^2 + x3^2)/2 + g2/g3 N(c1) + g3/g1 N(c2) + g1/g2 N(c3) over F_p."""
    x1, x2, x3 = xs
    g1, g2, g3 = gamma
    return ((x1 * x1 + x2 * x2 + x3 * x3) * pow(2, -1, p)
            + g2 * pow(g3, -1, p) * norm(cs[0], p)
            + g3 * pow(g1, -1, p) * norm(cs[1], p)
            + g1 * pow(g2, -1, p) * norm(cs[2], p)) % p
