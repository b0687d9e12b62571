"""Static data for the nine families of split simple types.

Ranks, fundamental degrees, root counts, Weyl orders, Cartan pairings,
integer reflection generators on the root-lattice basis, and parsing of
semisimple type expressions like ``A2xB3``.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

from .errors import TypeParseError

__all__ = [
    "SimpleType",
    "SemisimpleType",
    "degrees",
    "coxeter_number",
    "positive_root_count",
    "weyl_order",
    "cartan_pairing",
    "table_parabolic",
    "reflection_generators",
    "parse_type",
    "render",
    "EXCEPTIONAL",
    "simple_types",
    "coxeter_catalogue",
    "types_with_degrees",
    "all_semisimple_types",
]

_RANK_RULES = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 3,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


@dataclass(frozen=True, order=True)
class SimpleType:
    """A classification label: letter and rank."""

    letter: str
    rank: int

    def __post_init__(self):
        rule = _RANK_RULES.get(self.letter)
        if rule is None or not rule(self.rank):
            raise TypeParseError(f"invalid simple type {self.letter}{self.rank}")

    def canonical(self) -> "SimpleType":
        """B/C identification: C_n is stored as B_n."""
        if self.letter == "C":
            return SimpleType("B", self.rank)
        return self

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"


# The exceptional simple types, whose tables are enumerated (weylchar): their
# fundamental degrees and the node of table_parabolic.
_EXCEPTIONAL_ROWS = {
    SimpleType("G", 2): ((2, 6), 0),
    SimpleType("F", 4): ((2, 6, 8, 12), 3),
    SimpleType("E", 6): ((2, 5, 6, 8, 9, 12), 0),
    SimpleType("E", 7): ((2, 6, 8, 10, 12, 14, 18), 5),
    SimpleType("E", 8): ((2, 8, 12, 14, 18, 20, 24, 30), 1),
}
EXCEPTIONAL = tuple(_EXCEPTIONAL_ROWS)


def _simple_degrees(t: SimpleType) -> Tuple[int, ...]:
    n = t.rank
    if t.letter == "A":
        return tuple(range(2, n + 2))
    if t.letter in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if t.letter == "D":
        return tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
    return _EXCEPTIONAL_ROWS[t][0]


@dataclass(frozen=True)
class SemisimpleType:
    """A multiset of simple factors in canonical sorted order (C mapped to B).

    The empty type is allowed; it is the identity for products and has
    trivial degree data.
    """

    factors: Tuple[SimpleType, ...]

    @staticmethod
    def of(*factors: SimpleType) -> "SemisimpleType":
        return SemisimpleType(factors)

    def __post_init__(self):
        canon = tuple(sorted(f.canonical() for f in self.factors))
        if canon != self.factors:
            object.__setattr__(self, "factors", canon)

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    def counter(self) -> Counter:
        return Counter(self.factors)

    def __mul__(self, other: "SemisimpleType") -> "SemisimpleType":
        return SemisimpleType(self.factors + other.factors)

    def __str__(self) -> str:
        return render(self)


def degrees(t) -> Tuple[int, ...]:
    """Fundamental degrees as a sorted multiset (tuple)."""
    if isinstance(t, SimpleType):
        return _simple_degrees(t)
    out: List[int] = []
    for f in t.factors:
        out.extend(_simple_degrees(f))
    return tuple(sorted(out))


def coxeter_number(t: SimpleType) -> int:
    """Largest fundamental degree of a simple type."""
    n = t.rank
    classical = {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2}
    return classical[t.letter] if t.letter in classical else _EXCEPTIONAL_ROWS[t][0][-1]


def positive_root_count(t) -> int:
    return sum(d - 1 for d in degrees(t))


def weyl_order(t) -> int:
    return math.prod(degrees(t))


# --- Cartan pairings and reflection generators ------------------------------


def cartan_pairing(t: SimpleType) -> List[List[int]]:
    """Matrix a[i][j] = <alpha_i, alpha_j^v> on the simple roots.

    Bonds follow the usual conventions: for B_n the last simple root is
    short, for C_n long; G_2 and F_4 carry their standard double/triple
    bonds; E types are simply laced with the branch node attached third
    from the tail of the chain.
    """
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        a[i][j] = cij
        a[j][i] = cji

    if t.letter == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif t.letter == "B":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -2, -1)
    elif t.letter == "C":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -1, -2)
    elif t.letter == "D":
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
    elif t.letter == "G":
        bond(0, 1, -1, -3)
    elif t.letter == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    else:  # E6, E7, E8: chain 0-2-3-4-...-(n-1) with node 1 on position 3
        bond(0, 2)
        bond(1, 3)
        for i in range(2, n - 1):
            bond(i, i + 1)
    return a


def table_parabolic(t: SimpleType) -> int:
    """Node k (numbered as in cartan_pairing) of an exceptional type whose
    maximal parabolic subgroup W_{S-k} its characteristic-polynomial table
    is summed over: G2 via A1, F4 via B3, E6 via D5, E7 via D5xA1, E8 via A7.

    H is walked as R.K (weylchar._chain_table), so the cost follows the
    number of x.r batches of |K| elements.  E7 via D5xA1 walks 26 batches of
    |D5| = 1,920, via E6 108 of the same size.  E8 via A7 sums 35 double
    cosets of 40,320 elements each; via D7 it would be 10 of 322,560 and via
    E7 5 of 2,903,040.
    """
    return _EXCEPTIONAL_ROWS[t][1]


def reflection_generators(t: SimpleType) -> List[Tuple[Tuple[int, ...], ...]]:
    """Simple reflections acting on the root-lattice basis, as integer matrices.

    s_i sends alpha_j to alpha_j - <alpha_j, alpha_i^v> alpha_i, so the
    matrix of s_i is the identity except in row i.
    """
    n = t.rank
    a = cartan_pairing(t)
    gens = []
    for i in range(n):
        m = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for j in range(n):
            m[i][j] -= a[j][i]
        gens.append(tuple(tuple(row) for row in m))
    return gens


# --- parsing and rendering ---------------------------------------------------

_FACTOR_RE = re.compile(r"([A-G])([0-9]+)")


def parse_type(s: str) -> SemisimpleType:
    """Parse a type expression, e.g. ``A2xB3`` (case- and space-insensitive).

    Normalizations: B1 -> A1, C2 -> B2, C_n -> B_n for n >= 3.
    """
    compact = re.sub(r"\s+", "", s).upper()
    if not compact:
        raise TypeParseError("empty type expression")
    factors = []
    for token in compact.split("X"):
        m = _FACTOR_RE.fullmatch(token)
        if m is None:
            raise TypeParseError(f"malformed factor {token!r} in {s!r}")
        letter, rank = m.group(1), int(m.group(2))
        if letter == "B" and rank == 1:
            letter = "A"
        if letter == "C" and rank == 2:
            letter = "B"
        factors.append(SimpleType(letter, rank))
    return SemisimpleType.of(*factors)


def render(t: SemisimpleType) -> str:
    """Canonical string form; the empty type renders as '1' (display only)."""
    if not t.factors:
        return "1"
    return "x".join(str(f) for f in t.factors)


def simple_types(rank_bound: int, letters: Iterable[str] = "ABDGFE") -> List[SimpleType]:
    """Canonical simple types of rank <= rank_bound with the given letters, sorted.

    The letter E covers E6, E7 and E8; C selects the B series it is stored as.
    """
    letters = {"B" if c == "C" else c for c in letters} & _RANK_RULES.keys()
    return sorted(
        SimpleType(c, n) for c in letters for n in range(1, rank_bound + 1) if _RANK_RULES[c](n)
    )


@functools.cache
def coxeter_catalogue(h: int) -> Tuple[SimpleType, ...]:
    """The canonical simple types with Coxeter number h, sorted (all have
    rank <= max(h, 8))."""
    return tuple(t for t in simple_types(max(h, 8)) if coxeter_number(t) == h)


def types_with_degrees(degs: Iterable[int]) -> List[SemisimpleType]:
    """Every canonical semisimple type with the degree multiset degs, sorted.

    The largest degree h left is the Coxeter number of a factor, so each
    simple type of Coxeter number h whose degrees fit is tried in turn;
    factors of one Coxeter number are taken in catalogue order, so each
    type is built once.  The empty multiset gives the empty type.
    """
    found: List[SemisimpleType] = []

    def rec(rest: List[int], acc: List[SimpleType]) -> None:
        if not rest:
            found.append(SemisimpleType(tuple(acc)))
            return
        h = rest[-1]
        for t in coxeter_catalogue(h):
            if acc and t < acc[-1] and coxeter_number(acc[-1]) == h:
                continue
            left = list(rest)
            try:
                for d in _simple_degrees(t):
                    left.remove(d)
            except ValueError:  # the degrees of t do not fit
                continue
            rec(left, acc + [t])

    rec(sorted(degs), [])
    return sorted(found, key=lambda t: t.factors)


def all_semisimple_types(
    rank_bound: int, letters: Iterable[str] = "ABDGFE"
) -> Iterator[SemisimpleType]:
    """All nonempty canonical semisimple types of total rank <= rank_bound."""
    simples = simple_types(rank_bound, letters)

    def rec(start: int, budget: int, acc: List[SimpleType]) -> Iterator[SemisimpleType]:
        for idx in range(start, len(simples)):
            f = simples[idx]
            if f.rank > budget:
                continue
            acc.append(f)
            yield SemisimpleType(tuple(acc))
            yield from rec(idx, budget - f.rank, acc)
            acc.pop()

    yield from rec(0, rank_bound, [])
