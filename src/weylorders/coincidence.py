"""The abelian group of order-coincidence pairs.

A pair of disjoint semisimple types with equal degree multisets has equal
rational-point counts over every finite field.  Componentwise product
followed by cancellation of common factors is an abelian group law with
inversion by swapping sides.  The group is generated by two infinite
families indexed by the B- and D-series together with five exceptional
pairs; decomposition into generators proceeds by repeatedly cancelling the
factors of highest fundamental degree.  Each peeling word comes straight from
the generator families: at its top degree h, every generator has B_{h/2}
alone against one other simple type, so no search over words is needed.
"""

from __future__ import annotations

import functools
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Dict, List, Tuple

from .errors import NoPeelingElement, NotCoincident, TypeParseError
from .orders import order_value, same_order_all_extensions
from .rootsystem import (
    EXCEPTIONAL,
    SemisimpleType,
    SimpleType,
    coxeter_number,
    degrees,
    parse_type,
    render,
    simple_types,
)

__all__ = [
    "CoincidencePair",
    "GeneratorWord",
    "reduce",
    "compose",
    "inverse",
    "identity_pair",
    "is_coincidence",
    "enumerate_two_factor_pairs",
    "expected_two_factor_pairs",
    "generator",
    "evaluate_word",
    "decompose",
    "verify_group_axioms",
    "GroupAxiomReport",
]

GeneratorWord = Tuple[Tuple[str, int], ...]  # (generator id, sign)


@dataclass(frozen=True)
class CoincidencePair:
    """A reduced ordered pair of disjoint types with equal degree multisets."""

    left: SemisimpleType
    right: SemisimpleType

    def swapped(self) -> "CoincidencePair":
        return CoincidencePair(self.right, self.left)

    def __str__(self) -> str:
        return f"({render(self.left)}, {render(self.right)})"


def identity_pair() -> CoincidencePair:
    empty = SemisimpleType(())
    return CoincidencePair(empty, empty)


def reduce(h1: SemisimpleType, h2: SemisimpleType) -> CoincidencePair:
    """Cancel common simple factors with multiplicity; requires equal degrees."""
    if degrees(h1) != degrees(h2):
        raise NotCoincident(
            f"degree multisets differ: {render(h1)} vs {render(h2)}"
        )
    c1, c2 = h1.counter(), h2.counter()
    common = c1 & c2
    left = SemisimpleType(tuple(sorted((c1 - common).elements())))
    right = SemisimpleType(tuple(sorted((c2 - common).elements())))
    return CoincidencePair(left, right)


def compose(p1: CoincidencePair, p2: CoincidencePair) -> CoincidencePair:
    return reduce(p1.left * p2.left, p1.right * p2.right)


def inverse(p: CoincidencePair) -> CoincidencePair:
    return p.swapped()


def is_coincidence(h1: SemisimpleType, h2: SemisimpleType, q: int) -> bool:
    """Order equality at q; must agree with the symbolic degree test."""
    numeric = order_value(h1, q) == order_value(h2, q)
    symbolic = same_order_all_extensions(h1, h2)
    if numeric != symbolic:
        raise AssertionError(
            "numeric and symbolic order tests disagree; this is a bug"
        )
    return numeric


# --- exhaustive two-factor enumeration ----------------------------------------


def _oriented(p: CoincidencePair) -> CoincidencePair:
    """Deterministic orientation for set comparisons."""
    if (render(p.left), render(p.right)) <= (render(p.right), render(p.left)):
        return p
    return p.swapped()


def enumerate_two_factor_pairs(rank_bound: int) -> List[CoincidencePair]:
    """All coincidence pairs with exactly two simple factors on each side,
    no common factor, and per-side total rank <= rank_bound."""
    if rank_bound < 2:
        raise ValueError("rank bound must be >= 2")
    simples = sorted(simple_types(rank_bound - 1), key=lambda t: t.rank)
    ranks = [t.rank for t in simples]
    # each degree multiset packed 3 bits per degree: a simple type repeats a
    # degree at most twice, so a pair's key is the sum of its two, with no carry
    keys = [sum(1 << 3 * d for d in degrees(t)) for t in simples]
    buckets: Dict[int, List[Tuple[SimpleType, SimpleType]]] = {}
    for i, a in enumerate(simples):
        stop = bisect_right(ranks, rank_bound - a.rank)  # partners of a within the budget
        for key, b in zip(map(keys[i].__add__, keys[i:stop]), simples[i:stop]):
            buckets.setdefault(key, []).append((a, b))
    found = [
        _oriented(CoincidencePair(SemisimpleType.of(*x), SemisimpleType.of(*y)))
        for sides in buckets.values()
        for x, y in combinations(sides, 2)
        if not set(x) & set(y)
    ]
    found.sort(key=lambda p: (p.left.rank, render(p.left), render(p.right)))
    return found


def expected_two_factor_pairs(rank_bound: int) -> List[CoincidencePair]:
    """The eight exhaustive families of two-factor pairs, instantiated to the
    given per-side rank bound."""
    ns = range(2, rank_bound + 1)
    sides = [family(n) for first, family in _FAMILIES.values() for n in ns if n >= first]
    sides += [(f"B{n - 1}xD{2 * n}", f"B{2 * n - 1}xB{n}") for n in ns]
    sides += [("A1xA5", "A4xG2"), ("A1xB3", "B2xG2"), ("A1xD6", "B5xG2"),
              ("A2xB3", "A3xG2"), ("B3xB3", "D4xG2")]
    pairs: Dict[str, CoincidencePair] = {}
    for left, right in sides:
        l, r = parse_type(left), parse_type(right)
        if l.rank <= rank_bound:
            p = _oriented(reduce(l, r))
            pairs[str(p)] = p
    return sorted(pairs.values(), key=lambda p: (p.left.rank, render(p.left), render(p.right)))


# --- the seven generators -----------------------------------------------------

# The two infinite families: the first rank of each and its two sides at rank n.
_FAMILIES = {
    "B": (2, lambda n: (f"A{2 * n - 2}xB{n}", f"A{2 * n - 1}xB{n - 1}")),  # B1 is A1
    "D": (4, lambda n: (f"A{n - 2}xD{n}", f"A{n - 1}xB{n - 1}")),
}

_EXCEPTIONAL_GENERATORS = {
    "G2": ("A2xB3", "A3xG2"),
    "F4": ("A1xB4xB6", "B2xB5xF4"),
    "E6": ("A4xG2xA8xB6", "A3xA6xB5xE6"),
    "E7": ("A1xB7xB9", "B2xB8xE7"),
    "E8": ("A1xB4xB7xB10xB12xB15", "B3xB5xB8xB11xB14xE8"),
}


@functools.lru_cache(maxsize=None)
def generator(gid: str) -> CoincidencePair:
    """One generator by id: B<n> (n>=2), D<n> (n>=4), G2, F4, E6, E7 or E8."""
    if gid in _EXCEPTIONAL_GENERATORS:
        left, right = _EXCEPTIONAL_GENERATORS[gid]
    else:
        kind, digits = gid[:1], gid[1:]
        # isdigit alone also passes non-ASCII digits, Arabic-Indic or superscript
        if kind not in _FAMILIES or not (digits.isascii() and digits.isdigit()):
            raise TypeParseError(f"unknown generator id {gid!r}")
        n = int(digits)
        first, family = _FAMILIES[kind]
        if n < first:
            raise TypeParseError(f"{kind}-family generators start at rank {first}")
        left, right = family(n)
    return reduce(parse_type(left), parse_type(right))


def evaluate_word(word: GeneratorWord) -> CoincidencePair:
    """The product of the letters.  Every letter is a reduced pair with equal
    degrees, and cancelling common factors commutes with taking the union,
    so the sides of all letters are summed and reduced once."""
    left, right = Counter(), Counter()
    _add_sides(left, right, word)
    return reduce(*(SemisimpleType(tuple(c.elements())) for c in (left, right)))


def _add_sides(left: Counter, right: Counter, word: GeneratorWord) -> None:
    """Add each letter's two sides, unreduced, to the left and right multisets."""
    for gid, sign in word:
        g = generator(gid)
        left.update((g.left if sign > 0 else g.right).factors)
        right.update((g.right if sign > 0 else g.left).factors)


# --- decomposition into generators ---------------------------------------------


def _peeling_word(u: SimpleType, v: SimpleType) -> GeneratorWord:
    """The word whose value has u alone on the left and v alone on the right
    among the factors of their shared Coxeter number h.

    At its top degree h, each generator has B_{h/2} alone against one other
    type: A_{h-1} in B_{h/2}'s generator, every other type in its own.  So u
    and v each take that generator, turned to put them on their own side, and
    the two copies of B_{h/2} cancel; B_{h/2} itself takes no letter.  Letters
    come in the order B, D, then the exceptional generators.
    """
    h = coxeter_number(u)
    letters = []
    for t, sign in ((u, 1), (v, -1)):
        if t.letter == "B":
            continue
        gid = f"B{h // 2}" if t.letter == "A" else str(t)
        letters.append((gid, sign if t in generator(gid).left.factors else -sign))
    order = [f"B{h // 2}", f"D{h // 2 + 1}"] + [str(t) for t in EXCEPTIONAL]
    return tuple(sorted(letters, key=lambda letter: order.index(letter[0])))


def decompose(p: CoincidencePair) -> GeneratorWord:
    """Express a coincidence pair as a word in the seven generator families.

    Repeatedly cancels one factor of the current highest fundamental degree
    from each side with the peeling word read off the generator families.
    The sides are kept as multisets: each peel adds its letters' sides to
    them and cancels once, which is reducing by the peel's value (see
    evaluate_word).  Evaluation of the returned word reproduces the input
    exactly.
    """
    word: List[Tuple[str, int]] = []
    left, right = p.left.counter(), p.right.counter()
    while left or right:
        cox = {f: coxeter_number(f) for f in (*left, *right)}
        h = max(cox.values())
        lefts = [f for f in left if cox[f] == h]
        rights = [f for f in right if cox[f] == h]
        # only p can fail these: every later state is reduced with equal degrees
        if not lefts or not rights:
            raise NoPeelingElement(
                f"top degree {h} appears on one side only of {p}; "
                "not a coincidence pair"
            )
        if set(lefts) & set(rights):
            raise NoPeelingElement(
                f"a factor of top degree {h} is on both sides of {p}; "
                "not a reduced pair"
            )
        if not word and degrees(p.left) != degrees(p.right):  # later steps keep them equal
            raise NotCoincident(f"degree multisets differ: {p}")
        peel = _peeling_word(min(lefts), min(rights))
        _add_sides(right, left, peel)  # composed inverted: its sides add crosswise
        left, right = left - right, right - left
        word.extend(peel)
    if evaluate_word(tuple(word)) != p:
        raise AssertionError("decomposition failed to reproduce its input")
    return tuple(word)


# --- group-law verification -----------------------------------------------------


@dataclass
class GroupAxiomReport:
    samples: int
    rank_bound: int
    checks: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> Dict:
        return {**asdict(self), "ok": self.ok}


def _random_pair(rng: random.Random, rank_bound: int) -> CoincidencePair:
    ids = [f"B{n}" for n in range(2, max(3, rank_bound // 3))]
    ids += [f"D{n}" for n in range(4, max(5, rank_bound // 2))]
    ids += list(_EXCEPTIONAL_GENERATORS)
    word = tuple(
        (rng.choice(ids), rng.choice((1, -1))) for _ in range(rng.randint(0, 4))
    )
    return evaluate_word(word)


def verify_group_axioms(samples: int, rank_bound: int, seed: int = 0) -> GroupAxiomReport:
    rng = random.Random(seed)
    report = GroupAxiomReport(samples, rank_bound)
    e = identity_pair()
    for _ in range(samples):
        p = _random_pair(rng, rank_bound)
        q = _random_pair(rng, rank_bound)
        r = _random_pair(rng, rank_bound)
        cases = (
            ("identity", compose(p, e) == p),
            ("inverse", compose(p, inverse(p)) == e),
            ("double inverse", inverse(inverse(p)) == p),
            ("commutativity", compose(p, q) == compose(q, p)),
            ("associativity", compose(compose(p, q), r) == compose(p, compose(q, r))),
        )
        for name, holds in cases:
            report.checks += 1
            if not holds:
                report.violations.append(f"{name} fails at {p}, {q}, {r}")
    return report
