"""Recovering a split semisimple type from its Weyl characteristic polynomials.

The degrees are read once, off the maximal cyclotomic exponents.  Each peel
isolates the Coxeter polynomial of the block of maximal Coxeter number h as
the unique entry with maximal fixed space among those with the full phi_h^b;
its eigenvalue exponents give the block degrees, which the block takes off
the multiset, and the residual set is the exact quotient: the set of the rest
of the group (Springer 1974), whose degrees are the ones left.

Only h = 6 has blocks whose degrees fit several factor multisets; there the
peel reads off the set how many block factors have a Coxeter entry without
phi_2, which tells the covers apart (argued in verify_determination).
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .cyclotomic import CycloProduct, max_exponents
from .errors import NotAWeylFamily, WeylOrdersError
from .rootsystem import (
    SemisimpleType,
    SimpleType,
    all_semisimple_types,
    coxeter_number,
    degrees,
    render,
    simple_types,
    types_with_degrees,
)
from .weylchar import poly_set, profile_parts, simple_table

__all__ = [
    "CharPolyFamily",
    "degrees_from_family",
    "peel_max_coxeter",
    "reconstruct",
    "verify_determination",
    "DeterminationReport",
]


@dataclass(frozen=True)
class CharPolyFamily:
    """The set of characteristic polynomials of a Weyl group, without counts."""

    polys: FrozenSet[CycloProduct]
    rank: int

    def __post_init__(self):
        ident = CycloProduct.from_mapping({1: self.rank})
        if ident not in self.polys:
            raise NotAWeylFamily("identity polynomial missing from the family")
        for p in self.polys:
            if p.degree != self.rank:
                raise NotAWeylFamily(
                    f"entry {p} has degree {p.degree}, family rank is {self.rank}"
                )


def degrees_from_family(fam: CharPolyFamily) -> Tuple[int, ...]:
    """Recover the degree multiset from maximal eigenvalue multiplicities.

    The maximal phi_v-exponent counts the degrees divisible by v, so the
    multiset follows by downward induction from the largest index present.
    """
    if fam.rank == 0:
        return ()
    a = max_exponents(fam.polys)
    top = max(a)
    mults: Counter = Counter()
    for v in range(top, 1, -1):
        m = a.get(v, 0) - sum(mults[u] for u in range(2 * v, top + 1, v))
        if m < 0:
            raise NotAWeylFamily(f"negative multiplicity for degree {v}")
        mults[v] = m
    out = tuple(sorted(mults.elements()))
    if len(out) != fam.rank:
        raise NotAWeylFamily(
            f"recovered {len(out)} degrees for a rank-{fam.rank} family"
        )
    return out


@functools.cache
def _block_facts(f: CycloProduct, h: int) -> Tuple[Tuple[int, ...], Tuple[Tuple, ...]]:
    """The degrees of the block with Coxeter polynomial f and Coxeter number
    h, and the factor multisets that have them; cached, as a sweep meets few
    blocks (an exception is not cached: bad input raises on every call)."""
    # phi_d^t adds t * phi(d) degrees, so the block has rank deg f
    found: List[int] = []
    for d, t in f.exps:
        if d < 2 or h % d:
            raise NotAWeylFamily(f"Coxeter polynomial has unexpected factor phi_{d}")
        for e in range(1, h):
            if math.gcd(e, h) == h // d:
                found.extend([e + 1] * t)
    block_degrees = tuple(sorted(found))
    # only phi_h gives the exponents 1 and h - 1, so the block has as many
    # degrees 2 as degrees h: a type with these degrees has one factor per
    # degree h, each of Coxeter number h
    covers = tuple(u.factors for u in types_with_degrees(block_degrees))
    if not covers:
        raise NotAWeylFamily(f"no factor multiset matches block degrees {block_degrees}")
    return block_degrees, covers


def _coxeter_entry(f: SimpleType) -> CycloProduct:
    """f's Coxeter polynomial: by the gate, its table's one entry with phi_h."""
    h = coxeter_number(f)
    return next(p for p in simple_table(f).entries if p.exponent(h))


def _cover(covers: Tuple[Tuple[SimpleType, ...], ...], g: int) -> Tuple[SimpleType, ...]:
    """The one cover with g factors whose Coxeter entries have no phi_2."""
    kept = [c for c in covers if sum(not _coxeter_entry(f).exponent(2) for f in c) == g]
    if len(kept) != 1:
        names = ", ".join(render(SemisimpleType(c)) for c in covers)
        raise NotAWeylFamily(
            f"{len(kept)} of the covers {names} have {g} Coxeter entries without phi_2")
    return kept[0]


def peel_max_coxeter(
    polys: FrozenSet[CycloProduct], degs: Tuple[int, ...]
) -> Tuple[Tuple[SimpleType, ...], FrozenSet[CycloProduct], Tuple[int, ...]]:
    """Split off the factors of maximal Coxeter number h = degs[-1]; returns
    them, the residual set and the degrees left.

    When the block degrees fit several factor multisets (only at h = 6, for
    blocks of at most four factors with h <= 60), the block is the cover with g
    factors whose Coxeter entry lacks phi_2, g the largest phi_h exponent over
    the entries with no phi_2: only G2's entry lacks it, and covers differ by
    swaps of B3xB3 for D4xG2, so no two share g.
    """
    if not degs:
        raise NotAWeylFamily("cannot peel a rank-0 family")
    h = degs[-1]
    b = degs.count(h)
    f_h = [p for p in polys if p.exponent(h) == b]
    if not f_h:
        raise NotAWeylFamily(f"no entry has phi_{h}^{b}")

    residual_dim = max(p.exponent(1) for p in f_h)
    starred = [p for p in f_h if p.exponent(1) == residual_dim]
    if len(starred) != 1:
        raise NotAWeylFamily("top Coxeter entry is not unique")
    f = starred[0].exact_div(CycloProduct.from_mapping({1: residual_dim}))

    block_degrees, covers = _block_facts(f, h)
    rest = Counter(degs)
    rest.subtract(block_degrees)
    if min(rest.values()) < 0:
        raise NotAWeylFamily(f"block degrees {block_degrees} are not among {degs}")

    try:
        residual = frozenset(p.exact_div(f) for p in f_h)
    except ValueError as exc:
        raise NotAWeylFamily(f"family is not divisible by its Coxeter entry: {exc}")

    if len(covers) > 1:
        g = max((p.exponent(h) for p in polys if not p.exponent(2)), default=0)
        covers = [_cover(covers, g)]
    return covers[0], residual, tuple(sorted(rest.elements()))


def reconstruct(fam: CharPolyFamily) -> SemisimpleType:
    """The canonical type whose polynomial set is fam, found by peeling.

    The result certifies itself: its own polynomial set must reproduce the
    input exactly, so inconsistent input families fail instead of mapping to
    a wrong type.
    """
    polys, degs, factors = fam.polys, degrees_from_family(fam), []
    while degs:
        block, polys, degs = peel_max_coxeter(polys, degs)
        factors.extend(block)
    t = SemisimpleType.of(*factors)
    if poly_set(t) != fam.polys:
        raise NotAWeylFamily(f"family is not the polynomial set of {render(t)} "
                             "or of any other catalogued type")
    return t


@dataclass
class DeterminationReport:
    rank_bound: int
    alphabet: str
    types_checked: int = 0
    chset_collisions: List[Tuple[str, str]] = field(default_factory=list)
    roundtrip_failures: List[str] = field(default_factory=list)
    profile_collisions: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.chset_collisions or self.roundtrip_failures or self.profile_collisions
        )

    def to_json(self) -> Dict:
        return {**asdict(self), "ok": self.ok}


def verify_determination(
    rank_bound: int, alphabet: Iterable[str] = "ABDGFE"
) -> DeterminationReport:
    """Exhaustively verify that distinct types have distinct polynomial sets,
    that reconstruction round-trips, and that invariant profiles separate types.

    Round trips go by induction on Coxeter blocks.  Every simple table passed
    weylchar.seed_table: (L1) one entry alone has phi_h, h the Coxeter number,
    and it is the Coxeter polynomial, with no phi_1; (L2) the largest phi_v
    exponent is mu_v.  Let t's factors of largest Coxeter number h form the
    block B, b = |B|, and the others the rest.  By L2 no factor of the rest
    has phi_h and each in B has mu_h = 1, so the entries of set(t) with
    phi_h^b are cox(B) * set(rest), cox(B) the product of the factors'
    Coxeter entries.  By L1 cox(B) has no phi_1, so the starred entry is
    cox(B) * phi_1^(rank rest), unique as only the identity of the rest has
    phi_1^(rank rest); the residual is set(rest), with degrees(rest) left.
    So the peel at level h sees the set and the degrees of u_h, the factors of
    Coxeter number <= h, and _block_facts(cox(B_h), h) lists B_h.  Where it
    lists several covers (only h = 6), the peel keeps those with g Coxeter
    entries without phi_2, g the largest phi_h exponent over set(u_h)'s entries
    with no phi_2.  Such an entry has one part per factor, none with phi_2; by
    L2 only B_h's factors have phi_h, by L1 in the Coxeter entry alone, and the
    Coxeter class at each counted factor with the identity elsewhere reaches
    B_h's count.  A choice that raises reports "t: message"; one that returns
    another cover c reports "t -> t'" and the collision (t', t), t' being t
    with c in place of B_h.  Levels are walked from the top down to the first
    failure, as the peel goes; no set is built.
    Profiles are compared by profile_parts, once a second type of the same
    degrees comes, and filed under the degrees and a hash, so memory grows
    with the number of types; types filed under one hash are compared exactly.
    """
    alphabet = "".join(sorted(set(alphabet)))
    report = DeterminationReport(rank_bound, alphabet)
    coxeter = {f: (coxeter_number(f), _coxeter_entry(f)) for f in simple_types(rank_bound, alphabet)}
    first: Dict[Tuple[int, ...], Optional[SemisimpleType]] = {}
    filed: Dict[Tuple, List[SemisimpleType]] = {}
    for t in all_semisimple_types(rank_bound, alphabet):
        report.types_checked += 1
        try:
            for h in sorted({coxeter[f][0] for f in t.factors}, reverse=True):
                block = tuple(f for f in t.factors if coxeter[f][0] == h)
                cox = math.prod((coxeter[f][1] for f in block), start=CycloProduct.one())
                covers = _block_facts(cox, h)[1]  # one cover is the block itself
                cover = covers[0] if len(covers) == 1 else _cover(
                    covers, sum(not coxeter[f][1].exponent(2) for f in block))
                if cover != block:
                    other = SemisimpleType.of(*(f for f in t.factors if coxeter[f][0] != h), *cover)
                    report.chset_collisions.append((render(other), render(t)))
                    report.roundtrip_failures.append(f"{render(t)} -> {render(other)}")
                    break
        except WeylOrdersError as exc:
            report.roundtrip_failures.append(f"{render(t)}: {exc}")

        degs = degrees(t)
        lone = first.setdefault(degs, t)  # a type alone in its degrees needs no key
        if lone is not t:
            first[degs] = None
            for u in (t,) if lone is None else (lone, t):
                key = profile_parts(u)
                bucket = filed.setdefault((degs, hash(key)), [])
                other = next((v for v in bucket if profile_parts(v) == key), None)
                if other is None:
                    bucket.append(u)
                else:
                    report.profile_collisions.append((render(other), render(u)))
    return report
