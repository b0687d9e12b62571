"""Characteristic polynomials of Weyl group elements and their invariants.

Tables are computed combinatorially for the classical families (cycle types
of permutations and signed permutations) and, for G2, F4, E6, E7 and E8, by
exact integer enumeration: a coset chain of parabolic subgroups lists the
elements, and a sum over the double cosets of one maximal parabolic subgroup
counts each class function over the whole group.  An element's class key
(power sums and determinant) is looked up among the cyclotomic products of
degree n.  Every table carries element counts so the group order acts as a
correctness certificate.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .cyclotomic import (CycloProduct, euler_phi, factor_power_minus_one,
                         pairwise_products, sumset)
from .rootsystem import (
    EXCEPTIONAL,
    SemisimpleType,
    SimpleType,
    cartan_pairing,
    degrees,
    reflection_generators,
    table_parabolic,
    weyl_order,
)

__all__ = [
    "CharPolyTable",
    "InvariantProfile",
    "charpolys_classical",
    "charpolys_exceptional",
    "charpolys_enumerated",
    "charpolys",
    "poly_set",
    "seed_table",
    "ch_star",
    "mu",
    "mu_prime",
    "mu_joint",
    "invariant_profile",
]

@dataclass(frozen=True)
class CharPolyTable:
    """Multiset of characteristic polynomials with element counts, checked
    when built; the group order is the type's, the product of its degrees."""

    type_label: SemisimpleType
    entries: Dict[CycloProduct, int]

    def __post_init__(self):
        self.validate()

    @property
    def group_order(self) -> int:
        return weyl_order(self.type_label)

    def validate(self) -> None:
        rank = self.type_label.rank
        # built first: a rank beyond what a CycloProduct holds is refused here
        ident = CycloProduct.from_mapping({1: rank})
        total = 0
        for poly, count in self.entries.items():
            if poly.degree != rank:
                raise ValueError(f"entry {poly} has degree {poly.degree}, rank is {rank}")
            if count < 1:
                raise ValueError(f"entry {poly} has count {count}")
            total += count
        order = self.group_order
        if total != order:
            raise ValueError(f"counts sum to {total}, group order is {order}")
        if ident not in self.entries:
            raise ValueError("identity polynomial missing from table")

    def poly_set(self) -> FrozenSet[CycloProduct]:
        return frozenset(self.entries)

    def indices(self) -> FrozenSet[int]:
        out = set()
        for poly in self.entries:
            out.update(poly.indices())
        return frozenset(out)


# --- partitions and classical tables -----------------------------------------


@functools.cache
def _partitions(n: int) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = []

    def rec(remaining: int, largest: int, acc: List[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, largest), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def _sym_centralizer(parts: Tuple[int, ...]) -> int:
    return math.prod(i**mult * math.factorial(mult) for i, mult in Counter(parts).items())


def charpolys_classical(t: SimpleType) -> CharPolyTable:
    """Combinatorial table for a classical simple type (A, B/C or D).

    A positive k-cycle contributes x^k - 1 to the characteristic polynomial
    and a negative one x^k + 1 = (x^2k - 1) / (x^k - 1).
    """
    t = t.canonical()
    if t.letter not in ("A", "B", "D"):
        raise ValueError(f"{t} is not classical; use charpolys_exceptional")
    n = t.rank
    # refuses a rank beyond what a CycloProduct holds before any enumeration
    CycloProduct.from_mapping({1: n})
    one = CycloProduct.one()
    minus = [one] + [factor_power_minus_one(k) for k in range(1, n + 2)]
    entries: Dict[CycloProduct, int] = {}

    if t.letter == "A":
        order = math.factorial(n + 1)
        for lam in _partitions(n + 1):
            # the reflection representation drops one trivial factor
            poly = math.prod((minus[k] for k in lam), start=one).exact_div(minus[1])
            entries[poly] = entries.get(poly, 0) + order // _sym_centralizer(lam)
    else:
        plus = [one] + [
            factor_power_minus_one(2 * k).exact_div(minus[k]) for k in range(1, n + 1)
        ]
        order = 2**n * math.factorial(n)  # |W(B_n)|, which D_n's class sizes share
        for k in range(n + 1):
            for lam in _partitions(k):
                positive = math.prod((minus[i] for i in lam), start=one)
                # a signed cycle type centralizes 2^(number of cycles) times more
                z_lam = _sym_centralizer(lam) << len(lam)
                for mu_parts in _partitions(n - k):
                    if t.letter == "D" and len(mu_parts) % 2:
                        continue
                    poly = math.prod((plus[i] for i in mu_parts), start=positive)
                    z = z_lam * (_sym_centralizer(mu_parts) << len(mu_parts))
                    entries[poly] = entries.get(poly, 0) + order // z

    return CharPolyTable(SemisimpleType.of(t), entries)


# --- coset-chain enumeration -------------------------------------------------


def _orbit_walk(
    a: List[List[int]], gens: np.ndarray, nodes: Iterable[int], start: Tuple[int, ...]
) -> Tuple[List[Tuple[int, ...]], np.ndarray, np.ndarray]:
    """Walk the W_J-orbit (J = nodes) of a weight dominant for W_J.

    Weights are Dynkin labels, and s_i subtracts label i times alpha_i, which
    is row i of the Cartan pairing.  Every weight nu but the start has a
    negative label on J, and for any such node i, s_i.nu is one level nearer
    the start.  The walk takes nu only from s_i.nu with i the first such
    node in nodes, its one parent, so it meets each weight mu once, at depth
    l(x_mu), where x_mu is the minimal element of W_J sending the start to
    mu, and det x_mu = (-1)^depth.  Returns the weights in order of
    nondecreasing depth, with their representatives x_mu and determinants.
    """
    n = len(a)
    weights = [start]
    reps = [np.eye(n, dtype=np.int32)]
    dets = [1]
    idx = 0
    while idx < len(weights):
        mu = weights[idx]
        for i in nodes:
            if mu[i] > 0:
                nu = tuple(m - mu[i] * r for m, r in zip(mu, a[i]))
                if next(j for j in nodes if nu[j] < 0) == i:
                    weights.append(nu)
                    reps.append(gens[i] @ reps[idx])
                    dets.append(-dets[idx])
        idx += 1
    return weights, np.array(reps), np.array(dets, dtype=np.int32)


def _fundamental_weight(n: int, nodes: List[int]) -> Tuple[int, ...]:
    """The weight with label 1 on each of nodes and 0 elsewhere."""
    return tuple(int(i in nodes) for i in range(n))


def _parabolic_elements(
    a: List[List[int]], gens: np.ndarray, nodes: List[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Every element of W_J (J = nodes) with its determinant.

    The coset chain: with J_m the first m nodes and k its last, W_{J_m} is
    the disjoint product of the minimal coset representatives (the orbit of
    omega_k) with W_{J_m - k}, so no element is met twice.
    """
    n = len(a)
    mats = np.eye(n, dtype=np.int32)[None]
    dets = np.ones(1, dtype=np.int32)
    for m in range(1, len(nodes) + 1):
        _, reps, signs = _orbit_walk(a, gens, nodes[:m], _fundamental_weight(n, nodes[m - 1:m]))
        mats = (reps[:, None] @ mats[None]).reshape(-1, n, n)
        dets = (signs[:, None] * dets[None]).reshape(-1)
    return mats, dets


def _class_keys(mats: np.ndarray, dets: np.ndarray) -> np.ndarray:
    """One int64 key per n x n matrix: (p_1, ..., p_h, det) packed by _pack,
    h = n // 2, where p_k = tr M^k.

    Eigenvalues of a Weyl group element are closed under inversion, so
    e_{n-k} = det * e_k and these values fix the characteristic polynomial.
    Each p_k is the sum of M^a o (M^b)^T over entries, a + b = k.
    """
    n = mats.shape[1]
    half = n // 2
    powers = [mats]
    while len(powers) < (half + 1) // 2:
        powers.append(powers[-1] @ mats)
    cols = [np.trace(mats, axis1=1, axis2=2)] if half else []
    for k in range(2, half + 1):
        cols.append(np.einsum("nij,nji->n", powers[(k + 1) // 2 - 1], powers[k // 2 - 1]))
    cols.append(dets)
    return _pack(cols, n, np.zeros(len(mats), dtype=np.int64))


def _pack(cols, n: int, packed=0):
    """Columns with values in [-n, n], each offset by n, as base-(2n + 1)
    digits, the first column the most significant."""
    for col in cols:
        packed = packed * (2 * n + 1) + (col + n)
    return packed


@functools.cache
def _root_power_sum(d: int, k: int) -> int:
    """Sum of z^k over the primitive d-th roots of unity z: over all d-th
    roots it is d when d | k and 0 otherwise."""
    return (0 if k % d else d) - sum(_root_power_sum(e, k) for e in range(1, d) if d % e == 0)


@functools.cache
def _products_by_key(n: int) -> Dict[int, CycloProduct]:
    """Every cyclotomic product of degree n, under the _class_keys key of a
    matrix with that characteristic polynomial: p_k adds up over the
    factors, and det is (-1)^(phi_2 exponent)."""
    # phi(d) >= sqrt(d / 2), so phi(d) <= n needs d <= 2n^2
    ds = [d for d in range(1, 2 * n * n + 2) if euler_phi(d) <= n]
    products: Dict[int, CycloProduct] = {}

    def rec(start: int, left: int, factors: List[int]) -> None:
        if not left:
            sums = [sum(_root_power_sum(d, k) for d in factors) for k in range(1, n // 2 + 1)]
            key = _pack(sums + [(-1) ** factors.count(2)], n)
            products[key] = CycloProduct.from_mapping(Counter(factors))
            return
        for j in range(start, len(ds)):
            if euler_phi(ds[j]) <= left:
                rec(j, left - euler_phi(ds[j]), factors + [ds[j]])

    rec(0, n, [])
    return products


def _chain_table(t: SimpleType, node: Optional[int]) -> CharPolyTable:
    """Table of W summed over the double cosets of H = W_{S-node}.

    For a class function f, the sum of f over HxH is [HxH : H] times the sum
    of f(xu) over u in H.  The double cosets are the H-orbits on the orbit of
    omega_node, and each holds one weight dominant for H, the one of least
    depth; so the representatives x are those of the weights with no
    negative label on S-node, and [HxH : H] is the size of that weight's
    H-orbit.  With node None every coset xH of H = W_{S-(n-1)} counts once
    (the grouping set is empty): the full chain.
    """
    t = t.canonical()
    n = t.rank
    a = cartan_pairing(t)
    gens = np.array(reflection_generators(t), dtype=np.int32)
    top = n - 1 if node is None else node
    sub = [i for i in range(n) if i != top]
    group = [] if node is None else sub
    weights, reps, dets = _orbit_walk(a, gens, range(n), _fundamental_weight(n, [top]))
    blocks = [(x, d, len(_orbit_walk(a, gens, group, mu)[0]))
              for mu, x, d in zip(weights, reps, dets) if all(mu[i] >= 0 for i in group)]
    # H = R.K over its last chain step (_parabolic_elements): K = W_{sub[:-1]},
    # R the orbit of omega_{sub[-1]}.  x.H is walked as x.r.K, so memory
    # follows |K|, not |H|.  At rank 1 sub is empty and R = {1}.
    k_mats, k_signs = _parabolic_elements(a, gens, sub[:-1])
    _, r_mats, r_signs = _orbit_walk(a, gens, sub, _fundamental_weight(n, sub[-1:]))
    counts: Dict[int, int] = {}
    for x, d, weight in blocks:
        for xr, s in zip(x @ r_mats, d * r_signs):
            keys, cnts = np.unique(_class_keys(xr @ k_mats, s * k_signs), return_counts=True)
            for key, cnt in zip(keys.tolist(), cnts.tolist()):
                counts[key] = counts.get(key, 0) + weight * cnt
    products = _products_by_key(n)
    if not counts.keys() <= products.keys():
        raise ArithmeticError("a characteristic polynomial is not a cyclotomic product")
    return CharPolyTable(SemisimpleType.of(t), {products[key]: cnt for key, cnt in counts.items()})


def charpolys_enumerated(t: SimpleType) -> CharPolyTable:
    """Table from the full coset chain, every element once; the enumeration oracle."""
    return _chain_table(t, None)


def charpolys_exceptional(t: SimpleType) -> CharPolyTable:
    """Table of G2, F4, E6, E7 or E8, summed over the double cosets of the
    maximal parabolic subgroup fixed for the type (rootsystem.table_parabolic)."""
    t = t.canonical()
    if t not in EXCEPTIONAL:
        raise ValueError(f"{t} is classical; use charpolys_classical")
    return _chain_table(t, table_parabolic(t))


# --- the table registry and products -----------------------------------------

_table_memo: Dict[SimpleType, CharPolyTable] = {}
_memo_lock = threading.Lock()


def seed_table(table: CharPolyTable) -> None:
    """Install an externally obtained single-factor table (validated again:
    its entries dict may have changed since it was built).

    The registry is write-once: seeding the table already installed for a
    type does nothing, and seeding a different one raises ValueError.
    """
    table.validate()
    if len(table.type_label.factors) != 1:
        raise ValueError("only single-factor tables can be seeded")
    t = table.type_label.factors[0]
    with _memo_lock:
        if _table_memo.setdefault(t, table) != table:
            raise ValueError(f"a different table of {t} is already installed")


def simple_table(t: SimpleType) -> CharPolyTable:
    t = t.canonical()
    got = _table_memo.get(t)
    if got is not None:
        return got
    if t in EXCEPTIONAL:
        table = charpolys_exceptional(t)
    else:
        table = charpolys_classical(t)
    with _memo_lock:
        _table_memo.setdefault(t, table)
    return _table_memo[t]


def charpolys(t: SemisimpleType) -> CharPolyTable:
    """Table for a semisimple type, with counts: the convolution product of
    its factors' tables.  Nothing is kept between calls, since the charpolys
    command asks for one type per process; sets come from poly_sets."""
    return CharPolyTable(t, functools.reduce(
        pairwise_products, (simple_table(f).entries for f in t.factors),
        {CycloProduct.one(): 1}))


def poly_sets(
    types: Iterable[SemisimpleType],
) -> Iterator[Tuple[SemisimpleType, FrozenSet[CycloProduct]]]:
    """Each type with its set of characteristic polynomials, without counts:
    the sumset of its factors' sets.

    The sets of the previous type's factor prefixes are kept; the longest
    prefix shared with it is reused and only the remaining factors are
    added, so a sweep that adds one factor per type forms one sumset per
    product type.
    """
    path: List[Tuple[SimpleType, FrozenSet[CycloProduct]]] = []
    for t in types:
        k = 0
        while k < min(len(path), len(t.factors)) and path[k][0] == t.factors[k]:
            k += 1
        del path[k:]
        for f in t.factors[k:]:
            table = simple_table(f)
            path.append((f, sumset(path[-1][1], table.entries) if path else table.poly_set()))
        yield t, path[-1][1] if path else frozenset({CycloProduct.one()})


def poly_set(t: SemisimpleType) -> FrozenSet[CycloProduct]:
    """The set of characteristic polynomials of one semisimple type."""
    return next(poly_sets([t]))[1]


# --- invariants ---------------------------------------------------------------


def ch_star(t: SemisimpleType) -> FrozenSet[int]:
    """Indices r such that phi_r divides some member of ch(W): the divisor
    closure of the fundamental degrees."""
    out = set()
    for d in degrees(t):
        for r in range(1, d + 1):
            if d % r == 0:
                out.add(r)
    return frozenset(out)


def mu(t: Union[SimpleType, SemisimpleType], i: int) -> int:
    """Number of fundamental degrees divisible by i; equals the maximal
    phi_i-exponent over the table when one exists."""
    if i < 1:
        raise ValueError("index must be >= 1")
    return sum(1 for d in degrees(t) if d % i == 0)


def _mu_prime_simple(f: SimpleType, i: int) -> int:
    top = mu(f, i)
    if top == 0:
        return 0
    return min(p.exponent(2) for p in simple_table(f).entries if p.exponent(i) == top)


def mu_prime(t: SemisimpleType, i: int) -> int:
    """Minimal phi_2-exponent accompanying the maximal phi_i-exponent (i > 2)."""
    if i <= 2:
        raise ValueError("mu' is defined only for indices > 2")
    return sum(_mu_prime_simple(f, i) for f in t.factors)


def _mu_joint_simple(f: SimpleType, i: int, j: int) -> int:
    mi, mj = mu(f, i), mu(f, j)
    if mi == 0 or mj == 0:
        return mi + mj
    return max(p.exponent(i) + p.exponent(j) for p in simple_table(f).entries)


def mu_joint(t: SemisimpleType, i: int, j: int) -> int:
    """Maximal summed phi_i/phi_j exponent over the table, additively over
    factors; reduces to mu when one index never appears."""
    if i == j:
        raise ValueError("joint invariant needs two distinct indices")
    return sum(_mu_joint_simple(f, i, j) for f in t.factors)


@dataclass(frozen=True)
class InvariantProfile:
    """Complete mu / mu' / joint record of a type within an index bound.

    Joint entries are stored only for index pairs where both single
    invariants are positive; all other joint values are forced to
    max(mu_i, mu_j) and carry no extra information.
    """

    type_label: SemisimpleType
    index_bound: int
    mu: Dict[int, int]
    mu_prime: Dict[int, int]
    mu_joint: Dict[Tuple[int, int], int]

    def key(self) -> Tuple:
        return (
            self.index_bound,
            tuple(sorted(self.mu.items())),
            tuple(sorted(self.mu_prime.items())),
            tuple(sorted(self.mu_joint.items())),
        )


# Per simple factor f: mu_i(f) at each index i with mu_i(f) > 0, mu'_i(f) at
# those indices, and for each pair i < j of them the deficit
# mu_i(f) + mu_j(f) - mu_{i,j}(f) where it is nonzero.  Every invariant adds
# over factors, so mu_{i,j} of a product is mu_i + mu_j minus the deficits of
# its factors at (i, j).
_Parts = Tuple[Dict[int, int], Dict[int, int], Dict[Tuple[int, int], int]]


@functools.cache
def _factor_profile(f: SimpleType) -> _Parts:
    # the indices of the table are ch_star(f); reading them off the table
    # builds it first, which refuses a rank beyond what a CycloProduct holds
    table = simple_table(f)
    positive = sorted(table.indices())
    cols = {i: [p.exponent(i) for p in table.entries] for i in positive}
    mus = {i: mu(f, i) for i in positive}
    # every simple type has the degree 2, so phi_2 is among the indices
    primes = {i: min(c2 for ci, c2 in zip(cols[i], cols[2]) if ci == mus[i])
              for i in positive if i > 2}
    joint = {(i, j): mus[i] + mus[j] - max(map(operator.add, cols[i], cols[j]))
             for i, j in itertools.combinations(positive, 2)}
    return mus, primes, {pair: deficit for pair, deficit in joint.items() if deficit}


def profile_parts(t: SemisimpleType) -> Tuple[FrozenSet, FrozenSet, FrozenSet]:
    """mu, mu' and the joint deficits of t, its simple factors' parts summed,
    as sets of items.  Between types of equal degrees, where every mu_i is
    fixed, they are equal exactly when the invariant profiles are."""
    sums: _Parts = ({}, {}, {})
    for f in t.factors:
        for total, part in zip(sums, _factor_profile(f)):
            for k, v in part.items():
                total[k] = total.get(k, 0) + v
    return tuple(frozenset(total.items()) for total in sums)


def invariant_profile(t: SemisimpleType) -> InvariantProfile:
    bound = max(30, 2 * t.rank)
    mus, primes, deficits = map(dict, profile_parts(t))
    mu_map = {i: mus.get(i, 0) for i in range(1, bound + 1)}
    prime_map = {i: primes.get(i, 0) for i in range(3, bound + 1)}
    positive = [i for i in range(1, bound + 1) if mu_map[i] > 0]
    joint_map = {(i, j): mu_map[i] + mu_map[j] - deficits.get((i, j), 0)
                 for i, j in itertools.combinations(positive, 2)}
    return InvariantProfile(t, bound, mu_map, prime_map, joint_map)
