import json
import math
import random
import tracemalloc

import pytest

from weylorders import weylchar
from weylorders.cli import run
from weylorders.cyclotomic import CycloProduct, max_exponents
from weylorders.rootsystem import (
    SemisimpleType,
    SimpleType,
    cartan_pairing,
    degrees,
    parse_type,
    render,
    simple_types,
    table_parabolic,
    weyl_order,
)
from weylorders.weylchar import (
    CharPolyTable,
    ch_star,
    charpolys,
    charpolys_classical,
    charpolys_enumerated,
    charpolys_exceptional,
    mu,
    mu_joint,
    mu_prime,
    poly_set,
    profile_parts,
    seed_table,
)


def cp(**kw):
    return CycloProduct.from_mapping({int(k[1:]): v for k, v in kw.items()})


def test_a2_table():
    table = charpolys_classical(SimpleType("A", 2))
    assert table.entries == {cp(d1=2): 1, cp(d1=1, d2=1): 3, cp(d3=1): 2}
    assert table.group_order == 6


def test_a1_table():
    table = charpolys_classical(SimpleType("A", 1))
    assert table.entries == {cp(d1=1): 1, cp(d2=1): 1}


def test_b2_table():
    table = charpolys_classical(SimpleType("B", 2))
    assert set(table.entries) == {cp(d1=2), cp(d1=1, d2=1), cp(d2=2), cp(d4=1)}
    assert sum(table.entries.values()) == 8


def test_classical_rejects_exceptional():
    with pytest.raises(ValueError):
        charpolys_classical(SimpleType("G", 2))


def test_g2_enumeration():
    table = charpolys_exceptional(SimpleType("G", 2))
    assert table.group_order == 12
    polys = set(table.entries)
    assert cp(d3=1) in polys and cp(d6=1) in polys
    assert cp(d4=1) not in polys


@pytest.mark.parametrize("n", range(1, 9))
def test_products_by_key_holds_every_product_once(n):
    # independent count: the coefficient of x^n in prod over d of 1 / (1 - x^phi(d)),
    # with phi counted by gcd; phi(d) <= 8 already forces d <= 30
    coeffs = [1] + [0] * n
    for d in range(1, 200):
        phi = sum(math.gcd(k, d) == 1 for k in range(1, d + 1))
        for m in range(phi, n + 1):
            coeffs[m] += coeffs[m - phi]
    products = weylchar._products_by_key(n)
    assert len(products) == coeffs[n]
    assert all(p.degree == n for p in products.values())


def test_class_key_outside_every_product_is_refused(monkeypatch):
    # key + 1 moves the determinant digit to 0 or 2, which no product has
    keys = weylchar._class_keys
    monkeypatch.setattr(weylchar, "_class_keys", lambda mats, dets: keys(mats, dets) + 1)
    with pytest.raises(ArithmeticError, match="not a cyclotomic product"):
        charpolys_exceptional(SimpleType("G", 2))


def test_f4_enumeration():
    assert charpolys_exceptional(SimpleType("F", 4)).group_order == 1152


def test_exceptional_rejects_classical():
    with pytest.raises(ValueError):
        charpolys_exceptional(SimpleType("B", 3))


@pytest.mark.parametrize("t", [SimpleType("E", 6), SimpleType("E", 7)], ids=str)
def test_e6_double_cosets_match_full_chain(t):
    assert charpolys_exceptional(t).entries == charpolys_enumerated(t).entries


def test_e7_routes_agree(e7_table):
    # the fixture sums over the double cosets of D5xA1; D6 and E6 are independent routes
    e7 = SimpleType("E", 7)
    assert table_parabolic(e7) == 5
    for node in (0, 6):
        assert weylchar._chain_table(e7, node).entries == e7_table.entries, node


@pytest.mark.parametrize(
    "t",
    [SimpleType("A", n) for n in range(1, 5)]
    + [SimpleType("B", 2), SimpleType("B", 3), SimpleType("B", 4),
       SimpleType("B", 5), SimpleType("D", 4), SimpleType("D", 5)],
    ids=str,
)
def test_classical_matches_enumeration(t):
    combinatorial = charpolys_classical(t)
    enumerated = charpolys_enumerated(t)
    assert combinatorial.entries == enumerated.entries


def _reference_partitions(n, largest=None):
    if n == 0:
        yield ()
    for part in range(min(n, largest or n), 0, -1):
        for rest in _reference_partitions(n - part, part):
            yield (part,) + rest


def _reference_centralizer(parts, signed):
    z = 1
    for i in set(parts):
        m = parts.count(i)
        z *= (2 * i if signed else i) ** m * math.factorial(m)
    return z


def _reference_exponents(positive, negative):
    """Cyclotomic exponents of the product of x^k - 1 over the positive
    cycles and x^k + 1 over the negative ones: x^k - 1 has phi_e for each
    divisor e of k, and x^k + 1 for each divisor e of 2k that does not divide k."""
    exps = {}
    for k in positive:
        for e in range(1, k + 1):
            if k % e == 0:
                exps[e] = exps.get(e, 0) + 1
    for k in negative:
        for e in range(1, 2 * k + 1):
            if (2 * k) % e == 0 and k % e != 0:
                exps[e] = exps.get(e, 0) + 1
    return exps


def _reference_classical_entries(t):
    """The classical table from cycle types, one exponent dict per class."""
    n, entries = t.rank, {}

    def add(exps, count):
        poly = CycloProduct.from_mapping(exps)
        entries[poly] = entries.get(poly, 0) + count

    if t.letter == "A":
        for lam in _reference_partitions(n + 1):
            exps = _reference_exponents(lam, ())
            exps[1] -= 1  # the reflection representation drops one trivial factor
            add(exps, math.factorial(n + 1) // _reference_centralizer(lam, False))
        return entries
    order = 2**n * math.factorial(n)
    for k in range(n + 1):
        for lam in _reference_partitions(k):
            for mu_parts in _reference_partitions(n - k):
                if t.letter == "D" and len(mu_parts) % 2:
                    continue
                z = _reference_centralizer(lam, True) * _reference_centralizer(mu_parts, True)
                add(_reference_exponents(lam, mu_parts), order // z)
    return entries


@pytest.mark.parametrize(
    "t",
    [SimpleType("A", n) for n in range(1, 15)]
    + [SimpleType("B", n) for n in range(2, 15)]
    + [SimpleType("D", n) for n in range(4, 15)],
    ids=str,
)
def test_classical_matches_reference_construction(t):
    assert charpolys_classical(t).entries == _reference_classical_entries(t)


def test_product_table():
    table = charpolys(parse_type("A1xA1"))
    assert table.entries == {cp(d1=2): 1, cp(d1=1, d2=1): 2, cp(d2=2): 1}
    assert charpolys(parse_type("G2xA1")).group_order == 24


def test_product_distinguishes_spec_pair():
    a1a3 = charpolys(parse_type("A1xA3")).poly_set()
    a2b2 = charpolys(parse_type("A2xB2")).poly_set()
    assert cp(d3=1, d4=1) in a2b2
    assert cp(d3=1, d4=1) not in a1a3


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_charpolys_e8_certificates(e8_table):
    t = parse_type("E8")
    assert charpolys(t).entries == e8_table.entries
    order = weyl_order(t)
    assert e8_table.group_order == order == sum(e8_table.entries.values())
    assert len(e8_table.entries) == 106
    # Shephard-Todd: sum over W of x^{dim Fix w} = prod (x + d_i - 1)
    want = [1]
    for d in degrees(t):
        want = _poly_mul(want, [d - 1, 1])
    got = [0] * 9
    for poly, count in e8_table.entries.items():
        got[poly.exponent(1)] += count
    assert got == want
    reflection = CycloProduct.from_mapping({1: 7, 2: 1})
    assert e8_table.entries[reflection] == 120
    coxeter = CycloProduct.from_mapping({30: 1})
    assert e8_table.entries[coxeter] == order // 30
    assert e8_table.entries[CycloProduct.from_mapping({2: 8})] == 1


def test_ch_star_examples():
    assert ch_star(parse_type("G2")) == frozenset({1, 2, 3, 6})
    assert ch_star(parse_type("F4")) == frozenset({1, 2, 3, 4, 6, 8, 12})
    assert ch_star(parse_type("E8")) == frozenset(
        set(range(1, 11)) | {12, 14, 15, 18, 20, 24, 30}
    )


@pytest.mark.parametrize(
    "t",
    ["A1", "A3", "B2", "B4", "D4", "G2", "F4", "A2xB2", "A1xG2"],
)
def test_springer_index_set(t):
    table = charpolys(parse_type(t))
    assert set().union(*(p.indices() for p in table.entries)) == ch_star(parse_type(t))


def test_springer_index_set_all_rank5_types():
    from weylorders.rootsystem import all_semisimple_types

    for t in all_semisimple_types(5):
        assert set().union(*(p.indices() for p in charpolys(t).entries)) == ch_star(t)


def test_mu_examples():
    assert mu(parse_type("E8"), 30) == 1
    assert mu(parse_type("B2"), 4) == 1
    assert mu(parse_type("E7"), 6) == 3


def test_mu_equals_table_max_exponent():
    for name in ("A3", "B3", "D4", "G2", "F4"):
        t = parse_type(name)
        table = charpolys(t)
        for i in range(1, 31):
            assert mu(t, i) == max(
                (p.exponent(i) for p in table.entries), default=0
            )


def test_mu_prime_examples():
    assert mu_prime(parse_type("D4"), 6) == mu_prime(parse_type("B3"), 6) + 1
    assert mu_prime(parse_type("A2"), 3) == 0
    assert mu_prime(parse_type("G2"), 5) == 0
    with pytest.raises(ValueError):
        mu_prime(parse_type("A2"), 2)


def test_mu_joint_examples():
    assert mu_joint(parse_type("B3"), 4, 6) == 1
    assert mu_joint(parse_type("E8"), 28, 30) == 1
    assert mu_joint(parse_type("A1"), 1, 2) == 1


def test_mu_joint_refuses_equal_indices():
    with pytest.raises(ValueError, match="joint invariant needs two distinct indices"):
        mu_joint(parse_type("B3"), 3, 3)


@pytest.mark.parametrize("label", ["", "A1"])
@pytest.mark.parametrize("i, j", [(0, 2), (2, 0), (-1, 3)])
def test_mu_joint_refuses_an_index_below_one(label, i, j):
    # the empty type has no factor whose mu could refuse the index
    t = parse_type(label) if label else SemisimpleType(())
    with pytest.raises(ValueError, match="index must be >= 1"):
        mu(t, min(i, j))
    with pytest.raises(ValueError, match="index must be >= 1"):
        mu_joint(t, i, j)


def test_e8_mu_prime_and_joint(e8_table):
    e8 = parse_type("E8")
    # the Coxeter polynomial phi_30 fills the rank; -1 gives phi_2^8
    assert mu_prime(e8, 30) == 0
    assert mu_joint(e8, 2, 30) == 8
    assert mu_joint(e8, 28, 30) == 1
    assert mu_prime(e8, 11) == 0
    for i in (3, 4, 5, 6, 7, 8, 9, 10, 12):
        top = mu(e8, i)
        assert mu_prime(e8, i) == min(
            p.exponent(2) for p in e8_table.entries if p.exponent(i) == top
        )


def test_additivity_over_products():
    rng = random.Random(5)
    names = ["A1", "A2", "A3", "B2", "B3", "D4", "G2"]
    for _ in range(10):
        n1, n2 = rng.choice(names), rng.choice(names)
        t1, t2 = parse_type(n1), parse_type(n2)
        prod = parse_type(f"{n1}x{n2}")
        for i in rng.sample(range(1, 13), 4):
            assert mu(prod, i) == mu(t1, i) + mu(t2, i)
            if i > 2:
                assert mu_prime(prod, i) == mu_prime(t1, i) + mu_prime(t2, i)
            j = i + rng.randint(1, 5)
            assert mu_joint(prod, i, j) == mu_joint(t1, i, j) + mu_joint(t2, i, j)


def test_identity_entry_count_one():
    for name in ("A1", "A4", "B3", "D4", "G2", "F4", "A2xB3"):
        t = parse_type(name)
        table = charpolys(t)
        ident = CycloProduct.from_mapping({1: t.rank})
        assert table.entries[ident] == 1
        assert sum(table.entries.values()) == weyl_order(t)


def test_invariant_profile_examples():
    mus = dict(profile_parts(parse_type("A1"))[0])
    assert mus[1] == 1 and mus[2] == 1
    assert set(mus) == {1, 2} and all(mu(parse_type("A1"), i) == 0 for i in range(3, 31))

    mus_b2 = dict(profile_parts(parse_type("B2"))[0])
    assert mus_b2[4] == 1 and mus_b2[2] == 2

    t1, t2 = parse_type("A1xA3"), parse_type("A2xB2")
    assert mu_joint(t1, 3, 4) != mu_joint(t2, 3, 4)
    assert profile_parts(t1) != profile_parts(t2)


def test_invariant_profile_bounds():
    from weylorders.cyclotomic import euler_phi

    for name in ("A2", "B3", "G2", "A2xB2"):
        t = parse_type(name)
        mus = dict(profile_parts(t)[0])
        for i in range(1, 31):
            if euler_phi(i) > t.rank:
                assert mu(t, i) == 0 and i not in mus
        for i in mus:
            for j in mus:
                if i < j:
                    v = mu_joint(t, i, j)
                    assert max(mus[i], mus[j]) <= v <= mus[i] + mus[j]


# The table scans: one pass over a simple factor's table per index and pair,
# the oracle for _factor_profile.


def _mu_prime_simple(f, i):
    top = mu(f, i)
    if top == 0:
        return 0
    return min(p.exponent(2) for p in weylchar.simple_table(f).entries if p.exponent(i) == top)


def _mu_joint_simple(f, i, j):
    mi, mj = mu(f, i), mu(f, j)
    if mi == 0 or mj == 0:
        return mi + mj
    return max(p.exponent(i) + p.exponent(j) for p in weylchar.simple_table(f).entries)


def _profile_document(capsys, t):
    assert run(["invariants", "--type", render(t)]) == 0
    return json.loads(capsys.readouterr().out)


def test_invariant_profile_matches_direct_calls(capsys, e8_table):
    # the CLI's profile and the direct calls, both read from the factors'
    # parts, against the table scans summed over the factors
    from weylorders.rootsystem import all_semisimple_types

    types = list(all_semisimple_types(8, "ABDGFE"))
    assert len(types) == 360
    for t in types:
        bound = max(30, 2 * t.rank)
        mus = {i: mu(t, i) for i in range(1, bound + 1)}
        positive = [i for i in mus if mus[i]]
        primes = {i: sum(_mu_prime_simple(f, i) for f in t.factors) for i in range(3, bound + 1)}
        joint = {(i, j): sum(_mu_joint_simple(f, i, j) for f in t.factors)
                 for i in positive for j in positive if i < j}
        assert primes == {i: mu_prime(t, i) for i in primes}, t
        assert joint == {(i, j): mu_joint(t, i, j) for i, j in joint}, t
        assert _profile_document(capsys, t) == {
            "type": render(t),
            "index_bound": bound,
            "mu": {str(i): mus[i] for i in positive},
            "mu_prime": {str(i): v for i, v in primes.items() if v},
            "mu_joint": {f"{i},{j}": v for (i, j), v in joint.items()},
        }, t


def test_e8_profile_complete(capsys, e8_table):
    e8 = parse_type("E8")
    doc = _profile_document(capsys, e8)
    assert doc["index_bound"] == 30
    assert [mu_prime(e8, i) for i in range(3, 31)] == [doc["mu_prime"].get(str(i), 0)
                                                     for i in range(3, 31)]
    assert mu_prime(e8, 30) == 0 and "30" not in doc["mu_prime"]
    assert doc["mu_joint"]["2,30"] == 8
    assert "28,30" not in doc["mu_joint"]  # mu_28 = 0: forced, not stored


def test_factor_profile_matches_the_table_scans(e8_table):
    # the knapsack over cycle types (A, B, D) and the table reads (G, F, E)
    # against one scan of the table per index and pair
    from weylorders.rootsystem import EXCEPTIONAL

    types = (simple_types(16, "A") + simple_types(16, "B") + simple_types(16, "D")
             + list(EXCEPTIONAL))
    assert len(types) == 16 + 15 + 13 + 5
    for f in types:
        positive = sorted(ch_star(f))
        mus, primes, deficits = weylchar._factor_profile(f)
        assert mus == {i: mu(f, i) for i in positive}, f
        assert primes == {i: _mu_prime_simple(f, i) for i in positive if i > 2}, f
        want = {(i, j): mu(f, i) + mu(f, j) - _mu_joint_simple(f, i, j)
                for i in positive for j in positive if i < j}
        assert deficits == {pair: v for pair, v in want.items() if v}, f


def test_seed_table_validates():
    good = charpolys_classical(SimpleType("B", 2))
    seed_table(good)  # idempotent
    # entries is a mutable dict: a table changed after it was built is refused
    bad = CharPolyTable(good.type_label, dict(good.entries))
    bad.entries[cp(d4=1)] += 1
    with pytest.raises(ValueError, match="counts sum to 9"):
        seed_table(bad)
    assert weylchar._table_memo[SimpleType("B", 2)] == good


def test_bn_cn_same_table():
    assert charpolys(parse_type("C3")).entries == charpolys(parse_type("B3")).entries


def test_concurrent_table_reads():
    import threading

    orders = []

    def worker():
        orders.append(charpolys(parse_type("A2xB2")).group_order)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert orders == [48] * 6


def _naive_charpolys(t):
    """Factor-by-factor convolution of the registry tables, with products
    formed from exponent dicts rather than CycloProduct multiplication."""
    entries = {CycloProduct.one(): 1}
    for f in t.factors:
        merged = {}
        for p1, c1 in entries.items():
            for p2, c2 in weylchar.simple_table(f).entries.items():
                exps = p1.as_dict()
                for d, e in p2.exps:
                    exps[d] = exps.get(d, 0) + e
                key = CycloProduct.from_mapping(exps)
                merged[key] = merged.get(key, 0) + c1 * c2
        entries = merged
    return entries


def _requests(seed):
    """Every ABDGF type of rank <= 6 in shuffled order, each followed by a
    repeat of an earlier request and by a prefix of one."""
    from weylorders.rootsystem import SemisimpleType, all_semisimple_types

    rng = random.Random(seed)
    types = list(all_semisimple_types(6, "ABDGF"))
    rng.shuffle(types)
    requests = []
    for t in types:
        requests.append(t)
        earlier = rng.choice(requests)
        requests.append(earlier)  # a repeat
        requests.append(SemisimpleType(earlier.factors[: rng.randint(1, len(earlier.factors))]))
    return requests


def test_charpolys_matches_naive_convolution():
    for t in _requests(11):
        table = charpolys(t)
        assert table.type_label == t
        assert table.group_order == weyl_order(t)
        assert table.entries == _naive_charpolys(t)


def test_poly_set_matches_charpolys():
    for t in _requests(12):
        assert poly_set(t) == charpolys(t).poly_set()


def test_concurrent_prefix_path():
    import sys
    import threading

    from weylorders.rootsystem import all_semisimple_types

    types = list(all_semisimple_types(5))
    expected = {t: charpolys(t).poly_set() for t in types}
    failures = []

    def worker(seed):
        order = list(types)
        random.Random(seed).shuffle(order)
        for t in order:
            if poly_set(t) != expected[t]:
                failures.append(t)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert failures == []


def test_double_cosets_match_at_every_node(small_exceptional_tables):
    # every maximal parabolic H = R.K, so K runs from trivial (G2) to D4 (E6 via D5)
    for name, table in small_exceptional_tables.items():
        t = parse_type(name).factors[0]
        for node in range(t.rank):
            assert weylchar._chain_table(t, node).entries == table.entries, (name, node)


def _reference_walk(a, nodes, start):
    """The W_J-orbit of start by breadth-first search with a visited set:
    each weight with its depth, in the order first met."""
    depth = {start: 0}
    queue = [start]
    for mu in queue:
        for i in nodes:
            if mu[i] > 0:
                nu = tuple(m - mu[i] * r for m, r in zip(mu, a[i]))
                if nu not in depth:
                    depth[nu] = depth[mu] + 1
                    queue.append(nu)
    return depth


class _WalksDone(Exception):
    pass


def _chain_walks(monkeypatch, t, node):
    """Every walk _chain_table(t, node) makes, as (nodes, start, weights,
    dets), in call order; the table itself is not summed."""
    walks = []
    walk = weylchar._orbit_walk

    def recording(a, gens, nodes, start):
        weights, reps, dets = walk(a, gens, nodes, start)
        walks.append((list(nodes), start, weights, dets.tolist()))
        return weights, reps, dets

    def stop(mats, dets):
        raise _WalksDone

    monkeypatch.setattr(weylchar, "_orbit_walk", recording)
    monkeypatch.setattr(weylchar, "_class_keys", stop)  # first called once every walk is done
    with pytest.raises(_WalksDone):
        weylchar._chain_table(t, node)
    return walks


_WALKED = [(SimpleType(c, n), node) for c, n in (("G", 2), ("F", 4), ("E", 6), ("E", 7))
           for node in range(n)] + [(SimpleType("E", 8), 1)]


@pytest.mark.parametrize("t, node", _WALKED, ids=lambda v: str(v))
def test_walks_meet_each_weight_once(monkeypatch, t, node):
    a = cartan_pairing(t)
    walks = _chain_walks(monkeypatch, t, node)
    for nodes, start, weights, dets in walks:
        depth = _reference_walk(a, nodes, start)
        assert len(set(weights)) == len(weights) == len(depth), (nodes, start)
        depths = [depth[mu] for mu in weights]
        assert depths == sorted(depths), (nodes, start)
        assert dets == [(-1) ** k for k in depths], (nodes, start)


@pytest.mark.parametrize("t, node", _WALKED, ids=lambda v: str(v))
def test_dominant_weights_are_the_first_met_blocks(monkeypatch, t, node):
    n = t.rank
    a = cartan_pairing(t)
    sub = [i for i in range(n) if i != node]
    covered, expected = set(), []
    for mu in _reference_walk(a, range(n), tuple(int(i == node) for i in range(n))):
        if mu not in covered:
            orbit = _reference_walk(a, sub, mu)
            covered.update(orbit)
            expected.append((mu, len(orbit)))
    # after the top walk, one walk over S-node per block; the last such walk is R's.
    # Weights of one depth may come in another order than the reference's.
    walks = _chain_walks(monkeypatch, t, node)[1:]
    blocks = [(start, len(weights)) for nodes, start, weights, _ in walks if nodes == sub][:-1]
    assert sorted(blocks) == sorted(expected)


def test_double_cosets_memory_bounded_by_k():
    # E7 via E6 = R.D5: the traced peak follows |D5| = 1,920, not |E6| = 51,840
    tracemalloc.start()
    try:
        weylchar._chain_table(SimpleType("E", 7), 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_seed_table_is_write_once(monkeypatch):
    monkeypatch.setattr(weylchar, "_table_memo", dict(weylchar._table_memo))
    g2 = parse_type("G2")
    table = weylchar.simple_table(g2.factors[0])
    seed_table(CharPolyTable(g2, dict(table.entries)))  # equal: a no-op
    assert weylchar._table_memo[g2.factors[0]] is table
    memo, profile = dict(weylchar._table_memo), profile_parts(g2)
    assert mu_joint(g2, 2, 6) == mu(g2, 2) + mu(g2, 6) - dict(profile[2]).get((2, 6), 0) == 2
    # passes validate(), but no element has e_2 = 2, so the certificate fails
    forged = CharPolyTable(g2, {cp(d1=2): 1, cp(d1=1, d2=1): 7, cp(d3=1): 2, cp(d6=1): 2})
    with pytest.raises(ValueError, match="G2"):
        seed_table(forged)
    # passes validate() and the largest-exponent certificate, but differs
    swapped = CharPolyTable(g2, {cp(d1=2): 1, cp(d1=1, d2=1): 5, cp(d2=2): 2, cp(d3=1): 2,
                                 cp(d6=1): 2})
    with pytest.raises(ValueError, match="a different table of G2 is already installed"):
        seed_table(swapped)
    assert weylchar._table_memo == memo
    assert weylchar._table_memo[g2.factors[0]] is table
    assert mu_joint(g2, 2, 6) == 2
    assert profile_parts(g2) == profile


def test_seed_table_refuses_a_table_whose_largest_exponents_are_not_mu(monkeypatch):
    # G2 with its phi_6 class counted under phi_3: the counts still sum to
    # 12 and validate() passes, but no entry has phi_6 although mu_6 = 1
    monkeypatch.setattr(weylchar, "_table_memo", {})
    g2 = parse_type("G2")
    entries = dict(charpolys_exceptional(g2.factors[0]).entries)
    entries[cp(d3=1)] += entries.pop(cp(d6=1))
    merged = CharPolyTable(g2, entries)
    with pytest.raises(ValueError, match="table of G2 fails the largest-exponent certificate"):
        seed_table(merged)
    assert weylchar._table_memo == {}


@pytest.mark.parametrize("moved", [8, 4], ids=["moved", "split"])
def test_seed_table_refuses_a_table_whose_coxeter_class_has_phi_1(monkeypatch, moved):
    # B3's Coxeter class phi_2 phi_6 (8 elements), all of it or half, counted
    # under phi_1 phi_6: validate() and the largest exponents still pass
    monkeypatch.setattr(weylchar, "_table_memo", {})
    b3 = SimpleType("B", 3)
    genuine = charpolys_classical(b3).entries
    entries = dict(genuine)
    entries[cp(d2=1, d6=1)] -= moved
    entries[cp(d1=1, d6=1)] = moved
    forged = CharPolyTable(SemisimpleType.of(b3), {p: c for p, c in entries.items() if c})
    assert max_exponents(forged.entries) == max_exponents(genuine)
    with pytest.raises(ValueError, match="table of B3 fails the Coxeter-class certificate"):
        seed_table(forged)
    assert weylchar._table_memo == {}


def test_seed_table_refuses_a_coxeter_class_of_the_wrong_polynomial(monkeypatch):
    # B6's Coxeter class phi_4 phi_12 counted under phi_3 phi_12, E6's Coxeter
    # polynomial: one entry alone has phi_12 and no phi_1, and validate() and
    # the largest exponents still pass, but the block it gives is E6's
    monkeypatch.setattr(weylchar, "_table_memo", {})
    b6 = SimpleType("B", 6)
    genuine = charpolys_classical(b6).entries
    entries = dict(genuine)
    entries[cp(d3=1, d12=1)] = entries.pop(cp(d4=1, d12=1))
    forged = CharPolyTable(SemisimpleType.of(b6), entries)
    assert max_exponents(forged.entries) == max_exponents(genuine)
    assert [p.exponent(1) for p in forged.entries if p.exponent(12)] == [0]
    with pytest.raises(ValueError, match="table of B6 fails the Coxeter-class certificate"):
        seed_table(forged)
    assert weylchar._table_memo == {}


def test_seed_table_refuses_a_product_table():
    with pytest.raises(ValueError, match="only single-factor tables can be seeded"):
        seed_table(charpolys(parse_type("A1xA1")))


def test_validate_checks_the_reflection_group_order():
    # the counts of B2 sum to 8, which is not the order of G2 or of A1xA1
    b2 = charpolys_classical(SimpleType("B", 2))
    for label in ("G2", "A1xA1"):
        with pytest.raises(ValueError, match="counts sum to 8"):
            CharPolyTable(parse_type(label), b2.entries)


@pytest.mark.parametrize(
    "change, message",
    [
        ({cp(d1=1, d2=1): 4}, "counts sum to 7, group order is 6"),
        ({cp(d1=2): None, cp(d1=1, d2=1): 4}, "identity polynomial missing"),
        ({cp(d3=1): None, cp(d3=1, d1=1): 2}, "has degree 3, rank is 2"),
        ({cp(d3=1): 0, cp(d1=1, d2=1): 5}, "has count 0"),
    ],
    ids=["count", "identity", "degree", "zero-count"],
)
def test_table_is_checked_when_built(change, message):
    entries = dict(charpolys_classical(SimpleType("A", 2)).entries)
    for poly, count in change.items():
        if count is None:
            del entries[poly]
        else:
            entries[poly] = count
    with pytest.raises(ValueError, match=message):
        CharPolyTable(parse_type("A2"), entries)


def test_e8_table_flow_with_seeded_table(monkeypatch, e8_table):
    """A seeded table serves every E8 path without being recomputed."""
    monkeypatch.setattr(weylchar, "_table_memo", {})

    def no_enumeration(t):
        raise AssertionError(f"{t} was enumerated instead of read from the registry")

    monkeypatch.setattr(weylchar, "charpolys_exceptional", no_enumeration)
    seed_table(e8_table)
    table = charpolys(parse_type("E8xA1"))
    assert table.group_order == 2 * weyl_order(parse_type("E8"))
    assert poly_set(parse_type("E8xA1")) == table.poly_set()
    assert mu_prime(parse_type("E8"), 30) == 0
