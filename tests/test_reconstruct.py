import itertools
import math
import random
from collections import Counter

import pytest

from weylorders import reconstruct as reconstruct_module
from weylorders import weylchar
from weylorders.cyclotomic import CycloProduct, euler_phi
from weylorders.errors import AmbiguousBlock, NotAWeylFamily, TypeParseError
from weylorders.reconstruct import (
    CharPolyFamily,
    degrees_from_family,
    peel_max_coxeter,
    reconstruct,
    verify_determination,
)
from weylorders.rootsystem import (
    SemisimpleType,
    SimpleType,
    all_semisimple_types,
    coxeter_catalogue,
    degrees,
    parse_type,
    render,
)
from weylorders.weylchar import (
    CharPolyTable,
    charpolys,
    invariant_profile,
    poly_set,
    profile_parts,
)


def fam_of(expr: str) -> CharPolyFamily:
    t = parse_type(expr)
    return CharPolyFamily(poly_set(t), t.rank)


def test_family_validation():
    with pytest.raises(NotAWeylFamily):
        CharPolyFamily(frozenset({CycloProduct.from_mapping({2: 1})}), 1)
    with pytest.raises(NotAWeylFamily):
        CharPolyFamily(
            frozenset({CycloProduct.from_mapping({1: 2}),
                       CycloProduct.from_mapping({2: 1})}),
            2,
        )


def test_degrees_from_family_examples():
    assert degrees_from_family(fam_of("B2")) == (2, 4)
    assert degrees_from_family(fam_of("A1")) == (2,)
    assert degrees_from_family(fam_of("G2")) == (2, 6)
    assert degrees_from_family(fam_of("A2xB3")) == (2, 2, 3, 4, 6)


def test_degrees_from_family_rejects_inconsistent_data():
    # phi_4 present without phi_2 forces a negative multiplicity at 2
    polys = frozenset(
        {CycloProduct.from_mapping({1: 2}), CycloProduct.from_mapping({4: 1})}
    )
    with pytest.raises(NotAWeylFamily):
        degrees_from_family(CharPolyFamily(polys, 2))
    # a single degree recovered for a rank-2 family: wrong total
    polys = frozenset(
        {CycloProduct.from_mapping({1: 2}), CycloProduct.from_mapping({3: 1})}
    )
    with pytest.raises(NotAWeylFamily):
        degrees_from_family(CharPolyFamily(polys, 2))


def test_reconstruct_rejects_garbage_downstream():
    # self-consistent exponent data, but no type has this polynomial set
    polys = frozenset(
        {
            CycloProduct.from_mapping({1: 2}),
            CycloProduct.from_mapping({4: 1}),
            CycloProduct.from_mapping({3: 1}),
            CycloProduct.from_mapping({1: 1, 2: 1}),
        }
    )
    with pytest.raises(NotAWeylFamily):
        reconstruct(CharPolyFamily(polys, 2))


def peel_of(expr: str):
    t = parse_type(expr)
    return peel_max_coxeter(poly_set(t), degrees(t))


def test_peel_g2_a1():
    block, rest, rest_degrees = peel_of("G2xA1")
    assert block == (SimpleType("G", 2),)
    assert rest_degrees == (2,)
    assert rest == fam_of("A1").polys


def test_peel_a1():
    block, rest, rest_degrees = peel_of("A1")
    assert block == (SimpleType("A", 1),)
    assert rest_degrees == ()
    assert rest == {CycloProduct.one()}
    with pytest.raises(NotAWeylFamily):
        peel_max_coxeter(rest, rest_degrees)


def test_peel_b3_b3():
    block, rest, rest_degrees = peel_of("B3xB3")
    assert block == (SimpleType("B", 3), SimpleType("B", 3))
    assert rest_degrees == ()


def test_peel_disambiguates_block_with_same_degrees():
    # B3xB3 and D4xG2 share degrees and even the Coxeter polynomial; only
    # the full family separates them.
    block, _, _ = peel_of("D4xG2")
    assert block == (SimpleType("D", 4), SimpleType("G", 2))


def test_reconstruct_reads_degrees_once(monkeypatch):
    calls = []
    genuine = reconstruct_module.degrees_from_family

    def counted(fam):
        calls.append(fam)
        return genuine(fam)

    monkeypatch.setattr(reconstruct_module, "degrees_from_family", counted)
    assert reconstruct(fam_of("A2xB3xG2")) == parse_type("A2xB3xG2")
    assert len(calls) == 1


def test_perturbed_families_reconstruct_or_fail():
    # seeded perturbations of the sets of rank <= 6: drop an entry, add one
    # from another type of the same rank, take the union with that type's
    # set, or keep half the set plus the identity
    rng = random.Random(19)
    types = list(all_semisimple_types(6))
    messages = []
    for _ in range(400):
        t = rng.choice(types)
        polys = sorted(poly_set(t))
        u = rng.choice([u for u in types if u.rank == t.rank and u != t] or [t])
        kind = rng.randrange(4)
        if kind == 0:
            del polys[rng.randrange(len(polys))]
        elif kind == 1:
            polys.append(rng.choice(sorted(poly_set(u))))
        elif kind == 2:
            polys.extend(poly_set(u))
        else:
            polys = rng.sample(polys, len(polys) // 2) + [CycloProduct.from_mapping({1: t.rank})]
        try:
            got = reconstruct(CharPolyFamily(frozenset(polys), t.rank))
        except NotAWeylFamily as exc:
            messages.append(str(exc))
        else:
            assert poly_set(got) == frozenset(polys)
    # both guards on the degrees left to a peel are reached
    assert any(m.startswith("no entry has") for m in messages)
    assert any("are not among" in m for m in messages)


def test_reconstruct_examples():
    assert reconstruct(fam_of("A2xB2")) == parse_type("A2xB2")
    assert reconstruct(fam_of("F4")) == parse_type("F4")
    assert reconstruct(fam_of("A1")) == parse_type("A1")


def test_reconstruct_canonicalizes_c():
    assert render(reconstruct(fam_of("C3"))) == "B3"


@pytest.mark.parametrize(
    "expr",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "D5", "G2", "F4",
     "A1xA1", "A1xA2", "A2xA2", "A1xB2", "B2xB2", "A1xG2", "B2xG2",
     "A1xA1xA1", "A1xA1xB2", "B3xB3", "D4xG2", "A2xA2xB3", "G2xG2"],
)
def test_round_trip(expr):
    t = parse_type(expr)
    assert reconstruct(fam_of(expr)) == t


@pytest.mark.parametrize(
    "expr",
    ["A9", "B9", "D9", "B3xB3xB3", "B3xD4xG2", "A2xG2xB3", "D4xD4",
     "B3xB3xG2", "G2xG2xD4"],
)
def test_round_trip_beyond_rank_8(expr):
    # includes the triple-block degree collisions at Coxeter number 6
    t = parse_type(expr)
    assert reconstruct(fam_of(expr)) == t


def test_verify_determination_rank2():
    report = verify_determination(2)
    assert report.ok
    assert report.types_checked == 5  # A1, A1xA1, A2, B2, G2


def test_verify_determination_rank4():
    report = verify_determination(4, alphabet="ABDG")
    assert report.ok
    assert report.types_checked > 10


def test_verify_determination_refuses_unknown_letters():
    # lower-case letters used to select no type at all, and the empty sweep passed
    with pytest.raises(TypeParseError, match="abdfg"):
        verify_determination(6, "abdgf")


def test_verify_determination_report_shape():
    report = verify_determination(2)
    doc = report.to_json()
    assert set(doc) == {"rank_bound", "alphabet", "types_checked", "chset_collisions",
                        "roundtrip_failures", "profile_collisions", "ok"}
    assert doc["ok"] is True
    assert doc["types_checked"] == 5


def test_sweep_convolves_once_per_product_type(monkeypatch):
    # the set analogue of one convolution per product type is one sumset,
    # and once the simple tables exist no counted table is built; a round
    # trip that returns its own type builds no set again
    tables = {t: charpolys(t) for t in all_semisimple_types(8, "ABDGF")}
    products = [t for t in tables if len(t.factors) > 1]
    assert len(products) == 329
    calls = []
    genuine = weylchar.sumset

    def counted(left, right):
        calls.append(genuine(left, right))
        return calls[-1]

    def refused(*args):
        raise AssertionError("a counted table was built")

    monkeypatch.setattr(weylchar, "sumset", counted)
    monkeypatch.setattr(weylchar, "pairwise_products", refused)
    monkeypatch.setattr(CharPolyTable, "validate", refused)
    report = verify_determination(8, alphabet="ABDGF")
    assert report.ok
    assert report.types_checked == len(tables)
    assert calls == [tables[t].poly_set() for t in products]


@pytest.mark.parametrize("expr", ["D4xG2xA1", "B3xB3xA2", "G2xG2xD4"])
def test_screened_round_trip_builds_its_set_once(monkeypatch, expr):
    # each type has a block that two factor multisets cover, so it is
    # screened; the screen sums the simple tables directly, and only the
    # certificate builds the type's set, one sumset per factor after the first
    t = parse_type(expr)
    fam = CharPolyFamily(poly_set(t), t.rank)
    calls = []
    genuine = weylchar.sumset

    def counted(left, right):
        calls.append(None)
        return genuine(left, right)

    monkeypatch.setattr(weylchar, "sumset", counted)
    assert reconstruct_module._peel_all(fam) == t
    assert calls == []
    assert reconstruct(fam) == t
    assert len(calls) == len(t.factors) - 1


def test_collision_check_reports_equal_sets(monkeypatch):
    # A1xA3 and A2xB2 share their degrees 2, 2, 3, 4 but not their sets
    a1a3, a2b2 = parse_type("A1xA3"), parse_type("A2xB2")
    genuine = reconstruct_module.poly_sets

    def forged(types):
        for t, polys in genuine(types):
            yield t, poly_set(a1a3) if t == a2b2 else polys

    monkeypatch.setattr(reconstruct_module, "poly_sets", forged)
    report = verify_determination(4)
    assert report.chset_collisions == [("A1xA3", "A2xB2")]
    assert report.roundtrip_failures == ["A2xB2 -> A1xA3"]


def test_sweep_certifies_a_foreign_round_trip(monkeypatch):
    # A2xB2 peels to A1xA3, whose set is not A2xB2's: the certificate refuses it
    a1a3, a2b2 = parse_type("A1xA3"), parse_type("A2xB2")
    genuine = reconstruct_module._peel_all

    def forged(fam):
        got = genuine(fam)
        return a1a3 if got == a2b2 else got

    monkeypatch.setattr(reconstruct_module, "_peel_all", forged)
    report = verify_determination(4)
    assert report.roundtrip_failures == [
        "A2xB2: family is not the polynomial set of A1xA3 or of any other catalogued type"]
    assert report.chset_collisions == []
    assert not report.ok


def test_profile_collision_check_reports_equal_profiles(monkeypatch):
    # A2xB2 is given A1xA3's profile parts; the two share their degrees 2, 2, 3, 4
    a1a3, a2b2 = parse_type("A1xA3"), parse_type("A2xB2")
    genuine = reconstruct_module.profile_parts

    def forged(t):
        return genuine(a1a3 if t == a2b2 else t)

    monkeypatch.setattr(reconstruct_module, "profile_parts", forged)
    report = verify_determination(4)
    assert report.profile_collisions == [("A1xA3", "A2xB2")]
    assert report.chset_collisions == [] and report.roundtrip_failures == []
    assert not report.ok


def test_profile_parts_decide_profile_equality_within_degrees(e8_table):
    by_degrees = {}
    for t in all_semisimple_types(8, "ABDGFE"):
        by_degrees.setdefault(degrees(t), []).append(t)
    pairs = 0
    for group in by_degrees.values():
        for a_idx, t in enumerate(group):
            for u in group[a_idx + 1 :]:
                pairs += 1
                same_parts = profile_parts(t) == profile_parts(u)
                same_profile = invariant_profile(t).key() == invariant_profile(u).key()
                assert same_parts == same_profile, (t, u)
    assert pairs == 116


def test_sweep_pays_once_per_new_fact(monkeypatch):
    # one covers search per distinct block, and the profile parts summed
    # once for each type that shares its degrees with another
    blocks, keyed = [], []
    genuine = reconstruct_module._block_facts

    def block_facts(f, h):
        blocks.append((f, h))
        return genuine(f, h)

    def parts(t):
        keyed.append(t)
        return profile_parts(t)

    genuine.cache_clear()
    monkeypatch.setattr(reconstruct_module, "_block_facts", block_facts)
    monkeypatch.setattr(reconstruct_module, "profile_parts", parts)
    assert verify_determination(8, alphabet="ABDGF").ok
    assert genuine.cache_info().misses == len(set(blocks)) < len(blocks)
    types = list(all_semisimple_types(8, "ABDGF"))
    shared = Counter(degrees(t) for t in types)
    assert Counter(keyed) == Counter(t for t in types if shared[degrees(t)] > 1)


def test_malformed_coxeter_entry_raises_on_every_call():
    # G2xB2 without the entries phi_6 phi_1^2, phi_6 phi_1 phi_2 and
    # phi_6 phi_2^2: the degrees still read 2, 2, 4, 6, but the top
    # Coxeter entry is phi_6 phi_4, and phi_4 does not divide x^6 - 1
    def cp(**kw):
        return CycloProduct.from_mapping({int(k[1:]): v for k, v in kw.items()})

    dropped = {cp(p6=1, p1=2), cp(p6=1, p1=1, p2=1), cp(p6=1, p2=2)}
    fam = CharPolyFamily(poly_set(parse_type("G2xB2")) - dropped, 4)
    for _ in range(2):
        with pytest.raises(NotAWeylFamily, match="unexpected factor phi_4"):
            reconstruct(fam)


def test_round_trip_that_raises_is_reported(monkeypatch):
    b3g2 = parse_type("B3xG2")
    genuine = reconstruct_module._peel_all

    def failing(fam):
        got = genuine(fam)
        if got == b3g2:
            raise AmbiguousBlock("forged ambiguity")
        return got

    monkeypatch.setattr(reconstruct_module, "_peel_all", failing)
    report = verify_determination(5, alphabet="ABG")
    assert report.roundtrip_failures == ["B3xG2: forged ambiguity"]
    assert not report.ok
    assert report.types_checked == len(list(all_semisimple_types(5, "ABG")))


def _coxeter_polynomial(degs, h):
    # the Coxeter eigenvalues are exp(2 pi i (d - 1) / h) over the degrees d
    orders = Counter(h // math.gcd(d - 1, h) for d in degs)
    return CycloProduct.from_mapping({d: m // euler_phi(d) for d, m in orders.items()})


def test_block_covers_match_the_combinations_search():
    # the oracle: every multiset of factors of Coxeter number h with the
    # block degrees; blocks of at most three factors, h <= 40
    checked = 0
    for h in range(2, 41):
        catalogue = coxeter_catalogue(h)
        blocks = {degrees(SemisimpleType(c)) for k in range(1, 4)
                  for c in itertools.combinations_with_replacement(catalogue, k)}
        for block_degrees in sorted(blocks):
            covers = tuple(c for c in itertools.combinations_with_replacement(
                catalogue, block_degrees.count(h)) if degrees(SemisimpleType(c)) == block_degrees)
            f = _coxeter_polynomial(block_degrees, h)
            assert reconstruct_module._block_facts(f, h) == (block_degrees, covers)
            checked += 1
    assert checked == 487


def test_block_covers_of_any_polynomial_of_divisors_of_h():
    # f = prod phi_d^t over d | h, d >= 2, t <= 2, phi_h present, h <= 12,
    # most of them no Coxeter polynomial: the covers are the multisets of
    # f.exponent(h) factors of Coxeter number h with Coxeter polynomial f,
    # and f is refused exactly when there are none
    refused = 0
    for h in range(2, 13):
        catalogue = coxeter_catalogue(h)
        ds = [d for d in range(2, h + 1) if h % d == 0]
        for exps in itertools.product(range(3), repeat=len(ds)):
            if not exps[-1]:
                continue
            f = CycloProduct.from_mapping(dict(zip(ds, exps)))
            covers = tuple(c for c in itertools.combinations_with_replacement(catalogue, exps[-1])
                           if _coxeter_polynomial(degrees(SemisimpleType(c)), h) == f)
            if covers:
                assert reconstruct_module._block_facts(f, h)[1] == covers
            else:
                refused += 1
                with pytest.raises(NotAWeylFamily, match="no factor multiset matches"):
                    reconstruct_module._block_facts(f, h)
    assert refused > 0
