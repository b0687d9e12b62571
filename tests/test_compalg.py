import copy
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorders.compalg import (
    AlbertElement,
    Fp,
    Octonion,
    PrimeField,
    RationalField,
    albert_add,
    albert_bilinear,
    oct_add,
    albert_from_coords,
    albert_identity,
    albert_mul,
    albert_q,
    albert_zero,
    e0_basis,
    idempotent_u,
    oct_basis,
    oct_conj,
    oct_mul,
    oct_neg,
    oct_norm,
    oct_scale,
    oct_sub,
    oct_scalar,
    oct_unit,
    oct_zero,
    random_octonion,
)
from weylorders.errors import FieldMismatch


def _random_albert(field, gamma, rng):
    xs = tuple(field.random(rng) for _ in range(3))
    cs = tuple(random_octonion(field, rng) for _ in range(3))
    return albert_from_coords(field, gamma, xs, cs)


def test_prime_field_arithmetic():
    f = PrimeField(7)
    a, b = Fp(3, 7), Fp(5, 7)
    assert a + b == Fp(1, 7)
    assert a * b == Fp(1, 7)
    assert a / b == a * Fp(3, 7)  # 5^-1 = 3 mod 7
    assert -a == Fp(4, 7)
    with pytest.raises(ZeroDivisionError):
        a / f.zero
    with pytest.raises(FieldMismatch):
        a + Fp(1, 11)


def test_fp_is_a_reduced_immutable_value():
    assert len({Fp(3, 7), Fp(10, 7)}) == 1
    assert Fp(3, 7) != Fp(3, 11) and Fp(3, 7) != 3
    assert repr(Fp(10, 7)) == "Fp(value=3, p=7)"
    assert copy.deepcopy(Fp(10, 7)) == Fp(3, 7)
    a = Fp(3, 7)
    with pytest.raises(FrozenInstanceError):
        a.value = 4
    with pytest.raises(FrozenInstanceError):
        del a.p
    assert a == Fp(3, 7)


def test_scalar_divided_by_fp_is_coerced():
    assert 2 / Fp(3, 7) == Fp(3, 7)  # 3^-1 = 5 and 2 * 5 = 3 mod 7
    with pytest.raises(FieldMismatch):
        Fraction(1, 2) / Fp(1, 7)
    with pytest.raises(ZeroDivisionError):
        2 / Fp(0, 7)


def test_prime_field_excludes_char_2_3():
    for p in (2, 3, 4, 9):
        with pytest.raises(ValueError):
            PrimeField(p)


def test_unit_element():
    for field in (RationalField(), PrimeField(7)):
        unit = oct_unit(field)
        rng = random.Random(0)
        a = random_octonion(field, rng)
        assert oct_mul(unit, a) == a
        assert oct_mul(a, unit) == a
        assert oct_norm(unit) == field.one


def test_norm_values():
    f = RationalField()
    assert oct_norm(oct_unit(f)) == 1
    z = f.zero
    o = f.one
    anti_unit = Octonion((z, z, z, z), (o, z, z, o))
    assert oct_norm(anti_unit) == -1


def test_split_zero_divisors():
    f = PrimeField(7)
    z, o = f.zero, f.one
    e11 = Octonion((o, z, z, z), (z, z, z, z))
    e22 = Octonion((z, z, z, o), (z, z, z, z))
    assert oct_mul(e11, e22) == oct_zero(f)


@pytest.mark.parametrize("field", [RationalField(), PrimeField(7), PrimeField(11)], ids=["Q", "F7", "F11"])
def test_norm_multiplicative_and_conjugation(field):
    rng = random.Random(42)
    unit = oct_unit(field)
    for _ in range(300):
        a = random_octonion(field, rng)
        b = random_octonion(field, rng)
        assert oct_norm(oct_mul(a, b)) == oct_norm(a) * oct_norm(b)
        na = oct_norm(a)
        assert oct_mul(a, oct_conj(a)) == oct_scale(na, unit)
        assert oct_mul(oct_conj(a), a) == oct_scale(na, unit)
        assert oct_conj(oct_conj(a)) == a
        assert oct_conj(oct_mul(a, b)) == oct_mul(oct_conj(b), oct_conj(a))


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=16, max_size=16))
@settings(max_examples=150, deadline=None)
def test_norm_multiplicative_rationals_hypothesis(vals):
    coords = [Fraction(v, 3) for v in vals]
    a = Octonion(tuple(coords[:4]), tuple(coords[4:8]))
    b = Octonion(tuple(coords[8:12]), tuple(coords[12:16]))
    assert oct_norm(oct_mul(a, b)) == oct_norm(a) * oct_norm(b)


@pytest.mark.parametrize("field", [RationalField(), PrimeField(7)], ids=["Q", "F7"])
def test_alternativity_and_moufang_optional(field):
    # not required of the construction, but true of any composition algebra
    rng = random.Random(101)
    for _ in range(100):
        x = random_octonion(field, rng)
        y = random_octonion(field, rng)
        z = random_octonion(field, rng)
        assert oct_mul(x, oct_mul(x, y)) == oct_mul(oct_mul(x, x), y)
        assert oct_mul(oct_mul(y, x), x) == oct_mul(y, oct_mul(x, x))
        assert oct_mul(oct_mul(x, y), oct_mul(z, x)) == oct_mul(
            x, oct_mul(oct_mul(y, z), x)
        )


def test_field_mismatch_rejected():
    a = random_octonion(PrimeField(7), random.Random(1))
    b = random_octonion(PrimeField(11), random.Random(1))
    with pytest.raises(FieldMismatch):
        oct_mul(a, b)
    c = random_octonion(RationalField(), random.Random(1))
    with pytest.raises(FieldMismatch):
        oct_mul(a, c)
    # every coordinate is checked; an int is a rational, never an element of F_p
    for bad in (Fraction(1, 2), 3, Fp(1, 11)):
        mixed = Octonion(a.x, a.y[:2] + (bad,) + a.y[3:])
        with pytest.raises(FieldMismatch):
            oct_mul(a, mixed)
        with pytest.raises(FieldMismatch):
            oct_mul(mixed, a)
    with_int = Octonion(c.x[:1] + (2,) + c.x[2:], c.y)
    assert oct_mul(with_int, c) == oct_mul(Octonion(c.x[:1] + (Fraction(2),) + c.x[2:], c.y), c)
    field = PrimeField(7)
    X = _random_albert(field, (field.one, -field.one, field.one), random.Random(1))
    rows = [list(r) for r in X.m]
    rows[0][0] = Octonion((3,) + rows[0][0].x[1:3] + (3,), rows[0][0].y)
    with pytest.raises(FieldMismatch):
        AlbertElement(tuple(tuple(r) for r in rows), X.gamma)


# each takes an octonion a and an octonion b of another field; the unary
# operations meet an octonion with a's x and b's y
_MIXED_OPS = {
    "add": lambda a, b: oct_add(a, b),
    "sub": lambda a, b: oct_sub(a, b),
    "neg": lambda a, b: oct_neg(Octonion(a.x, b.y)),
    "conj": lambda a, b: oct_conj(Octonion(a.x, b.y)),
    "norm": lambda a, b: oct_norm(Octonion(a.x, b.y)),
    "scale": lambda a, b: oct_scale(b.x[0], a),
    "scalar_part": lambda a, b: Octonion(a.x, b.y).scalar_part_or_none(),
}


@pytest.mark.parametrize("op", list(_MIXED_OPS))
@pytest.mark.parametrize("other", [RationalField(), PrimeField(11)], ids=["F7-Q", "F7-F11"])
def test_every_operation_rejects_mixed_fields(other, op):
    rng = random.Random(3)
    a, b = random_octonion(PrimeField(7), rng), random_octonion(other, rng)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(FieldMismatch):
            _MIXED_OPS[op](x, y)


def test_int_scalar_is_valid_in_every_field():
    for field in (RationalField(), PrimeField(7)):
        a = random_octonion(field, random.Random(4))
        assert oct_scale(3, a) == oct_scale(field.from_int(3), a)
        assert oct_scale(-1, a) == oct_neg(a) == oct_sub(oct_zero(field), a)


def test_fp_with_fraction_is_a_field_mismatch():
    a, q = Fp(1, 7), Fraction(1, 2)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(FieldMismatch):
            op(a, q)
        with pytest.raises(FieldMismatch):
            op(q, a)
    with pytest.raises(FieldMismatch):
        a / q


def test_albert_construction_validates():
    field = PrimeField(7)
    gamma = (field.one, -field.one, field.one)
    X = _random_albert(field, gamma, random.Random(5))
    # tampering with one off-diagonal entry breaks the involution invariant
    rows = [list(r) for r in X.m]
    rows[0][1] = oct_add(rows[0][1], oct_unit(field))
    with pytest.raises(ValueError):
        AlbertElement(tuple(tuple(r) for r in rows), X.gamma)


def test_albert_diagonal_must_be_scalar():
    field = PrimeField(7)
    X = albert_identity(field, (field.one, -field.one, field.one))
    rows = [list(r) for r in X.m]
    rows[0][0] = oct_basis(field)[0]
    with pytest.raises(ValueError, match="diagonal entries must be scalars"):
        AlbertElement(tuple(tuple(r) for r in rows), X.gamma)


def test_gamma_with_a_zero_entry_is_refused():
    field = PrimeField(7)
    with pytest.raises(ValueError, match="gamma must be three nonzero scalars"):
        albert_identity(field, (field.one, field.zero, field.one))


def test_albert_identity_and_idempotent():
    field = PrimeField(7)
    gamma = (field.one, -field.one, field.one)
    ident = albert_identity(field, gamma)
    u = idempotent_u(field, gamma)
    one = field.one
    half = one / (one + one)
    assert albert_mul(u, u) == u
    assert albert_q(u) == half
    assert albert_q(ident) == half * field.from_int(3)
    rng = random.Random(9)
    X = _random_albert(field, gamma, rng)
    assert albert_mul(X, ident) == X


def test_jordan_commutativity_and_q_agreement():
    field = PrimeField(7)
    gamma = (field.one, -field.one, field.one)
    rng = random.Random(31)
    for _ in range(200):
        X = _random_albert(field, gamma, rng)
        Y = _random_albert(field, gamma, rng)
        XY = albert_mul(X, Y)
        assert XY == albert_mul(Y, X)
        AlbertElement(XY.m, XY.gamma)  # hermitian closure
        albert_q(X)  # raises if the two computation paths disagree


def test_jordan_over_rationals_with_general_gamma():
    field = RationalField()
    gamma = (Fraction(1), Fraction(-2), Fraction(3))
    rng = random.Random(13)
    for _ in range(50):
        X = _random_albert(field, gamma, rng)
        Y = _random_albert(field, gamma, rng)
        assert albert_mul(X, Y) == albert_mul(Y, X)
        albert_q(X)


@pytest.mark.parametrize("field", [RationalField(), PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("gamma", [(1, -1, 1), (1, -2, 3)])
def test_integer_gamma_is_exact(field, gamma):
    as_field = tuple(field.from_int(g) for g in gamma)
    rng = random.Random(17)
    for _ in range(10):
        xs = tuple(field.random(rng) for _ in range(3))
        cs = tuple(random_octonion(field, rng) for _ in range(3))
        X, Xf = (albert_from_coords(field, g, xs, cs) for g in (gamma, as_field))
        assert X == Xf and X.gamma == as_field
        Y = _random_albert(field, as_field, rng)
        assert albert_mul(X, Y) == albert_mul(Xf, Y)
        assert albert_q(X) == albert_q(Xf)
    if gamma == (1, -1, 1):
        space = e0_basis(field)
        c, x = random_octonion(field, rng), field.random(rng)
        assert space.form(x, c) == x * x - oct_norm(c)


def _reference_oct_mul(a, b):
    """(x, y)(u, v) = (xu + adj(v) y, v x + y adj(u)) by scalar field operations."""

    def mul(m, n):
        p, q, r, s = m
        t, u, v, w = n
        return (p * t + q * v, p * u + q * w, r * t + s * v, r * u + s * w)

    def add(m, n):
        return tuple(s + t for s, t in zip(m, n))

    def adj(m):
        return (m[3], -m[1], -m[2], m[0])

    x, y, u, v = a.x, a.y, b.x, b.y
    return Octonion(add(mul(x, u), mul(adj(v), y)), add(mul(v, x), mul(y, adj(u))))


def _reference_jordan(field, X, Y):
    """(XY + YX) / 2, entry by entry, from _reference_oct_mul."""

    def entry(A, B, i, j):
        acc = oct_zero(field)
        for k in range(3):
            acc = oct_add(acc, _reference_oct_mul(A.m[i][k], B.m[k][j]))
        return acc

    half = field.one / field.from_int(2)
    return tuple(
        tuple(oct_scale(half, oct_add(entry(X, Y, i, j), entry(Y, X, i, j))) for j in range(3))
        for i in range(3)
    )


def _assert_in_field(field, coords):
    if isinstance(field, PrimeField):
        assert all(type(c) is Fp and c.p == field.p and 0 <= c.value < field.p for c in coords)
    else:
        assert all(type(c) is Fraction for c in coords)


@pytest.mark.parametrize("field", [RationalField(), PrimeField(7), PrimeField(11)], ids=["Q", "F7", "F11"])
def test_oct_mul_matches_scalar_reference(field):
    rng = random.Random(2718)
    for _ in range(200):
        a, b = random_octonion(field, rng), random_octonion(field, rng)
        ab = oct_mul(a, b)
        assert ab == _reference_oct_mul(a, b)
        _assert_in_field(field, ab.x + ab.y)


@pytest.mark.parametrize(
    "field,gamma", [(PrimeField(7), (1, -1, 1)), (RationalField(), (1, -2, 3))], ids=["F7", "Q"]
)
def test_albert_mul_matches_naive_jordan_product(field, gamma):
    gamma = tuple(field.from_int(g) for g in gamma)
    rng = random.Random(1618)
    for _ in range(50):
        X, Y = _random_albert(field, gamma, rng), _random_albert(field, gamma, rng)
        XY = albert_mul(X, Y)
        assert XY.m == _reference_jordan(field, X, Y)
        _assert_in_field(field, [c for row in XY.m for o in row for c in o.x + o.y])


def test_gamma_mismatch_rejected():
    field = RationalField()
    X = _random_albert(field, (Fraction(1), Fraction(-1), Fraction(1)), random.Random(2))
    Y = _random_albert(field, (Fraction(1), Fraction(2), Fraction(1)), random.Random(2))
    with pytest.raises(FieldMismatch):
        albert_mul(X, Y)


def test_e0_space():
    field = PrimeField(7)
    gamma = (field.one, -field.one, field.one)
    space = e0_basis(field)
    assert len(space.basis) == 9

    ident = albert_identity(field, gamma)
    u = idempotent_u(field, gamma)
    zero = albert_zero(field, gamma)
    for X in space.basis:
        assert albert_bilinear(X, ident) == field.zero
        assert albert_bilinear(X, u) == field.zero
        assert albert_mul(u, X) == zero

    assert space.form(field.one, oct_zero(field)) == field.one
    rng = random.Random(77)
    for _ in range(100):
        c = random_octonion(field, rng)
        x = field.random(rng)
        assert space.form(x, c) == x * x - oct_norm(c)


def test_e0_basis_linearly_independent():
    field = PrimeField(11)
    space = e0_basis(field)
    # coordinates (x, c) of the nine basis vectors form the identity matrix
    coords = []
    for X in space.basis:
        x = X.m[0][0].scalar_part_or_none()
        c = X.m[0][1]
        coords.append((x,) + c.x + c.y)
    for i, row in enumerate(coords):
        for j, v in enumerate(row):
            assert bool(v) == (i == j)
