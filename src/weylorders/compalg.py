"""Split octonions as pairs of 2x2 matrices, and 27-dimensional Jordan algebras.

Scalars live in an exact coefficient field: the rationals (via Fraction) or
a prime field with at least five elements.  The octonion product follows the
vector-matrix construction; hermitian 3x3 octonion matrices with the product
(XY + YX)/2 realize the Jordan algebra, whose quadratic form is computed
both from the trace and from its explicit expansion.

Every operation runs on integer coordinates: the values over F_p, the
numerators over a common denominator over Q.  Each output coordinate is
reduced or turned into a Fraction once.  _raw, which reads the coordinates,
is the one field check: operands from different fields raise FieldMismatch.
A plain int coordinate is rational, but a plain int scalar (of oct_scale, or
in gamma) is valid in any field; gamma's ints become field elements when the
element is built.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import lcm
from random import Random
from typing import Callable, List, Tuple

from .cyclotomic import is_prime
from .errors import FieldMismatch

__all__ = [
    "Fp",
    "PrimeField",
    "RationalField",
    "Octonion",
    "oct_mul",
    "oct_norm",
    "oct_conj",
    "oct_add",
    "oct_sub",
    "oct_neg",
    "oct_scale",
    "oct_unit",
    "oct_zero",
    "oct_scalar",
    "oct_basis",
    "random_octonion",
    "AlbertElement",
    "albert_from_coords",
    "albert_identity",
    "albert_zero",
    "albert_add",
    "albert_mul",
    "albert_q",
    "albert_bilinear",
    "idempotent_u",
    "E0Space",
    "e0_basis",
]

_setattr = object.__setattr__


class Fp:
    """An element of a prime field, immutable like a frozen dataclass.

    A plain slotted class: coordinates are built by the thousand, and the
    constructor stores the reduced value once."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        _setattr(self, "value", value % p)
        _setattr(self, "p", p)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Fp, (self.value, self.p)

    def __repr__(self):
        return f"Fp(value={self.value!r}, p={self.p!r})"

    def __eq__(self, other):
        if other.__class__ is not Fp:
            return NotImplemented
        return self.value == other.value and self.p == other.p

    def __hash__(self):
        return hash((self.value, self.p))

    def _coerce(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatch(f"mixed fields F_{self.p} and F_{other.p}")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        if isinstance(other, Fraction):
            raise FieldMismatch(f"mixed fields F_{self.p} and Q")
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(self.value * pow(o.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o / self

    def __neg__(self):
        return Fp(-self.value, self.p)

    def __bool__(self):
        return self.value != 0


@dataclass(frozen=True)
class PrimeField:
    """The field with p elements, p prime and not 2 or 3."""

    p: int

    def __post_init__(self):
        if self.p in (2, 3) or not is_prime(self.p):
            raise ValueError("coefficient field must be F_p with p >= 5 prime")

    @property
    def zero(self) -> Fp:
        return Fp(0, self.p)

    @property
    def one(self) -> Fp:
        return Fp(1, self.p)

    def from_int(self, k: int) -> Fp:
        return Fp(k, self.p)

    def random(self, rng: Random) -> Fp:
        return Fp(rng.randrange(self.p), self.p)


class RationalField:
    """The rationals, with exact Fraction scalars."""

    p = 0  # the characteristic, as PrimeField.p
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def from_int(k: int) -> Fraction:
        return Fraction(k)

    @staticmethod
    def random(rng: Random) -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


@dataclass(frozen=True)
class Octonion:
    """A split octonion: a pair of 2x2 matrices over the coefficient field."""

    x: Tuple  # (a, b, c, d) for [[a, b], [c, d]]
    y: Tuple

    def scalar_part_or_none(self):
        p, _, n = _raw(self.x + self.y)
        return self.x[0] if _is_scalar(n, p) else None


def _raw(coords) -> Tuple[int, int, List[int]]:
    """(p, d, ints): the field of coords (p, or 0 for Q), a common denominator
    d (1 over F_p) and the coordinates as integers over it.  The field is the
    one of the first coordinate; ints are rationals, never elements of F_p."""
    first = coords[0]
    if isinstance(first, Fp):
        p = first.p
        ints = [c.value for c in coords if type(c) is Fp and c.p == p]
        if len(ints) == len(coords):
            return p, 1, ints
    elif all(isinstance(c, (int, Fraction)) for c in coords):
        d = lcm(*[c.denominator for c in coords])
        return 0, d, [c.numerator * (d // c.denominator) for c in coords]
    raise FieldMismatch("coordinates from different coefficient fields")


def _wrap(p, d, ints) -> Octonion:
    """The octonion with coordinates ints / d, each reduced once."""
    c = [Fp(v, p) for v in ints] if p else [Fraction(v, d) for v in ints]
    return Octonion(tuple(c[:4]), tuple(c[4:]))


def _omul(a, b) -> Tuple[int, ...]:
    """(x, y)(u, v) = (xu + adj(v) y, v x + y adj(u)) on two 8-tuples of ints."""
    x0, x1, x2, x3, y0, y1, y2, y3 = a
    u0, u1, u2, u3, v0, v1, v2, v3 = b
    return (
        x0 * u0 + x1 * u2 + v3 * y0 - v1 * y2,
        x0 * u1 + x1 * u3 + v3 * y1 - v1 * y3,
        x2 * u0 + x3 * u2 - v2 * y0 + v0 * y2,
        x2 * u1 + x3 * u3 - v2 * y1 + v0 * y3,
        v0 * x0 + v1 * x2 + y0 * u3 - y1 * u2,
        v0 * x1 + v1 * x3 - y0 * u1 + y1 * u0,
        v2 * x0 + v3 * x2 + y2 * u3 - y3 * u2,
        v2 * x1 + v3 * x3 - y2 * u1 + y3 * u0,
    )


def _pair(a: Octonion, b: Octonion):
    """(p, d, ints of a, ints of b): _raw of both operands' 16 coordinates."""
    p, d, n = _raw(a.x + a.y + b.x + b.y)
    return p, d, n[:8], n[8:]


def oct_mul(a: Octonion, b: Octonion) -> Octonion:
    """Vector-matrix product (x, y)(u, v) = (xu + adj(v) y, v x + y adj(u))."""
    p, d, m, n = _pair(a, b)
    return _wrap(p, d * d, _omul(m, n))


def oct_norm(a: Octonion):
    """det(x) - det(y), as one field element."""
    p, d, (x0, x1, x2, x3, y0, y1, y2, y3) = _raw(a.x + a.y)
    v = x0 * x3 - x1 * x2 - y0 * y3 + y1 * y2
    return Fp(v, p) if p else Fraction(v, d * d)


def oct_conj(a: Octonion) -> Octonion:
    """(x, y) -> (adj(x), -y)."""
    p, d, n = _raw(a.x + a.y)
    return _wrap(p, d, _conj(n))


def oct_add(a: Octonion, b: Octonion) -> Octonion:
    p, d, m, n = _pair(a, b)
    return _wrap(p, d, [u + v for u, v in zip(m, n)])


def oct_sub(a: Octonion, b: Octonion) -> Octonion:
    p, d, m, n = _pair(a, b)
    return _wrap(p, d, [u - v for u, v in zip(m, n)])


def oct_neg(a: Octonion) -> Octonion:
    return oct_scale(-1, a)


def oct_scale(s, a: Octonion) -> Octonion:
    """s a.  A plain int s is a scalar in any field, though an int coordinate
    is rational; any other s goes through _raw with the coordinates."""
    if isinstance(s, int):
        p, d, n = _raw(a.x + a.y)
    else:
        p, d, n = _raw(a.x + a.y + (s,))
        s, d = n.pop(), d * d
    return _wrap(p, d, [s * v for v in n])


def oct_unit(field) -> Octonion:
    z, o = field.zero, field.one
    return Octonion((o, z, z, o), (z, z, z, z))


def oct_zero(field) -> Octonion:
    z = field.zero
    return Octonion((z, z, z, z), (z, z, z, z))


def oct_scalar(field, s) -> Octonion:
    z = field.zero
    return Octonion((s, z, z, s), (z, z, z, z))


def oct_basis(field) -> List[Octonion]:
    """The eight coordinate units of the split algebra."""
    z = field.zero
    o = field.one
    units = []
    for slot in range(8):
        coords = [z] * 8
        coords[slot] = o
        units.append(Octonion(tuple(coords[:4]), tuple(coords[4:])))
    return units


def random_octonion(field, rng: Random) -> Octonion:
    vals = [field.random(rng) for _ in range(8)]
    return Octonion(tuple(vals[:4]), tuple(vals[4:]))


# --- the 27-dimensional Jordan algebra ----------------------------------------


@dataclass(frozen=True)
class AlbertElement:
    """A hermitian 3x3 octonion matrix for the diagonal form gamma."""

    m: Tuple[Tuple[Octonion, Octonion, Octonion], ...]
    gamma: Tuple

    def __post_init__(self):
        p, _, e = _raw_albert(self)
        gamma, g = _in_field(p, self.gamma)
        object.__setattr__(self, "gamma", gamma)
        if not all(_is_scalar(e[4 * i], p) for i in range(3)):
            raise ValueError("diagonal entries must be scalars")
        for i, j in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
            # m[j][i] = gamma_j^{-1} gamma_i conj(m[i][j]), times gamma_j
            diff = [g[j] * u - g[i] * v for u, v in zip(e[3 * j + i], _conj(e[3 * i + j]))]
            if any(_mod(diff, p)):
                raise ValueError("matrix is not fixed by the involution")

    def diag(self) -> Tuple:
        return tuple(self.m[i][i].scalar_part_or_none() for i in range(3))


def albert_from_coords(field, gamma, xs, cs) -> AlbertElement:
    """Build the hermitian matrix from its independent coordinates
    (three diagonal scalars and three octonions)."""
    x1, x2, x3 = xs
    c1, c2, c3 = cs
    p = field.p
    gamma, g = _in_field(p, gamma)

    def mirror(i, j, c):  # gamma_i / gamma_j conj(c), the entry across from c
        _, d, n = _raw(c.x + c.y)
        r, d = (g[i] * pow(g[j], -1, p), 1) if p else (g[i], d * g[j])
        return _wrap(p, d, [r * v for v in _conj(n)])

    row1 = (oct_scalar(field, x1), c3, mirror(2, 0, c2))
    row2 = (mirror(0, 1, c3), oct_scalar(field, x2), c1)
    row3 = (c2, mirror(1, 2, c1), oct_scalar(field, x3))
    return AlbertElement((row1, row2, row3), gamma)


def albert_identity(field, gamma) -> AlbertElement:
    o = field.one
    zo = oct_zero(field)
    return albert_from_coords(field, gamma, (o, o, o), (zo, zo, zo))


def albert_zero(field, gamma) -> AlbertElement:
    z = field.zero
    zo = oct_zero(field)
    return albert_from_coords(field, gamma, (z, z, z), (zo, zo, zo))


def idempotent_u(field, gamma) -> AlbertElement:
    """diag(0, 0, 1): a primitive idempotent."""
    z, o = field.zero, field.one
    zo = oct_zero(field)
    return albert_from_coords(field, gamma, (z, z, o), (zo, zo, zo))


def _in_field(p, gamma):
    """gamma as elements of F_p (Q for p = 0), ints converted, and as
    integers over a common denominator."""
    gamma = tuple((Fp(g, p) if p else Fraction(g)) if isinstance(g, int) else g for g in gamma)
    if len(gamma) != 3 or not all(gamma):
        raise ValueError("gamma must be three nonzero scalars")
    q, _, ints = _raw(gamma)
    if q != p:
        raise FieldMismatch("gamma and the entries live in different fields")
    return gamma, ints


def _raw_albert(x: AlbertElement):
    """_raw over all 72 coordinates, split into the nine entries row by row."""
    p, d, r = _raw([c for row in x.m for o in row for c in o.x + o.y])
    return p, d, [r[k:k + 8] for k in range(0, 72, 8)]


def _conj(n):
    return (n[3], -n[1], -n[2], n[0], -n[4], -n[5], -n[6], -n[7])


def _mod(ints, p):
    return [v % p for v in ints] if p else ints


def _is_scalar(n, p) -> bool:
    n = _mod(n, p)
    return n[0] == n[3] and not any(n[1:3]) and not any(n[4:])


def _assoc_mul(rx, ry, i, j) -> List[int]:
    """Entry (i, j) of the matrix product of two _raw_albert entry lists: the
    three octonion products summed in ints."""
    a, b, c = (_omul(rx[3 * i + k], ry[3 * k + j]) for k in range(3))
    return [u + v + w for u, v, w in zip(a, b, c)]


def albert_add(x: AlbertElement, y: AlbertElement) -> AlbertElement:
    _check_albert_compat(x, y)
    rows = tuple(
        tuple(oct_add(x.m[i][j], y.m[i][j]) for j in range(3)) for i in range(3)
    )
    return AlbertElement(rows, x.gamma)


def _check_albert_compat(x: AlbertElement, y: AlbertElement) -> None:
    # gamma lies in the field of the entries, so one gamma means one field
    if x.gamma != y.gamma:
        raise FieldMismatch("elements built for different gamma forms")


def albert_mul(x: AlbertElement, y: AlbertElement) -> AlbertElement:
    """Jordan product (XY + YX) / 2; the result is hermitian again."""
    _check_albert_compat(x, y)
    p, d, rx = _raw_albert(x)
    _, e, ry = _raw_albert(y)
    # 1/2 is (p + 1) / 2 over F_p and a factor 2 of the denominator over Q
    h, d = ((p + 1) // 2, 1) if p else (1, 2 * d * e)

    def entry(i, j):
        xy, yx = _assoc_mul(rx, ry, i, j), _assoc_mul(ry, rx, i, j)
        return _wrap(p, d, [(u + v) * h for u, v in zip(xy, yx)])

    return AlbertElement(tuple(tuple(entry(i, j) for j in range(3)) for i in range(3)), x.gamma)


def albert_q(x: AlbertElement):
    """The quadratic form tr(X^2)/2, cross-checked against its expansion."""
    p, d, r = _raw_albert(x)
    square = [_assoc_mul(r, r, i, i) for i in range(3)]
    if not all(_is_scalar(s, p) for s in square):
        raise AssertionError("diagonal of the square is not scalar")
    trace = sum(s[0] for s in square)
    via_trace = Fp(trace * ((p + 1) // 2), p) if p else Fraction(trace, 2 * d * d)

    one = x.gamma[0] / x.gamma[0]
    half = one / (one + one)
    g1, g2, g3 = x.gamma
    x1, x2, x3 = x.diag()
    c1, c2, c3 = x.m[1][2], x.m[2][0], x.m[0][1]
    via_expansion = (
        half * (x1 * x1 + x2 * x2 + x3 * x3)
        + g2 / g3 * oct_norm(c1)
        + g3 / g1 * oct_norm(c2)
        + g1 / g2 * oct_norm(c3)
    )
    if via_trace != via_expansion:
        raise AssertionError("the two quadratic-form computations disagree")
    return via_trace


def albert_bilinear(x: AlbertElement, y: AlbertElement):
    """The bilinear form Q(x + y) - Q(x) - Q(y)."""
    return albert_q(albert_add(x, y)) - albert_q(x) - albert_q(y)


@dataclass(frozen=True)
class E0Space:
    """The 9-dimensional subspace attached to the idempotent diag(0,0,1)
    for gamma = (1, -1, 1), parametrized by pairs (x, c)."""

    field: object
    gamma: Tuple
    basis: Tuple[AlbertElement, ...]
    embed: Callable
    form: Callable


def e0_basis(field) -> E0Space:
    """Basis and quadratic form of the subspace orthogonal to 1 and u and
    killed by u, for gamma = (1, -1, 1); the form evaluates to x^2 - N(c)."""
    o = field.one
    gamma = (o, -o, o)
    zo = oct_zero(field)
    z = field.zero

    def embed(x, c: Octonion) -> AlbertElement:
        return albert_from_coords(field, gamma, (x, -x, z), (zo, zo, c))

    def form(x, c: Octonion):
        value = albert_q(embed(x, c))
        closed = x * x - oct_norm(c)
        if value != closed:
            raise AssertionError("induced form disagrees with x^2 - N(c)")
        return value

    basis = [embed(o, zo)] + [embed(z, e) for e in oct_basis(field)]
    return E0Space(field, tuple(gamma), tuple(basis), embed, form)
