"""Exact plane projective geometry over Q and its quadratic extension.

The scalar field adjoins eps with eps^2 = eps - 1; then -eps is a primitive
third root of unity, which is exactly what the bundled line and conic data
needs.  A scalar (a + b eps) / d is stored as three integers in canonical
form, d > 0 and gcd(a, b, d) = 1, so its arithmetic builds no Fraction.
Points and lines are stored divided by their first nonzero entry; over a
field that representative is unique, so projective equality is plain `==`
and points and lines hash by value.  Intersection multiplicities of lines
and conics come from a few bilinear-form values through the pencil rule
I_p(F, G) = I_p(F - lambda G, G), with no series or parametrization, and
the same rule turns the osculation of two conic families into the rational
roots of one polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import InvariantError
from .linalg import solve_rational

__all__ = [
    "QuadExt",
    "EPS",
    "ProjPoint",
    "ProjLine",
    "ProjConic",
    "incident",
    "collinear",
    "proj_eq",
    "line_through",
    "meet",
    "apply_matrix",
    "push_conic",
    "intersection_multiplicity",
    "conic_family_solve",
    "dual_hesse_check",
    "automorphism_action_check",
    "DualHesseReport",
    "ActionReport",
    "Y333_POINTS",
    "Y333_LINES",
    "Y244_DATA",
]


class QuadExt:
    """(a + b eps) / d with eps^2 = eps - 1, stored as three integers.

    The form is canonical: d > 0 and gcd(a, b, d) = 1, so equal values have
    equal fields and all arithmetic is on integers.  `a`, `b` and `norm()`
    read back as Fractions.  A rational value equals, and hashes like, the
    int or Fraction of that value; other types compare unequal, and
    arithmetic with them raises TypeError.  The
    conjugate swaps eps for 1 - eps; the norm a^2 + ab + b^2 vanishes only
    at zero, so every nonzero element is invertible.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a=0, b=0):
        if type(a) is int and type(b) is int:
            self._a, self._b, self._d = a, b, 1
            return
        a, b = Fraction(a), Fraction(b)
        # over the lcm of two reduced denominators the numerators are coprime
        # to it, so the form is canonical without a gcd
        d = lcm(a.denominator, b.denominator)
        self._a = a.numerator * (d // a.denominator)
        self._b = b.numerator * (d // b.denominator)
        self._d = d

    @classmethod
    def of(cls, x) -> "QuadExt":
        return x if isinstance(x, QuadExt) else cls(x)

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other) -> bool:
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        if self._b == 0:
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _quad(self._a + other._a, self._b + other._b, d)
        return _quad(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self._a, -self._b, self._d)

    def __sub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _quad(self._a - other._a, self._b - other._b, d)
        return _quad(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        # (a + b eps)(c + e eps) = ac + (ae + bc) eps + be (eps - 1)
        return _quad(a * c - b * e, a * e + b * c + b * e, self._d * other._d)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExt":
        return _quad(self._a + self._b, -self._b, self._d)

    def norm(self) -> Fraction:
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + a * b + b * b, d * d)

    def inverse(self) -> "QuadExt":
        a, b, d = self._a, self._b, self._d
        n = a * a + a * b + b * b  # positive unless zero, so no sign to move
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return _quad(d * (a + b), -d * b, n)

    def __truediv__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self * other.inverse()

    def __rtruediv__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = QuadExt(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        if self._b == 0:
            return f"{self.a}"
        if self._a == 0:
            return f"{self.b}*eps"
        return f"({self.a} + {self.b}*eps)"


def _operand(x) -> QuadExt | None:
    """x as a QuadExt if it is a QuadExt, int or Fraction, else None."""
    if isinstance(x, QuadExt):
        return x
    return QuadExt(x) if isinstance(x, (int, Fraction)) else None


def _quad(a: int, b: int, d: int) -> QuadExt:
    """The element (a + b eps) / d for d > 0, in canonical form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    out = object.__new__(QuadExt)
    out._a, out._b, out._d = a, b, d
    return out


EPS = QuadExt(0, 1)


def _scaled(v: tuple[QuadExt, ...]) -> tuple[QuadExt, ...] | None:
    """v divided by its first nonzero entry, or None if v is zero; each
    nonzero entry is canonicalised once."""
    lead = next((c for c in v if c), None)
    if lead is None:
        return None
    la, lb, ld = lead._a, lead._b, lead._d
    if lb == 0 and la == ld:  # the canonical 1
        return v
    # c / lead = c conj(L) ld / (c_d N(L)) for L = la + lb eps, whose
    # conjugate is (la + lb) - lb eps and whose norm N(L) is positive
    ia, ib = la + lb, -lb
    n = la * la + la * lb + lb * lb
    out = []
    for c in v:
        p, q = c._a, c._b
        if p or q:
            qi = q * ib
            c = _quad((p * ia - qi) * ld, (p * ib + q * ia + qi) * ld, c._d * n)
        out.append(c)
    return tuple(out)


def _homogeneous(values: tuple, noun: str) -> tuple[QuadExt, QuadExt, QuadExt]:
    """Three entries, given one by one or as one tuple or list, scaled."""
    if len(values) == 1 and isinstance(values[0], (tuple, list)):
        values = values[0]
    v = tuple(QuadExt.of(c) for c in values)
    if len(v) != 3:
        raise ValueError("need exactly three homogeneous coordinates")
    scaled = _scaled(v)
    if scaled is None:
        raise ValueError(f"all {noun} zero")
    return scaled


@dataclass(frozen=True)
class ProjPoint:
    """A point of P^2, its coordinates divided by the first nonzero one.

    So `ProjPoint(2, 4, 6)` stores and prints [1, 2, 3], and `==`, `hash`,
    sets and dicts compare points up to scalar.
    """

    coords: tuple[QuadExt, QuadExt, QuadExt]

    def __init__(self, *coords):
        object.__setattr__(self, "coords", _homogeneous(coords, "coordinates"))

    def __repr__(self):
        return f"[{', '.join(map(repr, self.coords))}]"


@dataclass(frozen=True)
class ProjLine:
    """Dual coordinates: the locus l0 x + l1 y + l2 z = 0, stored divided
    by the first nonzero coefficient, so `==` is equality of lines.  A line
    never equals a point with the same entries."""

    coeffs: tuple[QuadExt, QuadExt, QuadExt]

    def __init__(self, *coeffs):
        object.__setattr__(self, "coeffs", _homogeneous(coeffs, "coefficients"))

    def __repr__(self):
        return f"line{self.coeffs!r}"


class ProjConic:
    """A ternary quadratic form, stored as its symmetric matrix exactly as
    given: a pencil F0 + u F1 keeps its parameter u."""

    def __init__(self, matrix: Sequence[Sequence]):
        self.matrix = tuple(_rows3(matrix, "conic"))
        for i in range(3):
            for j in range(i):
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise ValueError("conic matrix must be symmetric")

    @classmethod
    def from_coeffs(cls, xx=0, yy=0, zz=0, xy=0, xz=0, yz=0) -> "ProjConic":
        h = Fraction(1, 2)
        xx, yy, zz = QuadExt.of(xx), QuadExt.of(yy), QuadExt.of(zz)
        xy, xz, yz = QuadExt.of(xy) * h, QuadExt.of(xz) * h, QuadExt.of(yz) * h
        return cls(((xx, xy, xz), (xy, yy, yz), (xz, yz, zz)))

    def apply(self, p: ProjPoint) -> QuadExt:
        return _dot(p.coords, _mat_vec(self.matrix, p.coords))

    def gradient(self, p: ProjPoint) -> tuple[QuadExt, QuadExt, QuadExt]:
        return _mat_vec(self.matrix, p.coords)

    def det(self) -> QuadExt:
        return _det3(self.matrix)

    def is_smooth(self) -> bool:
        return bool(self.det())


def incident(p: ProjPoint, c: ProjLine | ProjConic) -> bool:
    """Exact evaluation of the defining form at the point."""
    if isinstance(c, ProjLine):
        return not _dot(c.coeffs, p.coords)
    return not c.apply(p)


def _det3(rows) -> QuadExt:
    """A 3x3 determinant over Q(eps) as the triple product r0 . (r1 x r2)."""
    return _dot(rows[0], _cross(rows[1], rows[2]))


def collinear(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint) -> bool:
    return not _det3([p.coords for p in (p1, p2, p3)])


def proj_eq(p: ProjPoint | ProjLine, q: ProjPoint | ProjLine) -> bool:
    """Equality up to scalar, which for the stored scaled entries is `==`;
    a point never equals a line."""
    return p == q


# The kernels below read the integer fields of their operands, accumulate
# numerators over a common denominator and canonicalise once per result
# entry; (p + q eps)(r + s eps) = pr - qs + (ps + qr + qs) eps.


def _dot(x, y) -> QuadExt:
    """sum x_i y_i."""
    a = b = 0
    d = 1
    for u, v in zip(x, y):
        p, q, r, s = u._a, u._b, v._a, v._b
        if (p or q) and (r or s):
            qs = q * s
            e = u._d * v._d
            if e == d:
                a += p * r - qs
                b += p * s + q * r + qs
            else:
                a = a * e + (p * r - qs) * d
                b = b * e + (p * s + q * r + qs) * d
                d *= e
    return _quad(a, b, d)


def _minor(u, v, w, z) -> QuadExt:
    """u v - w z."""
    p, q, r, s = u._a, u._b, v._a, v._b
    f, g, h, k = w._a, w._b, z._a, z._b
    qs, gk = q * s, g * k
    a, b, d = p * r - qs, p * s + q * r + qs, u._d * v._d
    a2, b2, d2 = f * h - gk, f * k + g * h + gk, w._d * z._d
    if d == d2:
        return _quad(a - a2, b - b2, d)
    return _quad(a * d2 - a2 * d, b * d2 - b2 * d, d * d2)


def _mat_vec(m, x) -> tuple[QuadExt, QuadExt, QuadExt]:
    return tuple(_dot(row, x) for row in m)


def _cross(a, b):
    return (
        _minor(a[1], b[2], a[2], b[1]),
        _minor(a[2], b[0], a[0], b[2]),
        _minor(a[0], b[1], a[1], b[0]),
    )


def _rows3(m, noun: str) -> list[tuple[QuadExt, QuadExt, QuadExt]]:
    """The rows of a 3x3 matrix as Q(eps) entries; ValueError for any other
    shape, before a kernel's zip could drop or miss an entry."""
    rows = [tuple(map(QuadExt.of, row)) for row in m]
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        raise ValueError(f"{noun} matrix must be 3x3")
    return rows


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    if p == q:
        raise ValueError("two distinct points are needed")
    return ProjLine(_cross(p.coords, q.coords))


def meet(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    if l1 == l2:
        raise ValueError("lines coincide")
    return ProjPoint(_cross(l1.coeffs, l2.coeffs))


def apply_matrix(m: Sequence[Sequence], p: ProjPoint) -> ProjPoint:
    return ProjPoint(_mat_vec(_rows3(m, "projectivity"), p.coords))


def _mat_inv3(m):
    rows = _rows3(m, "projectivity")
    # column j of adj(m) is row j+1 cross row j+2, and det = row 0 . column 0
    adj = [_cross(rows[(j + 1) % 3], rows[(j + 2) % 3]) for j in range(3)]
    det = _dot(rows[0], adj[0])
    if not det:
        raise ValueError("singular matrix")
    inv = det.inverse()
    return [[adj[j][i] * inv for j in range(3)] for i in range(3)]


def push_conic(m: Sequence[Sequence], c: ProjConic) -> ProjConic:
    """The image conic under the projectivity p -> m p."""
    # entry (i, j) of (m^{-1})^T A m^{-1} is c_i . A c_j over the columns of m^{-1}
    cols = list(zip(*_mat_inv3(m)))
    images = [_mat_vec(c.matrix, col) for col in cols]
    return ProjConic([[_dot(ci, image) for image in images] for ci in cols])


def conics_proportional(c1: ProjConic, c2: ProjConic) -> bool:
    """Equality of the matrices up to a nonzero scalar; the zero matrix,
    which is no conic, is proportional only to itself."""
    return _scaled(sum(c1.matrix, ())) == _scaled(sum(c2.matrix, ()))


# -- intersection multiplicities ----------------------------------------


def _pencil(x, m1, y, m2) -> list[list[QuadExt]]:
    """The symmetric matrix x M1 + y M2."""
    xy = (QuadExt.of(x), QuadExt.of(y))
    return [[_dot(xy, ab) for ab in zip(r1, r2)] for r1, r2 in zip(m1, m2)]


_UNIT = tuple(tuple(QuadExt(int(i == k)) for i in range(3)) for k in range(3))


def intersection_multiplicity(
    c1: ProjLine | ProjConic, c2: ProjLine | ProjConic, p: ProjPoint
) -> int:
    """Local intersection number at p of c1 with a line or smooth conic c2.

    Every case reduces to a few bilinear-form values through the pencil rule
    I_p(F, G) = I_p(F - lambda G, G) (Fulton, Algebraic Curves, sec. 3.3).
    Let q be the point where c2, or for a conic its tangent t = A2 p, meets
    the coordinate line x_k = 0 for some p_k != 0; q is not p.

    On a line c2, c1 restricts to the binary form with coefficients
    p^T A1 q and q^T A1 q along p + s q (just L.q for a line c1), and the
    order is the index of the first nonzero one.  On a smooth conic c2, a
    line c1 has order 2 if it is t and 1 otherwise, and a conic c1 has order
    1 unless A1 p = lambda t.  Then H = A1 - lambda A2 is singular at p, so
    it is a pair of lines through p, each adding 1, or 2 if it is t: the
    order is 2 if q^T H q != 0, 3 if H q != 0 and 4 otherwise.  When c1
    vanishes all along c2 (H = 0), the curves share a component.
    """
    if not incident(p, c1) or not incident(p, c2):
        raise ValueError("the point must lie on both curves")
    k = next(i for i in range(3) if p.coords[i])
    if isinstance(c2, ProjLine):
        q = _cross(c2.coeffs, _UNIT[k])
        if isinstance(c1, ProjLine):
            if _dot(c1.coeffs, q):
                return 1
        else:
            aq = _mat_vec(c1.matrix, q)
            if _dot(p.coords, aq):
                return 1
            if _dot(q, aq):
                return 2
    else:
        if not c2.is_smooth():
            raise ValueError("the parametrized conic must be smooth")
        t = c2.gradient(p)
        if isinstance(c1, ProjLine):
            return 1 if any(_cross(c1.coeffs, t)) else 2
        g = c1.gradient(p)
        if any(_cross(g, t)):
            return 1
        # H scaled by t_j != 0, so that lambda = g_j / t_j needs no division
        j = next(i for i in range(3) if t[i])
        h = _pencil(t[j], c1.matrix, -g[j], c2.matrix)
        q = _cross(t, _UNIT[k])
        hq = _mat_vec(h, q)
        if _dot(q, hq):
            return 2
        if any(hq):
            return 3
        if any(map(any, h)):
            return 4
    raise ValueError("curves share a component through the point")


# -- the one-parameter conic families ------------------------------------

# x^2 - y^2 + u y z = F0 + u F1, through T23 (u = 2) and T33 (u = -2), and
# v (y^2 - x^2 - 2 y z) - z^2 + y z + x z = G0 + v G1, through E (v = 1/2);
# every member of either family passes through [1, 1, 0]
_F0, _F1 = ProjConic.from_coeffs(xx=1, yy=-1), ProjConic.from_coeffs(yz=1)
_G0 = ProjConic.from_coeffs(zz=-1, yz=1, xz=1)
_G1 = ProjConic.from_coeffs(xx=-1, yy=1, yz=-2)
_FAMILY_POINT = ProjPoint(1, 1, 0)


def _family_contact(v) -> tuple[QuadExt, QuadExt, QuadExt]:
    """(a, b, c) at the parameter v of the second family.

    F_u p and G_v p are both orthogonal to p, so they are parallel exactly
    when the first entry of their cross product, a + u b, vanishes (p_0 is
    not 0).  With x = F0 p, y = F1 p and w = G_v p in that plane,
    b x - a y = -kappa w for the constant kappa = (x cross y)_0, so
    F = b F0 - a F1 (F_u scaled by b) and H = kappa G_v + F satisfy
    H p = 0.  c = q^T H q, for q the point of the tangent line w on x = 0,
    is the order-three condition of `intersection_multiplicity`.
    """
    p = _FAMILY_POINT.coords
    x, y = _mat_vec(_F0.matrix, p), _mat_vec(_F1.matrix, p)
    g = _pencil(1, _G0.matrix, v, _G1.matrix)
    w = _mat_vec(g, p)
    a, b = _cross(x, w)[0], _cross(y, w)[0]
    h = _pencil(_cross(x, y)[0], g, 1, _pencil(b, _F0.matrix, -a, _F1.matrix))
    q = _cross(w, _UNIT[0])
    return a, b, _dot(q, _mat_vec(h, q))


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """Rational roots of a nonzero polynomial given low degree first, by the
    rational root theorem."""
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    while not ints[-1]:
        ints.pop()
    roots = [Fraction(0)] if not ints[0] else []
    while not ints[0]:
        ints.pop(0)

    def divisors(n: int) -> list[int]:
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    for num in divisors(ints[0]):
        for den in divisors(ints[-1]):
            for r in (Fraction(num, den), Fraction(-num, den)):
                if r not in roots and not sum(c * r**i for i, c in enumerate(ints)):
                    roots.append(r)
    return sorted(roots)


def conic_family_solve() -> tuple[Fraction, Fraction]:
    """The parameters (u, v) at which the conics x^2 - y^2 + u y z and
    v (y^2 - x^2 - 2 y z) - z^2 + y z + x z meet to order three at
    [1, 1, 0], which lies on both for every u and v.

    Tangency there is linear in u, u = -a(v) / b(v); scaled by b(v), the
    order-three condition of `intersection_multiplicity` becomes one
    polynomial c(v) of degree at most 3 (see `_family_contact`), which its
    values at v = 0..3 fix.  Each rational root with b(v) != 0 is re-checked
    with `intersection_multiplicity`, and exactly one must remain.  The
    solve takes no input, so any failure is a defect and raises
    InvariantError.
    """
    samples = range(4)
    values = [_family_contact(v)[2].a for v in samples]
    coeffs = solve_rational([[Fraction(v) ** n for n in samples] for v in samples], values)
    if not any(coeffs):
        raise InvariantError("conic families: the contact condition vanishes identically")
    found = []
    for v in _rational_roots(coeffs):
        a, b, _ = _family_contact(v)
        if not b:
            continue
        u = (-a / b).a
        t33 = ProjConic(_pencil(1, _F0.matrix, u, _F1.matrix))
        e = ProjConic(_pencil(1, _G0.matrix, v, _G1.matrix))
        if intersection_multiplicity(e, t33, _FAMILY_POINT) == 3:
            found.append((u, v))
    if len(found) != 1:
        raise InvariantError(
            f"conic families: {len(found)} parameter pairs meet to order three, not one"
        )
    return found[0]


# -- bundled coordinate data ---------------------------------------------


_EM1 = EPS - 1  # eps - 1

Y333_POINTS: dict[str, ProjPoint] = {
    "Q1": ProjPoint(1, 0, 0),
    "Q2": ProjPoint(0, 0, 1),
    "Q3": ProjPoint(1, 1 + EPS, EPS),
    "P1": ProjPoint(0, 1, 1),
    "P2": ProjPoint(1, 1, 0),
    "P3": ProjPoint(1, EPS, _EM1),
    "A1": ProjPoint(1, 1, 1),
    "A2": ProjPoint(EPS, _EM1, 0),
    "A3": ProjPoint(0, 1, EPS),
    "B1": ProjPoint(1, EPS, EPS),
    "B2": ProjPoint(0, 1, 0),
    "B3": ProjPoint(1, 1, EPS),
}

Y333_LINES: dict[str, ProjLine] = {
    "T12": ProjLine(0, 1, -1),  # y = z, through Q1 and P1
    "T22": ProjLine(0, 0, 1),  # z = 0, through Q1 and P2
    "T32": ProjLine(0, _EM1, -EPS),  # (eps-1) y = eps z, through Q1 and P3
    "T11": ProjLine(1, 0, 0),  # x = 0, through Q2 and P1
    "T21": ProjLine(1, -1, 0),  # x = y, through Q2 and P2
    "T31": ProjLine(EPS, -1, 0),  # y = eps x, through Q2 and P3
    "E1": ProjLine(EPS, 0, -1),  # z = eps x
    "E2": ProjLine(1 - EPS, EPS, -1),  # (1-eps) x + eps y = z
    "L": ProjLine(1, -1, 1),  # y = x + z
}

# which construction points each line is claimed to carry
Y333_INCIDENCES: dict[str, tuple[str, ...]] = {
    "T12": ("Q1", "P1", "A1", "B1"),
    "T22": ("Q1", "P2", "A2", "B2"),
    "T32": ("Q1", "P3", "A3", "B3"),
    "T11": ("Q2", "P1", "A3", "B2"),
    "T21": ("Q2", "P2", "A1", "B3"),
    "T31": ("Q2", "P3", "A2", "B1"),
    "E1": ("Q3", "B1", "B2", "B3"),
    "E2": ("Q3", "A1", "A2", "A3"),
    "L": ("Q3", "P1", "P2", "P3"),
}


def _y244_data():
    t23 = ProjConic.from_coeffs(xx=-1, yy=1, yz=-2)
    t33 = ProjConic.from_coeffs(xx=-1, yy=1, yz=2)  # parameter -2
    half = Fraction(1, 2)
    e = ProjConic.from_coeffs(xx=-half, yy=half, yz=0, zz=-1, xz=1)  # parameter 1/2
    return {
        "T23": t23,
        "T33": t33,
        "E": e,
        "P1": ProjPoint(0, 0, 1),
        "P2": ProjPoint(1, -1, 0),
        "P3": ProjPoint(1, 1, 0),
    }


Y244_DATA = _y244_data()


@dataclass(frozen=True)
class DualHesseReport:
    point_degrees: dict[str, int]
    line_degrees: dict[str, int]
    total_incidences: int
    incidence_table_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.incidence_table_ok
            and all(d == 3 for d in self.point_degrees.values())
            and all(d == 4 for d in self.line_degrees.values())
            and self.total_incidences == 36
        )


def dual_hesse_check() -> DualHesseReport:
    """Count incidences in the bundled 12-point, 9-line configuration."""
    points, lines = Y333_POINTS, Y333_LINES
    on = {(p, ln): incident(points[p], lines[ln]) for p in points for ln in lines}
    point_degrees = {p: sum(on[p, ln] for ln in lines) for p in points}
    line_degrees = {ln: sum(on[p, ln] for p in points) for ln in lines}
    table_ok = all(on[p, ln] for ln, pts in Y333_INCIDENCES.items() for p in pts)
    return DualHesseReport(
        point_degrees=point_degrees,
        line_degrees=line_degrees,
        total_incidences=sum(point_degrees.values()),
        incidence_table_ok=table_ok,
    )


@dataclass(frozen=True)
class ActionReport:
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failed(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.checks if not ok)


SWAP_P1_P2 = ((1, -1, 0), (0, -1, 0), (0, -1, 1))
ORDER_THREE = ((1, -1, 0), (0, -EPS, 0), (0, -EPS, 1))
CONIC_FLIP = ((1, 0, 0), (0, -1, 0), (0, 0, 1))
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def automorphism_action_check() -> ActionReport:
    """Verify the stated generator matrices act as claimed on the bundled
    configurations.

    The matrices are read from the module when the check runs, and each is
    converted once; each point's image under the order-3 map is computed
    once and read by every check that needs it.
    """
    pts = Y333_POINTS
    checks: list[tuple[str, bool]] = []
    swap, order_three, flip, identity = (
        _rows3(m, "projectivity") for m in (SWAP_P1_P2, ORDER_THREE, CONIC_FLIP, IDENTITY)
    )

    def img(rows, p: ProjPoint) -> ProjPoint:
        return ProjPoint(_mat_vec(rows, p.coords))

    p3_conj = ProjPoint(1, 1 - EPS, -EPS)  # the conjugate partner of P3
    checks.append(("swap fixes Q1", img(swap, pts["Q1"]) == pts["Q1"]))
    checks.append(("swap fixes Q2", img(swap, pts["Q2"]) == pts["Q2"]))
    checks.append(("swap sends P1 to P2", img(swap, pts["P1"]) == pts["P2"]))
    checks.append(("swap sends P2 to P1", img(swap, pts["P2"]) == pts["P1"]))
    checks.append(("swap sends P3 to its conjugate", img(swap, pts["P3"]) == p3_conj))

    image = {name: img(order_three, p) for name, p in pts.items()}
    checks.append(("order-3 map fixes Q1", image["Q1"] == pts["Q1"]))
    checks.append(("order-3 map fixes Q2", image["Q2"] == pts["Q2"]))
    cycle_ok = (
        image["P1"] == pts["P3"] and image["P3"] == pts["P2"] and image["P2"] == pts["P1"]
    )
    checks.append(("order-3 map cycles P1, P3, P2", cycle_ok))

    def line_img(name):
        # the line through the images of two of its points
        return line_through(*(image[p] for p in Y333_INCIDENCES[name][:2]))

    def permutes(send, objs) -> bool:
        # one lookup per image; the images hit every name only if they biject
        name_of = {obj: name for name, obj in objs.items()}
        return {name_of.get(send(name)) for name in objs} == set(objs)

    checks.append(
        ("order-3 map permutes the twelve points", permutes(image.__getitem__, pts))
    )
    checks.append(("order-3 map permutes the nine lines", permutes(line_img, Y333_LINES)))

    d = Y244_DATA
    checks.append(
        ("flip swaps the two tangent conics",
         conics_proportional(push_conic(flip, d["T23"]), d["T33"])
         and conics_proportional(push_conic(flip, d["T33"]), d["T23"]))
    )
    checks.append(
        ("flip preserves the osculating conic",
         conics_proportional(push_conic(flip, d["E"]), d["E"]))
    )
    checks.append(("flip fixes P1", img(flip, d["P1"]) == d["P1"]))
    checks.append(
        ("flip swaps P2 and P3",
         img(flip, d["P2"]) == d["P3"] and img(flip, d["P3"]) == d["P2"])
    )
    checks.append(
        ("identity fixes the configuration",
         all(img(identity, p) == p for p in pts.values()))
    )
    return ActionReport(tuple(checks))
