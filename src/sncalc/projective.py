"""Exact plane projective geometry over Q and its quadratic extension.

The scalar field adjoins eps with eps^2 = eps - 1; then -eps is a primitive
third root of unity, which is exactly what the bundled line and conic data
needs.  A scalar (a + b eps) / d is stored as three integers in canonical
form, d > 0 and gcd(a, b, d) = 1, so its arithmetic builds no Fraction.
Projective equality is tested through 2x2 minors, never by
normalizing, and intersection multiplicities come from exact rational
parametrizations of smooth conics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import InvariantError

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
    read back as Fractions.  The conjugate swaps eps for 1 - eps; the norm
    a^2 + ab + b^2 vanishes only at zero, so every nonzero element is
    invertible.
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
        other = QuadExt.of(other)
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __add__(self, other):
        other = QuadExt.of(other)
        d, e = self._d, other._d
        if d == e:
            return _quad(self._a + other._a, self._b + other._b, d)
        return _quad(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self._a, -self._b, self._d)

    def __sub__(self, other):
        other = QuadExt.of(other)
        d, e = self._d, other._d
        if d == e:
            return _quad(self._a - other._a, self._b - other._b, d)
        return _quad(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other):
        return QuadExt.of(other) - self

    def __mul__(self, other):
        other = QuadExt.of(other)
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
        return self * QuadExt.of(other).inverse()

    def __rtruediv__(self, other):
        return QuadExt.of(other) * self.inverse()

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


def _vec3(coords) -> tuple[QuadExt, QuadExt, QuadExt]:
    v = tuple(QuadExt.of(c) for c in coords)
    if len(v) != 3:
        raise ValueError("need exactly three homogeneous coordinates")
    return v


@dataclass(frozen=True, eq=False)
class ProjPoint:
    coords: tuple[QuadExt, QuadExt, QuadExt]

    def __init__(self, *coords):
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        v = _vec3(coords)
        if not any(v):
            raise ValueError("all coordinates zero")
        object.__setattr__(self, "coords", v)

    def __repr__(self):
        return f"[{', '.join(map(repr, self.coords))}]"


@dataclass(frozen=True, eq=False)
class ProjLine:
    """Dual coordinates: the locus l0 x + l1 y + l2 z = 0."""

    coeffs: tuple[QuadExt, QuadExt, QuadExt]

    def __init__(self, *coeffs):
        if len(coeffs) == 1 and isinstance(coeffs[0], (tuple, list)):
            coeffs = tuple(coeffs[0])
        v = _vec3(coeffs)
        if not any(v):
            raise ValueError("all coefficients zero")
        object.__setattr__(self, "coeffs", v)

    def __repr__(self):
        return f"line{self.coeffs!r}"


class ProjConic:
    """A ternary quadratic form, stored as its symmetric matrix."""

    def __init__(self, matrix: Sequence[Sequence]):
        self.matrix = tuple(tuple(QuadExt.of(x) for x in row) for row in matrix)
        if len(self.matrix) != 3 or any(len(r) != 3 for r in self.matrix):
            raise ValueError("conic matrix must be 3x3")
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
        v = p.coords
        out = QuadExt(0)
        for i in range(3):
            for j in range(3):
                out = out + self.matrix[i][j] * v[i] * v[j]
        return out

    def gradient(self, p: ProjPoint) -> tuple[QuadExt, QuadExt, QuadExt]:
        v = p.coords
        return tuple(
            sum((self.matrix[i][j] * v[j] for j in range(3)), QuadExt(0)) for i in range(3)
        )

    def det(self) -> QuadExt:
        return _det3(self.matrix)

    def is_smooth(self) -> bool:
        return bool(self.det())


def incident(p: ProjPoint, c: ProjLine | ProjConic) -> bool:
    """Exact evaluation of the defining form at the point."""
    if isinstance(c, ProjLine):
        return not sum((a * b for a, b in zip(c.coeffs, p.coords)), QuadExt(0))
    return not c.apply(p)


def _det3(rows) -> QuadExt:
    """The six-term expansion of a 3x3 determinant over Q(eps)."""
    out = QuadExt(0)
    for (i, j, k), sign in (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1),
    ):
        term = rows[0][i] * rows[1][j] * rows[2][k]
        out = out + term if sign > 0 else out - term
    return out


def collinear(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint) -> bool:
    return not _det3([p.coords for p in (p1, p2, p3)])


def proj_eq(p: ProjPoint | ProjLine, q: ProjPoint | ProjLine) -> bool:
    """Equality up to scalar, via vanishing 2x2 minors."""
    a = p.coords if isinstance(p, ProjPoint) else p.coeffs
    b = q.coords if isinstance(q, ProjPoint) else q.coeffs
    for i in range(3):
        for j in range(i + 1, 3):
            if a[i] * b[j] - a[j] * b[i]:
                return False
    return True


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    if proj_eq(p, q):
        raise ValueError("two distinct points are needed")
    return ProjLine(_cross(p.coords, q.coords))


def meet(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    if proj_eq(l1, l2):
        raise ValueError("lines coincide")
    return ProjPoint(_cross(l1.coeffs, l2.coeffs))


def apply_matrix(m: Sequence[Sequence], p: ProjPoint) -> ProjPoint:
    rows = [tuple(QuadExt.of(x) for x in row) for row in m]
    return ProjPoint(
        tuple(sum((row[j] * p.coords[j] for j in range(3)), QuadExt(0)) for row in rows)
    )


def _mat_inv3(m):
    rows = [[QuadExt.of(x) for x in row] for row in m]
    det = _det3(rows)
    if not det:
        raise ValueError("singular matrix")
    cof = [
        [
            (rows[(i + 1) % 3][(j + 1) % 3] * rows[(i + 2) % 3][(j + 2) % 3]
             - rows[(i + 1) % 3][(j + 2) % 3] * rows[(i + 2) % 3][(j + 1) % 3])
            for i in range(3)
        ]
        for j in range(3)
    ]
    return [[cof[i][j] / det for j in range(3)] for i in range(3)]


def push_conic(m: Sequence[Sequence], c: ProjConic) -> ProjConic:
    """The image conic under the projectivity p -> m p."""
    minv = _mat_inv3(m)
    a = c.matrix
    # (m^{-1})^T A m^{-1}
    tmp = [
        [sum((a[i][k] * minv[k][j] for k in range(3)), QuadExt(0)) for j in range(3)]
        for i in range(3)
    ]
    out = [
        [sum((minv[k][i] * tmp[k][j] for k in range(3)), QuadExt(0)) for j in range(3)]
        for i in range(3)
    ]
    return ProjConic(out)


def conics_proportional(c1: ProjConic, c2: ProjConic) -> bool:
    a = [x for row in c1.matrix for x in row]
    b = [x for row in c2.matrix for x in row]
    for i in range(9):
        for j in range(i + 1, 9):
            if a[i] * b[j] - a[j] * b[i]:
                return False
    return True


# -- intersection multiplicities ----------------------------------------


def _poly_mul(p: list[QuadExt], q: list[QuadExt]) -> list[QuadExt]:
    out = [QuadExt(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def _poly_add(p, q):
    n = max(len(p), len(q))
    return [
        (p[i] if i < len(p) else QuadExt(0)) + (q[i] if i < len(q) else QuadExt(0))
        for i in range(n)
    ]


def _form_on_path(curve: ProjLine | ProjConic, path: list[list[QuadExt]]) -> list[QuadExt]:
    """Compose a line or conic form with a polynomial path s -> P^2."""
    if isinstance(curve, ProjLine):
        out: list[QuadExt] = [QuadExt(0)]
        for coeff, comp in zip(curve.coeffs, path):
            out = _poly_add(out, [coeff * c for c in comp])
        return out
    out = [QuadExt(0)]
    for i in range(3):
        for j in range(3):
            term = _poly_mul(path[i], path[j])
            out = _poly_add(out, [curve.matrix[i][j] * c for c in term])
    return out


def _vanishing_order(poly: list[QuadExt]) -> int | None:
    for k, c in enumerate(poly):
        if c:
            return k
    return None


def intersection_multiplicity(
    c1: ProjLine | ProjConic, c2: ProjLine | ProjConic, p: ProjPoint
) -> int:
    """Local intersection number at p, with c2 parametrized through p.

    c2 is a line or a smooth conic; either way it carries a rational
    parametrization sending the parameter origin to p, and the multiplicity
    is the vanishing order of c1's form along that path.
    """
    if not incident(p, c1) or not incident(p, c2):
        raise ValueError("the point must lie on both curves")
    if isinstance(c2, ProjLine):
        # second spanning point of the line, chosen by the first nonzero rule
        k = next(i for i in range(3) if c2.coeffs[i])
        others = [i for i in range(3) if i != k]
        candidates = []
        for o in others:
            vec = [QuadExt(0)] * 3
            vec[o] = c2.coeffs[k]
            vec[k] = -c2.coeffs[o]
            candidates.append(ProjPoint(vec))
        q = next(c for c in candidates if not proj_eq(c, p))
        path = [
            [p.coords[i], q.coords[i]] for i in range(3)
        ]  # s -> p + s q, exact on the line
        order = _vanishing_order(_form_on_path(c1, path))
    else:
        if not c2.is_smooth():
            raise ValueError("the parametrized conic must be smooth")
        # lines through p hit the conic in one more point; running the second
        # base point along a coordinate line not containing p parametrizes c2
        k = next(i for i in range(3) if p.coords[i])
        spans = [i for i in range(3) if i != k]
        u = [QuadExt(0)] * 3
        w = [QuadExt(0)] * 3
        u[spans[0]] = QuadExt(1)
        w[spans[1]] = QuadExt(1)
        ap = c2.gradient(p)
        alpha = sum((ap[i] * u[i] for i in range(3)), QuadExt(0))
        beta = sum((ap[i] * w[i] for i in range(3)), QuadExt(0))
        # parameter of p itself: where the chord through p degenerates to the
        # tangent, i.e. (t0, t1) with alpha t0 + beta t1 = 0
        t0, t1 = beta, -alpha
        v0, v1 = (QuadExt(0), QuadExt(1)) if t0 else (QuadExt(1), QuadExt(0))
        # q(s) = (t0 + s v0) u + (t1 + s v1) w, then the second intersection:
        # phi(s) = (q A q) p - 2 (p A q) q
        qs = [[t0 * u[i] + t1 * w[i], v0 * u[i] + v1 * w[i]] for i in range(3)]
        a = c2.matrix
        qaq: list[QuadExt] = [QuadExt(0)]
        for i in range(3):
            for j in range(3):
                qaq = _poly_add(qaq, [a[i][j] * c for c in _poly_mul(qs[i], qs[j])])
        paq: list[QuadExt] = [QuadExt(0)]
        for i in range(3):
            paq = _poly_add(paq, [ap[i] * c for c in qs[i]])
        path = []
        for i in range(3):
            term1 = [p.coords[i] * c for c in qaq]
            term2 = [c * -2 for c in _poly_mul(paq, qs[i])]
            path.append(_poly_add(term1, term2))
        at_zero = ProjPoint(tuple(comp[0] for comp in path))
        if not proj_eq(at_zero, p):
            raise InvariantError("the chord path does not start at the point")
        order = _vanishing_order(_form_on_path(c1, path))
    if order is None:
        raise ValueError("curves share a component through the point")
    return order


# -- the one-parameter conic families ------------------------------------


class _BiPoly:
    """Dense-enough polynomials in two unknowns over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple[int, int], Fraction] = {}
        if terms:
            for key, val in terms.items():
                val = Fraction(val)
                if val:
                    self.terms[key] = val

    @classmethod
    def const(cls, c) -> "_BiPoly":
        return cls({(0, 0): Fraction(c)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, _BiPoly) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, val in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + val
        return _BiPoly(out)

    def __neg__(self):
        return _BiPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _BiPoly({k: v * other for k, v in self.terms.items()})
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), v1 in self.terms.items():
            for (i2, j2), v2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + v1 * v2
        return _BiPoly(out)

    def scale(self, c) -> "_BiPoly":
        return _BiPoly({k: v * Fraction(c) for k, v in self.terms.items()})

    def constant_value(self) -> Fraction:
        if any(k != (0, 0) for k in self.terms):
            raise ValueError("not a constant")
        return self.terms.get((0, 0), Fraction(0))

    def substitute(self, u: Fraction | None = None, v: Fraction | None = None) -> "_BiPoly":
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), val in self.terms.items():
            key_i, key_j = i, j
            if u is not None:
                val = val * Fraction(u) ** i
                key_i = 0
            if v is not None:
                val = val * Fraction(v) ** j
                key_j = 0
            key = (key_i, key_j)
            out[key] = out.get(key, Fraction(0)) + val
        return _BiPoly(out)

    def linear_root(self, var: int) -> Fraction:
        """Root of c0 + c1 x, when the polynomial is univariate linear in
        the var-th unknown (0 for the first, 1 for the second)."""
        c0 = Fraction(0)
        c1 = Fraction(0)
        for (i, j), val in self.terms.items():
            deg = (i, j)[var]
            other = (i, j)[1 - var]
            if other != 0 or deg > 1:
                raise ValueError("not univariate linear")
            if deg == 0:
                c0 = val
            else:
                c1 = val
        if c1 == 0:
            raise ValueError("degenerate linear equation")
        return -c0 / c1

    def __repr__(self):
        return f"_BiPoly({self.terms})"


def _series_mul(a: list[_BiPoly], b: list[_BiPoly], order: int) -> list[_BiPoly]:
    out = [_BiPoly() for _ in range(order)]
    for i, ai in enumerate(a):
        if i >= order:
            break
        for j, bj in enumerate(b):
            if i + j >= order:
                break
            out[i + j] = out[i + j] + ai * bj
    return out


def _series_add(a: list[_BiPoly], b: list[_BiPoly]) -> list[_BiPoly]:
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else _BiPoly()) + (b[i] if i < len(b) else _BiPoly())
        for i in range(n)
    ]


def _chart_coefficients(matrix, p: tuple[int, int, int], i_s: int, i_t: int):
    """Quadratic form pulled to the affine chart p + S e_s + T e_t.

    Returns the six coefficients f00, f10, f01, f20, f11, f02 as bivariate
    polynomials in the family parameters.
    """
    pv = [_BiPoly.const(x) for x in p]
    es = [_BiPoly.const(1 if i == i_s else 0) for i in range(3)]
    et = [_BiPoly.const(1 if i == i_t else 0) for i in range(3)]

    def form(a, b):
        out = _BiPoly()
        for i in range(3):
            for j in range(3):
                out = out + matrix[i][j] * a[i] * b[j]
        return out

    return {
        "00": form(pv, pv),
        "10": form(pv, es) * 2,
        "01": form(pv, et) * 2,
        "20": form(es, es),
        "11": form(es, et) * 2,
        "02": form(et, et),
    }


def _branch_series(f: dict, order: int = 4) -> list[_BiPoly]:
    """S(T) solving f(S(T), T) = 0 with S(0) = 0, as a truncated series.

    Needs f00 = 0 and an invertible constant linear coefficient f10; both
    are checked and raise InvariantError.
    """
    if f["00"]:
        raise InvariantError("branch series: f00 is not zero")
    lead = f["10"].constant_value()
    if lead == 0:
        raise InvariantError("branch series: f10 has no invertible constant term")
    inv = -1 / lead
    s = [_BiPoly() for _ in range(order)]
    t_series = [_BiPoly(), _BiPoly.const(1)]
    for _ in range(order):
        s2 = _series_mul(s, s, order)
        st = _series_mul(s, t_series, order)
        rhs = [_BiPoly() for _ in range(order)]
        for coeff, series in (
            (f["01"], t_series),
            (f["20"], s2),
            (f["11"], st),
            (f["02"], _series_mul(t_series, t_series, order)),
        ):
            rhs = _series_add(rhs, [coeff * x for x in series])
        s = [x.scale(inv) for x in rhs]
    return s


def _family_matrices():
    """Symmetric matrices over Q[u, v] for the two bundled conic families."""
    u = _BiPoly({(1, 0): 1})
    v = _BiPoly({(0, 1): 1})
    half = Fraction(1, 2)
    zero = _BiPoly()
    one = _BiPoly.const(1)
    # first family: u y z - y^2 + x^2 = 0
    fu = [
        [one, zero, zero],
        [zero, -one, u.scale(half)],
        [zero, u.scale(half), zero],
    ]
    # second family: v (y^2 - x^2 - 2 y z) - z^2 + y z + x z = 0
    gv = [
        [-v, zero, _BiPoly.const(half)],
        [zero, v, -v + _BiPoly.const(half)],
        [_BiPoly.const(half), -v + _BiPoly.const(half), -one],
    ]
    return fu, gv


def conic_family_solve() -> tuple[Fraction, Fraction]:
    """Parameters making the two bundled conic families osculate to order
    three at [1, 1, 0].

    The first family runs through the point for every parameter; expanding
    the second family along the first's local branch and killing the first
    two Taylor coefficients gives two polynomial conditions, solved exactly
    and then re-verified against the parametrization-based multiplicity.
    The solve takes no input, so any failure is a defect and raises
    InvariantError.
    """
    fu, gv = _family_matrices()
    p3 = (1, 1, 0)
    solution = None
    for i_s, i_t in ((0, 2), (1, 2), (2, 0), (2, 1)):
        f = _chart_coefficients(fu, p3, i_s, i_t)
        g = _chart_coefficients(gv, p3, i_s, i_t)
        if f["00"] or g["00"]:
            continue  # base point must lie on both families identically
        try:
            f["10"].constant_value()
        except ValueError:
            continue  # branch solve needs a parameter-free linear term
        if not f["10"]:
            continue
        s = _branch_series(f)
        t_series = [_BiPoly(), _BiPoly.const(1)]
        order = len(s)
        total = [g["00"]]
        for coeff, series in (
            (g["10"], s),
            (g["01"], t_series),
            (g["20"], _series_mul(s, s, order)),
            (g["11"], _series_mul(s, t_series, order)),
            (g["02"], _series_mul(t_series, t_series, order)),
        ):
            total = _series_add(total, [coeff * x for x in series])
        if total[0]:
            raise InvariantError("conic families: the base point is not on both")
        c1, c2 = total[1], total[2]
        # the conditions come out parameter-triangular in a good chart
        try:
            u_val = c2.linear_root(0)
            v_val = c1.substitute(u=u_val).linear_root(1)
            solution = (u_val, v_val)
            break
        except ValueError:
            pass
        try:
            v_val = c2.linear_root(1)
            u_val = c1.substitute(v=v_val).linear_root(0)
            solution = (u_val, v_val)
            break
        except ValueError:
            continue
    if solution is None:
        raise InvariantError("no chart produced a triangular condition system")
    u_val, v_val = solution
    # independent re-check through the concrete curves
    t33 = ProjConic.from_coeffs(xx=1, yy=-1, yz=u_val)
    e = ProjConic.from_coeffs(xx=-v_val, yy=v_val, yz=-2 * v_val + 1, zz=-1, xz=1)
    p = ProjPoint(1, 1, 0)
    if intersection_multiplicity(e, t33, p) != 3:
        raise InvariantError("conic families: E meets T33 at (1:1:0) with order != 3")
    return u_val, v_val


# -- bundled coordinate data ---------------------------------------------


def _pt(*coords) -> ProjPoint:
    return ProjPoint(*coords)


_EM1 = EPS - 1  # eps - 1

Y333_POINTS: dict[str, ProjPoint] = {
    "Q1": _pt(1, 0, 0),
    "Q2": _pt(0, 0, 1),
    "Q3": _pt(1, 1 + EPS, EPS),
    "P1": _pt(0, 1, 1),
    "P2": _pt(1, 1, 0),
    "P3": _pt(1, EPS, _EM1),
    "A1": _pt(1, 1, 1),
    "A2": _pt(EPS, _EM1, 0),
    "A3": _pt(0, 1, EPS),
    "B1": _pt(1, EPS, EPS),
    "B2": _pt(0, 1, 0),
    "B3": _pt(1, 1, EPS),
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
        "P1": _pt(0, 0, 1),
        "P2": _pt(1, -1, 0),
        "P3": _pt(1, 1, 0),
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
    point_degrees = {
        name: sum(1 for line in Y333_LINES.values() if incident(p, line))
        for name, p in Y333_POINTS.items()
    }
    line_degrees = {
        name: sum(1 for p in Y333_POINTS.values() if incident(p, line))
        for name, line in Y333_LINES.items()
    }
    table_ok = all(
        incident(Y333_POINTS[pname], Y333_LINES[lname])
        for lname, pts in Y333_INCIDENCES.items()
        for pname in pts
    )
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
    configurations."""
    pts = Y333_POINTS
    checks: list[tuple[str, bool]] = []

    def img(m, name):
        return apply_matrix(m, pts[name])

    p3_conj = _pt(1, 1 - EPS, -EPS)  # the conjugate partner of P3
    checks.append(("swap fixes Q1", proj_eq(img(SWAP_P1_P2, "Q1"), pts["Q1"])))
    checks.append(("swap fixes Q2", proj_eq(img(SWAP_P1_P2, "Q2"), pts["Q2"])))
    checks.append(("swap sends P1 to P2", proj_eq(img(SWAP_P1_P2, "P1"), pts["P2"])))
    checks.append(("swap sends P2 to P1", proj_eq(img(SWAP_P1_P2, "P2"), pts["P1"])))
    checks.append(
        ("swap sends P3 to its conjugate", proj_eq(img(SWAP_P1_P2, "P3"), p3_conj))
    )

    checks.append(("order-3 map fixes Q1", proj_eq(img(ORDER_THREE, "Q1"), pts["Q1"])))
    checks.append(("order-3 map fixes Q2", proj_eq(img(ORDER_THREE, "Q2"), pts["Q2"])))
    cycle_ok = (
        proj_eq(img(ORDER_THREE, "P1"), pts["P3"])
        and proj_eq(img(ORDER_THREE, "P3"), pts["P2"])
        and proj_eq(img(ORDER_THREE, "P2"), pts["P1"])
    )
    checks.append(("order-3 map cycles P1, P3, P2", cycle_ok))

    def permutes(m, objs, kind):
        images = []
        for name, obj in objs.items():
            image = apply_matrix(m, obj) if kind == "pt" else None
            if kind == "line":
                pts_on = [pname for pname in Y333_INCIDENCES[name][:2]]
                q1, q2 = (apply_matrix(m, pts[p]) for p in pts_on)
                image = line_through(q1, q2)
            matches = [
                other
                for other, target in objs.items()
                if proj_eq(image, target)
            ]
            if len(matches) != 1:
                return False
            images.append(matches[0])
        return sorted(images) == sorted(objs)

    checks.append(
        ("order-3 map permutes the twelve points", permutes(ORDER_THREE, pts, "pt"))
    )
    checks.append(
        ("order-3 map permutes the nine lines", permutes(ORDER_THREE, Y333_LINES, "line"))
    )

    d = Y244_DATA
    flip = CONIC_FLIP
    checks.append(
        ("flip swaps the two tangent conics",
         conics_proportional(push_conic(flip, d["T23"]), d["T33"])
         and conics_proportional(push_conic(flip, d["T33"]), d["T23"]))
    )
    checks.append(
        ("flip preserves the osculating conic",
         conics_proportional(push_conic(flip, d["E"]), d["E"]))
    )
    checks.append(("flip fixes P1", proj_eq(apply_matrix(flip, d["P1"]), d["P1"])))
    checks.append(
        ("flip swaps P2 and P3",
         proj_eq(apply_matrix(flip, d["P2"]), d["P3"])
         and proj_eq(apply_matrix(flip, d["P3"]), d["P2"]))
    )

    ident_ok = all(
        proj_eq(apply_matrix(IDENTITY, p), p) for p in pts.values()
    )
    checks.append(("identity fixes the configuration", ident_ok))
    return ActionReport(tuple(checks))
