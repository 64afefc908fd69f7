"""Shared generators for randomized suites (all callers pass a seeded rng),
the canonical degree of a fiber-like kernel vector, and oracles: a
backtracking fiber search and the eliminations that the exact linear
algebra core replaced, the Fraction-pair arithmetic of Q(eps) that the
integer-backed QuadExt replaced, the power-series intersection
multiplicity that the pencil criterion replaced, the Euclid-and-swap
Smith normal form that the Bezout steps replaced, the torsion and the
integer solve by Smith transforms that invariant factors without
transforms and a column Hermite form replaced, the Gauss-Jordan
solves and kernels over Fraction that the integer echelon form replaced,
the projective equality by vanishing minors that scaled coordinates
replaced, the recursive curve-class enumeration over a Fraction LDL
that the integer Fincke-Pohst walk replaced, the chain determinants and
solves that the continuant recurrence replaced, the two chain walks that
one tip-to-branch walk replaced, the name-keyed merge of vertical
curves that a union-find over positions replaced, and the Bareiss and
echelon routes for forest forms, the has_edge intersection matrix and the
dense whole-chain bark that leaf elimination and the two chain barks
replaced, the dense twig and fork bark solves that sums of chain barks
replaced, the second copies (a union-find beside a search, written-out
terms, cofactors and triple products, repeated incidence scans, one
blow-up rebuild per kind of center) that one routine each replaced, and
the discriminant and fiber multiplicities by the intersection matrix that
one leaf pass over the graph replaced, the dense blow-up lattice (every
class re-checked after every step, every pair of names paired) that sparse
classes and one Gram table replaced, the Q(eps) kernels built from
QuadExt operators (a canonical element per product and partial sum) that
kernels canonicalising once per result entry replaced, and the torsion,
integer solve and fiber-group solve by dense elimination that peeled unit
pivots, a sparse Hermite transform and solves on the support replaced, and
the eager Bareiss pass, the primitive echelon form and its solve that one
lazy, rank-revealing Bareiss pass replaced."""

from __future__ import annotations

import importlib.util
import random
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, compress
from math import gcd, isqrt, lcm, prod
from operator import mul
from pathlib import Path
from typing import Iterable, Sequence

from sncalc.calculus import ChainInvariants, _check_minimal, chain_invariants
from sncalc.errors import (
    ExcessIntersectionError,
    InvariantError,
    LatticeError,
    NonAdmissibleError,
    NonTreeError,
    NotAFiberError,
    SingularMatrixError,
    UnderconstrainedError,
)
from sncalc.graphs import Chain, DualGraph, QDivisor, _find, canonical_form, maximal_twigs
from sncalc.lattice import (
    FiberPiece,
    RulingDecomposition,
    SurfaceLattice,
    Vector,
    _dot,
    _sparse_dot,
)
from sncalc.linalg import (
    _SWAP,
    _back_substitute,
    _bezout,
    _check_integer,
    _check_rectangular,
    _diagonalise,
    _forest_minors,
    _rows,
    TorsionGroup,
    det_exact,
    identity_matrix,
    is_negative_definite,
    kernel_basis,
    mat_mul,
    smith_normal_form,
    solve_integer,
)
from sncalc import projective
from sncalc.projective import ProjConic, ProjLine, ProjPoint, QuadExt, incident, proj_eq
from sncalc.surgery import (
    FiberGraph,
    RulingBookkeeping,
    _fresh_id,
    contract_minus_one,
    is_valid_fiber,
)


def random_tree(
    rng: random.Random, max_vertices: int = 20, weights: tuple[int, int] = (-5, 2)
) -> DualGraph:
    n = rng.randint(1, max_vertices)
    verts = [(f"v{i}", rng.randint(*weights)) for i in range(n)]
    edges = [(f"v{i}", f"v{rng.randint(0, i - 1)}") for i in range(1, n)]
    return DualGraph.build(verts, edges)


def random_forest(
    rng: random.Random, max_vertices: int = 20, weights: tuple[int, int] = (-5, 2)
) -> DualGraph:
    n = rng.randint(0, max_vertices)
    verts = [(f"v{i}", rng.randint(*weights)) for i in range(n)]
    edges = []
    for i in range(1, n):
        if rng.random() < 0.8:
            edges.append((f"v{i}", f"v{rng.randint(0, i - 1)}"))
    return DualGraph.build(verts, edges)


def random_admissible_fork(rng: random.Random) -> DualGraph:
    """A branching vertex with 3..4 admissible twigs of length 1..4."""
    from sncalc.graphs import build_fork

    n_twigs = rng.randint(3, 4)
    brackets = [
        [rng.randint(2, 5) for _ in range(rng.randint(1, 4))] for _ in range(n_twigs)
    ]
    return build_fork(rng.randint(-3, 0), brackets)


def outcome(f, *args):
    """A function's value, or its error as (type, message), for comparing
    a routine with the oracle it replaced."""
    try:
        return f(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def bench_workloads():
    """The benchmark's workload module, loaded from bench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def canonical_degree(weights, kernel_vector) -> int:
    """K.F for F the primitive positive integer multiple of kernel_vector.

    kernel_vector spans the kernel of a negative semidefinite tree form and
    has entries of one sign; by adjunction K.C = -2 - C^2 for each smooth
    rational component C, so K.F = sum of m_i (-2 - w_i).
    """
    v = [Fraction(x) for x in kernel_vector]
    scale = lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = gcd(*ints)
    m = [abs(x) // g for x in ints]
    return sum(mi * (-2 - w) for mi, w in zip(m, weights))


def backtracking_fiber_search(g: DualGraph) -> tuple[bool, list[str] | None]:
    """Search for a contraction sequence ending in a single 0-vertex.

    The depth-first search that `sncalc.surgery.is_valid_fiber` replaced,
    kept as a test oracle for its verdict and contraction trace.

    Returns (True, trace) with the contracted vertex ids in order, or
    (False, None).  The search is depth-first over all (-1)-choices with
    failures memoized on canonical forms, so isomorphic dead ends are
    pruned.
    """
    if len(g) == 0 or len(g.components()) != 1:
        raise ValueError("fiber candidates must be nonempty and connected")
    if len(g.edges) != len(g) - 1:
        return False, None  # a cycle never contracts to a tree
    failed: set = set()

    def search(h: DualGraph) -> list[str] | None:
        if len(h) == 1:
            return [] if h.vertices[0][1] == 0 else None
        candidates = [v for v, w in h.vertices if w == -1 and h.degree(v) <= 2]
        if not candidates:
            return None  # cheap dead end; not worth memoizing
        key = canonical_form(h)
        if key in failed:
            return None
        for v in candidates:
            tail = search(contract_minus_one(h, v))
            if tail is not None:
                return [v, *tail]
        failed.add(key)
        return None

    trace = search(g)
    return trace is not None, trace


def bareiss_det(a: list[list[int]]) -> int:
    """Fraction-free elimination; all intermediate divisions are exact.

    The integer determinant that `sncalc.linalg.det_exact` used before its
    one Bareiss kernel, kept as a test oracle.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def fraction_det(a: list[list[Fraction]]) -> Fraction:
    """Gaussian elimination over Fraction: the rational determinant that
    `sncalc.linalg.det_exact` used before, kept as a test oracle."""
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] * inv
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


def reference_det(m) -> Fraction:
    """The former `det_exact` dispatch: integer Bareiss or Fraction Gauss."""
    if len(m) == 0:
        return Fraction(1)
    if all(isinstance(x, int) for row in m for x in row):
        return Fraction(bareiss_det([list(row) for row in m]))
    return fraction_det([[Fraction(x) for x in row] for row in m])


def minor_loop_is_negative_definite(m) -> bool:
    """Sylvester's criterion: leading principal minors alternate in sign
    starting negative.  The matrix must be symmetric.

    The former `is_negative_definite`: one determinant per leading minor,
    O(n^4) in all, kept as a test oracle.
    """
    rows = len(m)
    for k in range(1, rows + 1):
        minor = reference_det([row[:k] for row in m[:k]])
        if minor * (-1) ** k <= 0:
            return False
    return True


def rational_cholesky(m) -> list[tuple[Fraction, list[Fraction]]]:
    """LDL-style data for a positive definite rational matrix.

    Returns per row i the positive pivot d_i and the coefficients c_ij
    (j > i) such that x' M x = sum_i d_i (x_i + sum_j c_ij x_j)^2.

    The elimination `sncalc.lattice.solve_curve_class` used before it read
    the same data off one Bareiss pass, kept as a test oracle.
    """
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] for i in range(n)]
    out: list[tuple[Fraction, list[Fraction]]] = []
    for i in range(n):
        d = a[i][i]
        assert d > 0
        coeffs = [a[i][j] / d for j in range(n)]
        out.append((d, coeffs))
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] -= a[r][i] * a[i][c] / d
    return out


class FractionQuadExt:
    """a + b eps with eps^2 = eps - 1, coefficients exact rationals.

    The Fraction-pair representation `sncalc.projective.QuadExt` used
    before it moved to integer numerators over one common denominator,
    kept as the oracle for that representation.

    The conjugate swaps eps for 1 - eps; the norm a^2 + ab + b^2 vanishes
    only at zero, so every nonzero element is invertible.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def of(cls, x) -> "FractionQuadExt":
        return x if isinstance(x, FractionQuadExt) else cls(x)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other) -> bool:
        other = FractionQuadExt.of(other)
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __add__(self, other):
        other = FractionQuadExt.of(other)
        return FractionQuadExt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return FractionQuadExt(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-FractionQuadExt.of(other))

    def __rsub__(self, other):
        return FractionQuadExt.of(other) + (-self)

    def __mul__(self, other):
        other = FractionQuadExt.of(other)
        # (a + b eps)(c + d eps) = ac + (ad + bc) eps + bd (eps - 1)
        return FractionQuadExt(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a + self.b * other.b,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "FractionQuadExt":
        return FractionQuadExt(self.a + self.b, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a + self.a * self.b + self.b * self.b

    def inverse(self) -> "FractionQuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        c = self.conjugate()
        return FractionQuadExt(c.a / n, c.b / n)

    def __truediv__(self, other):
        return self * FractionQuadExt.of(other).inverse()

    def __rtruediv__(self, other):
        return FractionQuadExt.of(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = FractionQuadExt(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_rational(self) -> bool:
        return self.b == 0

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        if self.a == 0:
            return f"{self.b}*eps"
        return f"({self.a} + {self.b}*eps)"


# -- the series-based intersection multiplicity ------------------------------
# `sncalc.projective.intersection_multiplicity` before it moved to the pencil
# criterion, with its four helpers, kept verbatim as the oracle.


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


# -- the Euclid-and-swap Smith normal form ------------------------------------
# `sncalc.linalg.smith_normal_form` before it cleared each entry with one
# Bezout step, kept verbatim as the oracle apart from an optional budget.
# Its transforms can grow to hundreds of thousands of bits, so callers give
# it a budget on the size of the entries its steps write.


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once `seconds` of wall time pass
    (SIGALRM, so Unix and the main thread only)."""

    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class OracleBudgetExceeded(Exception):
    """An oracle's step wrote an entry larger than its budget allows."""


def euclid_smith_normal_form(
    m, max_bits: int | None = None
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (u, s, v) with u m v = s, u and v unimodular, s diagonal.

    Diagonal entries are nonnegative and each divides the next.  The
    postconditions are checked on every call and raise InvariantError; at
    the matrix sizes this package sees the cost is negligible.  With
    max_bits given, a row or column step that writes an entry of s or of a
    transform longer than max_bits bits raises OracleBudgetExceeded: the
    step count does not tell a stalled matrix, which makes a hundred steps
    a second on entries of millions of bits, but the entry size does.
    """
    rows, cols = _check_rectangular(m)
    if any(not isinstance(x, int) for row in m for x in row):
        raise ValueError("Smith normal form needs an integer matrix")
    s = [list(row) for row in m]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def within(entries):
        if max_bits is not None and max(map(abs, entries)).bit_length() > max_bits:
            raise OracleBudgetExceeded(f"an entry exceeds {max_bits} bits")

    def row_sub(i, j, q):  # row i -= q * row j
        for c in range(cols):
            s[i][c] -= q * s[j][c]
        for c in range(rows):
            u[i][c] -= q * u[j][c]
        within(s[i] + u[i])

    def col_sub(i, j, q):  # col i -= q * col j
        for r in range(rows):
            s[r][i] -= q * s[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]
        within([r[i] for r in s] + [r[i] for r in v])

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            s[r][i], s[r][j] = s[r][j], s[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(rows, cols):
        # move a smallest-magnitude nonzero of the trailing block to (t, t)
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if s[i][j] != 0 and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    row_sub(i, t, q)
                    if s[i][t] != 0:  # remainder beats the pivot
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, cols):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    col_sub(j, t, q)
                    if s[t][j] != 0:
                        swap_cols(j, t)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole trailing block for the chain
            offender = next(
                (
                    i
                    for i in range(t + 1, rows)
                    if any(s[i][j] % s[t][t] for j in range(t + 1, cols))
                ),
                None,
            )
            if offender is None:
                break
            row_sub(t, offender, -1)
        t += 1

    for k in range(min(rows, cols)):
        if s[k][k] < 0:
            for c in range(cols):
                s[k][c] = -s[k][c]
            for c in range(rows):
                u[k][c] = -u[k][c]

    diag = [s[k][k] for k in range(min(rows, cols))]
    if mat_mul(mat_mul(u, [list(row) for row in m]), v) != s:
        raise InvariantError("Smith form: u m v differs from s")
    if any(abs(eager_bareiss([row[:] for row in t])) != 1 for t in (u, v)):
        raise InvariantError("Smith form: a transform is not unimodular")
    if any(s[i][j] for i in range(rows) for j in range(cols) if i != j):
        raise InvariantError("Smith form: s is not diagonal")
    if any(b % a for a, b in zip(diag, diag[1:]) if a):
        raise InvariantError("Smith form: the diagonal is not a divisibility chain")
    return u, s, v


# -- the torsion and the integer solve by the Smith transforms -----------------
# `sncalc.linalg.torsion_of_cokernel` and `solve_integer` before invariant
# factors without transforms and the column Hermite form replaced them, kept
# verbatim (up to names) as the oracles.  Both call the public Smith form.


def smith_torsion_of_cokernel(m) -> TorsionGroup:
    """Torsion of Z^rows / (column span of m), read off the Smith form."""
    _, s, _ = smith_normal_form(m)
    diag = [s[k][k] for k in range(min(len(s), len(s[0]) if s else 0))]
    return TorsionGroup(tuple(d for d in diag if d > 1))


def smith_solve_integer(a, b) -> tuple[list[int], list[list[int]]] | None:
    """All integer solutions of a x = b: a particular one plus a lattice basis.

    Returns None when no integer solution exists (including the case where
    the system is rationally inconsistent).
    """
    rows, cols = _check_rectangular(a)
    if len(b) != rows:
        raise ValueError("right-hand side has wrong length")
    u, s, v = smith_normal_form(a)
    ub = [sum(u[i][k] * b[k] for k in range(rows)) for i in range(rows)]
    y = [0] * cols
    for i in range(rows):
        d = s[i][i] if i < cols else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % d != 0:
                return None
            y[i] = ub[i] // d
    x0 = [sum(v[r][c] * y[c] for c in range(cols)) for r in range(cols)]
    rank = sum(1 for i in range(min(rows, cols)) if s[i][i] != 0)
    lattice = [[v[r][c] for r in range(cols)] for c in range(rank, cols)]
    return x0, lattice


# -- the Gauss-Jordan solves and kernels over Fraction -------------------------
# `sncalc.linalg._rref`, `solve_rational` and `kernel_basis` and
# `sncalc.lattice._solve_rational_overdetermined` before the integer echelon
# form replaced them, kept verbatim (up to names) as the oracle.


def fraction_rref(a: list[list[Fraction]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination of a Fraction matrix, in place, pivoting
    on its first ncols columns only (later columns are right-hand sides).

    Returns the pivot columns: pivot row r is scaled so that a[r][pivots[r]]
    is 1, and every other row is zero in that column.
    """
    rows = len(a)
    width = len(a[0]) if rows else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if found is None:
            continue
        a[r], a[found] = a[found], a[r]
        row = a[r]
        inv = 1 / row[c]
        support = [j for j in range(c, width) if row[j] != 0]
        for j in support:
            row[j] *= inv
        for i in range(rows):
            ai = a[i]
            f = ai[c]
            if i != r and f != 0:
                for j in support:
                    ai[j] -= f * row[j]
        pivots.append(c)
    return pivots


def rref_solve_rational(m, b) -> list[Fraction]:
    """Unique solution of m x = b over the rationals.

    Raises SingularMatrixError when the matrix is singular; the result is
    re-checked against the inputs before returning.
    """
    rows, cols = _check_rectangular(m)
    if rows != cols:
        raise ValueError("solve requires a square matrix")
    if len(b) != rows:
        raise ValueError("right-hand side has wrong length")
    a = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(m)]
    n = rows
    if len(fraction_rref(a, n)) < n:
        raise SingularMatrixError("matrix is singular")
    x = [row[n] for row in a]
    for i in range(n):
        if sum(Fraction(m[i][j]) * x[j] for j in range(n)) != Fraction(b[i]):
            raise InvariantError("back-substitution check failed")
    return x


def rref_kernel_basis(m) -> list[list[Fraction]]:
    """A basis of the rational null space of m (solutions of m x = 0)."""
    rows, cols = _check_rectangular(m)
    a = [[Fraction(x) for x in row] for row in m]
    pivots = fraction_rref(a, cols)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for row, pc in zip(a, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def rref_solve_rational_overdetermined(a, b) -> list[Fraction] | None:
    """Unique rational solution of a (possibly tall) system, or None.

    Raises if the columns are dependent: fiber groups must have independent
    classes for the multiplicity question to be well-posed.
    """
    cols = len(a[0]) if a else 0
    m = [[Fraction(x) for x in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    if len(fraction_rref(m, cols)) < cols:
        raise LatticeError("fiber group classes are linearly dependent")
    if any(row[cols] != 0 for row in m[cols:]):
        return None
    return [row[cols] for row in m[:cols]]


# -- projective equality by vanishing minors ----------------------------------
# `sncalc.projective.proj_eq` and `conics_proportional` before points and
# lines were stored scaled to a leading 1, kept verbatim as the oracle (only
# the names changed).  Both read `.coords`, `.coeffs` or `.matrix` alone, so
# they also take the raw, unscaled entries.


def minor_proj_eq(p: ProjPoint | ProjLine, q: ProjPoint | ProjLine) -> bool:
    """Equality up to scalar, via vanishing 2x2 minors."""
    a = p.coords if isinstance(p, ProjPoint) else p.coeffs
    b = q.coords if isinstance(q, ProjPoint) else q.coeffs
    for i in range(3):
        for j in range(i + 1, 3):
            if a[i] * b[j] - a[j] * b[i]:
                return False
    return True


def minor_conics_proportional(c1: ProjConic, c2: ProjConic) -> bool:
    a = [x for row in c1.matrix for x in row]
    b = [x for row in c2.matrix for x in row]
    for i in range(9):
        for j in range(i + 1, 9):
            if a[i] * b[j] - a[j] * b[i]:
                return False
    return True


# The curve-class enumeration of `sncalc.lattice.solve_curve_class` before
# the integer Fincke-Pohst walk, with its Fraction LDL (formerly
# `sncalc.linalg._ldl`) and range helper, kept verbatim as the oracle.


def fraction_ldl(m) -> list[tuple[Fraction, list[Fraction]]] | None:
    """LDL data of a symmetric integer matrix, or None unless it is
    positive definite.

    Returns per row i the pivot d_i > 0 and the coefficients c_ij for
    j > i, such that x' m x = sum_i d_i (x_i + sum_j c_ij x_j)^2; they are
    read off one Bareiss pass as d_i = B[i][i] / B[i-1][i-1] and
    c_ij = B[i][j] / B[i][i].
    """
    b = [list(row) for row in m]
    if eager_bareiss(b, definite=True) <= 0:
        return None
    out = []
    prev = 1
    for i, row in enumerate(b):
        out.append((Fraction(row[i], prev), [Fraction(x, row[i]) for x in row[i + 1 :]]))
        prev = row[i]
    return out


def recursive_solve_curve_class(
    l: SurfaceLattice,
    constraints: Iterable[tuple[object, int]],
    self_sq: int,
) -> list[Vector]:
    """All integer classes with the given self-intersection, rational-curve
    adjunction, and prescribed pairings.

    The linear constraints cut out an affine sublattice; the quadratic
    condition is then enumerated exactly.  When the Gram form on the
    sublattice's direction space is not negative definite the solution set
    can be infinite and an error lists the free directions.
    """
    rows: list[list[int]] = []
    rhs: list[int] = []

    def add(vec, value):
        # v . c = value, written in coordinates via the Gram form
        rows.append([vec[0]] + [-x for x in vec[1:]])
        rhs.append(int(value))

    add(l.canonical_class, -self_sq - 2)
    for key, value in constraints:
        add(l.resolve(key), value)
    sol = solve_integer(rows, rhs)
    if sol is None:
        return []
    x0, basis = sol
    if not basis:
        return [tuple(x0)] if _dot(x0, x0) == self_sq else []
    # M = -gram must be positive definite; one pass tests it and gives LDL
    m = [[-_dot(bi, bj) for bj in basis] for bi in basis]
    ldl = fraction_ldl(m)
    if ldl is None:
        raise UnderconstrainedError(
            "constraints leave a direction space that is not negative definite; "
            "the solution family may be infinite",
            free_directions=basis,
        )
    lin = [_dot(x0, bi) for bi in basis]
    const = _dot(x0, x0)
    # solve t' M t' = radius around center M^{-1} b
    out: list[Vector] = []
    budget = [10**6]
    center = rref_solve_rational(m, lin)
    radius = Fraction(const - self_sq) + sum(
        Fraction(lin[i]) * center[i] for i in range(len(basis))
    )
    if radius < 0:
        return []
    t = [Fraction(0)] * len(basis)

    def recurse(i: int, remaining: Fraction):
        if budget[0] <= 0:
            raise LatticeError("curve-class enumeration exceeded the candidate cap")
        if i < 0:
            if remaining == 0:
                vec = list(x0)
                for j, bj in enumerate(basis):
                    for r in range(len(vec)):
                        vec[r] += int(t[j]) * bj[r]
                out.append(tuple(vec))
            return
        d, coeffs = ldl[i]
        shift = center[i] - sum(
            c * (tj - cj) for c, tj, cj in zip(coeffs, t[i + 1 :], center[i + 1 :])
        )
        lo, hi = fraction_integer_range(shift, remaining / d)
        for ti in range(lo, hi + 1):
            budget[0] -= 1
            t[i] = Fraction(ti)
            used = d * (ti - shift) ** 2
            if used <= remaining:
                recurse(i - 1, remaining - used)

    recurse(len(basis) - 1, radius)
    out.sort()
    return out


def fraction_integer_range(center: Fraction, sq_bound: Fraction) -> tuple[int, int]:
    """Integers t with (t - center)^2 <= sq_bound (empty range when negative)."""
    if sq_bound < 0:
        return 0, -1
    p, q = sq_bound.numerator, sq_bound.denominator
    a, b = center.numerator, center.denominator
    # (t b - a)^2 q <= p b^2 holds for an integer t exactly when
    # |t b - a| <= isqrt(floor(p b^2 / q)), since the left side is an integer
    umax = isqrt(p * b * b // q)
    return -((umax - a) // b), (a + umax) // b  # ceil, floor of (a -+ umax) / b


# -- chains by dense matrices, and the two chain walks -------------------------
# `sncalc.calculus._chain_d`, `chain_invariants` and `bark_chain` before the
# continuant recurrence, `DualGraph.chain_order` and `graphs.maximal_twigs`
# before their shared tip-to-branch walk, and the grouping loop of
# `lattice.ruling_decompose` before its union-find, kept verbatim as oracles.


def _neg(m: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[-x for x in row] for row in m]


def matrix_chain_d(weights: Sequence[int]) -> Fraction:
    """Discriminant of a bare chain, by weights alone."""
    return det_exact(
        _neg(
            [
                [w if i == j else (1 if abs(i - j) == 1 else 0) for j, w in enumerate(weights)]
                for i in range(len(weights))
            ]
        )
    )


def matrix_chain_invariants(ch: Chain) -> ChainInvariants:
    if not ch.is_admissible():
        raise NonAdmissibleError(
            f"chain {list(ch.bracket)} has a component above -2; e and delta undefined"
        )
    d = matrix_chain_d(ch.chain_weights)
    d_prime = matrix_chain_d(ch.chain_weights[1:])
    # e-tilde through the explicitly reversed chain, not a shortcut formula
    rev = ch.reversed()
    d_rev = matrix_chain_d(rev.chain_weights)
    d_rev_prime = matrix_chain_d(rev.chain_weights[1:])
    if d != d_rev:
        raise InvariantError(f"chain {list(ch.bracket)}: d changes under reversal")
    return ChainInvariants(
        d=int(d),
        d_prime=int(d_prime),
        e=Fraction(int(d_prime), int(d)),
        e_tilde=Fraction(int(d_rev_prime), int(d_rev)),
        delta=Fraction(1, int(d)),
    )


def matrix_bark_chain(ch: Chain) -> QDivisor:
    """The divisor supported on the chain with tip product -1, 0 elsewhere."""
    if not ch.is_admissible():
        raise NonAdmissibleError(f"chain {list(ch.bracket)} is not admissible")
    n = len(ch)
    q = [
        [ch.chain_weights[i] if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)]
        for i in range(n)
    ]
    rhs = [-1] + [0] * (n - 1)
    return QDivisor(ch.to_graph(), dict(zip(ch.ids, rref_solve_rational(q, rhs))))


def min_tip_chain_order(self) -> tuple[str, ...]:
    """Vertex ids of a chain walked end to end.

    Of the two walks the one starting at the smaller tip (in vertex
    order) is returned.
    """
    if not self.is_chain():
        raise ValueError("not a chain")
    if len(self) == 1:
        return (self.ids[0],)
    order = {v: i for i, v in enumerate(self.ids)}
    tips = [v for v in self.ids if self.degree(v) == 1]
    start = min(tips, key=order.__getitem__)
    walk = [start]
    prev = None
    cur = start
    while True:
        nxt = [u for u in self.neighbors(cur) if u != prev]
        if not nxt:
            return tuple(walk)
        prev, cur = cur, nxt[0]
        walk.append(cur)


def loop_maximal_twigs(g: DualGraph) -> list[Chain]:
    """Maximal chains hanging off branching vertices, tip first.

    Defined for forests that are not chains; each returned chain starts at a
    tip and stops just before the first branching vertex.  Every component
    of the input must contain a branching vertex.
    """
    if not g.is_forest():
        raise NonTreeError("maximal twigs are defined for forests only")
    if all(g.degree(v) <= 2 for v in g.ids):
        raise ValueError("graph is a chain; it has no twigs of its own")
    for comp in g.components():
        if all(g.degree(v) <= 2 for v in comp):
            raise ValueError(f"component {comp} is a chain; twigs undefined")
    twigs = []
    for tip in g.ids:
        if g.degree(tip) > 1:
            continue
        walk = [tip]
        prev = None
        cur = tip
        while g.degree(cur) <= 2:
            nxt = [u for u in g.neighbors(cur) if u != prev]
            if not nxt:
                break  # cannot happen: component has a branching vertex
            prev, cur = cur, nxt[0]
            if g.degree(cur) > 2:
                break
            walk.append(cur)
        twigs.append(Chain.from_graph(g, walk))
    return twigs


def merge_vertical_groups(
    l: SurfaceLattice, curve_names: Sequence[str], vertical: list[str]
) -> list[list[str]]:
    """The fiber groups of `ruling_decompose`: its vertical curves merged by
    positive pairing, keyed by name."""
    # group vertical curves by pairing connectivity
    groups: list[list[str]] = []
    assigned: dict[str, int] = {}
    for name in vertical:
        touching = {
            assigned[other]
            for other in vertical
            if other in assigned and l.pair(name, other) > 0
        }
        if not touching:
            assigned[name] = len(groups)
            groups.append([name])
        else:
            keep = min(touching)
            groups[keep].append(name)
            assigned[name] = keep
            for gi in sorted(touching - {keep}, reverse=True):
                for moved in groups[gi]:
                    assigned[moved] = keep
                groups[keep].extend(groups[gi])
                groups[gi] = []
    groups = [sorted(grp, key=list(curve_names).index) for grp in groups if grp]
    return groups


# -- the eager Bareiss pass and the primitive echelon form ---------------------
# `sncalc.linalg._bareiss`, `_echelon` and `_solve` before one lazy,
# rank-revealing Bareiss pass replaced the two eliminations, kept verbatim
# (up to names) as oracles: the other oracles here call these copies.


def eager_bareiss(a: list[list[int]], definite: bool = False, ncols: int | None = None) -> int:
    """Fraction-free elimination (Bareiss 1968) of a square integer matrix,
    in place; returns its determinant.  Every division is exact.  A tall
    matrix (more rows than columns) gives, up to sign, the maximal minor on
    the rows its exchanges bring to the top: nonzero exactly when its
    columns are independent.  Only the first ncols columns (all by default)
    are pivoted on; later columns are right-hand sides, carried along.

    Without row exchanges a[k][j] (j >= k) ends as the minor on rows 0..k
    and columns 0..k-1, j, so a[k][k] is the (k+1)-th leading principal
    minor.  With definite=True rows are never exchanged and 0 is returned
    at the first pivot that is not positive: a positive result means every
    leading principal minor is positive (Sylvester).
    """
    rows = len(a)
    width = len(a[0]) if rows else 0
    sign = prev = 1
    for k in range(width if ncols is None else ncols):
        row = a[k]
        pivot = row[k]
        if definite:
            if pivot <= 0:
                return 0
        elif pivot == 0:
            swap = next((i for i in range(k + 1, rows) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], row
            row = a[k]
            pivot = row[k]
            sign = -sign
        for i in range(k + 1, rows):
            ai = a[i]
            f = ai[k]
            if not f and pivot == prev:
                continue  # the update would leave the row as it is
            for j in range(k + 1, width):
                ai[j] = (ai[j] * pivot - f * row[j]) // prev
        prev = pivot
    return sign * prev


def primitive_echelon(a: list[list[int]], ncols: int) -> list[int]:
    """Forward elimination of an integer matrix over Z, in place, pivoting
    on its first ncols columns only (later columns are right-hand sides).

    Returns the pivot columns: row r starts at column pivots[r], and the
    rows past the rank are zero in the first ncols columns.  A row below a
    pivot p with f != 0 in its column becomes (p/g) row - (f/g) pivot row,
    g = gcd(p, f), divided by its content; rows that are zero there are
    not touched.  An updated row is primitive, so it equals, up to sign,
    the row of minors of Bareiss's elimination divided by its gcd, and no
    entry exceeds a minor of the input.
    """
    rows = len(a)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, rows) if a[i][c]), None)
        if found is None:
            continue
        a[r], a[found] = a[found], a[r]
        row = a[r]
        p = row[c]
        for i in range(r + 1, rows):
            f = a[i][c]
            if f:
                g = gcd(p, f)
                u, v = p // g, f // g
                new = [u * x - v * y for x, y in zip(a[i], row)]
                h = gcd(*new)
                a[i] = [x // h for x in new] if h > 1 else new
        pivots.append(c)
    return pivots


def echelon_solve(m, b) -> tuple[int, list[Fraction] | None]:
    """The rank of m and the unique rational solution of m x = b, or None
    when m has dependent columns or the system is inconsistent.

    The solution is re-checked against m and b before returning.
    """
    rows, cols = _check_rectangular(m)
    if len(b) != rows:
        raise ValueError("right-hand side has wrong length")
    if not rows:
        return 0, []
    a, _ = _integer_rows([[*row, rhs] for row, rhs in zip(m, b)])
    pivots = primitive_echelon(a, cols)
    rank = len(pivots)
    if rank < cols or any(row[cols] for row in a[rank:]):
        return rank, None
    y, d = _back_substitute(a, pivots, cols, -1)
    del y[cols]
    if any(sum(map(mul, row, y)) != rhs * d for row, rhs in zip(m, b)):
        raise InvariantError("back-substitution check failed")
    return rank, [Fraction(x, d) for x in y]


# -- forms by dense elimination -----------------------------------------------
# `sncalc.linalg.det_exact`, `is_negative_definite`, `kernel_basis` and
# `_integer_rows` before leaf elimination of forest forms,
# `DualGraph.intersection_matrix` before it read the adjacency, and
# `calculus._bark_component` before a whole chain took the two chain barks,
# kept verbatim as oracles.


def _integer_rows(m) -> tuple[list[list[int]], int]:
    """A copy of m with each row scaled to integers by the lcm of its
    denominators, and the product of those scales (1 for an integer m)."""
    if all(isinstance(x, int) for row in m for x in row):
        return [list(row) for row in m], 1
    out, scale = [], 1
    for row in m:
        row = [Fraction(x) for x in row]
        s = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (s // x.denominator) for x in row])
        scale *= s
    return out, scale


def bareiss_det_exact(m) -> Fraction:
    """Exact determinant of a square integer or rational matrix."""
    rows, cols = _check_rectangular(m)
    if rows != cols:
        raise ValueError("determinant of a non-square matrix")
    a, scale = _integer_rows(m)
    return Fraction(eager_bareiss(a), scale)


def bareiss_is_negative_definite(m) -> bool:
    """Sylvester's criterion: leading principal minors alternate in sign
    starting negative, read off one Bareiss pass of -m that stops at the
    first failing minor.  The matrix must be symmetric."""
    rows, cols = _check_rectangular(m)
    if rows != cols:
        raise ValueError("definiteness of a non-square matrix")
    for i in range(rows):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    a, _ = _integer_rows(m)
    return eager_bareiss([[-x for x in row] for row in a], definite=True) > 0


def echelon_kernel_basis(m) -> list[list[Fraction]]:
    """A basis of the rational null space of m (solutions of m x = 0): one
    vector per non-pivot column c, with 1 at c and 0 at the other
    non-pivot columns.  Each vector is re-checked against m."""
    _, cols = _check_rectangular(m)
    a, _ = _integer_rows(m)
    pivots = primitive_echelon(a, cols)
    basis = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        y, d = _back_substitute(a, pivots, fc, 1)
        if any(sum(map(mul, row, y)) for row in m):
            raise InvariantError("kernel check failed")
        basis.append([Fraction(x, d) for x in y])
    return basis


def has_edge_intersection_matrix(self, support: Sequence[str] | None = None) -> list[list[int]]:
    """The matrix Q with weights on the diagonal and 1 for each edge."""
    sup = list(self.ids if support is None else support)
    unknown = set(sup) - set(self._adj)
    if unknown:
        raise KeyError(f"unknown vertex ids: {sorted(unknown)}")
    w = self.weights
    return [
        [w[a] if a == b else (1 if self.has_edge(a, b) else 0) for b in sup]
        for a in sup
    ]


def dense_bark_component(g: DualGraph, comp: tuple[str, ...], whole: bool) -> dict[str, Fraction]:
    """Bark coefficients for one connected component.

    With whole=True it solves (K + D - Bk).D_i = 0 over the whole component,
    otherwise over its maximal twigs, which must be admissible.  Both reduce
    to Q x = rhs with rhs_i = deg(i) - 2 by adjunction.
    """
    if whole:
        support = list(comp)
    else:
        twigs = maximal_twigs(g.subgraph(comp))
        for t in twigs:
            if not t.is_admissible():
                raise NonAdmissibleError(
                    f"maximal twig {list(t.bracket)} is not admissible"
                )
        support = [v for t in twigs for v in t.ids]
    if not support:
        return {}
    q = g.intersection_matrix(support)
    rhs = [g.degree(v) - 2 for v in support]
    x = rref_solve_rational(q, rhs)
    coeffs = dict(zip(support, x))
    # the defining equations must hold exactly
    for i, v in enumerate(support):
        if sum(q[i][j] * coeffs[support[j]] for j in range(len(support))) != rhs[i]:
            raise InvariantError(f"bark equation at {v!r} fails")
    return coeffs


def dense_is_admissible_chain_or_fork(g: DualGraph, comp: tuple[str, ...]) -> bool:
    """The former route of `bark`: whether a component gets a whole-component
    solve, with the fork's definiteness read off its dense matrix."""
    sub = g.subgraph(comp)
    if any(w > -2 for _, w in sub.vertices):
        return False
    degsorted = sorted(sub.degree(v) for v in comp)
    if all(d <= 2 for d in degsorted):
        return True  # admissible chain; automatically negative definite
    # admissible fork = the resolution graph of a non-cyclic quotient
    # singularity: a unique degree-three branching component, negative
    # definite, with twig discriminants (2,2,n), (2,3,3), (2,3,4) or
    # (2,3,5), i.e. reciprocals summing above 1.  Weights below -1 alone
    # force neither definiteness nor the triple condition.
    if degsorted[-1] != 3 or (len(degsorted) >= 2 and degsorted[-2] > 2):
        return False
    twigs = maximal_twigs(sub)
    if len(twigs) != 3:
        return False
    recip = sum(chain_invariants(t).delta for t in twigs)
    if recip <= 1:
        return False
    return is_negative_definite(sub.intersection_matrix())


def dense_bark(g: DualGraph) -> QDivisor:
    """The former `bark`: a whole-component solve on admissible chains and
    forks, a dense twig solve on any other component but a chain."""
    if not g.is_forest():
        raise NonTreeError("bark of a cyclic graph is undefined")
    _check_minimal(g)
    coeffs: dict[str, Fraction] = {}
    for comp in g.components():
        whole = dense_is_admissible_chain_or_fork(g, comp)
        if not whole and all(g.degree(v) <= 2 for v in comp):
            continue  # non-admissible chain: empty bark
        coeffs.update(dense_bark_component(g, comp, whole))
    return QDivisor(g, coeffs)


def forms_tree_form(rng: random.Random, n: int, definite: bool) -> list[list[int]]:
    """The intersection matrix of a tree as the benchmark's forms workload
    draws it: vertex i > 0 meets a uniform earlier vertex; a definite tree
    has weight <= -degree everywhere and < -degree on leaves, any other
    tree weights uniform in [-4, 0]."""
    parent = [-1] + [rng.randrange(i) for i in range(1, n)]
    degree = [sum(parent[j] == i for j in range(n)) + (i > 0) for i in range(n)]
    if definite:
        weights = [-d - (d <= 1) - rng.randint(0, 2) for d in degree]
    else:
        weights = [rng.randint(-4, 0) for _ in range(n)]
    return [
        [weights[i] if i == j else int(parent[i] == j or parent[j] == i) for j in range(n)]
        for i in range(n)
    ]


# -- second copies that one routine replaced ----------------------------------
# `sncalc.linalg._forest_minors` with the union-find beside its search,
# `sncalc.projective._det3` with its six written-out terms, `_mat_inv3`
# with its nine written-out cofactors,
# `push_conic` with its two written-out triple products, `dual_hesse_check`
# with its three incidence scans and `sncalc.surgery.blowup_graph` with one
# rebuild per kind of center, kept verbatim as oracles (only the names
# changed, and the bundled configuration is read through the module so that
# a test can patch it).


def union_find_forest_minors(a: list[list[int]]) -> tuple[int, list[int]] | None:
    """The determinant of a symmetric integer matrix whose off-diagonal
    nonzeros form a forest, with the determinant D(v) of the principal
    submatrix on each vertex v and its descendants, listed leaf first;
    None when the matrix is not symmetric or its graph has a cycle.

    One pass over the strict lower triangle checks each nonzero against its
    mirror and grows a union-find, and a count of the zeros shows that no
    nonzero above the diagonal lacks a mirror.  Each component is rooted at
    its first vertex, and with E(v) the product of D(c) over the children c
    of v,

        D(v) = a_vv E(v) - sum_c a_vc^2 E(c) prod_{c' != c} D(c'),

    which has no division, so a zero D needs no special rule.  A child
    folds into its parent's running product and sum, so a star stays
    linear.  Every prefix of the returned order is a union of whole
    subtrees, whose leading minor is the product of their D's.
    """
    n = len(a)
    root = list(range(n))
    adj: list[list[int]] = [[] for _ in range(n)]
    edges = 0
    for i, row in enumerate(a):
        for j in compress(range(i), row):
            if a[j][i] != row[j]:
                return None
            r, s = i, j
            while root[r] != r:
                root[r] = r = root[root[r]]
            while root[s] != s:
                root[s] = s = root[root[s]]
            if r == s:
                return None
            root[r] = s
            adj[i].append(j)
            adj[j].append(i)
            edges += 1
    diagonal = sum(1 for i in range(n) if a[i][i])
    if n * n - sum(row.count(0) for row in a) - diagonal != 2 * edges:
        return None
    up: list[int | None] = [None] * n
    order: list[int] = []  # breadth first: parents come before children
    k = 0
    for r in range(n):
        if up[r] is not None:
            continue
        up[r] = -1
        order.append(r)
        while k < len(order):
            v = order[k]
            k += 1
            for u in adj[v]:
                if up[u] is None:
                    up[u] = v
                    order.append(u)
    # fold each D(v), leaf first, into its parent's running E and sum
    product, total = [1] * n, [0] * n
    minors: list[int] = []
    det = 1
    for v in reversed(order):
        e = product[v]
        d = a[v][v] * e - total[v]
        minors.append(d)
        p = up[v]
        if p < 0:
            det *= d
        else:
            x = a[p][v]
            total[p] = total[p] * d + x * x * e * product[p]
            product[p] *= d
    return det, minors


def six_term_det3(rows) -> QuadExt:
    """The six-term expansion of a 3x3 determinant over Q(eps)."""
    out = QuadExt(0)
    for (i, j, k), sign in (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1),
    ):
        term = rows[0][i] * rows[1][j] * rows[2][k]
        out = out + term if sign > 0 else out - term
    return out


def cofactor_mat_inv3(m):
    rows = [[QuadExt.of(x) for x in row] for row in m]
    det = six_term_det3(rows)
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


def triple_product_push_conic(m: Sequence[Sequence], c: ProjConic) -> ProjConic:
    """The image conic under the projectivity p -> m p."""
    minv = cofactor_mat_inv3(m)
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


def three_scan_dual_hesse_check() -> projective.DualHesseReport:
    """Count incidences in the bundled 12-point, 9-line configuration."""
    point_degrees = {
        name: sum(1 for line in projective.Y333_LINES.values() if incident(p, line))
        for name, p in projective.Y333_POINTS.items()
    }
    line_degrees = {
        name: sum(1 for p in projective.Y333_POINTS.values() if incident(p, line))
        for name, line in projective.Y333_LINES.items()
    }
    table_ok = all(
        incident(projective.Y333_POINTS[pname], projective.Y333_LINES[lname])
        for lname, pts in projective.Y333_INCIDENCES.items()
        for pname in pts
    )
    return projective.DualHesseReport(
        point_degrees=point_degrees,
        line_degrees=line_degrees,
        total_incidences=sum(point_degrees.values()),
        incidence_table_ok=table_ok,
    )


def two_branch_blowup_graph(
    g: DualGraph, center: str | tuple[str, str], new_id: str | None = None
) -> DualGraph:
    """Blow up a point on one component (sprouting) or on an edge
    (subdivisional).

    The new vertex has weight -1; the center vertex loses 1 from its weight,
    and for an edge center both endpoints do.
    """
    if new_id is None:
        new_id = _fresh_id(g)
    if new_id in g:
        raise ValueError(f"vertex id {new_id!r} already taken")
    if isinstance(center, str):
        if center not in g:
            raise KeyError(center)
        verts = tuple(
            (v, w - 1 if v == center else w) for v, w in g.vertices
        ) + ((new_id, -1),)
        edges = set(g.edges) | {tuple(sorted((center, new_id)))}
        return DualGraph(verts, frozenset(edges))
    a, b = center
    if not g.has_edge(a, b):
        raise KeyError(f"no edge between {a!r} and {b!r}")
    verts = tuple(
        (v, w - 1 if v in (a, b) else w) for v, w in g.vertices
    ) + ((new_id, -1),)
    edges = set(g.edges) - {tuple(sorted((a, b)))}
    edges |= {tuple(sorted((a, new_id))), tuple(sorted((b, new_id)))}
    return DualGraph(verts, frozenset(edges))


# -- discriminants and multiplicities by the intersection matrix --------------
# `sncalc.calculus.discriminant` and `sncalc.surgery.fiber_multiplicities`
# before they read the leaf pass off the graph, kept verbatim as oracles.


def matrix_discriminant(g: DualGraph, support: Iterable[str] | None = None) -> Fraction:
    """det(-Q) restricted to the given components; empty support gives 1."""
    sup = list(g.ids if support is None else support)
    return det_exact(_neg(g.intersection_matrix(sup)))


def kernel_fiber_multiplicities(g: DualGraph) -> FiberGraph:
    """Multiplicities of a valid fiber: the primitive positive kernel vector
    of its intersection matrix."""
    ok, _ = is_valid_fiber(g)
    if not ok:
        raise NotAFiberError("graph does not contract to a smooth 0-curve")
    basis = kernel_basis(g.intersection_matrix())
    if len(basis) != 1:
        raise NotAFiberError(f"kernel has dimension {len(basis)}, expected 1")
    vec = basis[0]
    scale = lcm(*(f.denominator for f in vec))
    ints = [int(f * scale) for f in vec]
    g_ = gcd(*ints)
    ints = [x // g_ for x in ints]
    if ints[0] < 0:
        ints = [-x for x in ints]
    if any(x <= 0 for x in ints):
        raise NotAFiberError("kernel vector is not positive")
    return FiberGraph(g, dict(zip(g.ids, ints)))


# -- the dense blow-up lattice ------------------------------------------------
# `sncalc.lattice.run_program` and `extract_boundary_graph` before classes
# were stored as position -> coefficient and pairings read off one Gram
# table: dense classes, every class re-checked after every step, and every
# pair of names paired over the whole rank.  Kept verbatim as oracles, on a
# copy of the dense `SurfaceLattice` reduced to what they read.


def dense_pair(a: Sequence[int], b: Sequence[int]) -> int:
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


class DenseLattice:
    """Named classes as dense vectors in the basis (H, e_1, ..., e_n)."""

    def __init__(self, n_blowups: int):
        self.rank = n_blowups + 1
        self.classes: dict[str, tuple[int, ...]] = {}

    def resolve(self, obj) -> tuple:
        if isinstance(obj, str):
            if obj == "K":
                return (-3,) + (1,) * (self.rank - 1)
            try:
                return self.classes[obj]
            except KeyError:
                raise KeyError(f"unknown curve {obj!r}") from None
        vec = tuple(obj)
        if len(vec) != self.rank:
            raise LatticeError(f"vector has length {len(vec)}, lattice rank is {self.rank}")
        return vec

    def pair(self, a, b) -> int | Fraction:
        return dense_pair(self.resolve(a), self.resolve(b))

    def _register_checked(self, name: str, v: tuple[int, ...]) -> None:
        if self.pair(v, v) + self.pair(v, "K") != -2:
            raise LatticeError(f"class for {name!r} violates rational adjunction")
        self.classes[name] = v


def dense_run_program(p) -> DenseLattice:
    """Execute a blow-up program, re-checking adjunction for every class
    after every step."""
    n = p.n_blowups
    lat = DenseLattice(n)
    classes: dict[str, list[int]] = {}
    k = 0
    for step in p.steps:
        if step[0] == "curve":
            _, name, degree = step
            if degree not in (1, 2):
                raise LatticeError(
                    f"curve {name!r} has degree {degree}; only smooth rational "
                    "plane curves (degree 1 or 2) are supported"
                )
            classes[name] = [degree] + [0] * n
        else:
            _, name, centers = step
            k += 1
            for i, a in enumerate(centers):
                for b in centers[i + 1 :]:
                    prod = dense_pair(classes[a], classes[b])
                    if prod < 1:
                        raise ExcessIntersectionError(
                            f"blow-up {name!r}: curves {a!r} and {b!r} no longer "
                            "meet at the center (excess intersection exhausted)"
                        )
            for c in centers:
                classes[c][k] -= 1
            vec = [0] * (n + 1)
            vec[k] = 1
            classes[name] = vec
        for cname, cvec in classes.items():
            sq = dense_pair(cvec, cvec)
            kc = -3 * cvec[0] - sum(cvec[1 : k + 1])  # K pairs only with spent basis
            if sq + kc != -2:
                raise LatticeError(
                    f"adjunction fails for {cname!r} after step introducing {step[1]!r}"
                )
    for cname, cvec in classes.items():
        lat._register_checked(cname, tuple(cvec))
    return lat


def all_pairs_extract_boundary_graph(l: DenseLattice, names: Sequence[str]) -> DualGraph:
    """Dual graph of a set of named curves, pairing every two of them."""
    verts = []
    edges = []
    for i, a in enumerate(names):
        verts.append((a, int(l.pair(a, a))))
        for b in names[i + 1 :]:
            prod = l.pair(a, b)
            if prod == 1:
                edges.append((a, b))
            elif prod != 0:
                raise LatticeError(
                    f"curves {a!r} and {b!r} pair to {prod}; not an snc tree"
                )
    g = DualGraph.build(verts, edges)
    if not g.is_forest():
        raise NonTreeError("boundary curves form a cycle")
    return g


def chain_program(n: int) -> str:
    """A line L and a conic C, E0 blown up at a point where they meet, then
    n - 1 blow-ups Ei at a point of E(i-1): a chain of infinitely near
    points, with L - E0 - E1 - ... - E(n-1) a chain of curves."""
    steps = ["curve L degree=1", "curve C degree=2", "blowup E0 at L,C"]
    steps += [f"blowup E{i} at E{i - 1}" for i in range(1, n)]
    return "\n".join(steps) + "\n"


# -- Q(eps) kernels built from the QuadExt operators --------------------------
# `sncalc.projective._dot`, `_mat_vec`, `_cross`, `_pencil` and `_scaled` as
# they were before the kernels read the integer fields, kept verbatim as
# oracles (only the names changed).


def operator_dot(x, y) -> QuadExt:
    return sum((a * b for a, b in zip(x, y)), QuadExt(0))


def operator_mat_vec(m, x) -> tuple[QuadExt, QuadExt, QuadExt]:
    return tuple(sum((row[j] * x[j] for j in range(3)), QuadExt(0)) for row in m)


def operator_cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def operator_pencil(x, m1, y, m2) -> list[list[QuadExt]]:
    """The symmetric matrix x M1 + y M2."""
    return [[x * a + y * b for a, b in zip(r1, r2)] for r1, r2 in zip(m1, m2)]


def operator_scaled(v: tuple[QuadExt, ...]) -> tuple[QuadExt, ...] | None:
    """v divided by its first nonzero entry, or None if v is zero."""
    lead = next((c for c in v if c), None)
    if lead is None:
        return None
    if lead == 1:
        return v
    inv = lead.inverse()
    return tuple(c * inv for c in v)


# -- torsion, integer solves and fiber groups by dense elimination -------------
# `sncalc.linalg.torsion_of_cokernel` and `solve_integer` and
# `sncalc.lattice.ruling_decompose` with its `_solve_rational_overdetermined`
# before unit pivots were peeled first, the Hermite transform was kept as
# sparse columns and each fiber group was solved on its support, kept
# verbatim (up to names) as oracles.


def dense_torsion_of_cokernel(m) -> TorsionGroup:
    """Torsion of Z^rows / (column span of m): its invariant factors, with
    no transform built.

    m and its transpose have the same invariant factors, so a tall m is
    transposed to s, with rows <= cols.  Let r be its rank and D a nonzero
    r x r minor.  Every torsion factor divides D, so the cokernel of
    [s | D I] is the torsion plus rows - r copies of Z/D, one for each free
    summand, and `_diagonalise` reduces the entries mod |D|: its diagonal
    is the torsion's factors, padded with 1s, and then rows - r copies of
    |D|.  At full rank D is the determinant of the forest kernel (a square
    forest form) or of one Bareiss pass over the transpose; otherwise the
    pivot columns of `primitive_echelon` give r, and a Bareiss pass over those
    columns gives D.

    Every answer is certified, and a failed check raises InvariantError:
    the diagonalised matrix is diagonal, its diagonal is a divisibility
    chain, its first entry is the gcd of the entries of m (for r > 0), and
    its last rows - r entries are |D|.  The product of the torsion's
    factors, the gcd of the maximal minors at full rank, must divide |D|,
    and equal it for a square m of full rank.  The gcd itself is not
    computed for other shapes: it costs more than the diagonalisation.
    """
    rows, cols = _check_rectangular(m)
    _check_integer(m, "the torsion of a cokernel")
    s = [list(row) for row in m] if rows <= cols else [list(col) for col in zip(*m)]
    rows, cols = len(s), len(s[0]) if s else 0
    forest = _forest_minors(s) if rows == cols else None
    minor = forest[0] if forest is not None else eager_bareiss([list(col) for col in zip(*s)])
    rank = rows
    if not minor:
        pivots = primitive_echelon([row[:] for row in s], cols)
        rank = len(pivots)
        minor = eager_bareiss([[row[p] for p in pivots] for row in s])
        if not minor:
            raise InvariantError("invariant factors: the echelon pivots give no nonzero minor")
    minor = abs(minor)
    _diagonalise(s, minor)
    factors = [s[k][k] for k in range(rows)]
    if any(any(row[:i]) or any(row[i + 1 :]) for i, row in enumerate(s)):
        raise InvariantError("invariant factors: the matrix is not diagonal")
    if 0 in factors or any(b % a for a, b in zip(factors, factors[1:])):
        raise InvariantError("invariant factors: the diagonal is not a divisibility chain")
    if rank and factors[0] != gcd(*chain.from_iterable(m)):
        raise InvariantError("invariant factors: the first is not the gcd of the entries")
    if factors[rank:] != [minor] * (rows - rank):
        raise InvariantError("invariant factors: the free part differs from the echelon rank")
    factors = factors[:rank]
    if minor % prod(factors) or rank == cols and prod(factors) != minor:
        raise InvariantError("invariant factors: the product does not match the minor")
    return TorsionGroup(tuple(d for d in factors if d > 1))


def dense_solve_integer(a, b) -> tuple[list[int], list[list[int]]] | None:
    """All integer solutions of a x = b: a particular one plus a lattice basis.

    Returns None when no integer solution exists (including the case where
    the system is rationally inconsistent).  Column steps bring a to its
    column Hermite form a v = [H | 0] (Cohen, GTM 138, sec. 2.4), with H in
    column echelon form and v unimodular; only v is tracked.  Row by row,
    a smallest nonzero among the columns not yet used becomes the pivot,
    and one Bezout step per entry (`_bezout`) clears the rest of the row.
    Forward substitution through H gives y, the particular solution is
    x0 = v y, and the columns of v from the rank on are the basis.  The
    result is checked: a x0 = b, a kills each basis vector and |det v| = 1.
    v changes only by the steps of its few rows, and those of
    `solve_curve_class` pivot on the units of K and of the classes, so
    they are plain subtractions: on its systems no entry of v exceeds 3.
    Dense random 7x7 matrices with entries up to 5 take v to 63 bits.
    """
    rows, cols = _check_rectangular(a)
    if len(b) != rows:
        raise ValueError("right-hand side has wrong length")
    _check_integer(a, "an integer solve")
    h = [list(col) for col in zip(*a)]  # the columns of a v
    v = identity_matrix(cols)  # v[j] is column j of v
    pivots: list[int] = []
    for i in range(rows):
        r = len(pivots)
        nonzero = [(abs(col[i]), j) for j, col in enumerate(h[r:], r) if col[i]]
        if not nonzero:
            continue
        _, j = min(nonzero)
        if j != r:
            _rows((h, v), r, j, _SWAP)
        for j in range(r + 1, cols):
            if h[j][i]:
                _rows((h, v), r, j, _bezout(h[r][i], h[j][i]))
        pivots.append(i)
    rank = len(pivots)
    y: list[int] = []
    for k, i in enumerate(pivots):
        q, rem = divmod(b[i] - sum(map(mul, (h[j][i] for j in range(k)), y)), h[k][i])
        if rem:
            return None
        y.append(q)
    if any(sum(h[j][i] * y[j] for j in range(rank)) != b[i] for i in range(rows)):
        return None
    x0 = [sum(map(mul, col, y)) for col in zip(*v[:rank])] if rank else [0] * cols
    basis = v[rank:]
    if [sum(map(mul, row, x0)) for row in a] != list(b):
        raise InvariantError("integer solve: a x0 differs from b")
    if any(sum(map(mul, row, k)) for k in basis for row in a):
        raise InvariantError("integer solve: a basis vector is not in the kernel")
    if abs(eager_bareiss([col[:] for col in v])) != 1:
        raise InvariantError("integer solve: the transform is not unimodular")
    return x0, basis


def dense_ruling_decompose(
    l: SurfaceLattice,
    fiber_class: Sequence[int],
    curve_names: Sequence[str],
    boundary: Sequence[str],
) -> RulingDecomposition:
    """Split named curves into horizontal ones and fiber groups.

    Vertical curves are grouped by connectivity of the pairing graph; each
    group's multiplicities are solved from the class equation.  Groups with
    zero pairing that truly belong to one fiber stay separate pieces -- the
    decomposition never invents connectivity.
    """
    f = l.resolve(fiber_class)
    if l.pair(f, f) != 0 or l.pair(f, "K") != -2:
        raise LatticeError("not a fiber class: need F.F = 0 and F.K = -2")
    bset = set(boundary)
    unknown = bset - set(curve_names)
    if unknown:
        raise LatticeError(f"boundary names missing from curve list: {sorted(unknown)}")
    horizontal: list[tuple[str, int]] = []
    vertical: list[str] = []
    sparse_f = {pos: x for pos, x in enumerate(f) if x}
    for name in curve_names:
        cls = l._classes.get(name)
        deg = l.pair(name, f) if cls is None else _sparse_dot(cls, sparse_f)
        if deg > 0:
            horizontal.append((name, int(deg)))
        elif deg == 0:
            vertical.append(name)
        else:
            raise LatticeError(f"curve {name!r} pairs negatively with the fiber class")

    # group vertical curves by pairing connectivity: a union-find over their
    # positions, so groups come in the order of their first curve, joined
    # along the positive entries of each curve's row of the Gram table
    parent: dict[int, int] = {}
    where: dict[str, list[int]] = {}  # name -> its positions so far
    for i, name in enumerate(vertical):
        for other, prod in l._gram[name].items():
            if prod > 0:
                for j in where.get(other, ()):
                    parent[_find(parent, i)] = _find(parent, j)
        where.setdefault(name, []).append(i)
    groups: dict[int, list[str]] = {}
    for i, name in enumerate(vertical):
        groups.setdefault(_find(parent, i), []).append(name)

    pieces: list[FiberPiece] = []
    for grp in groups.values():
        cols = [l.class_of(name) for name in grp]
        a = [[c[r] for c in cols] for r in range(l.rank)]
        sol = dense_solve_rational_overdetermined(a, list(f))
        in_boundary = all(name in bset for name in grp)
        sigma = sum(1 for name in grp if name not in bset)
        if sol is None:
            residual = tuple(
                f[r] - sum(c[r] for c in cols) for r in range(l.rank)
            )
            pieces.append(FiberPiece(tuple(grp), None, residual, in_boundary, sigma))
        else:
            if any(x.denominator != 1 or x < 1 for x in sol):
                raise LatticeError(
                    f"fiber group {grp} solves to non-positive-integer "
                    f"multiplicities {sol}"
                )
            pieces.append(
                FiberPiece(tuple(grp), tuple(int(x) for x in sol), None, in_boundary, sigma)
            )

    nu = sum(1 for p in pieces if p.in_boundary and p.complete)
    sigma_excess = sum(p.sigma - 1 for p in pieces if not p.in_boundary)
    bookkeeping = RulingBookkeeping(
        h=sum(1 for name, _ in horizontal if name in bset),
        nu=nu,
        sigma_excess=sigma_excess,
        b2_surface=l.rank,
        b2_boundary=len(bset),
    )
    return RulingDecomposition(f, tuple(horizontal), tuple(pieces), bookkeeping)


def dense_solve_rational_overdetermined(a, b) -> list[Fraction] | None:
    """Unique rational solution of a (possibly tall) system, or None.

    Raises if the columns are dependent: fiber groups must have independent
    classes for the multiplicity question to be well-posed.
    """
    cols = len(a[0]) if a else 0
    rank, sol = echelon_solve(a, b)
    if rank < cols:
        raise LatticeError("fiber group classes are linearly dependent")
    return sol
