"""Exact integer and rational linear algebra.

Everything here is exact: integer work uses Python's arbitrary-precision
ints, rational work uses fractions.Fraction.  No floating point.  Five
integer elimination kernels serve every routine here, and the
curve-class walk of `lattice` has a sixth for chain forms:

1. `_subtree_minors`: a symmetric form whose off-diagonal nonzeros form
   a forest (every form of a boundary divisor), read from a matrix or
   straight from a graph, is eliminated leaf to root with no fill-in into
   one fold record (`_Forest`); its subtree determinants give the
   determinant, Sylvester's test, the kernel and fiber multiplicities in
   linear time.  The Cramer numerators of its subtrees, folded the same
   way, and one pass from the roots down give the rational solve
   (`_reroot` of the record).  A matrix is recognised once
   (`_forest_form`): its symmetric scan and fold are held in one slot
   keyed on its integer content, which the determinant, Sylvester's test,
   the kernel and the solve of that matrix read in turn; the slot keeps
   no matrix of more than `_SLOT_ROWS` rows.
2. `_bareiss`: every other matrix (cycles, asymmetric or row-scaled
   rational ones, Gram forms that are not chains) goes through one
   fraction-free, rank-revealing pass: determinants, Sylvester's test,
   unimodularity checks, the rows of the curve-class walk, the rank and a
   nonzero maximal minor for cokernel torsion, and, with back-substitution
   over a common denominator, kernels and rational solves, building
   Fractions only for the values returned.
3. `_diagonalise`: cokernel torsion diagonalises the matrix alone by
   unimodular Bezout steps, mod a nonzero minor of the size of its rank,
   and builds no Smith transform.
4. The column Hermite loop of `solve_integer` tracks only its transform,
   as sparse columns, which the curve-class walk reads as they are
   (`_solve_integer_columns`); a system of full column rank skips it.
5. `_peel`, checked step by step by `_core`: before a dense kernel runs
   over Z, a peel linear in the nonzeros takes out the unit pivots alone
   on their row or column and the zero lines, from sparse columns.  The
   dense kernels then see only the core: the Hermite transforms of the
   lattice's solves peel to nothing, and the boundary classes of a
   blown-up plane, handed over as their sparse columns, to a small core
   or to nothing.
6. `lattice._chain_center`: a tridiagonal positive definite form gives
   its leading minors, Bareiss rows and center by continuants, in a
   number of steps linear in its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple, Sequence

from .errors import InvariantError, SingularMatrixError

__all__ = [
    "TorsionGroup",
    "det_exact",
    "solve_rational",
    "smith_normal_form",
    "is_negative_definite",
    "torsion_of_cokernel",
    "kernel_basis",
    "solve_integer",
    "identity_matrix",
    "mat_mul",
]

Matrix = Sequence[Sequence[int]]


def _check_rectangular(m) -> tuple[int, int]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise ValueError("matrix is not rectangular")
    return rows, cols


def _all_int(m) -> bool:
    """Whether every entry of m is an int and nothing else (no bool, no
    Fraction): the exactness test of every integer fast path, read at C
    speed."""
    return set(map(type, chain.from_iterable(m))) <= {int}


def _check_integer(m, what: str) -> None:
    if _all_int(m):
        return  # the common case
    if any(not isinstance(x, int) for row in m for x in row):
        raise ValueError(f"{what} needs an integer matrix")


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    _, ca = _check_rectangular(a)
    rb, _ = _check_rectangular(b)
    if ca != rb:
        raise ValueError("dimension mismatch")
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def det_exact(m) -> Fraction:
    """Exact determinant of a square integer or rational matrix."""
    rows, cols = _check_rectangular(m)
    if rows != cols:
        raise ValueError("determinant of a non-square matrix")
    form = _forest_form(m)
    if form is not None:
        return Fraction(form.det)
    a, scale = _integer_rows(m)
    return Fraction(_bareiss(a)[0], scale)


def _integer_rows(m) -> tuple[list[list[int]], int]:
    """A copy of m with each row scaled to integers by the lcm of its
    denominators, and the product of those scales (1 for an integer m)."""
    if _all_int(m):
        return [list(row) for row in m], 1
    out, scale = [], 1
    for row in m:
        row = [Fraction(x) for x in row]
        s = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (s // x.denominator) for x in row])
        scale *= s
    return out, scale


class _Forest(NamedTuple):
    """The leaf fold of a symmetric form on a forest (`_subtree_minors`):
    the search order (parents first), the parents (-1 at a root), the entry
    a_vp to the parent, the diagonal, D(v) and E(v) by vertex, the
    determinant, and the rows of the matrix it was recognised from (None
    for a form read from a graph)."""

    order: list[int]
    up: list[int]
    entry: list[int]
    diagonal: list[int]
    minors: list[int]
    products: list[int]
    det: int
    rows: Sequence[Sequence[int]] | None = None


# the one recognition kept: (the integer rows of the last square matrix of
# at most _SLOT_ROWS rows asked about, as tuples, and its _Forest or None),
# replaced as one tuple
_last_forest: tuple = (None, None)
_SLOT_ROWS = 64


def _forest_form(m) -> _Forest | None:
    """The recognition of a square matrix as a forest form, None when it is
    not one.  Its integer content (`_integer_rows` with scale 1, else no
    forest form) is the key of a one-slot memo, so the questions asked of
    one matrix in turn (determinant, definiteness, kernel, solve) scan it
    once; a matrix changed in place has a new key.  The slot holds tuples
    of the rows, never the caller's lists, and nothing in it is changed.
    It keeps only a matrix of at most `_SLOT_ROWS` rows (about 35 kB of
    tuples; the forms of `verify` and of the benchmark have at most 20); a
    larger one is recognised on each call and leaves the slot as it was,
    since building its key costs as much as its scan, and keeping it would
    hold 11 MB after the 1,200-vertex chain.
    """
    global _last_forest
    if _all_int(m):
        key = tuple(map(tuple, m))
    else:
        a, scale = _integer_rows(m)
        if scale != 1:
            return None
        key = tuple(map(tuple, a))
    last, form = _last_forest
    if last != key:
        form = _recognise_forest(key)
        if len(key) <= _SLOT_ROWS:
            _last_forest = key, form
    return form


def _recognise_forest(a) -> _Forest | None:
    """`_subtree_minors` of a symmetric matrix whose off-diagonal nonzeros
    form a forest, with its rows; None when the matrix is not symmetric or
    its graph has a cycle.  Called outside the memo of `_forest_form` by
    cokernel torsion, which asks one question of each core.

    One pass over the strict lower triangle checks each nonzero against its
    mirror and builds the adjacency, and a count of the zeros shows that no
    nonzero above the diagonal lacks a mirror.
    """
    n = len(a)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, row in enumerate(a):
        for j in compress(range(i), row):
            if a[j][i] != row[j]:
                return None
            adj[i].append((j, row[j]))
            adj[j].append((i, row[j]))
    diagonal = [row[i] for i, row in enumerate(a)]
    if n * n - sum(row.count(0) for row in a) - n + diagonal.count(0) != sum(map(len, adj)):
        return None
    fold = _subtree_minors(diagonal, adj)
    return None if fold is None else fold._replace(rows=a)


def _subtree_minors(diagonal: list[int], adj: list[list[tuple[int, int]]]) -> _Forest | None:
    """Leaf-to-root elimination of a symmetric integer form on a forest,
    given by its diagonal and the pairs (u, a_vu) over the neighbours u of
    each vertex v, as a fold record (`_Forest`) with no rows; None when the
    graph has a cycle.

    A breadth-first search roots each component at its first vertex; the
    graph is a forest exactly when it has n minus (number of roots) edges.
    With E(v) the product of D(c) over the children c of v, the determinant
    D(v) of the form on v and its descendants, and the Cramer numerator
    N(v) of that subsystem at v (its determinant with column v replaced by
    b), are

        D(v) = a_vv E(v) - sum_c a_vc^2 E(c) prod_{c' != c} D(c'),
        N(v) = b_v E(v) - sum_c a_vc N(c) prod_{c' != c} D(c'),

    which have no division, so a zero D needs no special rule.  A child folds
    into its parent's running product and sum, so a star stays linear.  The
    form's determinant is the product of the roots' D's.  The N's and the
    solution's numerators come from `_reroot`, with no division either.
    """
    n = len(diagonal)
    up, entry = [-2] * n, [0] * n  # entry[v] = a_vp for the parent p of v
    order: list[int] = []
    k = roots = 0
    for r in range(n):
        if up[r] != -2:
            continue
        up[r] = -1
        roots += 1
        order.append(r)
        while k < len(order):
            v = order[k]
            k += 1
            for u, s in adj[v]:
                if up[u] == -2:
                    up[u] = v
                    entry[u] = s
                    order.append(u)
    if sum(map(len, adj)) != 2 * (n - roots):
        return None
    # fold each D(v), leaf first, into its parent's running E and sum
    product, total, minors = [1] * n, [0] * n, [0] * n
    for v in reversed(order):
        e = product[v]
        minors[v] = d = diagonal[v] * e - total[v]
        p = up[v]
        if p >= 0:
            s = entry[v]
            total[p] = total[p] * d + s * s * e * product[p]
            product[p] *= d
    det = prod(minors[v] for v in order if up[v] < 0)
    return _Forest(order, up, entry, diagonal, minors, product, det)


def _reroot(form: _Forest, rhs: list[int]) -> list[int]:
    """The Cramer numerators y(v) = det(component of v) x_v of the system
    (a forest form) x = b, given the fold record of the form
    (`_subtree_minors`) and b.

    A first pass folds N(v) leaf first, as `_subtree_minors` folds D(v),
    with a running product of its own.  Let U(v) be the determinant of the
    form outside the subtree of v, M(v) its Cramer numerator at the parent
    p, and F(v) the product of the determinants of p's branches there
    (U = 1 and M = F = 0 at a root).  Rerooted at v, the component's determinant times x_v is

        y(v) = N(v) U(v) - a_vp E(v) M(v).

    The outer form of a child c of v is v with its other children's
    subtrees and its own outer form as branches, so U(c), M(c) and F(c)
    are D, N and E of `_subtree_minors` at v over those branches, the outer
    one entering with D = U(v), E = F(v) and N = M(v).  Folds over the
    branches before c and over the children after it are joined, so
    nothing is divided and a zero D needs no rule, and the pass is linear.
    """
    order, up, entry, diagonal = form.order, form.up, form.entry, form.diagonal
    minors, product = form.minors, form.products
    n = len(order)
    cramer, partial, running = [0] * n, [0] * n, [1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for v in reversed(order):
        cramer[v] = t = rhs[v] * product[v] - partial[v]
        p = up[v]
        if p >= 0:
            children[p].append(v)
            f = running[p]
            partial[p] = partial[p] * minors[v] + entry[v] * t * f
            running[p] = f * minors[v]
    outer, outer_cramer, outer_product = [1] * n, [0] * n, [0] * n
    y = [0] * n
    for v in order:
        u, s = outer[v], entry[v]
        y[v] = cramer[v] * u - s * product[v] * outer_cramer[v]
        cs = children[v]
        if not cs:
            continue
        # a fold is (prod D, sum a^2 E prod_{others} D, sum a N prod_{others} D)
        steps = [(minors[c], entry[c] ** 2 * product[c], entry[c] * cramer[c]) for c in cs]
        suffix = [(1, 0, 0)]  # the folds of the last i children, i = 0, 1, ...
        for d, e, t in reversed(steps[1:]):
            p, q, r = suffix[-1]
            suffix.append((p * d, q * d + e * p, r * d + t * p))
        w, b = diagonal[v], rhs[v]
        p1, q1, r1 = u, s * s * outer_product[v], s * outer_cramer[v]  # the outer branch
        for c, (d, e, t), (p2, q2, r2) in zip(cs, steps, reversed(suffix)):
            p, q, r = p1 * p2, q1 * p2 + q2 * p1, r1 * p2 + r2 * p1
            outer_product[c] = p
            outer[c] = w * p - q
            outer_cramer[c] = b * p - r
            p1, q1, r1 = p1 * d, q1 * d + e * p1, r1 * d + t * p1
    return y


def _bareiss(
    a: list[list[int]], definite: bool = False, ncols: int | None = None
) -> tuple[int, list[int]]:
    """Fraction-free elimination (Bareiss 1968) of an integer matrix, in
    place, pivoting on its first ncols columns (all by default; later
    columns are right-hand sides, carried along).  Every division is exact.

    Returns (det, pivots).  A column with no nonzero left below the pivots
    so far is skipped, so the rank is len(pivots); det is the last pivot,
    signed by the row exchanges, when every pivoted column has one, else 0:
    the determinant of a square matrix, and of a tall one the maximal minor
    on the rows its exchanges bring to the top.  Pivot row r ends, from
    column pivots[r] on, as the minors on rows 0..r and columns
    pivots[:r], j, so without exchanges a[k][k] is the (k+1)-th leading
    principal minor; nothing left of a row's pivot is cleared.  A row with
    0 in the pivot column, which the update would only scale by pivot /
    prev, is left alone and keeps the pivot it is divided by: its next
    update divides by that, and it is scaled up to the current pivot when
    it becomes the pivot row.  With definite=True rows are never exchanged
    and det is 0 at the first pivot that is not positive: a positive det
    means every leading principal minor is positive (Sylvester).
    """
    rows = len(a)
    width = len(a[0]) if rows else 0
    ncols = width if ncols is None else ncols
    level = [1] * rows  # the pivot each row is divided by
    pivots: list[int] = []
    sign = prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        if not definite:
            found = next((i for i in range(r, rows) if a[i][c]), None)
            if found is None:
                continue
            if found != r:
                a[r], a[found] = a[found], a[r]
                level[r], level[found] = level[found], level[r]
                sign = -sign
        row = a[r]
        if level[r] != prev:
            row[c:] = [x * prev // level[r] for x in row[c:]]
        pivot = row[c]
        if definite and pivot <= 0:
            return 0, pivots
        tail = row[c + 1 :]
        for i in range(r + 1, rows):
            ai = a[i]
            f = ai[c]
            if f:
                d = level[i]
                ai[c + 1 :] = [(x * pivot - f * y) // d for x, y in zip(ai[c + 1 :], tail)]
                level[i] = pivot
        pivots.append(c)
        prev = pivot
    return (sign * prev if len(pivots) == ncols else 0), pivots


def _back_substitute(
    a: list[list[int]], pivots: list[int], col: int, value: int
) -> tuple[list[int], int]:
    """The solution of the echelon system a (from `_bareiss`) with column
    col set to value and every other non-pivot column to 0, as integers y
    over one denominator d > 0: the solution is y / d and y[col] = value d.
    """
    y = [0] * len(a[0])
    y[col] = value
    d = 1
    for r in reversed(range(len(pivots))):
        row, p = a[r], pivots[r]
        s = sum(map(mul, row[p + 1 :], y[p + 1 :]))
        q = row[p]
        g = gcd(s, q) if q > 0 else -gcd(s, q)
        if g != q:
            f = q // g
            y = [x * f for x in y]
            d *= f
        y[p] = -s // g
    return y, d


def _solve(m, b) -> tuple[int, list[Fraction] | None]:
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
    pivots = _bareiss(a, ncols=cols)[1]
    rank = len(pivots)
    if rank < cols or any(row[cols] for row in a[rank:]):
        return rank, None
    y, d = _back_substitute(a, pivots, cols, -1)
    del y[cols]
    if any(sum(map(mul, row, y)) != rhs * d for row, rhs in zip(m, b)):
        raise InvariantError("back-substitution check failed")
    return rank, [Fraction(x, d) for x in y]


def solve_rational(m, b) -> list[Fraction]:
    """Unique solution of m x = b over the rationals.

    A forest form (a symmetric integer matrix whose off-diagonal nonzeros
    form a forest) is solved by `_reroot` on its recognition
    (`_forest_form`), with b scaled to integers by the lcm of its
    denominators: each x_v is a Cramer numerator over its component's
    determinant, found in two linear passes with no dense pass, and a zero
    subtree determinant needs no rule.  Every other matrix
    (cycles, asymmetric or rational ones) falls back to the Bareiss pass
    and back-substitution of `_solve`.  Raises SingularMatrixError when
    the matrix is singular.  On both paths the result is re-checked against the inputs
    over a common denominator before returning, and Fractions are built
    only for the values returned and to read rational entries.
    """
    rows, cols = _check_rectangular(m)
    if rows != cols:
        raise ValueError("solve requires a square matrix")
    if len(b) != rows:
        raise ValueError("right-hand side has wrong length")
    form = _forest_form(m)
    if form is not None:
        (rhs,), rhs_scale = _integer_rows([b])
        y = _reroot(form, rhs)
        up, minors = form.up, form.minors
        det = [0] * rows  # the determinant of each vertex's component
        for v in form.order:
            det[v] = minors[v] if up[v] < 0 else det[up[v]]
        if 0 in det:
            raise SingularMatrixError("matrix is singular")
        # a row's nonzeros lie in its component, so its check is over
        # that component's determinant
        if any(sum(map(mul, row, y)) != t * d for row, t, d in zip(form.rows, rhs, det)):
            raise InvariantError("back-substitution check failed")
        return [Fraction(t, d * rhs_scale) for t, d in zip(y, det)]
    rank, x = _solve(m, b)
    if rank < cols:
        raise SingularMatrixError("matrix is singular")
    return x


_SWAP = (0, 1, 1, 0)


def _bezout(a: int, b: int) -> tuple[int, int, int, int]:
    """A unimodular step (x, y; p, q) that takes the pair (a, b), a != 0,
    to (g, 0), where g = x a + y b is a gcd of a and b, p = -b/g, q = a/g.
    When a divides b it is (1, 0; -b/a, 1), which leaves a's line alone."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    g = gcd(a, b)
    a, b = a // g, b // g
    x = pow(a, -1, abs(b))
    return x, (1 - x * a) // b, -b, a


def _rows(mats, i: int, j: int, step) -> None:
    """Rows i, j of each matrix become x r_i + y r_j, p r_i + q r_j (x = 1 when y = 0)."""
    x, y, p, q = step
    for a in mats:
        ri, rj = a[i], a[j]
        if y:
            a[i] = [x * e + y * f for e, f in zip(ri, rj)]
        a[j] = [p * e + q * f for e, f in zip(ri, rj)]


def _cols(mats, i: int, j: int, step) -> None:
    """Columns i, j of each matrix become x c_i + y c_j, p c_i + q c_j (x = 1 when y = 0)."""
    x, y, p, q = step
    for a in mats:
        for r in a:
            e, f = r[i], r[j]
            if y:
                r[i] = x * e + y * f
            r[j] = p * e + q * f


def _smallest(s: list[list[int]], t: int) -> tuple[int, int] | None:
    """The position (i, j), i, j >= t, of a smallest nonzero |s_ij|, first
    in row-major order; None when the trailing block is 0.  A unit is the
    least possible, so the first row holding one gives it."""
    for i in range(t, len(s)):
        tail = s[i][t:]
        if 1 in tail or -1 in tail:
            return i, t + min(tail.index(u) for u in (1, -1) if u in tail)
    nonzero = [(abs(x), i, j) for i in range(t, len(s)) for j, x in enumerate(s[i][t:], t) if x]
    return min(nonzero)[1:] if nonzero else None


def smith_normal_form(m) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (u, s, v) with u m v = s, u and v unimodular, s diagonal.

    Diagonal entries are nonnegative and each divides the next; the steps
    are those of `_diagonalise`.  The postconditions are checked on every
    call and raise InvariantError.  Nothing bounds the entries of u and v:
    on the seeded 100-vertex tree form of the tests they reach 400,847
    bits.  So no routine of the package calls this one;
    `torsion_of_cokernel` and `solve_integer` build no Smith transform.
    """
    rows, cols = _check_rectangular(m)
    _check_integer(m, "Smith normal form")
    s = [list(row) for row in m]
    u = identity_matrix(rows)
    v = identity_matrix(cols)
    _diagonalise(s, 0, u, v)

    for k in range(min(rows, cols)):
        if s[k][k] < 0:
            s[k], u[k] = [-x for x in s[k]], [-x for x in u[k]]

    diag = [s[k][k] for k in range(min(rows, cols))]
    if mat_mul(mat_mul(u, [list(row) for row in m]), v) != s:
        raise InvariantError("Smith form: u m v differs from s")
    if any(abs(_bareiss([row[:] for row in t])[0]) != 1 for t in (u, v)):
        raise InvariantError("Smith form: a transform is not unimodular")
    if any(s[i][j] for i in range(rows) for j in range(cols) if i != j):
        raise InvariantError("Smith form: s is not diagonal")
    if any(b % a for a, b in zip(diag, diag[1:]) if a):
        raise InvariantError("Smith form: the diagonal is not a divisibility chain")
    return u, s, v


def _diagonalise(s: list[list[int]], modulus: int = 0, u=None, v=None) -> None:
    """Diagonalise s in place, with its row steps also applied to u and its
    column steps to v when they are given, so that the diagonal becomes the
    invariant factors up to sign.  With modulus R > 0 no transform is given,
    the entries are kept reduced mod R, and the diagonal becomes the
    invariant factors of [s | R I], rows of them for rows <= cols.

    Each step moves a smallest nonzero of the trailing block to the pivot
    and clears its row and column with one Bezout step per entry
    (`_bezout`); a step that changes the pivot replaces it by a proper
    divisor, so the loop ends.  A row of the trailing block that the pivot
    does not divide is added to the pivot row, until it divides them all.

    Reducing mod R is a column step with the columns of R I (Domich,
    Kannan and Trotter, Math. Oper. Res. 12, 1987; Cohen, GTM 138, sec.
    2.4).  Those columns also turn the cleared pivot p into gcd(p, R), and
    a trailing block that is 0 mod R leaves R on the rest of the diagonal.
    No entry exceeds R.
    """
    rows = len(s)
    cols = len(s[0]) if rows else 0
    left = (s,) if u is None else (s, u)
    right = () if v is None else (v,)
    r = modulus
    if r:
        s[:] = [[x % r for x in row] for row in s]
    for t in range(min(rows, cols)):
        found = _smallest(s, t)
        if found is None:
            if r:  # the trailing block is 0 mod R: each of its rows is Z/R
                for k in range(t, min(rows, cols)):
                    s[k][k] = r
            return
        i, j = found
        if i != t:
            _rows(left, t, i, _SWAP)
        if j != t:
            _cols((s, *right), t, j, _SWAP)
        while True:
            for i in range(t + 1, rows):
                if s[i][t]:
                    step = _bezout(s[t][t], s[i][t])
                    _rows(left, t, i, step)
                    if r:
                        if step[1]:
                            s[t] = [x % r for x in s[t]]
                        s[i] = [x % r for x in s[i]]
            clean = True  # column t of s is 0 off the pivot
            for j in range(t + 1, cols):
                if s[t][j]:
                    step = _bezout(s[t][t], s[t][j])
                    _cols(right, t, j, step)
                    if clean and not step[1]:
                        s[t][j] = 0  # the step changes row t of s alone
                        continue
                    _cols((s,), t, j, step)
                    clean = False
                    if r:
                        for row in s:
                            row[t] %= r
                            row[j] %= r
            if not clean and any(s[i][t] for i in range(t + 1, rows)):
                continue  # a column step shrank the pivot and refilled its column
            if r:
                s[t][t] = gcd(s[t][t], r)
            # the pivot must divide the whole trailing block for the chain
            pivot = s[t][t]
            offender = None if abs(pivot) == 1 else next(
                (i for i in range(t + 1, rows) if any(x % pivot for x in s[i][t + 1 :])), None
            )
            if offender is None:
                break
            _rows(left, t, offender, (1, 1, 0, 1))  # row t += row offender
            if r:
                s[t] = [x % r for x in s[t]]


def is_negative_definite(m) -> bool:
    """Sylvester's criterion: leading principal minors alternate in sign
    starting negative.  The matrix must be symmetric.  On a forest form -m
    is positive definite exactly when every subtree determinant of -m is
    positive, and those are read off the recognition of m (`_forest_form`);
    otherwise the minors are read off one Bareiss pass of -m that stops at
    the first failing one."""
    rows, cols = _check_rectangular(m)
    if rows != cols:
        raise ValueError("definiteness of a non-square matrix")
    form = _forest_form(m)
    if form is not None:
        # D(v) of -m is (-1)^(size of the subtree of v) D(v) of m
        size = [1] * rows
        for v in reversed(form.order):
            if form.up[v] >= 0:
                size[form.up[v]] += size[v]
        return all((-d if s & 1 else d) > 0 for d, s in zip(form.minors, size))
    for i in range(rows):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    a, _ = _integer_rows(m)
    a = [[-x for x in row] for row in a]
    return _bareiss(a, definite=True)[0] > 0


@dataclass(frozen=True)
class TorsionGroup:
    """A finite abelian group by its invariant factors (each divides the next)."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = self.invariant_factors
        if any(f <= 1 for f in fs):
            raise ValueError("invariant factors must exceed 1")
        if any(b % a for a, b in zip(fs, fs[1:])):
            raise ValueError("invariant factors must form a divisibility chain")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def __str__(self) -> str:
        if self.is_trivial:
            return "trivial"
        return " x ".join(f"Z{f}" for f in self.invariant_factors)


def _peel(
    columns: list[dict[int, int]], nrows: int, zeros: bool = True
) -> list[tuple[int, int, bool]]:
    """The unit pivots of an integer matrix, given by its sparse columns
    (row -> nonzero entry), taken out before any dense elimination.

    A worklist of rows and columns, linear in the nonzeros, takes out every
    pair (i, j) whose row i or column j has a single nonzero left and that
    nonzero is +-1, and, with zeros=True, every row or column with none
    left.  Returns the steps in order, each (i, j, by_row): a pair found on
    its row (by_row) or on its column, or a zero row (j = -1) or column
    (i = -1).  A pair found on row i splits off by row steps that change
    only column j, one found on column j by column steps that change only
    row i, so the pairs change neither the invariant factors nor |det|,
    and the matrix left, the core, is the input on the lines never taken
    out.  A zero row adds a free summand and no torsion, but makes the
    determinant 0, so a determinant keeps its zero lines (zeros=False).
    """
    cols = [dict(col) for col in columns]  # the nonzeros left, by column
    rows: list[dict[int, int]] = [{} for _ in range(nrows)]  # and by row
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows[i][j] = x
    rgone, cgone = [False] * nrows, [False] * len(cols)
    rtodo = [i for i, row in enumerate(rows) if len(row) < 2]  # lines that may go
    ctodo = [j for j, col in enumerate(cols) if len(col) < 2]
    steps: list[tuple[int, int, bool]] = []
    while rtodo or ctodo:
        while rtodo:
            i = rtodo.pop()
            row = rows[i]
            if rgone[i] or len(row) > 1:
                continue
            if not row:
                if zeros:
                    rgone[i] = True
                    steps.append((i, -1, True))
                continue
            ((j, x),) = row.items()
            if x != 1 and x != -1:
                continue
            rgone[i] = cgone[j] = True
            steps.append((i, j, True))
            for r in cols[j]:  # column j goes: each row crossing it loses one
                if r != i:
                    left = rows[r]
                    del left[j]
                    if len(left) < 2:
                        rtodo.append(r)
        while ctodo:
            j = ctodo.pop()
            col = cols[j]
            if cgone[j] or len(col) > 1:
                continue
            if not col:
                if zeros:
                    cgone[j] = True
                    steps.append((-1, j, False))
                continue
            ((i, x),) = col.items()
            if x != 1 and x != -1:
                continue
            rgone[i] = cgone[j] = True
            steps.append((i, j, False))
            for c in rows[i]:  # row i goes: each column crossing it loses one
                if c != j:
                    left = cols[c]
                    del left[i]
                    if len(left) < 2:
                        ctodo.append(c)
    return steps


def _core(
    columns: list[dict[int, int]], nrows: int, steps: list[tuple[int, int, bool]], what: str
) -> tuple[list[int], list[int]]:
    """The rows and the columns that the steps of `_peel` leave, after a
    check of each step on the matrix left before it, which raises
    InvariantError: a pair's pivot is +-1, and a nonzero whose row and
    column leave at different steps lies on the line that left first as
    the other side of a pair (a row that left with a pair found on its
    column, or a column with a pair found on its row).  So a zero line, or
    the line a pair was found on, had no other nonzero left."""
    n = len(steps)
    rstage, cstage = [n] * nrows, [n] * len(columns)
    rside, cside = [False] * nrows, [False] * len(columns)
    for k, (i, j, by_row) in enumerate(steps):
        if i >= 0 <= j and columns[j].get(i) not in (1, -1):
            raise InvariantError(f"{what}: a peeled pivot is not a unit")
        if i >= 0 and rstage[i] < n or j >= 0 and cstage[j] < n:
            raise InvariantError(f"{what}: the peel takes a line out twice")
        if i >= 0:
            rstage[i] = k
            rside[i] = j >= 0 and not by_row
        if j >= 0:
            cstage[j] = k
            cside[j] = i >= 0 and by_row
    for c, col in enumerate(columns):
        kc = cstage[c]
        for r in col:
            kr = rstage[r]
            if kr < kc and not rside[r] or kc < kr and not cside[c]:
                raise InvariantError(f"{what}: the peel is not triangular")
    return [i for i, k in enumerate(rstage) if k == n], [j for j, k in enumerate(cstage) if k == n]


def torsion_of_cokernel(m) -> TorsionGroup:
    """Torsion of Z^rows / (column span of m): its invariant factors, with
    no transform built.

    `_peel` first takes out the zero rows and columns and the unit pivots
    that are alone on their row or column, and the rest runs on the core
    that is left, which has the same torsion.  The classes of a chain of
    infinitely near blow-ups peel to nothing, and a tree form bordered by
    zero lines to the square form.
    The core and its transpose have the same invariant factors, so a tall
    core is transposed to s, with rows <= cols.  Let r be its rank and D a
    nonzero r x r minor.  Every torsion factor divides D, so the cokernel
    of [s | D I] is the torsion plus rows - r copies of Z/D, one for each
    free summand, and `_diagonalise` reduces the entries mod |D|: its
    diagonal is the torsion's factors, padded with 1s, and then rows - r
    copies of |D|.  For a square forest core of full rank D is the
    determinant from the forest kernel; otherwise one Bareiss pass over s
    gives r, the number of its pivots, and D, its last pivot: the minor on
    the pivot rows and columns.

    Every answer is certified, and a failed check raises InvariantError:
    each step of the peel is checked on the matrix it ran on (`_core`);
    on the core, the diagonalised matrix is diagonal, its diagonal is a
    divisibility chain, its first entry is the gcd of the core's entries
    (for r > 0), and its last rows - r entries are |D|.  The product of the
    torsion's factors, the gcd of the maximal minors at full rank, must
    divide |D|, and equal it for a square core of full rank.  The gcd
    itself is not computed for other shapes: it costs more than the
    diagonalisation.
    """
    rows, _ = _check_rectangular(m)
    _check_integer(m, "the torsion of a cokernel")
    return _torsion_of_columns([{i: x for i, x in enumerate(col) if x} for col in zip(*m)], rows)


def _torsion_of_columns(columns: list[dict[int, int]], nrows: int) -> TorsionGroup:
    """`torsion_of_cokernel` of the integer matrix with these sparse columns
    (row -> nonzero entry) and nrows rows; only the core left by the peel
    is made dense."""
    keep_rows, keep_cols = _core(columns, nrows, _peel(columns, nrows), "invariant factors")
    if not keep_rows:
        return TorsionGroup(())
    if len(keep_rows) <= len(keep_cols):
        s = [[columns[j].get(i, 0) for j in keep_cols] for i in keep_rows]
    else:
        s = [[columns[j].get(i, 0) for i in keep_rows] for j in keep_cols]
    rows, cols = len(s), len(s[0])
    forest = _recognise_forest(s) if rows == cols else None
    rank, minor = rows, forest.det if forest is not None else 0
    if not minor:
        b = [row[:] for row in s]
        pivots = _bareiss(b)[1]
        rank = len(pivots)
        minor = b[rank - 1][pivots[-1]]
        if not minor:
            raise InvariantError("invariant factors: the pivots give no nonzero minor")
    content = gcd(*chain.from_iterable(s))
    minor = abs(minor)
    _diagonalise(s, minor)
    factors = [s[k][k] for k in range(rows)]
    if any(any(row[:i]) or any(row[i + 1 :]) for i, row in enumerate(s)):
        raise InvariantError("invariant factors: the matrix is not diagonal")
    if 0 in factors or any(b % a for a, b in zip(factors, factors[1:])):
        raise InvariantError("invariant factors: the diagonal is not a divisibility chain")
    if rank and factors[0] != content:
        raise InvariantError("invariant factors: the first is not the gcd of the entries")
    if factors[rank:] != [minor] * (rows - rank):
        raise InvariantError("invariant factors: the free part differs from the echelon rank")
    factors = factors[:rank]
    if minor % prod(factors) or rank == cols and prod(factors) != minor:
        raise InvariantError("invariant factors: the product does not match the minor")
    return TorsionGroup(tuple(d for d in factors if d > 1))


def kernel_basis(m) -> list[list[Fraction]]:
    """A basis of the rational null space of m (solutions of m x = 0): one
    vector per non-pivot column c, with 1 at c and 0 at the other
    non-pivot columns.  Each vector is re-checked against m.  A forest form
    with a nonzero determinant has none, and needs no dense pass."""
    rows, cols = _check_rectangular(m)
    if rows == cols:
        form = _forest_form(m)
        if form is not None and form.det:
            return []
    a, _ = _integer_rows(m)
    pivots = _bareiss(a)[1]
    basis = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        y, d = _back_substitute(a, pivots, fc, 1)
        if any(sum(map(mul, row, y)) for row in m):
            raise InvariantError("kernel check failed")
        basis.append([Fraction(x, d) for x in y])
    return basis


def _unit_columns(n: int) -> list[dict[int, int]]:
    """The identity matrix as sparse columns (row -> nonzero entry)."""
    return [{j: 1} for j in range(n)]


def _combine(v: list[dict[int, int]], i: int, j: int, step) -> None:
    """Sparse columns i, j of v become x c_i + y c_j, p c_i + q c_j (x = 1 when y = 0)."""
    x, y, p, q = step
    ci, cj = v[i], v[j]
    if y:
        v[i] = _sparse_sum(x, ci, y, cj)
        v[j] = _sparse_sum(p, ci, q, cj)
        return
    for k, e in ci.items():  # q = 1: c_j += p c_i, in place
        f = cj.get(k, 0) + p * e
        if f:
            cj[k] = f
        else:
            del cj[k]


def _sparse_sum(x: int, a: dict[int, int], y: int, b: dict[int, int]) -> dict[int, int]:
    """x a + y b for sparse vectors a and b and y != 0, with no zero stored."""
    out = {k: x * e for k, e in a.items()} if x else {}
    for k, f in b.items():
        e = out.get(k, 0) + y * f
        if e:
            out[k] = e
        else:
            del out[k]
    return out


def solve_integer(a, b) -> tuple[list[int], list[list[int]]] | None:
    """All integer solutions of a x = b: a particular one plus a lattice basis.

    Returns None when no integer solution exists (including the case where
    the system is rationally inconsistent).  A system with at least as
    many rows as columns is first solved over Q by `_solve`, which
    re-checks its answer: at full column rank the solution is unique, and
    it is returned with an empty basis when it is integral, with no Hermite
    form built.  Otherwise column steps bring a to its
    column Hermite form a v = [H | 0] (Cohen, GTM 138, sec. 2.4), with H in
    column echelon form and v unimodular; only v is tracked, as sparse
    columns (`_combine`).  Row by row, a smallest nonzero among the columns
    not yet used becomes the pivot, and one Bezout step per entry
    (`_bezout`) clears the rest of the row.  Forward substitution through H
    gives y, the particular solution is x0 = v y, and the columns of v from
    the rank on are the basis; both are made dense only here, at the end
    (`_solve_integer_columns` returns them sparse).  The result is checked
    on the sparse columns: a x0 = b, a kills each basis vector and
    |det v| = 1, the last by `_peel`, which keeps zero lines here, and one
    Bareiss pass over the core it leaves.  v changes only by the steps of
    its few rows, and those of `solve_curve_class` pivot on the units of K
    and of the classes, so they are plain subtractions: on its systems no
    entry of v exceeds 3, and v peels to nothing.  Dense random 7x7
    matrices with entries up to 5 take v to 63 bits.
    """
    sol = _solve_integer_columns(a, b)
    if sol is None:
        return None
    x0, basis = sol
    cols = len(a[0]) if a else 0
    return _dense(x0, cols), [_dense(k, cols) for k in basis]


def _dense(column: dict[int, int], n: int) -> list[int]:
    """A sparse column (position -> entry) as a list of length n."""
    out = [0] * n
    for pos, e in column.items():
        out[pos] = e
    return out


def _solve_integer_columns(a, b) -> tuple[dict[int, int], list[dict[int, int]]] | None:
    """`solve_integer` with x0 and the basis as sparse columns (position ->
    nonzero entry), checked as they are and never made dense."""
    rows, cols = _check_rectangular(a)
    if len(b) != rows:
        raise ValueError("right-hand side has wrong length")
    _check_integer(a, "an integer solve")
    if rows >= cols:  # the rank may be full, and then the solution unique
        rank, x = _solve(a, b)
        if rank == cols:
            if x is None or any(t.denominator != 1 for t in x):
                return None
            return {pos: t.numerator for pos, t in enumerate(x) if t}, []
    h = [list(col) for col in zip(*a)]  # the columns of a v
    v = _unit_columns(cols)
    pivots: list[int] = []
    for i in range(rows):
        r = len(pivots)
        nonzero = [(abs(col[i]), j) for j, col in enumerate(h[r:], r) if col[i]]
        if not nonzero:
            continue
        _, j = min(nonzero)
        if j != r:
            h[r], h[j] = h[j], h[r]
            v[r], v[j] = v[j], v[r]
        for j in range(r + 1, cols):
            if h[j][i]:
                step = _bezout(h[r][i], h[j][i])
                _rows((h,), r, j, step)
                _combine(v, r, j, step)
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
    x0: dict[int, int] = {}
    for c, t in zip(v, y):
        for pos, e in c.items():
            x0[pos] = x0.get(pos, 0) + e * t
    x0 = {pos: x for pos, x in x0.items() if x}
    basis = v[rank:]
    if [sum(row[pos] * e for pos, e in x0.items()) for row in a] != list(b):
        raise InvariantError("integer solve: a x0 differs from b")
    if any(sum(row[pos] * e for pos, e in k.items()) for k in basis for row in a):
        raise InvariantError("integer solve: a basis vector is not in the kernel")
    keep_rows, keep_cols = _core(v, cols, _peel(v, cols, zeros=False), "integer solve")
    if abs(_bareiss([[v[j].get(i, 0) for j in keep_cols] for i in keep_rows])[0]) != 1:
        raise InvariantError("integer solve: the transform is not unimodular")
    return x0, basis
