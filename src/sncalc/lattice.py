"""Blow-up programs over the plane and the resulting unimodular lattice.

A program declares plane curves (lines and conics) and a sequence of
blow-ups; each blow-up center is the common point of the curves listed for
it.  The lattice keeps the proper-transform class of every named curve in
the basis (H, e_1, ..., e_n) with Gram form diag(1, -1, ..., -1); tangency
is expressed combinatorially by blowing up infinitely-near points, i.e. by
listing the previous exceptional curve as passing through the next center.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import Iterable, Sequence

from .calculus import bark
from .errors import (
    ExcessIntersectionError,
    GraphParseError,
    InvariantError,
    LatticeError,
    NonTreeError,
    UnderconstrainedError,
)
from .graphs import DualGraph, _find
from .linalg import (
    TorsionGroup,
    _back_substitute,
    _bareiss,
    _solve,
    _sparse_sum,
    _torsion_of_columns,
    solve_integer,
)
from .surgery import RulingBookkeeping

__all__ = [
    "BlowupProgram",
    "SurfaceLattice",
    "RulingDecomposition",
    "FiberPiece",
    "parse_arrangement",
    "run_program",
    "extract_boundary_graph",
    "k_plus_sharp_class",
    "euler_numbers",
    "h1_order",
    "ruling_decompose",
    "solve_curve_class",
]

Vector = tuple[int, ...]


@dataclass(frozen=True)
class BlowupProgram:
    """Declarative curve declarations and blow-up steps.

    steps entries are ("curve", name, degree) or ("blowup", name, centers).
    """

    steps: tuple[tuple, ...]

    @property
    def n_blowups(self) -> int:
        return sum(1 for s in self.steps if s[0] == "blowup")


def parse_arrangement(text: str) -> BlowupProgram:
    """Parse the line-based arrangement format.

    ::

        curve <name> degree=<d>
        blowup <name> at <name>,<name>,...
        blowup <name>              # free center, on no named curve

    The name K is the canonical class, so no curve may take it.
    """
    steps: list[tuple] = []
    names: set[str] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "curve":
            if len(parts) != 3 or not parts[2].startswith("degree="):
                raise GraphParseError("expected 'curve <name> degree=<d>'", lineno)
            name = parts[1]
            _check_new_name(name, names, lineno)
            try:
                degree = int(parts[2][7:])
            except ValueError:
                raise GraphParseError(f"bad degree {parts[2][7:]!r}", lineno) from None
            names.add(name)
            steps.append(("curve", name, degree))
        elif parts[0] == "blowup":
            if len(parts) == 2:
                name, centers = parts[1], ()
            elif len(parts) == 4 and parts[2] == "at":
                name = parts[1]
                centers = tuple(c for c in parts[3].split(",") if c)
            else:
                raise GraphParseError("expected 'blowup <name> [at <name>,...]'", lineno)
            _check_new_name(name, names, lineno)
            if len(set(centers)) != len(centers):
                raise GraphParseError("center lists a curve twice", lineno)
            for c in centers:
                if c not in names:
                    raise GraphParseError(f"center references unknown curve {c!r}", lineno)
            names.add(name)
            steps.append(("blowup", name, centers))
        else:
            raise GraphParseError(f"unknown directive {parts[0]!r}", lineno)
    return BlowupProgram(tuple(steps))


def _check_new_name(name: str, names: set[str], lineno: int) -> None:
    if name == "K":
        raise GraphParseError("'K' is the canonical class and cannot name a curve", lineno)
    if name in names:
        raise GraphParseError(f"name {name!r} already declared", lineno)


class SurfaceLattice:
    """The Picard lattice of an iterated blow-up of the plane.

    Basis (H, e_1, ..., e_n); the Gram form is diag(1, -1, ..., -1) and the
    canonical class is -3H + sum e_i.  A named class is stored sparsely, as
    position -> nonzero coefficient, and the Gram table keeps, for each
    name, its nonzero pairings with the names: a new name is paired only
    with the names that share one of its positions, the only ones it can
    meet.
    """

    def __init__(self, n_blowups: int):
        self._n = n_blowups
        self._classes: dict[str, dict[int, int]] = {}
        self._gram: dict[str, dict[str, int]] = {}
        self._at: dict[int, list[str]] = {}  # position -> names nonzero there

    @property
    def rank(self) -> int:
        return self._n + 1

    @property
    def n_blowups(self) -> int:
        return self._n

    @property
    def canonical_class(self) -> Vector:
        return (-3,) + (1,) * self._n

    def names(self) -> tuple[str, ...]:
        return tuple(self._classes)

    def class_of(self, name: str) -> Vector:
        vec = [0] * self.rank
        for pos, x in self._sparse(name).items():
            vec[pos] = x
        return tuple(vec)

    def _sparse(self, name: str) -> dict[int, int]:
        try:
            return self._classes[name]
        except KeyError:
            raise KeyError(f"unknown curve {name!r}") from None

    def resolve(self, obj) -> tuple:
        """Accept a curve name, 'K', or an explicit vector."""
        if isinstance(obj, str):
            if obj == "K":
                return self.canonical_class
            return self.class_of(obj)
        vec = tuple(obj)
        if len(vec) != self.rank:
            raise LatticeError(f"vector has length {len(vec)}, lattice rank is {self.rank}")
        return vec

    def pair(self, a, b) -> int | Fraction:
        """Gram pairing of two classes (names, 'K', or vectors); two curve
        names are one lookup in the Gram table."""
        row = self._gram.get(a) if isinstance(a, str) and a != "K" else None
        if row is not None and isinstance(b, str) and b != "K" and b in self._gram:
            return row.get(b, 0)
        return _dot(self.resolve(a), self.resolve(b))

    def register(self, name: str, vec: Sequence[int]) -> None:
        """Name a derived class; rational-curve adjunction is enforced."""
        if name == "K":
            raise LatticeError("'K' is the canonical class and cannot name a curve")
        if name in self._classes:
            raise LatticeError(f"name {name!r} already in use")
        v = [_integer(x) for x in vec]
        if len(v) != self.rank:
            raise LatticeError("class vector has the wrong length")
        self._register_checked(name, {pos: x for pos, x in enumerate(v) if x})

    def _register_checked(self, name: str, cls: dict[int, int]) -> None:
        square = _sparse_dot(cls, cls)
        if square + _k_dot(cls) != -2:
            raise LatticeError(f"class for {name!r} violates rational adjunction")
        row = {name: square} if square else {}
        for other in dict.fromkeys(o for pos in cls for o in self._at.get(pos, ())):
            prod = _sparse_dot(cls, self._classes[other])
            if prod:
                row[other] = self._gram[other][name] = prod
        self._classes[name] = cls
        self._gram[name] = row
        for pos in cls:
            self._at.setdefault(pos, []).append(name)


def run_program(p: BlowupProgram) -> SurfaceLattice:
    """Execute a blow-up program, tracking proper-transform classes.

    Blowing up subtracts the new exceptional class from every curve listed
    in the center, after checking that all listed curves still meet there
    pairwise.  Adjunction C.C + K.C = -2 holds for every class after every
    step: a step changes only its new class and, for a blow-up, the centers,
    and any other class is 0 at the new position, so its C.C and K.C stay
    what they were.  So only the changed classes are re-checked, in the
    order the classes were introduced, and the first to fail is the one a
    check of every class would find.
    """
    lat = SurfaceLattice(p.n_blowups)
    classes: dict[str, dict[int, int]] = {}  # sparse, as in the lattice
    order: dict[str, int] = {}
    k = 0
    for step in p.steps:
        if step[0] == "curve":
            _, name, degree = step
            if degree not in (1, 2):
                raise LatticeError(
                    f"curve {name!r} has degree {degree}; only smooth rational "
                    "plane curves (degree 1 or 2) are supported"
                )
            classes[name] = {0: degree}
            changed = [name]
        else:
            _, name, centers = step
            k += 1
            for i, a in enumerate(centers):
                for b in centers[i + 1 :]:
                    if _sparse_dot(classes[a], classes[b]) < 1:
                        raise ExcessIntersectionError(
                            f"blow-up {name!r}: curves {a!r} and {b!r} no longer "
                            "meet at the center (excess intersection exhausted)"
                        )
            for c in centers:
                cls = classes[c]
                cls[k] = cls.get(k, 0) - 1
            classes[name] = {k: 1}
            changed = [*centers, name]
        order.setdefault(name, len(order))
        for cname in sorted(set(changed), key=order.__getitem__):
            cls = classes[cname]
            if _sparse_dot(cls, cls) + _k_dot(cls) != -2:
                raise LatticeError(
                    f"adjunction fails for {cname!r} after step introducing {step[1]!r}"
                )
    for cname, cls in classes.items():
        lat._register_checked(cname, cls)
    return lat


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def _sparse_dot(a: dict[int, int], b: dict[int, int]) -> int:
    """_dot of two sparse classes, over the positions of the shorter."""
    if len(b) < len(a):
        a, b = b, a
    shared = 0
    for pos, x in a.items():  # a loop: these classes are short, and a generator costs more
        if pos in b:
            shared += x * b[pos]
    return 2 * a.get(0, 0) * b.get(0, 0) - shared


def _k_dot(cls: dict[int, int]) -> int:
    """K.C for a sparse class C: -3 c_0 - sum of the other coefficients."""
    return -2 * cls.get(0, 0) - sum(cls.values())


def _integer(x) -> int:
    """x as an int; a class coefficient or a pairing value must be integral."""
    n = int(x)
    if n != x:
        raise LatticeError(f"{x!r} is not an integer")
    return n


def extract_boundary_graph(l: SurfaceLattice, names: Sequence[str]) -> DualGraph:
    """Dual graph of a set of named curves: weights are self-pairings, edges
    mark pairing 1.  Pairing 2 or more is a non-snc configuration and is
    rejected; so are cycles.

    Two curves pair to nonzero only if they share a position, so only those
    pairs are made; a name with no class in the table ('K', an unknown name)
    is paired with every name.  The pairs are made in the order of the scan
    of all pairs (i, j), i <= j, so the first error is the one that scan
    raises.
    """
    todo: set[tuple[int, int]] = set()
    at: dict[int, list[int]] = {}
    for i, a in enumerate(names):
        cls = l._classes.get(a) if isinstance(a, str) and a != "K" else None
        if cls is None:
            todo.update((min(i, j), max(i, j)) for j in range(len(names)))
            continue
        todo.add((i, i))
        for pos in cls:
            bucket = at.setdefault(pos, [])
            todo.update((j, i) for j in bucket)
            bucket.append(i)
    verts = []
    edges = []
    for i, j in sorted(todo):
        a, b = names[i], names[j]
        prod = l.pair(a, b)
        if i == j:
            verts.append((a, int(prod)))
        elif prod == 1:
            edges.append((a, b))
        elif prod != 0:
            raise LatticeError(
                f"curves {a!r} and {b!r} pair to {prod}; not an snc tree"
            )
    g = DualGraph.build(verts, edges)
    if not g.is_forest():
        raise NonTreeError("boundary curves form a cycle")
    return g


def k_plus_sharp_class(l: SurfaceLattice, boundary: Sequence[str]) -> tuple[Fraction, ...]:
    """K + D - Bk D as an exact rational vector in the (H, e) basis."""
    g = extract_boundary_graph(l, boundary)
    bk = bark(g)
    vec = [Fraction(x) for x in l.canonical_class]
    for name in boundary:
        coeff = 1 - bk[name]
        for pos, x in l._sparse(name).items():
            vec[pos] += coeff * x
    return tuple(vec)


def euler_numbers(
    l: SurfaceLattice, boundary: Sequence[str], exceptional: Sequence[str]
) -> tuple[int, int, int, int]:
    """(chi of surface, of boundary, of exceptional locus, of the complement).

    The surface contributes 3 + n; a forest of rational curves contributes
    its component count plus its number of connected pieces.
    """
    if set(boundary) & set(exceptional):
        raise LatticeError("boundary and exceptional curve sets overlap")

    def chi_forest(names: Sequence[str]) -> int:
        if not names:
            return 0
        g = extract_boundary_graph(l, names)
        return len(g) + len(g.components())

    chi_s = 3 + l.n_blowups
    chi_d = chi_forest(boundary)
    chi_e = chi_forest(exceptional)
    return chi_s, chi_d, chi_e, chi_s - chi_d - chi_e


def h1_order(l: SurfaceLattice, boundary: Sequence[str]) -> TorsionGroup:
    """Torsion of the quotient of the lattice by the boundary classes.  The
    classes go to the torsion's peel as the sparse columns they are stored
    as, and only the core that the peel leaves is made dense."""
    return _torsion_of_columns([l._sparse(name) for name in boundary], l.rank)


@dataclass(frozen=True)
class FiberPiece:
    """One connected group of named vertical curves.

    When the group's classes sum (with multiplicities) exactly to the fiber
    class the piece is complete; otherwise multiplicities stay None and the
    residual records what is missing with all multiplicities set to one.
    """

    names: tuple[str, ...]
    multiplicities: tuple[int, ...] | None
    residual: tuple[int, ...] | None
    in_boundary: bool
    sigma: int

    @property
    def complete(self) -> bool:
        return self.multiplicities is not None


@dataclass(frozen=True)
class RulingDecomposition:
    fiber_class: Vector
    horizontal: tuple[tuple[str, int], ...]
    fibers: tuple[FiberPiece, ...]
    bookkeeping: RulingBookkeeping


def ruling_decompose(
    l: SurfaceLattice,
    fiber_class: Sequence[int],
    curve_names: Sequence[str],
    boundary: Sequence[str],
) -> RulingDecomposition:
    """Split named curves into horizontal ones and fiber groups.

    Vertical curves are grouped by connectivity of the pairing graph; each
    group's multiplicities are solved from the class equation, on the rows
    of the group's sparse classes only (`_solve_on_support`): a row with a
    single entry fixes its multiplicity first, and the fiber class nonzero
    off those rows leaves the piece incomplete.  A dense class vector is
    built only for an incomplete piece's residual.  Groups with zero
    pairing that truly belong to one fiber stay separate pieces -- the
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
        classes = [l._classes[name] for name in grp]
        sol = _solve_on_support(classes, sparse_f)
        in_boundary = all(name in bset for name in grp)
        sigma = sum(1 for name in grp if name not in bset)
        if sol is None:
            residual = list(f)
            for cls in classes:
                for pos, x in cls.items():
                    residual[pos] -= x
            pieces.append(FiberPiece(tuple(grp), None, tuple(residual), in_boundary, sigma))
        else:
            if any(x.denominator != 1 or x < 1 for x in sol):
                raise LatticeError(
                    f"fiber group {grp} solves to non-positive-integer "
                    f"multiplicities {[Fraction(x) for x in sol]}"
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


def _solve_on_support(
    columns: list[dict[int, int]], b: dict[int, int]
) -> list[int | Fraction] | None:
    """The unique rational x with sum_j x_j c_j = b, for sparse columns c_j
    and a sparse b (position -> nonzero int or Fraction), or None when
    there is none; raises LatticeError when the columns are dependent.
    Each x_j is an int where the elimination kept it one.

    Only the rows of the columns' support are solved; b nonzero off the
    support means no solution.  A row with a single nonzero left fixes its
    column's x_j, which is substituted into the other rows; a worklist
    peels these rows first, and `_solve` takes the rows and columns left.
    The rank is the number peeled plus the rank of that core, and the
    solution is re-checked against every column and b.
    """
    support: dict[int, dict[int, int]] = {}  # position -> column -> entry
    for j, col in enumerate(columns):
        for pos, a in col.items():
            support.setdefault(pos, {})[j] = a
    consistent = all(pos in support for pos in b)
    rhs = {pos: b.get(pos, 0) for pos in support}
    x: list = [None] * len(columns)
    todo = [pos for pos, row in support.items() if len(row) == 1]
    while todo:
        pos = todo.pop()
        row = support[pos]
        if len(row) != 1:
            continue  # a later peel emptied it: a zero row, left to the core
        ((j, a),) = row.items()
        del support[pos]
        r = rhs.pop(pos)
        q, rem = divmod(r, a)
        x[j] = value = Fraction(r) / a if rem else q
        for other in columns[j]:
            if other in support:
                left = support[other]
                rhs[other] -= left.pop(j) * value
                if len(left) == 1:
                    todo.append(other)
    free = [j for j, value in enumerate(x) if value is None]
    rank = len(x) - len(free)
    if free:
        core_rank, core = _solve(
            [[row.get(j, 0) for j in free] for row in support.values()],
            [rhs[pos] for pos in support],
        )
        rank += core_rank
        consistent = consistent and core is not None
    else:
        consistent = consistent and not any(rhs.values())
    if rank < len(columns):
        raise LatticeError("fiber group classes are linearly dependent")
    if not consistent:
        return None
    if free:
        for j, value in zip(free, core):
            x[j] = value
    total: dict[int, int | Fraction] = {}
    for col, value in zip(columns, x):
        for pos, a in col.items():
            total[pos] = total.get(pos, 0) + a * value
    if {pos: t for pos, t in total.items() if t} != b:
        raise InvariantError("fiber multiplicities check failed")
    return x


_CANDIDATE_CAP = 10**6  # solve_curve_class raises on trying its cap-th candidate


def solve_curve_class(
    l: SurfaceLattice,
    constraints: Iterable[tuple[object, int]],
    self_sq: int,
) -> list[Vector]:
    """All integer classes with the given self-intersection, rational-curve
    adjunction, and prescribed pairings, sorted and re-checked.

    The linear constraints cut out an affine sublattice; an integer
    Fincke-Pohst walk enumerates the quadratic condition on it exactly, and
    the 10^6-th coefficient value it tries, at any level, raises
    LatticeError.  When the Gram form on the sublattice's direction space is
    not negative definite the solution set can be infinite and an error
    lists the free directions.

    The walk runs on the successive differences b_1, b_j - b_(j-1) of the
    solve's basis.  They span the same lattice, and their first i span the
    same space as the basis's first i, so the walk tries the same
    coefficients, one for one.  Their Gram form is built from a position
    index, pairing only the differences that share a position.  When it is
    tridiagonal, as on the pencil programs, where the basis is e_j - e_2
    and the differences are e_j - e_(j-1), continuants give its rows and
    center (`_chain_center`); any other form takes one dense Bareiss pass
    (`_definite_center`).
    """
    rows: list[list[int]] = []
    rhs: list[int] = []

    def add(vec, value):
        # v . c = value, written in coordinates via the Gram form
        rows.append([vec[0]] + [-x for x in vec[1:]])
        rhs.append(_integer(value))

    add(l.canonical_class, -self_sq - 2)  # adjunction, given v . v = self_sq
    for key, value in constraints:
        add(l.resolve(key), value)
    sol = solve_integer(rows, rhs)
    if sol is None:
        return []
    x0, basis = sol
    if not basis:
        out = [tuple(x0)] if _dot(x0, x0) == self_sq else []
    else:
        sparse = [{pos: x for pos, x in enumerate(bi) if x} for bi in basis]
        diffs = sparse[:1] + [_sparse_sum(-1, a, 1, b) for a, b in zip(sparse, sparse[1:])]
        # M = -gram must be positive definite; m[i] holds row i's nonzeros
        m: list[dict[int, int]] = []
        at: dict[int, list[int]] = {}  # position -> diffs nonzero there
        for i, diff in enumerate(diffs):
            row = {i: -_sparse_dot(diff, diff)}
            for j in dict.fromkeys(j for pos in diff for j in at.get(pos, ())):
                value = -_sparse_dot(diff, diffs[j])
                if value:
                    row[j] = m[j][i] = value
            m.append(row)
            for pos in diff:
                at.setdefault(pos, []).append(i)
        x0_sparse = {pos: x for pos, x in enumerate(x0) if x}
        lin = [_sparse_dot(x0_sparse, diff) for diff in diffs]
        if all(abs(i - j) < 2 for i, row in enumerate(m) for j in row):
            solved = _chain_center(m, lin)
        else:
            k = len(m)
            solved = _definite_center([[row.get(j, 0) for j in range(k)] for row in m], lin)
            if solved is not None:
                b, y, d = solved
                solved = [r[i:k] for i, r in enumerate(b)], y, d
        if solved is None:
            raise UnderconstrainedError(
                "constraints leave a direction space that is not negative definite; "
                "the solution family may be infinite",
                free_directions=basis,
            )
        b, y, d = solved  # then (t - y/d)' M (t - y/d) = radius
        const = _sparse_dot(x0_sparse, x0_sparse) - self_sq
        radius = Fraction(const * d + sum(map(mul, lin, y)), d)
        points = _ellipsoid_points(b, y, d, radius) if radius >= 0 else []
        out = []
        for t in points:
            v = x0[:]
            for c, diff in zip(t, diffs):
                if c:
                    for pos, x in diff.items():
                        v[pos] += c * x
            out.append(tuple(v))
        out.sort()
    for v in out:
        if _dot(v, v) != self_sq or [sum(map(mul, row, v)) for row in rows] != rhs:
            raise InvariantError("curve class check failed")
    return out


def _chain_center(
    m: list[dict[int, int]], lin: list[int]
) -> tuple[list[list[int]], list[int], int] | None:
    """`_definite_center` for a tridiagonal M, given by its rows (column ->
    entry), with each Bareiss row from its diagonal on and d = det(M);
    None when M is not positive definite.

    The leading principal minors are continuants, D_i = m_ii D_(i-1) -
    m_(i-1,i)^2 D_(i-2), and M is positive definite when all are positive
    (Sylvester).  With no row exchange the Bareiss rows of [M | lin] are
    bidiagonal, B_ii = D_i and B_(i,i+1) = m_(i,i+1) D_(i-1), and the
    augmented column is N_i = lin_i D_(i-1) - m_(i-1,i) N_(i-1).
    Back-substitution gives y = d M^-1 lin in integers by exact division,
    where a remainder raises InvariantError, and y is re-checked as
    M y = d lin.
    """
    b, numer = [], []
    before, last, n = 0, 1, 0  # D_(i-2), D_(i-1), N_(i-1)
    for i, row in enumerate(m):
        off = row.get(i - 1, 0)
        d = row[i] * last - off * off * before
        if d <= 0:
            return None
        n = lin[i] * last - off * n
        b.append([d, row.get(i + 1, 0) * last])
        numer.append(n)
        before, last = last, d
    y = [0] * len(m)
    above = 0  # y_(i+1)
    for i in reversed(range(len(m))):
        above, rem = divmod(numer[i] * last - b[i][1] * above, b[i][0])
        if rem:
            raise InvariantError("curve-class center division is not exact")
        y[i] = above
    if any(sum(x * y[j] for j, x in row.items()) != c * last for row, c in zip(m, lin)):
        raise InvariantError("curve-class center check failed")
    return b, y, last


def _definite_center(
    m: list[list[int]], lin: list[int]
) -> tuple[list[list[int]], list[int], int] | None:
    """For a positive definite integer M, the Bareiss rows B of [M | lin]
    and the center M^-1 lin as integers y over a denominator d > 0; None
    when M is not positive definite.

    One fraction-free pass with lin as an augmented column tests every
    leading principal minor and triangularises the system, and the center
    comes from back-substitution on B; it is re-checked as M y = d lin.
    """
    k = len(m)
    b = [[*row, c] for row, c in zip(m, lin)]
    if _bareiss(b, definite=True, ncols=k)[0] <= 0:
        return None
    y, d = _back_substitute(b, list(range(k)), k, -1)
    del y[k]
    if any(sum(map(mul, row, y)) != c * d for row, c in zip(m, lin)):
        raise InvariantError("curve-class center check failed")
    return b, y, d


def _ellipsoid_points(
    b: list[list[int]], numer: list[int], denom: int, radius: Fraction
) -> list[list[int]]:
    """Integer t with (t - c)' M (t - c) = radius, for the center c = N / D
    (numer, denom, D > 0) and B the Bareiss rows of a positive definite M,
    row i given from B_ii on as far as its nonzeros in M's columns reach,
    by Fincke-Pohst (Math. Comp. 44, 1985; Cohen, GTM 138, sec. 2.7.3)
    over Z: x' M x = sum_i z_i^2 / (B_ii B_(i-1)(i-1)), z_i = sum_(j>=i)
    B_ij x_j.  With y = D t - N, scaling by D^2 L, L the lcm of the
    B_ii B_(i-1)(i-1), makes it sum_i w_i z_i^2 = R in integers; a
    common factor of N and D scales every z_i and the bound on it alike,
    so the candidates are the same.  A shift costs the length of its row
    as given, and each t_i tried one unit of the candidate cap.
    """
    k = len(b)
    pivots = [row[0] for row in b]
    tails = [row[1:] for row in b]  # B_ij for i < j < ends[i]
    ends = [i + len(row) for i, row in enumerate(b)]
    products = [p * q for p, q in zip(pivots, [1] + pivots)]
    scale = lcm(*products)
    weight = [scale // p for p in products]
    step = [p * denom for p in pivots]  # z_i = step_i t_i - shift_i
    scaled = radius * denom * denom * scale
    if scaled.denominator != 1:
        raise InvariantError("scaled curve-class radius is not an integer")
    t, y, shift, last = [0] * k, [0] * k, [0] * k, [0] * k
    remaining = [0] * k + [scaled.numerator]  # level i may use remaining[i + 1]
    budget, points = _CANDIDATE_CAP, []
    i, entering = k - 1, True
    while i < k:
        if entering:  # the t_i with w_i z_i^2 <= remaining[i + 1], lowest first
            shift[i] = pivots[i] * numer[i] - sum(map(mul, tails[i], y[i + 1 : ends[i]]))
            u = isqrt(remaining[i + 1] // weight[i])
            t[i] = -((u - shift[i]) // step[i]) - 1
            last[i] = (shift[i] + u) // step[i]
        t[i] += 1
        if t[i] > last[i]:
            i, entering = i + 1, False
            continue
        budget -= 1
        if not budget:
            raise LatticeError("curve-class enumeration exceeded the candidate cap")
        y[i] = denom * t[i] - numer[i]
        z = step[i] * t[i] - shift[i]
        remaining[i] = remaining[i + 1] - weight[i] * z * z
        entering = i > 0
        if entering:
            i -= 1
        elif not remaining[0]:
            points.append(t[:])
    return points
