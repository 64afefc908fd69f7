import ast
import contextlib
import gc
import io
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from helpers import (
    OracleBudgetExceeded,
    bareiss_det_exact,
    bareiss_is_negative_definite,
    bench_workloads,
    dense_solve_integer,
    dense_torsion_of_cokernel,
    eager_bareiss,
    echelon_kernel_basis,
    echelon_solve,
    euclid_smith_normal_form,
    forms_tree_form,
    fraction_ldl,
    has_edge_intersection_matrix,
    matrix_discriminant,
    minor_loop_is_negative_definite,
    outcome,
    primitive_echelon,
    random_forest,
    random_tree,
    rational_cholesky,
    reference_det,
    rref_kernel_basis,
    rref_solve_rational,
    rref_solve_rational_overdetermined,
    smith_solve_integer,
    smith_torsion_of_cokernel,
    time_limit,
    union_find_forest_minors,
)
import sncalc
from sncalc import calculus, cli, lattice, linalg, scenarios, surgery
from sncalc.calculus import BoundaryTag, classify_boundary, discriminant
from sncalc.casetable import load_cases
from sncalc.errors import SncalcError, SingularMatrixError
from sncalc.graphs import DualGraph, build_fork, parse_graph
from sncalc.lattice import _solve_on_support
from sncalc.linalg import (
    TorsionGroup,
    det_exact,
    identity_matrix,
    is_negative_definite,
    kernel_basis,
    mat_mul,
    smith_normal_form,
    solve_integer,
    solve_rational,
    torsion_of_cokernel,
)
from sncalc.surgery import FiberGraph, fiber_multiplicities


def cofactor_det(m):
    """Naive expansion along the first row; the independent oracle."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def test_det_examples():
    assert det_exact([[-2]]) == -2
    assert det_exact(identity_matrix(3)) == 1
    assert det_exact([[-2, 1, 0], [1, -1, 1], [0, 1, -2]]) == 0
    assert det_exact([]) == 1
    # zero leading minor, nonzero determinant: needs a row exchange
    assert det_exact([[0, 1], [1, 0]]) == -1
    # rows with different denominators
    assert det_exact([[Fraction(1, 2), 1], [Fraction(2, 3), Fraction(3, 4)]]) == Fraction(-7, 24)


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_exact([[1, 2]])


def test_det_matches_cofactor_oracle():
    rng = random.Random(0xD37)
    for _ in range(1000):
        n = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_exact(m) == cofactor_det(m)


def test_det_on_rational_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert det_exact(m) == Fraction(1, 14) - Fraction(1, 15)
    rng = random.Random(0xD38)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)
        ]
        # clear denominators and compare against the integer oracle
        scale = 1
        for row in m:
            for x in row:
                scale *= x.denominator
        scaled = [[int(x * scale) for x in row] for row in m]
        assert det_exact(m) == Fraction(cofactor_det(scaled), scale**n)


def test_solve_examples():
    assert solve_rational([[-2]], [-1]) == [Fraction(1, 2)]
    assert solve_rational(
        [[-2, 1, 0], [1, -2, 1], [0, 1, -2]], [-1, 0, 0]
    ) == [Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)]
    b = [3, -7, 11]
    assert solve_rational(identity_matrix(3), b) == b


def test_solve_raises_on_singular():
    with pytest.raises(SingularMatrixError):
        solve_rational([[1, 1], [1, 1]], [1, 2])
    with pytest.raises(SingularMatrixError):
        solve_rational([[0]], [1])


def test_solve_random_round_trip():
    rng = random.Random(0x501)
    n_done = 0
    while n_done < 100:
        n = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if det_exact(m) == 0:
            continue
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        b = [sum(m[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert solve_rational(m, b) == x
        n_done += 1


def test_snf_examples():
    _, s, _ = smith_normal_form([[-2]])
    assert s == [[2]]
    _, s, _ = smith_normal_form([[-2, 1], [1, -2]])
    assert [s[0][0], s[1][1]] == [1, 3]
    u, s, v = smith_normal_form([[0, 0], [0, 0]])
    assert s == [[0, 0], [0, 0]]


def test_snf_of_the_boundary_fork_form():
    # the 8x8 intersection form of the fork with twigs [2], [2,2,2], [2,2,2]
    from sncalc.graphs import build_fork

    g = build_fork(-1, [(2,), (2, 2, 2), (2, 2, 2)])
    _, s, _ = smith_normal_form(g.intersection_matrix())
    diag = [s[k][k] for k in range(8)]
    assert diag == [1, 1, 1, 1, 1, 1, 2, 16]


def test_snf_random_postconditions():
    # the unimodularity/diagonality/divisibility postconditions are checked
    # inside the implementation; this drives them over random shapes
    rng = random.Random(0x9A7)
    for _ in range(300):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        u, s, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == s
        diag = [s[k][k] for k in range(min(rows, cols))]
        assert all(d >= 0 for d in diag)


# Seed-1 inputs 38, 4 and 58 of the benchmark's `smith` workload, with
# d = det(-Q): the Euclid-and-swap Smith form ran for minutes on each.
STALLED_TREES = [
    (
        16_670_016,
        """\
vertex v10 w=-3
vertex v5 w=-4
vertex v2 w=-2
vertex v11 w=-3
vertex v6 w=-3
vertex v0 w=-3
vertex v1 w=-8
vertex v12 w=-4
vertex v4 w=-4
vertex v7 w=-4
vertex v8 w=-4
vertex v13 w=-2
vertex v9 w=-4
vertex v3 w=-4
edge v1 v0
edge v2 v1
edge v3 v1
edge v4 v1
edge v5 v1
edge v6 v4
edge v7 v1
edge v8 v5
edge v9 v5
edge v10 v3
edge v11 v0
edge v12 v7
edge v13 v5
""",
    ),
    (
        5_825_459_662,
        """\
vertex v6 w=-5
vertex v4 w=-3
vertex v2 w=-3
vertex v11 w=-3
vertex v14 w=-4
vertex v15 w=-4
vertex v16 w=-2
vertex v3 w=-5
vertex v12 w=-3
vertex v19 w=-3
vertex v7 w=-2
vertex v1 w=-5
vertex v17 w=-4
vertex v10 w=-2
vertex v13 w=-4
vertex v9 w=-4
vertex v0 w=-3
vertex v5 w=-4
vertex v18 w=-4
vertex v8 w=-3
edge v1 v0
edge v2 v1
edge v3 v1
edge v4 v3
edge v5 v1
edge v6 v3
edge v7 v6
edge v8 v5
edge v9 v2
edge v10 v4
edge v11 v3
edge v12 v11
edge v13 v10
edge v14 v6
edge v15 v4
edge v16 v1
edge v17 v14
edge v18 v13
edge v19 v14
""",
    ),
    (
        6_678_280_000,
        """\
vertex v3 w=-5
vertex v7 w=-3
vertex v17 w=-2
vertex v0 w=-8
vertex v11 w=-4
vertex v4 w=-2
vertex v6 w=-5
vertex v19 w=-4
vertex v2 w=-4
vertex v13 w=-4
vertex v16 w=-4
vertex v15 w=-3
vertex v12 w=-2
vertex v14 w=-2
vertex v18 w=-4
vertex v1 w=-3
vertex v8 w=-3
vertex v9 w=-3
vertex v5 w=-4
vertex v10 w=-3
edge v1 v0
edge v2 v1
edge v3 v0
edge v4 v0
edge v5 v3
edge v6 v0
edge v7 v0
edge v8 v4
edge v9 v7
edge v10 v6
edge v11 v0
edge v12 v9
edge v13 v0
edge v14 v6
edge v15 v5
edge v16 v12
edge v17 v16
edge v18 v3
edge v19 v1
""",
    ),
]


@pytest.mark.parametrize("d, text", STALLED_TREES, ids=["input38", "input4", "input58"])
def test_torsion_of_formerly_stalled_trees(d, text):
    q = parse_graph(text).intersection_matrix()
    assert det_exact([[-x for x in row] for row in q]) == d
    with time_limit(1.0):
        torsion = torsion_of_cokernel(q)
    assert torsion.order == d
    # old-versus-new, with a solvable and a random right-hand side
    rng = random.Random(d)
    mismatches = []
    for b in (_apply(q, [rng.randint(-3, 3) for _ in q]), [rng.randint(-9, 9) for _ in q]):
        _compare_with_smith(q, b, mismatches)
    assert mismatches == []


# the invariant factors of seeded_tree_form(100), read off the Smith form
# with transforms
SEEDED_100_FACTORS = (2,) * 9 + (12, 24, 24, 24, 24, 360, 329_205_590_251_590_563_605_458_000)


def seeded_tree_form(n):
    """The form of a random n-vertex tree: weights drawn from -2, -3, -4
    first, then vertex i joined to a random earlier one."""
    rng = random.Random(n)
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = rng.choice((-2, -3, -4))
    for i in range(1, n):
        j = rng.randrange(i)
        q[i][j] = q[j][i] = 1
    return q


def test_torsion_of_the_seeded_100_vertex_tree():
    # the Smith form with transforms takes about a minute here, and its
    # transforms reach 400,847 bits; reduction mod |det| bounds every entry
    q = seeded_tree_form(100)
    with time_limit(1):
        torsion = torsion_of_cokernel(q)
    assert torsion.order == abs(det_exact(q))
    assert torsion.invariant_factors == SEEDED_100_FACTORS


@pytest.mark.parametrize("n", [50, 100])
def test_integer_solve_of_a_full_rank_tree_form(n):
    # a system of full column rank has one solution, which the rational solve
    # finds; the column Hermite form took 5-7 s here at n = 50 and did not
    # finish in 90 s at n = 100.  b = all ones has no integer solution, and
    # b = q x has x alone
    q = seeded_tree_form(n)
    x = [random.Random(n).randint(-3, 3) for _ in range(n)]
    with time_limit(1):
        none = solve_integer(q, [1] * n)
        sol = solve_integer(q, _apply(q, x))
    assert none is None and any(t.denominator != 1 for t in solve_rational(q, [1] * n))
    assert sol == (x, [])


def _apply(m, x):
    return [sum(a * c for a, c in zip(row, x)) for row in m]


def _coordinates(vecs, basis):
    """Integer c with vecs = c basis, or None when some vector is not an
    integer combination of the rows of basis."""
    if not basis:
        return [] if not any(map(any, vecs)) else None
    gram = mat_mul(basis, [list(col) for col in zip(*basis)])
    c = [solve_rational(gram, _apply(basis, row)) for row in vecs]
    if mat_mul(c, basis) != [list(row) for row in vecs]:
        return None
    return None if any(x.denominator != 1 for row in c for x in row) else c


def _same_lattice(b1, b2) -> bool:
    """Whether two row bases span one lattice: b1 = c b2, c integer, det c = +-1."""
    if len(b1) != len(b2):
        return False
    c = _coordinates(b1, b2)
    return c is not None and (not c or abs(det_exact(c)) == 1)


def _compare_with_smith(m, b, mismatches) -> None:
    """Torsion and integer solve against the Smith-transform oracles: the
    same factors, the same solvability both ways, and the same solution
    set, a basis of the same lattice and particular solutions whose
    difference lies in it."""
    if torsion_of_cokernel(m) != smith_torsion_of_cokernel(m):
        mismatches.append(("torsion", m))
    old, new = smith_solve_integer(m, b), solve_integer(m, b)
    if (old is None) != (new is None):
        mismatches.append(("solvable", m, b))
    elif new is not None:
        (x0, basis), (old_x0, old_basis) = new, old
        if _apply(m, x0) != list(b):
            mismatches.append(("x0", m, b))
        if not _same_lattice(basis, old_basis):
            mismatches.append(("lattice", m, b))
        if _coordinates([[x - y for x, y in zip(x0, old_x0)]], old_basis) is None:
            mismatches.append(("coset", m, b))


# The Euclid oracle's budget.  On the seeded inputs below its entries
# either stay under 87,000 bits, and it finishes in a fraction of a second,
# or pass 380,000 bits and keep growing for seconds to minutes.  The
# budget takes the same 3,143 of the 3,161 inputs that a 0.5 s wall-clock
# limit took on a 2-core x86-64 host, and no longer depends on the host.
EUCLID_MAX_BITS = 2**17


def _compare_with_euclid(m, rng, mismatches) -> bool:
    """The Smith form against the Euclid-and-swap oracle, then torsion and
    integer solve against the Smith-transform oracles; False when a step
    of the Euclid oracle writes an entry longer than EUCLID_MAX_BITS bits."""
    # b = m x is solvable; a random b mostly is not
    if rng.random() < 0.5:
        b = _apply(m, [rng.randint(-3, 3) for _ in m[0]])
    else:
        b = [rng.randint(-9, 9) for _ in m]
    try:
        old = euclid_smith_normal_form(m, EUCLID_MAX_BITS)
    except OracleBudgetExceeded:
        return False
    with time_limit(1.0):
        new = smith_normal_form(m)
    if new[1] != old[1]:
        mismatches.append(("s", m))
    _compare_with_smith(m, b, mismatches)
    return True


def test_smith_form_matches_the_euclid_oracle_on_matrices():
    # old-versus-new on random shapes up to 7x7, one in three a product
    # through a narrower middle so that rank deficits are common
    rng = random.Random(0x5B1)
    mismatches = []
    index = compared = 0
    while compared < 3000:
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        if index % 3 == 0:
            k = rng.randint(1, min(rows, cols))
            a = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rows)]
            m = mat_mul(a, [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(k)])
        else:
            m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        compared += _compare_with_euclid(m, rng, mismatches)
        index += 1
    assert mismatches == []
    assert index == 3011  # 11 inputs exceed the oracle's budget


def test_smith_form_matches_the_euclid_oracle_on_trees():
    # tree forms with 8, 14 and 20 vertices, every other one negative
    # definite by its weights, as in the benchmark's forms workload
    rng = random.Random(0x7EE)
    mismatches = []
    compared = 0
    for index in range(150):
        q = forms_tree_form(rng, (8, 14, 20)[index % 3], definite=index % 2 == 0)
        compared += _compare_with_euclid(q, rng, mismatches)
    assert mismatches == []
    assert compared == 143


def test_negative_definite_examples():
    assert is_negative_definite([[-1]])
    assert not is_negative_definite([[0]])
    assert is_negative_definite([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    # a fiber's degenerate form is only semidefinite
    assert not is_negative_definite([[-1, 1], [1, -1]])
    assert is_negative_definite([])
    # zero leading minor, nonzero determinant
    assert not is_negative_definite([[0, 1], [1, 0]])
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert is_negative_definite([[-half, third], [third, -half]])
    assert not is_negative_definite([[-third, half], [half, -third]])


def test_negative_definite_requires_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        is_negative_definite([[-1, 2], [0, -1]])
    with pytest.raises(ValueError):
        is_negative_definite([[1, 2, 3]])


def test_negative_definite_properties():
    rng = random.Random(0xAB5)
    for _ in range(120):
        n = rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        # -(a^T a + I) is always negative definite
        ata = mat_mul([list(col) for col in zip(*a)], a)
        m = [[-(ata[i][j] + (i == j)) for j in range(n)] for i in range(n)]
        assert is_negative_definite(m)
        assert det_exact([[-x for x in row] for row in m]) > 0
        for keep in combinations(range(n), rng.randint(1, n)):
            sub = [[m[i][j] for j in keep] for i in keep]
            assert is_negative_definite(sub)


def test_torsion_examples():
    assert torsion_of_cokernel([[-2]]).invariant_factors == (2,)
    assert torsion_of_cokernel([[-2, 1], [1, -2]]).invariant_factors == (3,)
    assert torsion_of_cokernel(identity_matrix(4)).is_trivial


def test_torsion_order_equals_det():
    rng = random.Random(0x70C)
    done = 0
    while done < 120:
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        d = det_exact(m)
        if d == 0:
            continue
        assert torsion_of_cokernel(m).order == abs(d)
        done += 1


def test_torsion_group_validation():
    with pytest.raises(ValueError):
        TorsionGroup((1,))
    with pytest.raises(ValueError):
        TorsionGroup((4, 6))
    assert str(TorsionGroup((2, 16))) == "Z2 x Z16"
    assert TorsionGroup((2, 16)).order == 32


def test_kernel_basis():
    assert kernel_basis([[1, 0], [0, 1]]) == []
    ker = kernel_basis([[-2, 1, 0], [1, -1, 1], [0, 1, -2]])
    assert len(ker) == 1
    v = ker[0]
    assert v[0] == v[2] and v[1] == 2 * v[0]


def _outcome(f, *args):
    """repr of the result, or the type and message of the error raised."""
    try:
        return repr(f(*args))
    except (SncalcError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _solve_overdetermined(m, b):
    """The fiber-group solve of `ruling_decompose` on a dense system, with
    the solution as Fractions, as the dense solve it replaced returned it."""
    columns = [{i: x for i, x in enumerate(col) if x} for col in zip(*m)]
    sol = _solve_on_support(columns, {i: x for i, x in enumerate(b) if x})
    return None if sol is None else [Fraction(x) for x in sol]


def _solve_kernel_systems():
    """(m, b): 3,000 seeded matrices up to 7x7, one in five rational, every
    third a product through a narrower middle (rank-deficient), with
    b = m x half of the time (consistent), else random (mostly
    inconsistent), and b as ints half of the time that it can be."""
    rng = random.Random(0xEC4)
    for index in range(3000):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        if index % 7 == 0:
            cols = rows
        elif index % 7 == 1:
            rows = max(rows, cols)
        rational = index % 5 == 0

        def entry(bound=4):
            x = rng.randint(-bound, bound)
            return Fraction(x, rng.randint(1, 6)) if rational else x

        if index % 3 == 0:
            k = rng.randint(0, min(rows, cols) - 1)
            left = [[entry(2) for _ in range(k)] for _ in range(rows)]
            right = [[entry(2) for _ in range(cols)] for _ in range(k)]
            m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
            m = [row or [0] * cols for row in m]
        else:
            m = [[entry() for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(cols)]
            b = [sum((a * c for a, c in zip(row, x)), Fraction(0)) for row in m]
        else:
            b = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 3])) for _ in range(rows)]
        if rng.random() < 0.5 and all(v.denominator == 1 for v in b):
            b = [int(v) for v in b]
        yield m, b


def test_solves_and_kernels_match_the_rref_oracle():
    # old-versus-new: the Gauss-Jordan routines over Fraction against the
    # Bareiss pass on the seeded systems; every square one also solved and
    # every tall one solved as an overdetermined system
    mismatches = []
    counts = dict.fromkeys(["singular", "solved", "kernel", "consistent", "inconsistent"], 0)
    for m, b in _solve_kernel_systems():
        rows, cols = len(m), len(m[0])
        kernel = _outcome(kernel_basis, m)
        counts["kernel"] += kernel != "[]"
        if kernel != _outcome(rref_kernel_basis, m):
            mismatches.append(("kernel", m))
        solved = _outcome(solve_rational, m, b)
        if rows == cols:
            counts["singular"] += isinstance(solved, tuple)
            counts["solved"] += not isinstance(solved, tuple)
        if solved != _outcome(rref_solve_rational, m, b):
            mismatches.append(("solve", m, b))
        if rows >= cols:
            over = _outcome(_solve_overdetermined, m, b)
            counts["consistent"] += over != "None" and not isinstance(over, tuple)
            counts["inconsistent"] += over == "None"
            if over != _outcome(rref_solve_rational_overdetermined, m, b):
                mismatches.append(("overdetermined", m, b))
    assert mismatches == []
    assert counts["singular"] > 150 and counts["solved"] > 300, counts
    assert counts["kernel"] > 1000, counts
    assert counts["consistent"] > 300 and counts["inconsistent"] > 300, counts


def test_kernel_of_the_long_chain():
    # the fiber (-1, -2, ..., -2, -1): its kernel is the all-ones vector
    n = 1200
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = -1 if i in (0, n - 1) else -2
        if i:
            q[i][i - 1] = q[i - 1][i] = 1
    with time_limit(3):
        assert kernel_basis(q) == [[1] * n]


def test_mat_mul_of_empty_operands():
    assert mat_mul([], []) == []
    assert mat_mul([[]], []) == [[]]
    assert mat_mul([[], []], []) == [[], []]
    assert mat_mul([[1], [2]], [[]]) == [[], []]
    assert mat_mul([[1, 2, 3], [4, 5, 6]], [[], [], []]) == [[], []]
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_mul([[1, 2]], [[1]])


def test_solves_and_kernels_build_fractions_only_for_the_result(monkeypatch):
    # elimination stays in the integers: Fractions are made for the values
    # returned, n per solution and n per kernel vector
    made = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(linalg, "Fraction", Counting)
    m = [[-2, 1, 0, 0, 3], [1, -3, 1, 0, 0], [0, 1, -2, 1, 0], [0, 0, 1, -4, 1], [5, 0, 0, 1, -1]]
    assert solve_rational(m, [1, -2, 3, 0, 7]) == rref_solve_rational(m, [1, -2, 3, 0, 7])
    assert len(made) == 5
    made.clear()
    m = [[1, 2, 3, 4, 5, 6], [2, 4, 6, 8, 10, 12], [1, 0, -1, 0, 1, 0], [0, 1, 0, -1, 0, 1]]
    kernel = kernel_basis(m)
    assert kernel == rref_kernel_basis(m) and len(kernel) == 3
    assert len(made) == 3 * 6
    # the forest path: n for an integer b, and n more to read a rational one
    made.clear()
    q = seeded_tree_form(12)
    assert solve_rational(q, list(range(12))) == rref_solve_rational(q, list(range(12)))
    assert len(made) == 12
    made.clear()
    b = [Fraction(i, 3) for i in range(12)]
    assert solve_rational(q, b) == rref_solve_rational(q, b)
    assert len(made) == 2 * 12


def test_solve_integer():
    sol = solve_integer([[2, 0], [0, 3]], [4, 9])
    assert sol is not None
    x0, lattice = sol
    assert x0 == [2, 3] and lattice == []
    assert solve_integer([[2]], [3]) is None
    sol = solve_integer([[1, 1]], [5])
    assert sol is not None
    x0, lattice = sol
    assert x0[0] + x0[1] == 5 and len(lattice) == 1
    k = lattice[0]
    assert k[0] + k[1] == 0 and k != [0, 0]


def test_torsion_of_bordered_tree_forms():
    # a zero row adds a free summand and a zero column nothing, so the
    # torsion stays that of the square form; diagonalised over Z, the
    # 161 x 160 and 160 x 161 matrices ran for minutes, and the singular
    # 131 x 131 one took 11 s
    for n, border in ((160, "row"), (160, "column"), (130, "both")):
        q = seeded_tree_form(n)
        m = [row + [0] for row in q] if border != "row" else [row[:] for row in q]
        if border != "column":
            m.append([0] * len(m[0]))
        with time_limit(2):
            assert torsion_of_cokernel(m) == torsion_of_cokernel(q)


def _bordered(q, border):
    """The form q with an extra zero row, zero column or both."""
    m = [row + [0] for row in q] if border != "row" else [row[:] for row in q]
    if border != "column":
        m.append([0] * len(m[0]))
    return m


def test_bordered_forest_forms_take_the_forest_path(monkeypatch):
    # the peel drops the zero lines, so the core is the square tree form and
    # its modulus comes from the forest kernel; without the peel a Bareiss
    # pass over the transpose found it, in 0.4-0.7 s at 160 vertices and
    # 4-8 s at 320
    q = seeded_tree_form(160)
    expected = torsion_of_cokernel(q)

    def refuse(*args, **kwargs):
        raise AssertionError("_bareiss was called")

    with monkeypatch.context() as mp:
        mp.setattr(linalg, "_bareiss", refuse)
        for border in ("row", "column", "both"):
            assert torsion_of_cokernel(_bordered(q, border)) == expected
    q = seeded_tree_form(320)
    expected = None
    for border in ("row", "column", "both"):
        with time_limit(2):
            torsion = torsion_of_cokernel(_bordered(q, border))
        assert expected is None or torsion == expected
        expected = torsion


def _planted_sparse_matrix(rng):
    """A sparse integer matrix up to 9 x 9 with planted lines: a unit alone
    on its row or its column, a non-unit alone on its line, a zero row or
    a zero column, in random order, so that peels cascade and stop."""
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    m = [[rng.choice((0, 0, 0, 0, 1, -1, 2, -3)) for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randint(0, 5)):
        i, j = rng.randrange(rows), rng.randrange(cols)
        kind = rng.randrange(5)
        value = rng.choice((1, -1)) if kind < 2 else rng.choice((2, -2, 3))
        if kind in (0, 2):
            m[i] = [0] * cols
        elif kind in (1, 3):
            for row in m:
                row[j] = 0
        if kind < 4:
            m[i][j] = value
        elif rng.random() < 0.5:
            m[i] = [0] * cols
        else:
            for row in m:
                row[j] = 0
    return m


def _seeded_systems():
    """(m, b, family): the 3,000 seeded matrices of the Smith-oracle test,
    with the right-hand sides it draws, the 150 tree forms, the seeded
    100-vertex tree, the bordered forms, a few invalid inputs and 3,000
    planted sparse matrices; b = m x half of the time (solvable), else
    random (mostly not), and None for the large forms, on which the
    Hermite transform swells."""
    rng = random.Random(0x5B1)
    for index in range(3000):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        if index % 3 == 0:
            k = rng.randint(1, min(rows, cols))
            a = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rows)]
            m = mat_mul(a, [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(k)])
        else:
            m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:
            b = _apply(m, [rng.randint(-3, 3) for _ in m[0]])
        else:
            b = [rng.randint(-9, 9) for _ in m]
        yield m, b, "seeded"
    rng = random.Random(0x7EE)
    for index in range(150):
        q = forms_tree_form(rng, (8, 14, 20)[index % 3], definite=index % 2 == 0)
        yield q, _apply(q, [rng.randint(-3, 3) for _ in q]), "tree"
    yield seeded_tree_form(100), None, "tree"
    for n, border in ((40, "row"), (40, "column"), (30, "both"), (160, "row")):
        yield _bordered(seeded_tree_form(n), border), None, "bordered"
    invalid = (
        ([[1, 2], [3]], [1, 2]),
        ([[1, Fraction(1, 2)], [0, 1]], [1, 1]),
        ([[1, 2], [0, 1.0]], [1, 1]),
        ([[1, 2], [0, 1]], [1]),
        ([[True, 0], [0, 2]], [1, 2]),
        ([], []),
        ([[], []], [0, 1]),
    )
    for m, b in invalid:
        yield m, b, "invalid"
    rng = random.Random(0x9EE1)
    for _ in range(3000):
        m = _planted_sparse_matrix(rng)
        if rng.random() < 0.5:
            b = _apply(m, [rng.randint(-3, 3) for _ in m[0]])
        else:
            b = [rng.randint(-3, 3) for _ in m]
        yield m, b, "planted"


def test_peeled_torsion_and_sparse_solves_match_the_dense_oracles():
    # old-versus-new, exactly: the invariant factors, the x0 and basis
    # lists and the errors of the dense torsion and the dense-transform
    # solve; the planted matrices peel partly, wholly and not at all
    mismatches = []
    shapes = Counter()
    for m, b, family in _seeded_systems():
        if outcome(torsion_of_cokernel, m) != outcome(dense_torsion_of_cokernel, m):
            mismatches.append(("torsion", m))
        if b is not None and outcome(solve_integer, m, b) != outcome(dense_solve_integer, m, b):
            mismatches.append(("solve", m, b))
        if family == "planted":
            columns = [{i: x for i, x in enumerate(col) if x} for col in zip(*m)]
            steps = linalg._peel(columns, len(m))
            rows, cols = linalg._core(columns, len(m), steps, "test")
            shapes["empty" if not rows else "partial" if steps else "whole"] += 1
            shapes["tall" if len(rows) > len(cols) else "wide"] += bool(rows and steps)
    assert mismatches == []
    assert all(shapes[kind] > 150 for kind in ("empty", "partial", "whole", "tall", "wide")), shapes


def test_peel_keeps_zero_lines_for_a_determinant():
    # |det| through the peel and a Bareiss pass on the core, as the
    # unimodularity check of solve_integer reads it, against det_exact
    rng = random.Random(0xDE7)
    for _ in range(1000):
        n = rng.randint(1, 8)
        m = _planted_sparse_matrix(rng)
        m = [(row + [0] * n)[:n] for row in (m + [[0] * n] * n)[:n]]
        columns = [{i: x for i, x in enumerate(col) if x} for col in zip(*m)]
        rows, cols = linalg._core(columns, n, linalg._peel(columns, n, zeros=False), "test")
        assert len(rows) == len(cols)
        core = [[m[i][j] for j in cols] for i in rows]
        assert abs(linalg._bareiss(core)[0]) == abs(det_exact(m))


def _record_integer_calls(run) -> tuple[list, list]:
    """The matrices given to `torsion_of_cokernel` (or, as sparse columns,
    to `_torsion_of_columns` by `h1_order`) and the systems given to
    `solve_integer` (or to its sparse entry `_solve_integer_columns` by
    `solve_curve_class`) by the package's callers while run() runs."""
    torsions, solves = [], []

    def torsion(m):
        torsions.append([list(row) for row in m])
        return torsion_of_cokernel(m)

    def solve(a, b):
        solves.append(([list(row) for row in a], list(b)))
        return solve_integer(a, b)

    def sparse_solve(a, b):
        solves.append(([list(row) for row in a], list(b)))
        return linalg._solve_integer_columns(a, b)

    def columns(cols, nrows):  # h1_order's sparse entry, recorded as a matrix
        torsions.append([[col.get(r, 0) for col in cols] for r in range(nrows)])
        return linalg._torsion_of_columns(cols, nrows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_torsion_of_columns", columns)
        mp.setattr(lattice, "_solve_integer_columns", sparse_solve)
        for module in (lattice, scenarios, cli):
            if hasattr(module, "torsion_of_cokernel"):
                mp.setattr(module, "torsion_of_cokernel", torsion)
            if hasattr(module, "solve_integer"):
                mp.setattr(module, "solve_integer", solve)
        run()
    return torsions, solves


def _lattice_ops(seed: int, count: int) -> None:
    workload = bench_workloads().WORKLOADS["lattice"]
    for index in range(count):
        item = workload.make(seed, index)
        assert workload.check(item, workload.run(item)) is None


def _verify_all() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "all"]) == 0


def test_package_calls_match_the_smith_oracles():
    # old-versus-new on every call of 1,200 seed-11 lattice ops and of
    # `verify all`: the same factors, solvability and solution sets
    mismatches = []
    counts = []
    for run in (lambda: _lattice_ops(11, 1200), _verify_all):
        torsions, solves = _record_integer_calls(run)
        for m in torsions:
            if torsion_of_cokernel(m) != smith_torsion_of_cokernel(m):
                mismatches.append(("torsion", m))
        for a, b in solves:
            _compare_with_smith(a, b, mismatches)
        counts.append((len(torsions), len(solves)))
    assert mismatches == []
    assert counts == [(900, 900), (6, 8)]


def test_package_calls_match_the_dense_oracles():
    # old-versus-new, exactly, on every call of 1,200 seed-11 lattice ops and
    # of `verify all`: the invariant factors and the x0 and basis lists
    mismatches = []
    for run in (lambda: _lattice_ops(11, 1200), _verify_all):
        torsions, solves = _record_integer_calls(run)
        for m in torsions:
            if torsion_of_cokernel(m) != dense_torsion_of_cokernel(m):
                mismatches.append(("torsion", m))
        for a, b in solves:
            if solve_integer(a, b) != dense_solve_integer(a, b):
                mismatches.append(("solve", a, b))
    assert mismatches == []


def _compare_pass(a, definite, ncols, mismatches) -> str:
    """One Bareiss pass over a copy of a against the eager pass and the
    primitive echelon form it replaced: the pivot columns (so the rank),
    the last pivot against the eager pass over the pivot columns (the
    torsion's minor before), and, for a square or tall a, the determinant
    or Sylvester's verdict and, when the eager pass runs to the end, each
    pivot row from its pivot on.  Returns the kind of pass."""
    width = ncols if ncols is not None else len(a[0]) if a else 0
    new = [row[:] for row in a]
    det, pivots = linalg._bareiss(new, definite, ncols)
    rank = len(pivots)
    if definite:
        kind = "definite" if det > 0 else "not definite"
    else:
        kind = "full rank" if rank == min(len(a), width) else "rank-deficient"
        if pivots != primitive_echelon([row[:] for row in a], width):
            mismatches.append(("pivots", a, ncols))
        minor = [[row[p] for p in pivots] for row in a]
        if rank and abs(new[rank - 1][pivots[-1]]) != abs(eager_bareiss(minor)):
            mismatches.append(("minor", a, ncols))
    if len(a) >= width:
        old = [row[:] for row in a]
        if eager_bareiss(old, definite, ncols) != det:
            mismatches.append(("det", a, definite, ncols))
        elif det and [r[p:] for r, p in zip(new, pivots)] != [r[p:] for r, p in zip(old, pivots)]:
            mismatches.append(("rows", a, definite, ncols))
    return kind


def _record_passes(run) -> tuple[list, list]:
    """The arguments, copied, of every Bareiss pass and every `_solve` that
    the package makes while run() runs."""
    passes, solves = [], []
    real_pass, real_solve = linalg._bareiss, linalg._solve

    def bareiss(a, definite=False, ncols=None):
        passes.append(([row[:] for row in a], definite, ncols))
        return real_pass(a, definite, ncols)

    def solve(m, b):
        solves.append(([list(row) for row in m], list(b)))
        return real_solve(m, b)

    with pytest.MonkeyPatch.context() as mp:
        for module in (linalg, lattice):
            mp.setattr(module, "_bareiss", bareiss)
            mp.setattr(module, "_solve", solve)
        run()
    return passes, solves


SEEDED_ROUTES = (
    (kernel_basis, echelon_kernel_basis),
    (det_exact, bareiss_det_exact),
    (torsion_of_cokernel, dense_torsion_of_cokernel),
)


def test_bareiss_pass_matches_the_eager_pass_and_the_echelon_form():
    # old-versus-new, exactly: every Bareiss pass, and every solve, kernel,
    # determinant and torsion, against the eager Bareiss pass and the
    # primitive echelon form that the one pass replaced, on the seeded
    # systems of the rref-oracle test (square ones also through the
    # definite pass, as given and negated), the singular trees of 3,000
    # seed-11 `forms` items, and every call of 1,200 seed-11 `lattice` ops
    # and of `verify all`
    mismatches, counts = [], Counter()
    systems = list(_solve_kernel_systems())
    forms = bench_workloads().WORKLOADS["forms"]
    trees = [forms.make(11, index).data for index in range(3000)]
    singular = [data["q"] for data in trees if data["d"] == 0]
    squares = []

    def seeded():
        for m, b in systems:
            for new, old in SEEDED_ROUTES:
                if outcome(new, m) != outcome(old, m):
                    mismatches.append((new.__name__, m))
            outcome(linalg._solve, m, b)  # recorded, and compared below
            if len(m) == len(m[0]):
                a, _ = linalg._integer_rows(m)
                squares.extend([a, [[-x for x in row] for row in a]])

    def forms_trees():
        for q in singular:
            for new, old in SEEDED_ROUTES:
                if outcome(new, q) != outcome(old, q):
                    mismatches.append((new.__name__, q))

    runs = {
        "seeded": seeded,
        "forms": forms_trees,
        "lattice": lambda: _lattice_ops(11, 1200),
        "verify": _verify_all,
    }
    for family, run in runs.items():
        passes, solves = _record_passes(run)
        for a, definite, ncols in passes:
            counts[family, _compare_pass(a, definite, ncols, mismatches)] += 1
        for m, b in solves:
            if outcome(linalg._solve, m, b) != outcome(echelon_solve, m, b):
                mismatches.append(("solve", m, b))
        counts[family, "solves"] = len(solves)
    for a in squares:
        counts["seeded", _compare_pass(a, True, None, mismatches)] += 1
    assert mismatches == []
    assert len(singular) == 164
    assert counts == {
        ("seeded", "full rank"): 5774,
        ("seeded", "rank-deficient"): 2650,
        ("seeded", "definite"): 138,
        ("seeded", "not definite"): 1826,
        ("seeded", "solves"): 3000,
        ("forms", "rank-deficient"): 205,
        ("forms", "solves"): 0,
        ("lattice", "full rank"): 1296,
        ("lattice", "solves"): 138,
        ("verify", "full rank"): 11,
        ("verify", "definite"): 7,
        ("verify", "solves"): 2,
    }, counts


def test_no_package_path_calls_the_smith_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("smith_normal_form was called")

    monkeypatch.setattr(linalg, "smith_normal_form", refuse)
    _verify_all()
    _lattice_ops(11, 60)


def test_invariant_factor_and_hermite_certificates_raise_under_optimization():
    # each certificate must trip on its own corruption even with -O; the
    # Hermite transform is corrupted through its sparse columns, and a
    # faulty peel through the steps it reports
    code = (
        "import sncalc.linalg as la\n"
        "from sncalc.errors import InvariantError\n"
        "diagonalise, combine, units = la._diagonalise, la._combine, la._unit_columns\n"
        "bareiss = la._bareiss\n"
        "def off_diagonal(s, r):\n"
        "    diagonalise(s, r)\n"
        "    s[0][1] = 1\n"
        "def setting(diagonal):\n"
        "    def fake(s, r):\n"
        "        diagonalise(s, r)\n"
        "        for k, d in enumerate(diagonal):\n"
        "            s[k][k] = d\n"
        "    return fake\n"
        "def kernel_off(v, i, j, step):\n"
        "    combine(v, i, j, step)\n"
        "    v[j][0] = v[j].get(0, 0) + 1\n"
        "def scaled(k):\n"
        "    def fake(n):\n"
        "        v = units(n)\n"
        "        v[k][k] = 2\n"
        "        return v\n"
        "    return fake\n"
        "def wrong_rank(a, *args):\n"
        "    bareiss(a, *args)\n"
        "    return 0, [0, 1]\n"
        "def peeling(steps):\n"
        "    return lambda columns, nrows, zeros=True: steps\n"
        "rank_one = [[2, 4, 6], [4, 8, 12]]\n"
        "cases = [\n"
        "    ('_diagonalise', off_diagonal, la.torsion_of_cokernel, [[2, 0], [0, 4]]),\n"
        "    ('_diagonalise', setting([4, 2]), la.torsion_of_cokernel, [[2, 0], [0, 4]]),\n"
        "    ('_diagonalise', setting([1, 8]), la.torsion_of_cokernel, [[2, 0], [0, 4]]),\n"
        "    ('_diagonalise', setting([2, 8]), la.torsion_of_cokernel, [[2, 0], [0, 4]]),\n"
        "    ('_diagonalise', setting([2, 8]), la.torsion_of_cokernel, [[2, 0, 0], [0, 4, 0]]),\n"
        "    ('_diagonalise', setting([2, 4]), la.torsion_of_cokernel, rank_one),\n"
        "    ('_bareiss', wrong_rank, la.torsion_of_cokernel, rank_one),\n"
        "    ('_unit_columns', scaled(0), la.solve_integer, [[1, 1]], [5]),\n"
        "    ('_combine', kernel_off, la.solve_integer, [[1, 1]], [5]),\n"
        "    ('_unit_columns', scaled(1), la.solve_integer, [[1, 0]], [3]),\n"
        "    ('_peel', peeling([(0, 0, True)]), la.torsion_of_cokernel, [[2, 0], [0, 4]]),\n"
        "    ('_peel', peeling([(0, 1, True)]), la.torsion_of_cokernel, [[1, 1], [0, 2]]),\n"
        "    ('_peel', peeling([(0, 0, True), (0, 1, True)]), la.solve_integer, [[1, 1]], [5]),\n"
        "]\n"
        "for name, fake, call, *args in cases:\n"
        "    real = getattr(la, name)\n"
        "    setattr(la, name, fake)\n"
        "    try:\n"
        "        call(*args)\n"
        "    except InvariantError as exc:\n"
        "        print('InvariantError:', exc)\n"
        "    setattr(la, name, real)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sncalc.__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "InvariantError: invariant factors: the matrix is not diagonal",
        "InvariantError: invariant factors: the diagonal is not a divisibility chain",
        "InvariantError: invariant factors: the first is not the gcd of the entries",
        "InvariantError: invariant factors: the product does not match the minor",
        "InvariantError: invariant factors: the product does not match the minor",
        "InvariantError: invariant factors: the free part differs from the echelon rank",
        "InvariantError: invariant factors: the pivots give no nonzero minor",
        "InvariantError: integer solve: a x0 differs from b",
        "InvariantError: integer solve: a basis vector is not in the kernel",
        "InvariantError: integer solve: the transform is not unimodular",
        "InvariantError: invariant factors: a peeled pivot is not a unit",
        "InvariantError: invariant factors: the peel is not triangular",
        "InvariantError: integer solve: the peel takes a line out twice",
    ]


def test_elimination_core_matches_the_replaced_routines():
    # old-versus-new: the minor loop, the Fraction determinant and the
    # Fraction LDL against the one Bareiss pass, on symmetric matrices with
    # n <= 7; half are -B'B - cI (mostly definite), one in five rational
    rng = random.Random(0xE11)
    mismatches = []
    n_definite = n_ldl = 0
    for index in range(3000):
        n = rng.randint(1, 7)
        rational = index % 5 == 0

        def entry():
            x = rng.randint(-4, 4)
            return Fraction(x, rng.randint(1, 6)) if rational else x

        if index % 2 == 0:
            b = [[entry() for _ in range(n)] for _ in range(n)]
            c = rng.randint(0, 2)
            m = [
                [-sum(b[k][i] * b[k][j] for k in range(n)) - c * (i == j) for j in range(n)]
                for i in range(n)
            ]
        else:
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = entry()
        definite = is_negative_definite(m)
        if det_exact(m) != reference_det(m):
            mismatches.append(("det", m))
        if definite != minor_loop_is_negative_definite(m):
            mismatches.append(("definite", m))
        n_definite += definite
        if not rational:
            neg = [[-x for x in row] for row in m]
            ldl = fraction_ldl(neg)
            if (ldl is not None) != definite:
                mismatches.append(("ldl verdict", m))
            elif definite:
                n_ldl += 1
                old = [(d, coeffs[i + 1 :]) for i, (d, coeffs) in enumerate(rational_cholesky(neg))]
                if ldl != old:
                    mismatches.append(("ldl", m))
    assert mismatches == []
    assert n_definite > 1000 and n_ldl > 800


DENSE_ROUTES = (
    (det_exact, bareiss_det_exact),
    (is_negative_definite, bareiss_is_negative_definite),
    (kernel_basis, echelon_kernel_basis),
)


def _compare_with_dense(m, mismatches) -> None:
    """Each form routine against its dense route, errors included."""
    for new, old in DENSE_ROUTES:
        if outcome(new, m) != outcome(old, m):
            mismatches.append((new.__name__, m))


def _forest_form(rng, n):
    """A symmetric form on a random forest in a shuffled vertex order:
    weights in [-5, 1], off-diagonal entries 1, -1, 2 or -3, and one
    vertex in five starting a new component."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = rng.randint(-5, 1)
        if i and rng.random() < 0.8:
            j = rng.randrange(i)
            m[i][j] = m[j][i] = rng.choice((1, -1, 2, -3))
    p = rng.sample(range(n), n)
    return [[m[i][j] for j in p] for i in p]


def _forest_minors(a) -> tuple[int, list[int]] | None:
    """The determinant and the leaf-first D's of a forest form, read off its
    fold record (`linalg._recognise_forest`, outside the memo); None off
    forest forms: the pair that `union_find_forest_minors` returns."""
    form = linalg._recognise_forest(a)
    if form is None:
        return None
    return form.det, [form.minors[v] for v in reversed(form.order)]


def test_forest_forms_match_the_dense_routes():
    # old-versus-new on seeded forests, n <= 10; leaf elimination has no
    # division, so a zero subtree determinant needs no rule of its own
    rng = random.Random(0xF0E)
    mismatches = []
    counts = dict.fromkeys(
        ["zero minor, d != 0", "semidefinite", "definite", "singular", "components"], 0
    )
    for index in range(4000):
        m = _forest_form(rng, index % 11)
        _compare_with_dense(m, mismatches)
        neg = [[-x for x in row] for row in m]
        for a in (m, neg):
            if _forest_minors(a) != union_find_forest_minors(a):
                mismatches.append(("forest minors", a))
        d, minors = _forest_minors(neg)
        counts["zero minor, d != 0"] += 0 in minors and d != 0
        counts["semidefinite"] += min(minors, default=1) == 0
        counts["definite"] += min(minors, default=1) > 0
        counts["singular"] += d == 0
        edges = sum(1 for i, row in enumerate(m) for x in row[:i] if x)
        counts["components"] += len(m) - edges > 1
    assert mismatches == []
    assert counts["zero minor, d != 0"] > 300 and counts["semidefinite"] > 100, counts
    assert counts["definite"] > 300 and counts["singular"] > 300, counts
    assert counts["components"] > 300, counts
    assert _forest_minors([]) == (1, [])


def test_off_forest_forms_keep_the_dense_routes(monkeypatch):
    # cycles, asymmetric and rational forms are not forest forms; each
    # routine falls back and agrees with its dense route, errors included,
    # the forest minors agree with the union-find build they replaced, and
    # each solve reaches the Bareiss pass
    rng = random.Random(0xC1C)
    mismatches = []
    kinds = {"cycle": 0, "asymmetric": 0, "rational": 0}
    passes = []
    real = linalg._bareiss

    def counted(*args, **kwargs):
        passes.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "_bareiss", counted)
    for index in range(3000):
        n = rng.randint(2, 9)
        m = _forest_form(rng, n)
        kind = ("cycle", "asymmetric", "rational")[index % 3]
        if kind == "cycle":
            # a spanning path plus chords: every chord closes a cycle
            for i in range(1, n):
                m[i][i - 1] = m[i - 1][i] = m[i][i - 1] or 1
            for _ in range(rng.randint(1, 2)):
                i, j = rng.sample(range(n), 2)
                if abs(i - j) > 1:
                    m[i][j] = m[j][i] = rng.choice((1, -1, 2))
            off_forest = any(m[i][j] for i in range(n) for j in range(i - 1))
        elif kind == "asymmetric":
            i, j = rng.sample(range(n), 2)
            m[i][j] = rng.choice([x for x in (0, 1, -1, 2) if x != m[j][i]])
            off_forest = True
        else:
            # symmetric, with a random half of the entries over k
            k = rng.randint(2, 5)
            m = [[Fraction(x) for x in row] for row in m]
            for i in range(n):
                for j in range(i + 1):
                    if rng.random() < 0.5:
                        m[i][j] = m[j][i] = m[i][j] / k
            off_forest = any(x.denominator > 1 for row in m for x in row)
        if _forest_minors(m) != union_find_forest_minors(m):
            mismatches.append(("forest minors", m))
        if not off_forest:
            continue
        kinds[kind] += 1
        if kind != "rational" and _forest_minors(m) is not None:
            mismatches.append(("taken for a forest form", m))
        _compare_with_dense(m, mismatches)
        passes.clear()
        outcome(solve_rational, m, [1] * n)
        if not passes:
            mismatches.append(("solved without the Bareiss pass", m))
    assert mismatches == []
    assert min(kinds.values()) > 600, kinds


def _graph_and_support(rng, index):
    """A seeded forest or tree on up to 12 vertices, one in five with an
    added edge (which may close a cycle), and a support: the whole graph
    (None), ids drawn with repeats, or those plus an unknown id."""
    g = (random_forest if index % 2 else random_tree)(rng, 12)
    if index % 5 == 0 and len(g) > 2:
        a, b = rng.sample(g.ids, 2)
        g = DualGraph.build(g.vertices, [*g.edges, (a, b)])  # may close a cycle
    ids = list(g.ids)
    support = None
    if index % 4:
        support = [rng.choice(ids) for _ in range(rng.randint(0, 12))] if ids else []
        if index % 4 == 3:
            support.append("nowhere")
    return g, support


def test_intersection_matrix_matches_the_has_edge_build():
    # every support: the whole graph, shuffled subsets, repeated ids
    # (equal rows, the weight at each position of the id) and unknown ids
    rng = random.Random(0x1A7)
    mismatches = []
    repeated = 0
    for index in range(1500):
        g, support = _graph_and_support(rng, index)
        repeated += support is not None and len(set(support)) < len(support)
        new = outcome(g.intersection_matrix, support)
        if new != outcome(has_edge_intersection_matrix, g, support):
            mismatches.append((g, support))
    assert mismatches == []
    assert repeated > 500


def test_graph_leaf_pass_matches_the_matrix_routes():
    # the discriminant against det(-Q) of the intersection matrix, value,
    # type and errors, and classify_boundary's definiteness against
    # Sylvester's test of Q on every tree; each drawn support is also taken
    # with its repeats and unknown ids dropped.  Repeated and unknown ids and
    # cycles take the matrix route, and must keep its values and KeyError
    rng = random.Random(0x1EAF)
    mismatches = []
    counts = dict.fromkeys(
        ["d = 0", "cycle", "repeated", "unknown", "empty", "proper", "definite"], 0
    )
    for index in range(4000):
        g, drawn = _graph_and_support(rng, index)
        supports = [None] if drawn is None else [drawn, [v for v in dict.fromkeys(drawn) if v in g]]
        for support in supports:
            new = outcome(discriminant, g, support)
            old = outcome(matrix_discriminant, g, support)
            if new != old or type(new) is not type(old):
                mismatches.append(("discriminant", g, support))
            counts["d = 0"] += new == 0
            if support is not None:
                counts["repeated"] += len(set(support)) < len(support)
                counts["unknown"] += "nowhere" in support
                counts["empty"] += not support
                counts["proper"] += 0 < len(set(support)) == len(support) < len(g)
        if len(g) and g.is_tree():
            definite = is_negative_definite(g.intersection_matrix())
            if (classify_boundary(g).tag is BoundaryTag.NEGATIVE_DEFINITE) != definite:
                mismatches.append(("definite", g))
            counts["definite"] += definite
        counts["cycle"] += not g.is_forest()
    assert mismatches == []
    assert counts["d = 0"] > 500 and counts["cycle"] > 300, counts
    assert counts["repeated"] > 1000 and counts["unknown"] > 800, counts
    assert counts["empty"] > 100 and counts["proper"] > 1000, counts
    assert counts["definite"] > 100, counts


def _graph_of(q):
    """The graph whose intersection matrix is q, on ids v0, v1, ..."""
    n = len(q)
    return DualGraph.build(
        [(f"v{i}", q[i][i]) for i in range(n)],
        [(f"v{i}", f"v{j}") for i in range(n) for j in range(i) if q[i][j]],
    )


def _compare_graph_with_dense(g, mismatches) -> None:
    """The graph leaf pass against the matrix routes on a tree."""
    q = g.intersection_matrix()
    if discriminant(g) != det_exact([[-x for x in row] for row in q]):
        mismatches.append(("discriminant", g))
    if (classify_boundary(g).tag is BoundaryTag.NEGATIVE_DEFINITE) != is_negative_definite(q):
        mismatches.append(("definite", g))


def test_forms_trees_match_the_dense_routes():
    # the benchmark's forms trees, the discriminant's -Q of each, and their
    # graphs through the leaf pass
    rng = random.Random(0xF07)
    mismatches = []
    definite = 0
    for index in range(600):
        q = forms_tree_form(rng, (8, 14, 20)[index % 3], definite=index % 2 == 0)
        _compare_with_dense(q, mismatches)
        _compare_with_dense([[-x for x in row] for row in q], mismatches)
        _compare_graph_with_dense(_graph_of(q), mismatches)
        definite += is_negative_definite(q)
    assert mismatches == []
    assert definite >= 300


def test_case_forks_match_the_dense_routes():
    cases = load_cases()["cases"]
    assert len(cases) == 13
    mismatches = []
    for case in cases:
        g = build_fork(case["branch_weight"], case["twigs"])
        q = g.intersection_matrix()
        _compare_with_dense(q, mismatches)
        _compare_with_dense([[-x for x in row] for row in q], mismatches)
        _compare_graph_with_dense(g, mismatches)
    assert mismatches == []


def _forest_solve_inputs():
    """The forest forms of the three tests above, as (family, matrix): the
    4,000 seeded forests, the 600 `forms` trees and the 13 case forks."""
    rng = random.Random(0xF0E)
    inputs = [("forests", _forest_form(rng, index % 11)) for index in range(4000)]
    rng = random.Random(0xF07)
    for index in range(600):
        inputs.append(("trees", forms_tree_form(rng, (8, 14, 20)[index % 3], index % 2 == 0)))
    for case in load_cases()["cases"]:
        g = build_fork(case["branch_weight"], case["twigs"])
        inputs.append(("forks", g.intersection_matrix()))
    return inputs


def test_forest_solves_match_the_rref_oracle():
    # old-versus-new: the leaf fold's solve against the Gauss-Jordan solve
    # over Fraction, values and errors, with an integer and a rational b for
    # each forest form; back-substitution down the tree would divide by a
    # zero subtree determinant under a nonzero d, the rerooting pass does not
    brng = random.Random(0x5017)
    mismatches = []
    counts = Counter()
    for family, m in _forest_solve_inputs():
        d, minors = _forest_minors(m)
        counts[family, "zero minor, d != 0"] += 0 in minors and d != 0
        n = len(m)
        integer = [brng.randint(-5, 5) for _ in range(n)]
        rational = [Fraction(brng.randint(-9, 9), brng.randint(1, 6)) for _ in range(n)]
        for kind, b in (("integer", integer), ("rational", rational)):
            new = outcome(solve_rational, m, b)
            if new != outcome(rref_solve_rational, m, b):
                mismatches.append((m, b))
            counts[family, kind, "singular" if isinstance(new, tuple) else "solved"] += 1
    assert mismatches == []
    assert counts == {
        **{("forests", kind, "solved"): 3466 for kind in ("integer", "rational")},
        **{("forests", kind, "singular"): 534 for kind in ("integer", "rational")},
        **{("trees", kind, "solved"): 557 for kind in ("integer", "rational")},
        **{("trees", kind, "singular"): 43 for kind in ("integer", "rational")},
        **{("forks", kind, "solved"): 10 for kind in ("integer", "rational")},
        **{("forks", kind, "singular"): 3 for kind in ("integer", "rational")},
        ("forests", "zero minor, d != 0"): 827,
        ("trees", "zero minor, d != 0"): 202,
        ("forks", "zero minor, d != 0"): 0,
    }, counts


def test_forest_solves_never_reach_bareiss(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("a forest form reached the Bareiss pass")

    monkeypatch.setattr(linalg, "_bareiss", refuse)
    forms = [m for _, m in _forest_solve_inputs()[::4]]
    forms.append([[-2 if i == j else int(abs(i - j) == 1) for j in range(200)] for i in range(200)])
    solved = 0
    for m in forms:
        if det_exact(m):
            x = solve_rational(m, list(range(len(m))))
            solved += 1
            assert _apply(m, x) == list(range(len(m)))
    assert solved == 1019


def test_solve_of_the_seeded_400_vertex_tree():
    # the echelon form took about 5 s here and grows cubically; the two passes
    # of the leaf fold are linear in the number of big-integer steps
    q = seeded_tree_form(400)
    with time_limit(1):
        x = solve_rational(q, [1] * 400)
    assert [sum(a * t for a, t in zip(row, x) if a) for row in q] == [1] * 400


def test_forest_forms_never_reach_bareiss(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("a forest form reached the Bareiss pass")

    monkeypatch.setattr(linalg, "_bareiss", refuse)
    rng = random.Random(0xB0A)
    graphs = [random_tree(rng, 20) for _ in range(300)]
    graphs += [build_fork(c["branch_weight"], c["twigs"]) for c in load_cases()["cases"]]
    graphs.append(DualGraph.from_chain_weights([-2] * 200))
    tags = set()
    for g in graphs:
        discriminant(g)
        is_negative_definite(g.intersection_matrix())
        tags.add(classify_boundary(g).tag)
    assert BoundaryTag.NEGATIVE_DEFINITE in tags and BoundaryTag.OTHER in tags


def test_graph_invariants_build_no_matrix(monkeypatch):
    # on distinct supports of forests, the discriminant, the definiteness of
    # a boundary and the multiplicities of a fiber are one leaf pass over
    # the graph: no intersection matrix and no matrix route of linalg
    rng = random.Random(0x6E1)
    forests = [random_forest(rng, 12) for _ in range(300)]
    supports = [rng.sample(g.ids, rng.randint(0, len(g))) for g in forests]
    trees = [random_tree(rng, 12) for _ in range(300)]
    trees += [build_fork(c["branch_weight"], c["twigs"]) for c in load_cases()["cases"]]
    fibers = bench_workloads().WORKLOADS["fibers"]
    fiber_graphs = [parse_graph(fibers.make(11, index).text) for index in range(200)]

    def run():
        return (
            [discriminant(g, sup) for g, sup in zip(forests, supports)],
            [discriminant(g) for g in trees],
            [classify_boundary(g) for g in trees],
            [outcome(fiber_multiplicities, g) for g in fiber_graphs],
        )

    expected = run()

    def refuse(*args, **kwargs):
        raise AssertionError("a graph invariant built a matrix")

    monkeypatch.setattr(DualGraph, "intersection_matrix", refuse)
    for module in (linalg, calculus, surgery):
        for name in (
            "det_exact",
            "is_negative_definite",
            "kernel_basis",
            "_forest_form",
            "_recognise_forest",
        ):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert run() == expected
    assert sum(isinstance(f, FiberGraph) for f in expected[3]) == 100


# -- one recognition per matrix ------------------------------------------------
# det_exact, is_negative_definite, kernel_basis and solve_rational share the
# recognition of a forest form through a one-slot memo keyed on the matrix's
# integer content (`linalg._forest_form`)


def _count_scans(monkeypatch) -> list:
    """Start from an empty slot and record every matrix that the O(n^2)
    recognition scan of forest forms reads."""
    scans = []
    real = linalg._recognise_forest

    def counted(a):
        scans.append(a)
        return real(a)

    monkeypatch.setattr(linalg, "_last_forest", (None, None))
    monkeypatch.setattr(linalg, "_recognise_forest", counted)
    return scans


def _count_folds(monkeypatch) -> list:
    """Start from an empty slot and record the size of every leaf fold
    (`linalg._subtree_minors`), of a graph or of a matrix."""
    folds = []
    real = linalg._subtree_minors

    def counted(diagonal, adj):
        folds.append(len(diagonal))
        return real(diagonal, adj)

    monkeypatch.setattr(linalg, "_last_forest", (None, None))
    for module in (linalg, calculus):
        if hasattr(module, "_subtree_minors"):
            monkeypatch.setattr(module, "_subtree_minors", counted)
    return folds


def test_each_forms_op_folds_twice(monkeypatch):
    # a `forms` op folds its graph once (the discriminant) and its matrix
    # once (the recognition that definiteness, the kernel and the solve
    # share); the solve reroots the cached fold record and folds nothing
    forms = bench_workloads().WORKLOADS["forms"]
    folds = _count_folds(monkeypatch)
    per_op = Counter()
    for index in range(3000):
        item = forms.make(11, index)
        before = len(folds)
        d = forms.run(item)[0]
        per_op["d != 0" if d else "d = 0", len(folds) - before] += 1
    assert per_op == {("d != 0", 2): 2836, ("d = 0", 2): 164}


def test_a_solve_from_an_empty_slot_folds_once(monkeypatch):
    # the recognition folds, and `_reroot` reads that record
    forms = bench_workloads().WORKLOADS["forms"]
    folds = _count_folds(monkeypatch)
    per_solve = Counter()
    for index in range(3000):
        data = forms.make(11, index).data
        linalg._last_forest = (None, None)
        before = len(folds)
        outcome(solve_rational, data["q"], data["rhs"])
        per_solve[len(folds) - before] += 1
    assert per_solve == {1: 3000}


def test_each_forms_matrix_is_scanned_once(monkeypatch):
    # the four questions of one matrix read it once; each of them scanned it
    # anew before the memo, three or four scans per matrix
    forms = bench_workloads().WORKLOADS["forms"]
    scans = _count_scans(monkeypatch)
    per_matrix = Counter()
    for index in range(3000):
        data = forms.make(11, index).data
        q = data["q"]
        before = len(scans)
        det_exact(q)
        is_negative_definite(q)
        kernel_basis(q)
        outcome(solve_rational, q, data["rhs"])
        per_matrix[len(scans) - before] += 1
        assert scans[-1] == tuple(map(tuple, q))
    assert per_matrix == {1: 3000}


def test_the_contraction_gram_of_verify_is_scanned_once(monkeypatch):
    scans = _count_scans(monkeypatch)
    calls = []
    for name in ("det_exact", "is_negative_definite"):
        real = getattr(scenarios, name)

        def counted(m, real=real, name=name):
            before = len(scans)
            out = real(m)
            calls.append((name, len(scans) - before))
            return out

        monkeypatch.setattr(scenarios, name, counted)
    _verify_all()
    assert calls == [("det_exact", 1), ("is_negative_definite", 0)]


def test_memo_slot_keeps_no_large_matrix():
    # the slot keeps a matrix of at most _SLOT_ROWS rows; the kernel of the
    # singular 1,200-vertex fiber chain left 11.4 MB of row tuples in it
    n = 1200
    m = DualGraph.from_chain_weights([-1] + [-2] * (n - 2) + [-1]).intersection_matrix()
    linalg._last_forest = (None, None)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(kernel_basis(m)) == 1
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000, retained
    # a form at the bound is kept, and one row more is not
    for rows, kept in ((linalg._SLOT_ROWS, True), (linalg._SLOT_ROWS + 1, False)):
        linalg._last_forest = (None, None)
        q = DualGraph.from_chain_weights([-2] * rows).intersection_matrix()
        assert det_exact(q) == (-1) ** rows * (rows + 1)
        assert (linalg._last_forest[0] is not None) is kept, rows


MEMO_QUESTIONS = (
    det_exact,
    is_negative_definite,
    kernel_basis,
    lambda m: solve_rational(m, list(range(1, len(m) + 1))),
)


def _asked(m, passes=None, fresh=False) -> list:
    """Every question's answer on m, or its error, by repr (so that a
    Fraction, an int and a bool differ), with the number of Bareiss passes
    each took when passes records them.  With fresh=True the slot is emptied
    before each question, as each question ran before the memo."""
    out = []
    for question in MEMO_QUESTIONS:
        if fresh:
            linalg._last_forest = (None, None)
        before = len(passes) if passes is not None else 0
        answer = repr(outcome(question, m))
        out.append(answer if passes is None else (answer, len(passes) - before))
    return out


def _memo_forms() -> list[list[list[int]]]:
    """Seeded forest forms of 0 to 10 vertices, a definite 14-vertex tree
    (at 7), two singular 8-vertex trees (at 8 and 9), a cycle and an
    asymmetric matrix."""
    rng = random.Random(0x3E3)
    forms = [_forest_form(rng, n) for n in (0, 1, 2, 5, 8, 8, 10)]
    forms.append(forms_tree_form(rng, 14, True))
    trees = (forms_tree_form(rng, 8, False) for _ in range(40))
    forms += [q for q in trees if not det_exact(q)][:2]
    forms.append([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    forms.append([[-2, 1, 0], [0, -2, 1], [0, 1, -2]])
    return forms


@pytest.fixture
def bareiss_passes(monkeypatch) -> list:
    passes = []
    real = linalg._bareiss

    def counted(*args, **kwargs):
        passes.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "_bareiss", counted)
    monkeypatch.setattr(linalg, "_last_forest", (None, None))
    return passes


def test_memo_sees_a_matrix_changed_in_place(bareiss_passes):
    mismatches = []
    rng = random.Random(0x1A7)
    for m in _memo_forms():
        n = len(m)
        for step in range(6):
            # asked first, with the slot still holding m before the change
            if _asked(m, bareiss_passes) != _asked(m, bareiss_passes, fresh=True):
                mismatches.append(("asked", step, [row[:] for row in m]))
            _compare_with_dense(m, mismatches)
            if not n:
                break
            # a new weight, a new symmetric entry (a cycle, possibly) or an
            # asymmetric one, changed in place in the list the memo saw
            i, j = rng.randrange(n), rng.randrange(n)
            m[i][j] = rng.choice((-3, -1, 0, 1, 2))
            if step % 3:
                m[j][i] = m[i][j]
    assert mismatches == []


def test_memo_answers_inexact_types_as_without_it(bareiss_passes):
    # a Fraction, float or bool matrix equal in value to the int matrix in
    # the slot gets the answer, type and route it gets from an empty slot:
    # integer-valued entries take the int matrix's route (the forest one on
    # a forest form), rational ones their own
    zero_one = [[int(abs(i - j) == 1 or i == j and i % 3 > 0) for j in range(6)] for i in range(6)]
    mismatches, forest_routes = [], 0
    for m in [*_memo_forms(), zero_one]:
        route = [p for _, p in _asked(m, bareiss_passes, fresh=True)]
        forest_routes += route[0] == 0
        kinds = [("Fraction", Fraction), ("float", float), ("half", lambda x: Fraction(x, 2))]
        if {x for row in m for x in row} <= {0, 1}:
            kinds.append(("bool", bool))
        for kind, convert in kinds:
            converted = [[convert(x) for x in row] for row in m]
            expected = _asked(converted, bareiss_passes, fresh=True)
            _asked(m)  # the int matrix in the slot
            if _asked(converted, bareiss_passes) != expected:
                mismatches.append((kind, m))
            if kind != "half" and [p for _, p in expected] != route:
                mismatches.append(("route", kind, m))
    assert mismatches == []
    assert forest_routes == 11


def test_memo_keeps_no_answer_of_another_matrix(bareiss_passes):
    # the sequence A, B, A answers as fresh calls do, and changing a
    # returned kernel or solution changes no later answer
    forms = _memo_forms()
    singular = next(q for q in forms if q and not det_exact(q) and is_negative_definite(q) is False)
    regular = next(q for q in forms if len(q) > 4 and det_exact(q))
    expected = {id(q): _asked(q, fresh=True) for q in (singular, regular)}
    for q in (singular, regular, singular, regular, regular, singular):
        assert _asked(q) == expected[id(q)]
    kernel = kernel_basis(singular)
    kernel[0][0] += 1
    kernel.append([])
    x = solve_rational(regular, list(range(1, len(regular) + 1)))
    x[0] += 1
    x.append(0)
    for q in (singular, regular):
        assert _asked(q) == expected[id(q)]
        assert _asked(q) == expected[id(q)]


def test_memo_under_threads():
    # four threads asking about two matrices in turn all get the answers
    # of fresh calls: the slot is read and replaced as one tuple, so a
    # thread can only scan again, never pair one matrix with another's form
    forms = _memo_forms()
    pair = forms[7:9]  # the definite 14-vertex tree and a singular tree
    expected = [_asked(q, fresh=True) for q in pair]
    mismatches = []

    def ask(offset):
        for step in range(150):
            k = (step + offset) % 2
            if _asked(pair[k]) != expected[k]:
                mismatches.append((offset, step))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=ask, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_smith_postconditions_raise_under_optimization():
    # a corrupted product must trip the u m v = s check even with -O
    code = (
        "import sncalc.linalg as la\n"
        "from sncalc.errors import InvariantError\n"
        "real = la.mat_mul\n"
        "def corrupted(a, b):\n"
        "    out = real(a, b)\n"
        "    out[0][0] += 1\n"
        "    return out\n"
        "la.mat_mul = corrupted\n"
        "try:\n"
        "    la.smith_normal_form([[-2, 1], [1, -2]])\n"
        "except InvariantError as exc:\n"
        "    print('InvariantError:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sncalc.__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("InvariantError: Smith form")


def test_solve_and_kernel_postconditions_raise_under_optimization():
    # a corrupted back-substitution must trip both re-checks even with -O,
    # and so must corrupted Cramer numerators of the forest solve: a 3-cycle
    # takes the Bareiss pass, the 2-vertex tree the rerooting pass
    code = (
        "import sncalc.linalg as la\n"
        "from sncalc.errors import InvariantError\n"
        "real = la._back_substitute\n"
        "def corrupted(*args):\n"
        "    y, d = real(*args)\n"
        "    y[0] += 1\n"
        "    return y, d\n"
        "la._back_substitute = corrupted\n"
        "reroot = la._reroot\n"
        "def corrupted_reroot(*args):\n"
        "    y = reroot(*args)\n"
        "    y[0] += 1\n"
        "    return y\n"
        "la._reroot = corrupted_reroot\n"
        "for call in (lambda: la.solve_rational([[2, 1, 1], [1, 2, 1], [1, 1, 2]], [1, 0, 0]),\n"
        "             lambda: la.kernel_basis([[1, -1]]),\n"
        "             lambda: la.solve_rational([[2, 1], [1, 1]], [1, 0])):\n"
        "    try:\n"
        "        call()\n"
        "    except InvariantError as exc:\n"
        "        print('InvariantError:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sncalc.__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "InvariantError: back-substitution check failed",
        "InvariantError: kernel check failed",
        "InvariantError: back-substitution check failed",
    ]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in Path(sncalc.__file__).parent.glob("*.py"))
)
def test_module_has_no_asserts(module):
    # invariants in the package raise, so they still hold under python -O
    path = Path(sncalc.__file__).parent / module
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {module} at lines {lines}"


# report values nest, and these two walk them; no other function in the
# package calls itself, so this list may only shrink
SELF_RECURSIVE = {"reports.display", "reports.normalize"}


def test_package_has_no_other_self_recursion():
    found = set()
    for path in sorted(Path(sncalc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == fn.name
                for node in ast.walk(fn)
            ):
                found.add(f"{path.stem}.{fn.name}")
    assert found == SELF_RECURSIVE


def test_backticked_private_names_resolve():
    # a private name in backticks in these modules' sources names a routine
    # that exists: `_name` in the module itself, `mod._name` in the
    # package's module mod; so no reference outlives its function
    missing, seen = [], 0
    for module in (linalg, lattice, calculus, surgery):
        text = Path(module.__file__).read_text()
        for owner, name in re.findall(r"`(?:(\w+)\.)?(_\w+)`", text):
            seen += 1
            if not hasattr(getattr(sncalc, owner) if owner else module, name):
                missing.append((module.__name__, f"{owner}.{name}" if owner else name))
    assert missing == []
    assert seen > 20
