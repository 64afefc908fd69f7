import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from helpers import minor_loop_is_negative_definite, rational_cholesky, reference_det
import sncalc
from sncalc.errors import SingularMatrixError
from sncalc.linalg import (
    TorsionGroup,
    _ldl,
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
            ldl = _ldl(neg)
            if (ldl is not None) != definite:
                mismatches.append(("ldl verdict", m))
            elif definite:
                n_ldl += 1
                old = [(d, coeffs[i + 1 :]) for i, (d, coeffs) in enumerate(rational_cholesky(neg))]
                if ldl != old:
                    mismatches.append(("ldl", m))
    assert mismatches == []
    assert n_definite > 1000 and n_ldl > 800


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


@pytest.mark.parametrize(
    "module", sorted(p.name for p in Path(sncalc.__file__).parent.glob("*.py"))
)
def test_module_has_no_asserts(module):
    # invariants in the package raise, so they still hold under python -O
    path = Path(sncalc.__file__).parent / module
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {module} at lines {lines}"
