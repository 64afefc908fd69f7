import operator
import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

import sncalc.projective
from helpers import (
    FractionQuadExt,
    cofactor_mat_inv3,
    intersection_multiplicity as series_multiplicity,
    minor_conics_proportional,
    minor_proj_eq,
    operator_cross,
    operator_dot,
    operator_mat_vec,
    operator_pencil,
    operator_scaled,
    outcome,
    six_term_det3,
    three_scan_dual_hesse_check,
    triple_product_push_conic,
)
from sncalc.errors import InvariantError
from sncalc.projective import (
    EPS,
    ProjConic,
    ProjLine,
    ProjPoint,
    QuadExt,
    Y244_DATA,
    Y333_INCIDENCES,
    Y333_LINES,
    Y333_POINTS,
    apply_matrix,
    automorphism_action_check,
    collinear,
    conic_family_solve,
    conics_proportional,
    dual_hesse_check,
    _cross,
    _det3,
    _dot,
    _mat_inv3,
    _mat_vec,
    _pencil,
    _scaled,
    incident,
    intersection_multiplicity,
    line_through,
    meet,
    proj_eq,
    push_conic,
)
from sncalc.scenarios import run_scenario

scalars = st.builds(
    QuadExt,
    st.fractions(max_denominator=20, min_value=-20, max_value=20),
    st.fractions(max_denominator=20, min_value=-20, max_value=20),
)


def test_eps_satisfies_its_minimal_polynomial():
    assert EPS * EPS == EPS - 1
    zeta = -EPS
    assert zeta**3 == QuadExt(1)
    assert zeta * zeta + zeta + 1 == QuadExt(0)


@given(scalars, scalars, scalars)
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


@given(scalars, scalars)
def test_norm_is_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()


def test_thousand_random_inverses():
    rng = random.Random(0x171)
    checked = 0
    while checked < 1000:
        a = QuadExt(
            Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
            Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
        )
        if not a:
            continue
        assert a * a.inverse() == QuadExt(1)
        assert a.inverse() == 1 / a
        checked += 1


def _random_rational(rng: random.Random) -> Fraction:
    """Zero, small values and values with 60-bit or longer numerators, over
    denominators of either sign."""
    if rng.random() < 0.15:
        return Fraction(0)
    bits = rng.choice((3, 10, 62, 80))
    num = rng.randint(-(2**bits), 2**bits)
    den = rng.choice((1, -1, 2, -3, 6, -12, rng.randint(1, 2**bits)))
    return Fraction(num, den)


def _pair(rng: random.Random) -> tuple[QuadExt, FractionQuadExt]:
    a = Fraction(0) if rng.random() < 0.1 else _random_rational(rng)
    b = Fraction(0) if rng.random() < 0.3 else _random_rational(rng)
    if a.denominator == 1 and b.denominator == 1 and rng.random() < 0.5:
        a, b = int(a), int(b)  # the constructor's int path
    return QuadExt(a, b), FractionQuadExt(a, b)


def _assert_matches(x, ref) -> None:
    assert type(x) is QuadExt
    assert x._d > 0 and gcd(x._a, x._b, x._d) == 1, (x._a, x._b, x._d)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert (x.a, x.b) == (ref.a, ref.b)
    assert repr(x) == repr(ref)
    assert bool(x) == bool(ref)


def test_integer_quadext_matches_fraction_reference():
    # every operation of the integer-backed QuadExt against the Fraction-pair
    # representation it replaced, on the same operands
    rng = random.Random(0x6E0)
    pairs = 0
    while pairs < 5000:
        x, rx = _pair(rng)
        y, ry = _pair(rng)
        n = rng.randint(-(2**64), 2**64)
        f = _random_rational(rng)
        checks = [
            (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
            (x + n, rx + n), (n + x, n + rx), (x - f, rx - f), (f - x, f - rx),
            (x * f, rx * f), (n * x, n * rx), (-x, -rx), (x.conjugate(), rx.conjugate()),
        ]
        k = rng.randint(-3, 3)
        if ry:
            checks += [(x / y, rx / ry), (y.inverse(), ry.inverse()), (n / y, n / ry)]
            checks.append((y**k, ry**k))
        else:
            for fail in (y.inverse, lambda: x / y, lambda: y**-1):
                with pytest.raises(ZeroDivisionError):
                    fail()
            checks.append((y ** abs(k), ry ** abs(k)))
        if f:
            checks.append((x / f, rx / f))
        for got, want in checks:
            _assert_matches(got, want)
        _assert_matches(x, rx)
        assert type(x.norm()) is Fraction and x.norm() == rx.norm()
        assert (x == y) == (rx == ry)
        assert (x == n) == (rx == n) and (x == f) == (rx == f)
        assert (x == x.a) == (rx == rx.a)
        # the same value reached another way is equal and hashes equally
        again = (x + y) - y
        assert again == x and hash(again) == hash(x)
        pairs += 1
    assert QuadExt(7) == QuadExt(Fraction(7), 0) == QuadExt(14, 0) / 2 == 7
    assert hash(QuadExt(7)) == hash(QuadExt(Fraction(7), 0)) == hash(QuadExt(14, 0) / 2)
    assert QuadExt(Fraction(2, 4)) == QuadExt(Fraction(1, 2), 0) == QuadExt("1/2")
    assert hash(QuadExt(Fraction(2, 4))) == hash(QuadExt(Fraction(1, 2), 0))
    assert hash(QuadExt(Fraction(2, 4))) == hash(QuadExt(0.5, 0))


def test_quadext_equality_and_hash_across_types():
    # equal to the int or Fraction of the same value, with the same hash;
    # anything else compares unequal instead of being parsed or raising
    assert QuadExt(7) == 7 and hash(QuadExt(7)) == hash(7)
    assert {QuadExt(7), 7, Fraction(7)} == {7}
    half = QuadExt(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert {half: "x"}[Fraction(1, 2)] == "x"
    assert hash(QuadExt(14, 0) / 4) == hash(Fraction(7, 2))
    assert QuadExt(1) != "1" and not (QuadExt(1) == "1")
    assert QuadExt(1) != None and QuadExt(1) not in [None, "1"]  # noqa: E711
    assert EPS != "eps" and EPS not in {None: 0}
    assert hash(EPS) == hash(QuadExt(0, 1)) and EPS != 0


@pytest.mark.parametrize("other", ["1", 0.1, None, 1j, [1]])
def test_quadext_arithmetic_refuses_other_types(other):
    # only QuadExt, int and Fraction operands; the constructor still takes
    # whatever Fraction takes
    x = QuadExt(1, 2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)
    half = Fraction(1, 2)
    assert x + 1 == 1 + x == QuadExt(2, 2) and x - half == QuadExt(half, 2)
    assert 1 - x == QuadExt(0, -2) and half * x == x * half == QuadExt(half, 1)
    assert x / 2 == QuadExt(half, 1) and 2 / x == QuadExt(2) * x.inverse()
    assert True * x == x


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        QuadExt(0).inverse()


def test_conjugate_and_norm():
    a = QuadExt(2, 3)
    assert a.conjugate().conjugate() == a
    assert a * a.conjugate() == QuadExt(a.norm())


def test_incidence_examples():
    assert incident(ProjPoint(1, 1, 1), Y333_LINES["E2"])
    assert incident(ProjPoint(0, 1, 0), Y333_LINES["E1"])
    assert not incident(ProjPoint(1, 0, 0), ProjLine(1, 0, 0))
    assert incident(Y244_DATA["P2"], Y244_DATA["T23"])


def test_collinearity_examples():
    e = EPS
    assert collinear(ProjPoint(1, e, e), ProjPoint(e, e, e * e), ProjPoint(0, 1, 0))
    assert collinear(ProjPoint(1, 1, 1), ProjPoint(0, e, e * e), ProjPoint(1, e, 0))
    assert not collinear(ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1))


def test_collinearity_scaling_invariance():
    e = EPS
    pts = [ProjPoint(1, e, e), ProjPoint(e, e, e * e), ProjPoint(0, 1, 0)]
    scaled = [
        ProjPoint(tuple(c * QuadExt(3, 5) for c in p.coords)) for p in pts
    ]
    assert collinear(*scaled)


def test_proj_eq_without_normalization():
    p = ProjPoint(2, 4, 6)
    q = ProjPoint(QuadExt(1), QuadExt(2), QuadExt(3))
    assert proj_eq(p, q)
    assert not proj_eq(p, ProjPoint(1, 2, 4))


def test_points_and_lines_are_values_scaled_to_a_leading_one():
    p = ProjPoint(2, 4, 6)
    assert p == ProjPoint(1, 2, 3) and hash(p) == hash(ProjPoint(1, 2, 3))
    assert p.coords == (1, 2, 3) and repr(p) == "[1, 2, 3]"
    assert ProjPoint(EPS, EPS - 1, 0).coords == (1, EPS, 0)
    assert ProjLine([0, 2, 4 * EPS]).coeffs == (0, 1, 2 * EPS)
    assert len(set(Y333_POINTS.values())) == 12
    assert len(set(Y333_LINES.values())) == 9
    assert ProjPoint(1, 0, 0) != ProjLine(1, 0, 0)
    assert {ProjPoint(1, 0, 0): "point"}.get(ProjLine(1, 0, 0)) is None
    with pytest.raises(ValueError, match="^all coordinates zero$"):
        ProjPoint(0, QuadExt(0), 0)
    with pytest.raises(ValueError, match="^all coefficients zero$"):
        ProjLine([0, 0, 0])
    for bad in ((1, 2), (1, 2, 3, 4), ((0, 0),)):
        with pytest.raises(ValueError, match="^need exactly three homogeneous coordinates$"):
            ProjPoint(*bad)
        with pytest.raises(ValueError, match="^need exactly three homogeneous coordinates$"):
            ProjLine(*bad)


def test_line_through_and_meet_are_dual():
    p, q = ProjPoint(1, 0, 0), ProjPoint(0, 1, 1)
    l = line_through(p, q)
    assert incident(p, l) and incident(q, l)
    l2 = ProjLine(0, 1, 0)
    x = meet(l, l2)
    assert incident(x, l) and incident(x, l2)
    with pytest.raises(ValueError):
        line_through(p, ProjPoint(3, 0, 0))


def test_intersection_multiplicity_lines():
    l1, l2 = ProjLine(1, 0, 0), ProjLine(0, 1, 0)
    assert intersection_multiplicity(l1, l2, ProjPoint(0, 0, 1)) == 1
    with pytest.raises(ValueError, match="both"):
        intersection_multiplicity(l1, l2, ProjPoint(1, 1, 1))
    with pytest.raises(ValueError, match="share"):
        intersection_multiplicity(l1, ProjLine(2, 0, 0), ProjPoint(0, 0, 1))
    # the line pair x y = 0 contains l2
    with pytest.raises(ValueError, match="share"):
        intersection_multiplicity(ProjConic.from_coeffs(xy=1), l2, ProjPoint(0, 0, 1))


def test_intersection_multiplicity_tangent_line():
    t23 = Y244_DATA["T23"]
    p1 = Y244_DATA["P1"]
    tangent = ProjLine(t23.gradient(p1))
    assert intersection_multiplicity(tangent, t23, p1) == 2
    # a transverse line through the same point
    secant = line_through(p1, ProjPoint(1, 1, 0))
    assert intersection_multiplicity(secant, t23, p1) == 1


def test_intersection_multiplicity_conic_examples():
    d = Y244_DATA
    assert intersection_multiplicity(d["E"], d["T23"], d["P2"]) == 3
    assert intersection_multiplicity(d["E"], d["T33"], d["P3"]) == 3
    assert intersection_multiplicity(d["T33"], d["T23"], d["P1"]) == 2
    assert intersection_multiplicity(d["T33"], d["T23"], d["P2"]) == 1
    # T23 plus the square of its tangent line at P1 meets T23 only there
    t = d["T23"].gradient(d["P1"])
    square = ProjConic([[a * b for b in t] for a in t])
    plus_square = ProjConic([[a + b for a, b in zip(r1, r2)]
                             for r1, r2 in zip(d["T23"].matrix, square.matrix)])
    assert intersection_multiplicity(plus_square, d["T23"], d["P1"]) == 4


def _scalar(rng: random.Random) -> QuadExt:
    if rng.random() < 0.25:
        return QuadExt(0)
    b = rng.randint(-2, 2) if rng.random() < 0.3 else 0
    if rng.random() < 0.2:
        return QuadExt(Fraction(rng.randint(-4, 4), rng.randint(2, 3)), b)
    return QuadExt(rng.randint(-4, 4), b)


def _vector(rng: random.Random) -> tuple:
    while True:
        v = tuple(_scalar(rng) for _ in range(3))
        if any(v):
            return v


def _line_through(rng: random.Random, p: ProjPoint) -> tuple:
    while True:
        line = sncalc.projective._cross(p.coords, _vector(rng))
        if any(line):
            return line


def _product(l1, l2) -> list[list[QuadExt]]:
    """A symmetric matrix of the line pair l1 l2 (twice the usual one)."""
    return [[a * d + b * c for b, d in zip(l1, l2)] for a, c in zip(l1, l2)]


def _through(rng: random.Random, p: ProjPoint) -> list[list[QuadExt]]:
    """A random conic through p: the sum of two line pairs, each with one
    line through p."""
    m, n = (_product(_line_through(rng, p), _vector(rng)) for _ in range(2))
    return sncalc.projective._pencil(1, m, 1, n)


def _multiplicity_case(rng: random.Random, kind: str):
    """c1, c2, p for one comparison, with c1 built to reach a given order."""
    pencil = sncalc.projective._pencil
    p = ProjPoint(_vector(rng))
    c1_line = kind.startswith("line")
    if kind.endswith("/line"):
        c2 = ProjLine(_line_through(rng, p))
        if c1_line:
            c1 = c2.coeffs if rng.random() < 0.1 else _line_through(rng, p)
        else:
            # a multiple of c2 plus a line pair with one or two lines through p
            second = _line_through(rng, p) if rng.random() < 0.5 else _vector(rng)
            pair = _product(_line_through(rng, p), second)
            scale = QuadExt(0) if rng.random() < 0.1 else QuadExt(1)
            c1 = pencil(_scalar(rng), _product(c2.coeffs, _vector(rng)), scale, pair)
    else:
        c2 = ProjConic(_through(rng, p))
        if rng.random() < 0.05:  # a line pair through p is not smooth
            c2 = ProjConic(_product(_line_through(rng, p), _line_through(rng, p)))
        t = c2.gradient(p)
        if c1_line:
            c1 = t if rng.random() < 0.4 and any(t) else _line_through(rng, p)
        else:
            # lambda c2 plus a line pair through p that holds the tangent
            # zero, one or two times, or a general conic through p
            r = rng.random()
            if r < 0.15:
                extra = _through(rng, p)
            elif r < 0.2:
                extra = [[QuadExt(0)] * 3] * 3
            else:
                lines = [t if rng.random() < 0.5 else _line_through(rng, p) for _ in range(2)]
                extra = _product(*lines)
            c1 = pencil(_scalar(rng), c2.matrix, QuadExt(1), extra)
    if rng.random() < 0.03:  # almost surely off the point
        c1 = _vector(rng) if c1_line else _product(_vector(rng), _vector(rng))
    if c1_line:
        c1 = ProjLine(c1) if any(c1) else ProjLine(_line_through(rng, p))
    else:
        c1 = ProjConic(c1)
    return c1, c2, p


def _outcome(fn, c1, c2, p):
    try:
        return fn(c1, c2, p)
    except ValueError as exc:
        return type(exc), str(exc)


def test_pencil_multiplicity_matches_series_reference():
    # the pencil criterion against the power-series multiplicity it replaced
    rng = random.Random(0x1A7)
    kinds = ("line/line", "line/conic", "conic/line", "conic/conic")
    seen: dict = {}
    for n in range(6000):
        kind = kinds[n % 4]
        c1, c2, p = _multiplicity_case(rng, kind)
        got = _outcome(intersection_multiplicity, c1, c2, p)
        want = _outcome(series_multiplicity, c1, c2, p)
        assert got == want, (kind, c1, c2, p)
        key = got if isinstance(got, int) else got[1].split(" ")[1]
        seen[key] = seen.get(key, 0) + 1
        seen[kind, key] = seen.get((kind, key), 0) + 1
    assert all(seen[order] >= 100 for order in (1, 2, 3, 4)), seen
    # the errors: off the point, not smooth, a shared component
    assert seen["point"] >= 20 and seen["parametrized"] >= 20, seen
    assert all(seen[kind, "share"] >= 20 for kind in ("line/line", "conic/line", "conic/conic")), seen
    assert seen["conic/conic", 3] >= 100 and seen["conic/conic", 4] >= 100, seen


def test_intersection_multiplicity_rejects_degenerate_conic():
    degenerate = ProjConic.from_coeffs(xy=1)  # the pair of lines x y = 0
    l = ProjLine(0, 0, 1)
    with pytest.raises(ValueError, match="smooth"):
        intersection_multiplicity(l, degenerate, ProjPoint(1, 0, 0))


def test_bezout_totals_on_the_bundled_conics():
    d = Y244_DATA
    for a, b in (("T23", "T33"), ("E", "T23"), ("E", "T33")):
        total = 0
        for pname in ("P1", "P2", "P3"):
            p = d[pname]
            if incident(p, d[a]) and incident(p, d[b]):
                total += intersection_multiplicity(d[a], d[b], p)
        assert total == 4


def test_conic_family_solve():
    assert conic_family_solve() == (Fraction(-2), Fraction(1, 2))


def test_conic_family_solve_failure_is_internal(monkeypatch):
    # the solve takes no input, so a root search that finds nothing is a
    # defect; the scenario still reports it as one failed check
    monkeypatch.setattr(sncalc.projective, "_rational_roots", lambda coeffs: [])
    message = "conic families: 0 parameter pairs meet to order three, not one"
    with pytest.raises(InvariantError, match=message):
        conic_family_solve()
    rep = run_scenario("y244")
    failed = [(c.name, c.actual) for c in rep.checks if not c.passed]
    assert failed == [("uv_params", f"error: {message}")]


def test_conic_smoothness():
    assert Y244_DATA["E"].is_smooth()
    assert not ProjConic.from_coeffs(xx=1).is_smooth()


def test_dual_hesse_configuration():
    rep = dual_hesse_check()
    assert rep.passed
    assert rep.total_incidences == 36
    assert set(rep.point_degrees.values()) == {3}
    assert set(rep.line_degrees.values()) == {4}


def test_dual_hesse_check_matches_the_three_scans(monkeypatch):
    # the bundled configuration, then seeded perturbations of its points:
    # some moved onto another construction point, some to random coordinates
    assert dual_hesse_check() == three_scan_dual_hesse_check()
    rng = random.Random(0x4E55)
    entries = [0, 1, -1, 2, EPS, 1 - EPS]
    mismatches = []
    degrees = set()
    for _ in range(300):
        points = dict(Y333_POINTS)
        for name in rng.sample(sorted(points), rng.randint(1, 4)):
            if rng.random() < 0.5:
                points[name] = Y333_POINTS[rng.choice(sorted(Y333_POINTS))]
            else:
                coords = [rng.choice(entries) for _ in range(3)]
                if any(coords):
                    points[name] = ProjPoint(*coords)
        monkeypatch.setattr(sncalc.projective, "Y333_POINTS", points)
        rep = dual_hesse_check()
        if rep != three_scan_dual_hesse_check():
            mismatches.append(points)
        degrees |= {*rep.point_degrees.values(), *rep.line_degrees.values()}
    assert mismatches == []
    assert degrees - {3, 4} >= {0, 1, 2, 5}, degrees


def test_dual_hesse_check_evaluates_each_incidence_once(monkeypatch):
    calls = 0

    def counting(p, c):
        nonlocal calls
        calls += 1
        return incident(p, c)

    monkeypatch.setattr(sncalc.projective, "incident", counting)
    assert dual_hesse_check().passed
    assert calls == len(Y333_POINTS) * len(Y333_LINES) == 108


def _random_qe_matrix(rng, singular: bool):
    entries = [0, 1, -1, 2, -2, Fraction(1, 2), EPS, 1 - EPS]
    m = [[QuadExt.of(rng.choice(entries)) for _ in range(3)] for _ in range(2)]
    if singular:  # the third row a combination of the first two
        x, y = rng.choice(entries), rng.choice(entries)
        m.append([x * a + y * b for a, b in zip(*m)])
    else:
        m.append([QuadExt.of(rng.choice(entries)) for _ in range(3)])
    rng.shuffle(m)
    return m


def test_inverse_and_conic_push_match_the_cofactor_build():
    # entry by entry against the written-out cofactors and triple products,
    # the singular-matrix error included, and the determinant against its
    # six-term expansion
    rng = random.Random(0x3C0F)
    mismatches = []
    singular = 0
    for index in range(1200):
        m = _random_qe_matrix(rng, singular=index % 4 == 0)
        a = _random_qe_matrix(rng, singular=False)
        conic = ProjConic([[a[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)])
        if _det3(m) != six_term_det3(m):
            mismatches.append(("det", m))
        inverse = outcome(_mat_inv3, m)
        singular += isinstance(inverse, tuple)
        if inverse != outcome(cofactor_mat_inv3, m):
            mismatches.append(("inverse", m))
        pushed = outcome(push_conic, m, conic)
        old = outcome(triple_product_push_conic, m, conic)
        if getattr(pushed, "matrix", pushed) != getattr(old, "matrix", old):
            mismatches.append(("push", m, conic))
    assert mismatches == []
    assert singular > 300, singular


def test_incidence_mutation_sanity():
    # moving any point off itself must break one of its claimed incidences
    on_lines = {
        p: [l for l, pts in Y333_INCIDENCES.items() if p in pts]
        for p in Y333_POINTS
    }
    perturbed_cases = 0
    for pname, point in Y333_POINTS.items():
        for i in range(3):
            coords = list(point.coords)
            coords[i] = coords[i] + 1
            if not any(coords):
                continue
            moved = ProjPoint(tuple(coords))
            if proj_eq(moved, point):
                continue  # scaling a single-entry coordinate is a no-op
            assert any(
                not incident(moved, Y333_LINES[lname]) for lname in on_lines[pname]
            ), (pname, i)
            perturbed_cases += 1
    assert perturbed_cases >= 30


def test_automorphism_actions():
    rep = automorphism_action_check()
    assert rep.passed, rep.failed()
    assert len(rep.checks) >= 10


def _nonzero_scalar(rng: random.Random) -> QuadExt:
    while True:
        x = QuadExt(
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)) if rng.random() < 0.7 else 0,
        )
        if x:
            return x


def _entries(rng: random.Random, n: int) -> list[QuadExt]:
    """n scalars, not all zero, the first zero, one, two or more of them
    zero."""
    while True:
        v = [_scalar(rng) for _ in range(n)]
        lead = rng.choice((0, 0, 1, 2, n - 1))
        v[:lead] = [QuadExt(0)] * lead
        if any(v):
            return v


def _partner(rng: random.Random, v: list[QuadExt], fresh) -> tuple[str, list[QuadExt]]:
    """A copy of v scaled by a nonzero scalar, v with one entry changed (and
    its mirror, when v is a flattened symmetric matrix), or fresh(rng)."""
    r = rng.random()
    if r < 0.4:
        scale = _nonzero_scalar(rng)
        return "scaled", [x * scale for x in v]
    if r < 0.8:
        while True:
            w = list(v)
            i = rng.randrange(len(w))
            w[i] = (w[i] + _nonzero_scalar(rng)) if rng.random() < 0.7 else QuadExt(0)
            if len(w) == 9:
                w[3 * (i % 3) + i // 3] = w[i]
            if any(w):
                return "changed", w
    return "unrelated", fresh(rng)


def _symmetric(rng: random.Random) -> list[QuadExt]:
    a, b, c, d, e, f = _entries(rng, 6)
    return [a, b, c, b, d, e, c, e, f]


def test_scaled_equality_matches_the_minor_oracle():
    # `==` on the stored scaled entries against the vanishing minors of the
    # raw entries it replaced; equal values must hash equally
    rng = random.Random(0x5CA1E)
    seen: dict = {}
    for n in range(6000):
        kind = (ProjPoint, ProjLine)[n % 2]
        u = _entries(rng, 3)
        how, v = _partner(rng, u, lambda rng: _entries(rng, 3))
        p, q = kind(u), kind(v)
        stored = p.coords if kind is ProjPoint else p.coeffs
        assert next(x for x in stored if x) == 1
        assert minor_proj_eq(SimpleNamespace(coeffs=u), SimpleNamespace(coeffs=stored))
        want = minor_proj_eq(SimpleNamespace(coeffs=u), SimpleNamespace(coeffs=v))
        assert (p == q) is want and proj_eq(p, q) is want, (u, v)
        assert (p != q) is not want
        if want:
            assert hash(p) == hash(q)
        seen[how, want] = seen.get((how, want), 0) + 1
        seen["leading zero"] = seen.get("leading zero", 0) + (not u[0])
    for n in range(3000):
        a = _symmetric(rng)
        how, b = _partner(rng, a, _symmetric)
        c1, c2 = ProjConic([a[0:3], a[3:6], a[6:9]]), ProjConic([b[0:3], b[3:6], b[6:9]])
        want = minor_conics_proportional(c1, c2)
        assert conics_proportional(c1, c2) is want, (a, b)
        seen["conic", how, want] = seen.get(("conic", how, want), 0) + 1
    assert seen["scaled", True] >= 1000 and seen["leading zero"] >= 2000, seen
    assert seen["changed", False] >= 1000 and seen["unrelated", False] >= 500, seen
    assert seen["changed", True] >= 100, seen  # a change that only rescales
    assert seen["conic", "scaled", True] >= 1000 and seen["conic", "changed", False] >= 1000, seen
    # the zero matrix is no conic: proportional to itself only, where every
    # minor of the old test vanished
    zero, other = ProjConic([[0] * 3] * 3), Y244_DATA["E"]
    assert conics_proportional(zero, zero) and not conics_proportional(zero, other)
    assert minor_conics_proportional(zero, other)


def test_permutes_fails_for_a_map_that_moves_the_configuration(monkeypatch):
    # the dict lookup must miss an image that is not in the configuration;
    # the swap sends P3 to its conjugate, which is not one of the points
    permute_checks = (
        "order-3 map permutes the twelve points",
        "order-3 map permutes the nine lines",
    )
    monkeypatch.setattr(sncalc.projective, "ORDER_THREE", sncalc.projective.SWAP_P1_P2)
    failed = automorphism_action_check().failed()
    assert all(name in failed for name in permute_checks), failed
    # and must hit every object under a map that does permute it
    monkeypatch.setattr(sncalc.projective, "ORDER_THREE", sncalc.projective.IDENTITY)
    failed = automorphism_action_check().failed()
    assert not any(name in failed for name in permute_checks), failed
    assert "order-3 map cycles P1, P3, P2" in failed


def test_apply_matrix_identity():
    for p in Y333_POINTS.values():
        assert proj_eq(apply_matrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)), p), p)


def _random_entry(rng):
    # zero, or built from an int, a Fraction, two ints or two Fractions,
    # the Fractions over mixed denominators
    def frac():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 10)))

    kind = rng.randrange(6)
    if kind == 0:
        return QuadExt(0)
    if kind == 1:
        return QuadExt(rng.randint(-9, 9))
    if kind == 2:
        return QuadExt(frac())
    if kind == 3:
        return QuadExt(rng.randint(-9, 9), rng.randint(-9, 9))
    return QuadExt(frac(), frac())


def _random_vector(rng):
    v = [_random_entry(rng) for _ in range(3)]
    for i in range(rng.choice((0, 0, 1, 2, 3))):  # leading zeros, or all zero
        v[i] = QuadExt(0)
    return tuple(v)


def _flat(x):
    if x is None or isinstance(x, QuadExt):
        return [x]
    return [c for part in x for c in _flat(part)]


def _fields(c):
    return None if c is None else (c._a, c._b, c._d)


def test_fused_kernels_match_the_operator_build():
    # old-versus-new on 5,000 seeded inputs: the same canonical fields,
    # entry by entry, and every result canonical (d > 0, gcd(a, b, d) = 1)
    rng = random.Random(0xF05ED)
    mismatches, entries = [], 0
    for _ in range(5000):
        x, y = _random_vector(rng), _random_vector(rng)
        m1 = [_random_vector(rng) for _ in range(3)]
        m2 = [_random_vector(rng) for _ in range(3)]
        s, t = (rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-5, 5), 3),
                            _random_entry(rng))) for _ in range(2))
        for name, new, old in (
            ("dot", _dot(x, y), operator_dot(x, y)),
            ("mat_vec", _mat_vec(m1, x), operator_mat_vec(m1, x)),
            ("cross", _cross(x, y), operator_cross(x, y)),
            ("pencil", _pencil(s, m1, t, m2), operator_pencil(s, m1, t, m2)),
            ("scaled", _scaled(x), operator_scaled(x)),
        ):
            new = _flat(new)
            if list(map(_fields, new)) != list(map(_fields, _flat(old))):
                mismatches.append((name, x, y, m1, m2, s, t))
            for c in new:
                if c is not None:
                    entries += 1
                    if c._d <= 0 or gcd(c._a, c._b, c._d) != 1:
                        mismatches.append(("not canonical", name, _fields(c)))
    assert mismatches == []
    assert entries > 5000 * 15


@pytest.mark.parametrize(
    "m",
    [
        ((1, 0, 0, 5), (0, 1, 0), (0, 0, 1)),  # a fourth entry a zip would drop
        ((1, 0), (0, 1, 0), (0, 0, 1)),  # a short row
        ((1, 0, 0), (0, 1, 0)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)),
    ],
)
def test_projectivities_must_be_3x3(m):
    with pytest.raises(ValueError, match="projectivity matrix must be 3x3"):
        apply_matrix(m, ProjPoint(1, 2, 3))
    with pytest.raises(ValueError, match="projectivity matrix must be 3x3"):
        push_conic(m, Y244_DATA["E"])
