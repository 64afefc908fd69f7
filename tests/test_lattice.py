import contextlib
import io
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import ceil, floor, log2

import pytest

import helpers
import sncalc
import sncalc.lattice
import sncalc.scenarios
from helpers import (
    all_pairs_extract_boundary_graph,
    bench_workloads,
    chain_program,
    dense_ruling_decompose,
    dense_run_program,
    fraction_integer_range,
    merge_vertical_groups,
    outcome,
    recursive_solve_curve_class,
    time_limit,
)
from sncalc.cli import main
from sncalc.errors import (
    ExcessIntersectionError,
    GraphParseError,
    InvariantError,
    LatticeError,
    UnderconstrainedError,
)
from sncalc.lattice import (
    SurfaceLattice,
    euler_numbers,
    extract_boundary_graph,
    h1_order,
    k_plus_sharp_class,
    parse_arrangement,
    ruling_decompose,
    run_program,
    solve_curve_class,
    _chain_center,
    _definite_center,
    _dot,
)
from sncalc.linalg import _back_substitute, _bareiss, solve_rational


def lat_of(text):
    return run_program(parse_arrangement(text))


def test_single_line_no_blowups():
    lat = lat_of("curve L degree=1\n")
    assert lat.rank == 1
    assert lat.class_of("L") == (1,)
    assert lat.pair("L", "L") == 1
    assert lat.pair("K", "K") == 9


def test_line_blown_up_once():
    lat = lat_of("curve L degree=1\nblowup E at L\n")
    assert lat.class_of("L") == (1, -1)
    assert lat.pair("L", "L") == 0
    assert lat.class_of("E") == (0, 1)
    assert lat.pair("E", "E") == -1
    assert lat.pair("K", "K") == 8


def test_free_center_blowup():
    lat = lat_of("curve L degree=1\nblowup E\n")
    assert lat.pair("L", "L") == 1
    assert lat.pair("L", "E") == 0


def test_parse_errors():
    with pytest.raises(GraphParseError, match="degree"):
        parse_arrangement("curve L degree=x\n")
    with pytest.raises(GraphParseError, match="already declared"):
        parse_arrangement("curve L degree=1\ncurve L degree=1\n")
    with pytest.raises(GraphParseError, match="unknown curve"):
        parse_arrangement("curve L degree=1\nblowup E at M\n")
    with pytest.raises(GraphParseError, match="twice"):
        parse_arrangement("curve L degree=1\nblowup E at L,L\n")
    with pytest.raises(GraphParseError, match="unknown directive"):
        parse_arrangement("squiggle\n")


def test_the_canonical_class_name_is_reserved():
    # a curve named K would shadow the canonical class: after `curve K
    # degree=1` and `blowup E at K`, pair('K', 'K') gave 8 rather than 0
    for text, lineno in (
        ("curve K degree=1\nblowup E at K\n", 1),
        ("curve L degree=1\n\nblowup K at L\n", 3),
        ("curve L degree=1\nblowup K\n", 2),
    ):
        with pytest.raises(GraphParseError, match="canonical class") as exc:
            parse_arrangement(text)
        assert exc.value.lineno == lineno
    lat = lat_of("curve L degree=1\nblowup E at L\n")
    with pytest.raises(LatticeError, match="canonical class"):
        lat.register("K", (0, 1))
    assert lat.pair("K", "K") == 8


def test_degree_three_rejected():
    with pytest.raises(LatticeError, match="degree"):
        lat_of("curve C degree=3\n")


def test_excess_intersection_error():
    # two lines meet once; a second blow-up on their intersection is excess
    text = "curve A degree=1\ncurve B degree=1\nblowup E1 at A,B\nblowup E2 at A,B\n"
    with pytest.raises(ExcessIntersectionError):
        lat_of(text)


def test_register_validity():
    lat = lat_of("curve L degree=1\nblowup E at L\n")
    lat.register("M", (0, 1))  # wait: E already is (0,1); name differs, fine
    with pytest.raises(LatticeError, match="already in use"):
        lat.register("M", (0, 1))
    with pytest.raises(LatticeError, match="adjunction"):
        lat.register("bad", (1, 1))
    with pytest.raises(LatticeError, match="length"):
        lat.register("short", (1,))


def test_pair_unknown_name():
    lat = lat_of("curve L degree=1\n")
    with pytest.raises(KeyError):
        lat.pair("L", "nope")


def test_extract_boundary_graph_rejects_non_snc():
    lat = lat_of("curve A degree=2\ncurve B degree=2\n")
    with pytest.raises(LatticeError, match="snc"):
        extract_boundary_graph(lat, ["A", "B"])  # two conics pair to 4


def test_euler_numbers():
    lat = lat_of("curve L degree=1\n")
    assert euler_numbers(lat, [], []) == (3, 0, 0, 3)
    with pytest.raises(LatticeError, match="overlap"):
        euler_numbers(lat, ["L"], ["L"])


def test_h1_trivial_for_unimodular_boundary():
    lat = lat_of("curve L degree=1\nblowup E at L\n")
    assert h1_order(lat, ["L", "E"]).is_trivial
    assert h1_order(lat, []).is_trivial


def test_k_plus_sharp_negative_case():
    lat = lat_of("curve L degree=1\nblowup E at L\n")
    assert k_plus_sharp_class(lat, ["E"]) == (Fraction(-3), Fraction(2))


def test_solve_curve_class_no_solutions():
    lat = lat_of("curve L degree=1\nblowup E at L\n")
    # fully pinned: orthogonal to the whole basis forces the zero vector,
    # which fails adjunction
    constraints = [((1, 0), 0), ((0, 1), 0)]
    assert solve_curve_class(lat, constraints, -1) == []


def test_solve_curve_class_finds_exceptional_curves():
    lat = lat_of("curve L degree=1\nblowup E1 at L\nblowup E2 at L\n")
    found = solve_curve_class(lat, [("L", 0), ((0, 1, 0), 1)], 0)
    # the pencil member through the first center, uniquely
    assert found == [(1, -1, 0)]


def test_solve_curve_class_underconstrained():
    # nine blow-ups make K isotropic; K-orthogonal directions then carry a
    # degenerate form and the enumeration must refuse
    steps = ["curve L degree=1"] + [f"blowup E{i} at L" for i in range(1, 10)]
    lat = lat_of("\n".join(steps) + "\n")
    assert lat.pair("K", "K") == 0
    with pytest.raises(UnderconstrainedError) as exc:
        solve_curve_class(lat, [], -1)
    assert exc.value.free_directions


def test_ruling_decompose_rejects_non_fiber_class():
    lat = lat_of("curve L degree=1\nblowup E at L\n")
    with pytest.raises(LatticeError, match="fiber class"):
        ruling_decompose(lat, (1, 0), ["L", "E"], ["L"])


# a line with three successive infinitely-near blow-ups along it: the
# pencil of lines through the first center carries a [2,1,2] fiber
_TOWER = (
    "curve A degree=1\n"
    "blowup E1 at A\n"
    "blowup E2 at A,E1\n"
    "blowup E3 at A,E2\n"
)


def test_ruling_decompose_trivial_and_partial():
    lat = lat_of(_TOWER)
    f = (1, -1, 0, 0)
    assert lat.pair(f, f) == 0 and lat.pair(f, "K") == -2
    dec = ruling_decompose(lat, f, [], [])
    assert dec.fibers == () and dec.horizontal == ()
    assert dec.bookkeeping.sigma_excess == 0
    # partial naming: E2 alone does not sum to the fiber class
    dec = ruling_decompose(lat, f, ["E2"], [])
    piece = dec.fibers[0]
    assert not piece.complete
    assert piece.residual == (1, -1, -1, 1)
    # complete naming reproduces the [2,1,2] multiplicities
    dec = ruling_decompose(lat, f, ["A", "E1", "E2", "E3"], ["A"])
    piece = dec.fibers[0]
    assert dict(zip(piece.names, piece.multiplicities)) == {"A": 1, "E3": 2, "E2": 1}
    assert not piece.in_boundary and piece.sigma == 2
    assert dec.horizontal == (("E1", 1),)
    # completely named fibers satisfy the count identity
    from sncalc.surgery import fujita_check

    assert fujita_check(dec.bookkeeping)


def test_ruling_decompose_disconnected_pieces_stay_separate():
    # naming the two end components but not the middle one must yield two
    # incomplete pieces, never invented connectivity
    lat = lat_of(_TOWER)
    f = (1, -1, 0, 0)
    dec = ruling_decompose(lat, f, ["A", "E2"], [])
    assert len(dec.fibers) == 2
    assert all(not p.complete for p in dec.fibers)


def test_a_repeated_vertical_name_forms_its_own_group():
    # the union-find is keyed by position, so the two copies of an isolated
    # curve stay two pieces, as in the name-keyed merge
    lat = lat_of(_TOWER)
    f = (1, -1, 0, 0)
    dec = ruling_decompose(lat, f, ["E2", "E2"], [])
    groups = [list(p.names) for p in dec.fibers]
    assert groups == [["E2"], ["E2"]] == merge_vertical_groups(lat, ["E2", "E2"], ["E2", "E2"])
    assert all(not p.complete for p in dec.fibers)


def test_integer_range_matches_its_definition():
    # the integers t with (t - c)^2 <= r, by brute force around c; one bound
    # in three is the square of a distance to an integer, so both ends of
    # the range are hit exactly
    rng = random.Random(0x1E6)
    for index in range(6000):
        c = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        if index % 3 == 0:
            r = (rng.randint(-15, 15) + floor(c) - c) ** 2
        else:
            r = Fraction(rng.randint(-10, 200), rng.randint(1, 12))
        lo, hi = fraction_integer_range(c, r)
        expected = [t for t in range(floor(c) - 20, ceil(c) + 21) if (t - c) ** 2 <= r]
        assert list(range(lo, hi + 1)) == expected, (c, r)


def _outcome(solve, *args):
    """A solver's result, or its error as (type, message, free directions)."""
    try:
        return solve(*args)
    except Exception as exc:  # compared between the solvers, not handled
        return type(exc), str(exc), getattr(exc, "free_directions", None)


@pytest.fixture(scope="module")
def curve_class_calls():
    """(lattice, constraints, self_sq, oracle outcome, candidates the oracle
    tried) for the accepted programs of the benchmark's lattice workload,
    seeds 7-9, under three constraint sets; every call of `verify all`; and
    the no-solution and underconstrained cases above."""
    calls = []
    tried = 0
    real_range = helpers.fraction_integer_range

    def counting_range(center, sq_bound):
        nonlocal tried
        lo, hi = real_range(center, sq_bound)
        tried += max(0, hi - lo + 1)
        return lo, hi

    def record(lat, constraints, self_sq):
        nonlocal tried
        constraints = list(constraints)
        tried = 0
        outcome = _outcome(recursive_solve_curve_class, lat, constraints, self_sq)
        calls.append((lat, constraints, self_sq, outcome, tried))

    def recording(lat, constraints, self_sq):
        record(lat, constraints, self_sq)
        return real_solve(lat, constraints, self_sq)

    workload = bench_workloads().WORKLOADS["lattice"]
    real_solve = sncalc.scenarios.solve_curve_class
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(helpers, "fraction_integer_range", counting_range)
        for seed in (7, 8, 9):
            for index in range(200):
                item = workload.make(seed, index)
                if not item.accept:
                    continue
                lat = lat_of(item.text)
                fiber = (1, -1) + (0,) * (lat.rank - 2)
                for p_value, self_sq in ((0, -1), (1, -1), (0, -2)):
                    record(lat, [(fiber, 0), ("P", p_value)], self_sq)
        mp.setattr(sncalc.scenarios, "solve_curve_class", recording)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "all"]) == 0
        record(lat_of("curve L degree=1\nblowup E at L\n"), [((1, 0), 0), ((0, 1), 0)], -1)
        record(
            lat_of("curve L degree=1\nblowup E1 at L\nblowup E2 at L\n"),
            [("L", 0), ((0, 1, 0), 1)],
            0,
        )
        steps = ["curve L degree=1"] + [f"blowup E{i} at L" for i in range(1, 10)]
        record(lat_of("\n".join(steps) + "\n"), [], -1)
    return calls


def test_curve_class_walk_matches_the_recursive_oracle(curve_class_calls):
    # old-versus-new: identical classes in the same order, identical errors
    mismatches = [
        (lat.names(), constraints, self_sq)
        for lat, constraints, self_sq, outcome, _ in curve_class_calls
        if _outcome(solve_curve_class, lat, constraints, self_sq) != outcome
    ]
    assert mismatches == []
    outcomes = [call[3] for call in curve_class_calls]
    assert sum(1 for o in outcomes if isinstance(o, list) and o) > 1000
    assert [o[0] for o in outcomes if isinstance(o, tuple)] == [UnderconstrainedError]


def test_augmented_bareiss_center_matches_the_two_passes(curve_class_calls):
    # old-versus-new: one Bareiss pass over [M | lin] against the definiteness
    # pass over M and the solve of M c = lin it replaced (verdict, Bareiss
    # rows and center), on the form of the integer solve's own basis for
    # every call of the fixture (the benchmark's seed 7-9 programs and the
    # y244 and y333 curves of `verify all`), rebuilt here as the walk built
    # it before it moved to successive differences, and on 1,000 seeded
    # integer Gram forms, half of them A'A + I and half symmetric with free
    # entries, which are mostly not definite
    systems = []
    real_solve = sncalc.lattice.solve_integer

    def recording(a, b):
        sol = real_solve(a, b)
        if sol is not None and sol[1]:
            x0, basis = sol
            systems.append(
                ([[-_dot(bi, bj) for bj in basis] for bi in basis], [_dot(x0, bi) for bi in basis])
            )
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sncalc.lattice, "solve_integer", recording)
        for lat, constraints, self_sq, _, _ in curve_class_calls:
            _outcome(solve_curve_class, lat, constraints, self_sq)
    from_calls = len(systems)
    rng = random.Random(0xCE27)
    for index in range(1000):
        k = rng.randint(1, 6)
        if index % 2:
            a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
            m = [
                [sum(row[i] * row[j] for row in a) + (i == j) for j in range(k)]
                for i in range(k)
            ]
        else:
            m = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + 1):
                    m[i][j] = m[j][i] = rng.randint(-4, 6)
        systems.append((m, [rng.randint(-9, 9) for _ in range(k)]))
    mismatches, seen = [], Counter()
    for m, lin in systems:
        rows = [row[:] for row in m]
        verdict = _bareiss(rows, definite=True)[0] > 0
        got = _definite_center(m, lin)
        seen[verdict] += 1
        if got is None:
            if verdict:
                mismatches.append(("verdict", m, lin))
            continue
        b, y, d = got
        k = len(m)
        center = [Fraction(x, d) for x in y]
        if not verdict or [row[:k] for row in b] != rows or center != solve_rational(m, lin):
            mismatches.append(("center", m, lin))
    assert mismatches == []
    assert from_calls > 1000 and seen[True] > 1500 and seen[False] > 300, (from_calls, seen)


def test_chain_center_matches_the_bareiss_pass(curve_class_calls):
    # old-versus-new: the continuants of a tridiagonal form against one dense
    # Bareiss pass over [M | lin] (verdict, each Bareiss row from its
    # diagonal on, and center), on every chain form that the fixture's
    # calls build and on 1,000 seeded tridiagonal forms, half of them
    # L L' + I for a lower bidiagonal L, so definite, and half with free
    # entries, mostly not definite
    systems = []
    real_center = sncalc.lattice._chain_center

    def recording(m, lin):
        systems.append(([dict(row) for row in m], lin[:]))
        return real_center(m, lin)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sncalc.lattice, "_chain_center", recording)
        for lat, constraints, self_sq, _, _ in curve_class_calls:
            _outcome(solve_curve_class, lat, constraints, self_sq)
    from_calls = len(systems)
    rng = random.Random(0xC4A1)
    for index in range(1000):
        k = rng.randint(1, 8)
        if index % 2:
            diag = [rng.randint(-3, 3) for _ in range(k)]
            sub = [0] + [rng.randint(-3, 3) for _ in range(k - 1)]
            main = [d * d + s * s + 1 for d, s in zip(diag, sub)]
            off = [0] + [sub[i] * diag[i - 1] for i in range(1, k)]  # m_(i-1,i)
        else:
            main = [rng.randint(-2, 6) for _ in range(k)]
            off = [0] + [rng.randint(-4, 4) for _ in range(k - 1)]
        m = [{i: main[i]} for i in range(k)]
        for i in range(1, k):
            if off[i]:
                m[i][i - 1] = m[i - 1][i] = off[i]
        systems.append((m, [rng.randint(-9, 9) for _ in range(k)]))
    mismatches, seen = [], Counter()
    for m, lin in systems:
        k = len(m)
        old = _definite_center([[row.get(j, 0) for j in range(k)] for row in m], lin)
        new = _chain_center(m, lin)
        seen[old is not None] += 1
        if (old is None) != (new is None):
            mismatches.append(("verdict", m, lin))
        elif old is not None:
            (b, y, d), (bands, chain_y, det) = old, new
            if [row[i:k] for i, row in enumerate(b)] != [
                (band + [0] * k)[: k - i] for i, band in enumerate(bands)
            ]:
                mismatches.append(("rows", m, lin))
            if [Fraction(x, det) for x in chain_y] != [Fraction(x, d) for x in y]:
                mismatches.append(("center", m, lin))
    assert mismatches == []
    assert from_calls > 1000 and seen[True] > 1500 and seen[False] > 300, (from_calls, seen)


def test_a_wrong_center_raises(monkeypatch):
    # the center is re-checked as M c = lin, so a corrupted back-substitution
    # raises rather than shifting the ellipsoid
    def off_by_one(a, pivots, col, value):
        y, d = _back_substitute(a, pivots, col, value)
        y[0] += 1
        return y, d

    monkeypatch.setattr(sncalc.lattice, "_back_substitute", off_by_one)
    with pytest.raises(InvariantError, match="center check failed"):
        _definite_center([[2, 1], [1, 2]], [1, 5])


def test_a_wrong_chain_center_raises():
    # the continuant back-substitution divides exactly and its center is
    # re-checked as M y = det(M) lin: rows that are not symmetric, which no
    # Gram form has, trip the division and the check
    with pytest.raises(InvariantError, match="division is not exact"):
        _chain_center([{0: 3, 1: 1}, {0: 2, 1: 2}], [1, 0])
    with pytest.raises(InvariantError, match="center check failed"):
        _chain_center([{0: 2, 1: 1}, {0: 3, 1: 5}], [1, 0])
    assert _chain_center([{0: 2, 1: 1}, {0: 1, 1: 2}], [1, 5]) == ([[2, 1], [3, 0]], [-3, 9], 3)


def test_candidate_cap_counts_every_tried_coefficient(curve_class_calls, monkeypatch):
    # the walk tries the same coefficients as the recursion did, one cap unit
    # each, and like it raises on the cap-th: a call that tries n candidates
    # raises with the cap at n and returns with it at n + 1
    checked = total = 0
    for lat, constraints, self_sq, outcome, tried in curve_class_calls:
        if not isinstance(outcome, list) or not tried:
            continue
        monkeypatch.setattr(sncalc.lattice, "_CANDIDATE_CAP", tried)
        with pytest.raises(LatticeError) as exc:
            solve_curve_class(lat, constraints, self_sq)
        assert str(exc.value) == "curve-class enumeration exceeded the candidate cap"
        monkeypatch.setattr(sncalc.lattice, "_CANDIDATE_CAP", tried + 1)
        assert solve_curve_class(lat, constraints, self_sq) == outcome
        checked += 1
        total += tried
    assert checked > 1000 and total > 50000


def test_curve_class_check_raises_under_optimization():
    # a corrupted walk must trip the returned-class check even with -O
    code = (
        "import sncalc.lattice as la\n"
        "from sncalc.errors import InvariantError\n"
        "real = la._ellipsoid_points\n"
        "def corrupted(*args):\n"
        "    points = real(*args)\n"
        "    points[0][0] += 7\n"
        "    return points\n"
        "text = 'curve A degree=1\\ncurve B degree=1\\ncurve C degree=1\\n'\n"
        "text += 'blowup P at A,B,C\\nblowup Q at A\\nblowup R at B\\n'\n"
        "lat = la.run_program(la.parse_arrangement(text))\n"
        "constraints = [((1, -1, 0, 0), 0), ('P', 0)]\n"
        "print(la.solve_curve_class(lat, constraints, -1))\n"
        "la._ellipsoid_points = corrupted\n"
        "try:\n"
        "    la.solve_curve_class(lat, constraints, -1)\n"
        "except InvariantError as exc:\n"
        "    print('InvariantError:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sncalc.__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "[(0, 0, 0, 1), (0, 0, 1, 0)]",
        "InvariantError: curve class check failed",
    ]


def test_union_find_groups_match_the_merge_oracle():
    # old-versus-new on the accepted programs of the benchmark's lattice
    # workload, seeds 7-9: the pencil's vertical curves group identically
    # with the names in the given order, shuffled, and as shuffled subsets
    workload = bench_workloads().WORKLOADS["lattice"]
    rng = random.Random(0x6A0)
    mismatches, largest = [], []
    for seed in (7, 8, 9):
        for index in range(200):
            item = workload.make(seed, index)
            if not item.accept:
                continue
            lat = lat_of(item.text)
            fiber = (1, -1) + (0,) * (lat.rank - 2)
            names = list(item.data["names"])
            for variant in range(4):
                if variant:
                    rng.shuffle(names)
                chosen = names if variant < 2 else rng.sample(names, rng.randint(1, len(names)))
                vertical = [n for n in chosen if lat.pair(n, fiber) == 0]
                dec = ruling_decompose(lat, fiber, chosen, [])
                groups = [list(p.names) for p in dec.fibers]
                if groups != merge_vertical_groups(lat, chosen, vertical):
                    mismatches.append((seed, index, chosen))
                largest.append(max(map(len, groups), default=0))
    assert mismatches == []
    assert len(largest) > 1500 and sum(1 for k in largest if k > 1) > 1000


def test_ruling_pairs_the_fiber_with_sparse_classes(monkeypatch):
    # each curve meets the fiber through its sparse class, so the ruling
    # resolves only the fiber class (for F.F and F.K), however many curves
    # it is given, and finds the degrees that dense pairings give
    workload = bench_workloads().WORKLOADS["lattice"]
    resolved = 0
    real = SurfaceLattice.resolve

    def counting(self, obj):
        nonlocal resolved
        resolved += 1
        return real(self, obj)

    checked = 0
    for index in range(120):
        item = workload.make(7, index)
        if not item.accept:
            continue
        lat = lat_of(item.text)
        fiber = (1, -1) + (0,) * (lat.rank - 2)
        names = item.data["names"]
        expected = [(n, d) for n in names if (d := lat.pair(n, fiber)) > 0]
        with monkeypatch.context() as mp:
            mp.setattr(SurfaceLattice, "resolve", counting)
            resolved = 0
            dec = ruling_decompose(lat, fiber, names, [])
        assert resolved == 5 and list(dec.horizontal) == expected
        checked += 1
    assert checked == 90


def test_register_refuses_entries_that_are_not_integers():
    # int() would truncate each of these to a valid class: (1, 0) is a line
    lat = lat_of("curve L degree=1\nblowup E at L\n")
    for vec in ((1, Fraction(1, 2)), (1.9, 0), (Fraction(3, 2), Fraction(-1, 2))):
        with pytest.raises(LatticeError, match="is not an integer"):
            lat.register("X", vec)
    assert "X" not in lat.names()
    lat.register("M", (Fraction(0), 1.0))  # integral values of any type are fine
    assert lat.class_of("M") == (0, 1)
    with pytest.raises(LatticeError, match="is not an integer"):
        solve_curve_class(lat, [("L", Fraction(1, 2))], -1)


# every program text of this module, for the side-by-side test below, and
# one with a line and a conic meeting twice (its line was named K until the
# parser reserved that name for the canonical class)
_MODULE_PROGRAMS = (
    "curve J degree=1\ncurve M degree=2\nblowup E at J,M\nblowup F at J\n",
    "curve L degree=1\n",
    "curve L degree=1\nblowup E at L\n",
    "curve L degree=1\nblowup E\n",
    "curve C degree=3\n",
    "curve A degree=1\ncurve B degree=1\nblowup E1 at A,B\nblowup E2 at A,B\n",
    "curve A degree=2\ncurve B degree=2\n",
    "curve L degree=1\nblowup E1 at L\nblowup E2 at L\n",
    "\n".join(["curve L degree=1"] + [f"blowup E{i} at L" for i in range(1, 10)]) + "\n",
    _TOWER,
    "curve A degree=1\ncurve B degree=1\ncurve C degree=1\n"
    "blowup P at A,B,C\nblowup Q at A\nblowup R at B\n",
)


def _name_lists(names, rng):
    """Name lists for the extraction: in order, shuffled, reversed, with
    repeats, with 'K' and with an unknown name, each error at a different
    place in the scan."""
    shuffled = rng.sample(names, len(names))
    return [
        names,
        shuffled,
        names[::-1],
        names[:2] * 2,
        names[:3] + ["K"] + names[3:],
        shuffled[:4] + ["nope"] + shuffled[4:],
        ["K"],
        [],
    ]


def _sparse_matches_dense(text, name_lists, seen, gram=True):
    """Run a program both ways and count what the oracle gave in `seen`:
    the same classes, pairings (with 'K' too) and, for each name list, the
    same graph or error.  Returns the mismatches."""
    program = parse_arrangement(text)
    new, old = outcome(run_program, program), outcome(dense_run_program, program)
    if isinstance(old, tuple):
        seen[old[0].__name__] += 1
        return [] if new == old else [("run", old, new)]
    if isinstance(new, tuple):
        return [("run", "ok", new)]
    names = list(old.classes)
    bad = []
    if list(new.names()) != names or any(new.class_of(a) != old.classes[a] for a in names):
        bad.append(("classes",))
    if gram:
        every = names + ["K"]
        bad += [("pair", a, b) for a in every for b in every if new.pair(a, b) != old.pair(a, b)]
    for chosen in name_lists(names):
        expected = outcome(all_pairs_extract_boundary_graph, old, chosen)
        seen[expected[0].__name__ if isinstance(expected, tuple) else "graph"] += 1
        if outcome(extract_boundary_graph, new, chosen) != expected:
            bad.append(("graph", chosen))
    return bad


def test_sparse_lattice_matches_the_dense_oracle():
    # old-versus-new on the chain family, the two scenario programs, the
    # benchmark's seed-5 lattice programs (150 of the 600 raise) and the
    # programs of this module: classes, Gram values, graphs, error types and
    # messages; on the chain family the full Gram is compared up to 64
    # blow-ups
    rng = random.Random(0x5A7)
    seen = Counter()
    mismatches = []
    for n in (1, 2, 3, 5, 8, 16, 32, 64, 128, 256):
        chain = ["L"] + [f"E{i}" for i in range(n)]
        mismatches += _sparse_matches_dense(
            chain_program(n), lambda names: [chain, names], seen, gram=n <= 64
        )
    for name in ("y244", "y333"):
        text = sncalc.scenarios._fixture_text(f"{name}.arr")
        mismatches += _sparse_matches_dense(text, lambda names: _name_lists(names, rng), seen)
    workload = bench_workloads().WORKLOADS["lattice"]
    for index in range(600):
        item = workload.make(5, index)
        mismatches += _sparse_matches_dense(
            item.text, lambda names: [item.data["boundary"], *_name_lists(names, rng)], seen
        )
    for text in _MODULE_PROGRAMS:
        mismatches += _sparse_matches_dense(text, lambda names: _name_lists(names, rng), seen)
    assert mismatches == []
    # every route of the extraction ran: graphs, pairings other than 0 and
    # 1, cycles, unknown names and repeated ones
    least = {"graph": 2000, "LatticeError": 500, "KeyError": 300, "ValueError": 50}
    assert all(seen[kind] > count for kind, count in least.items()), seen
    assert seen["NonTreeError"] > 10 and seen["ExcessIntersectionError"] == 151, seen


def test_pairing_products_grow_linearly_with_the_program(monkeypatch):
    # each coefficient product of a pairing helper is counted; a dense class
    # re-checked after every step and all-pairs extraction make the count
    # cubic in the number of blow-ups, a sparse incremental lattice linear
    products = 0

    def counting(real):
        def pairing(a, b):
            nonlocal products
            products += min(len(a), len(b))
            return real(a, b)

        return pairing

    for name in ("_dot", "_sparse_dot"):
        monkeypatch.setattr(sncalc.lattice, name, counting(getattr(sncalc.lattice, name)))
    counts = {}
    for n in (128, 256, 512):
        products = 0
        lat = run_program(parse_arrangement(chain_program(n)))
        extract_boundary_graph(lat, ["L"] + [f"E{i}" for i in range(n)])
        counts[n] = products
    for n in (128, 256):
        assert counts[2 * n] <= 2 * counts[n] * log2(2 * n) / log2(n), counts


def test_run_program_takes_near_linear_time():
    # 512 infinitely near blow-ups: re-checking every dense class after
    # every step takes several seconds
    program = parse_arrangement(chain_program(512))
    with time_limit(1):
        lat = run_program(program)
    assert lat.rank == 513 and lat.pair("K", "K") == 9 - 512


def test_boundary_extraction_takes_near_linear_time():
    # pairing every two of 513 dense classes takes several seconds
    lat = run_program(parse_arrangement(chain_program(512)))
    names = ["L"] + [f"E{i}" for i in range(512)]
    with time_limit(1):
        g = extract_boundary_graph(lat, names)
    assert g.weights == {"L": 0, **{f"E{i}": -2 for i in range(511)}, "E511": -1}
    assert len(g.edges) == 512 and g.is_forest()


def test_ruling_groups_solved_on_their_support_match_the_dense_solve():
    # old-versus-new, exactly: every ruling of 1,200 seed-11 lattice ops and
    # of `verify all`, and on a third of those lattices the rulings H - e_k
    # of every position k (often with curves that pair negatively or pieces
    # left incomplete), shuffled subsets of the names, the names with
    # repeats (dependent groups) and a class registered to solve to
    # multiplicities that are not positive integers: the same FiberPiece
    # tuples, bookkeeping, error types and messages
    calls = []
    real = sncalc.lattice.ruling_decompose

    def recording(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sncalc.lattice, "ruling_decompose", recording)
        mp.setattr(sncalc.scenarios, "ruling_decompose", recording)
        workload = bench_workloads().WORKLOADS["lattice"]
        for index in range(1200):
            item = workload.make(11, index)
            assert workload.check(item, workload.run(item)) is None
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "all"]) == 0
    assert len(calls) == 900 + 5
    rng = random.Random(0x5F1)
    variants = []
    for lat, _, names, _ in calls[:900:3]:
        names = list(names)
        for k in range(1, lat.rank):
            fiber = [1] + [0] * (lat.rank - 1)
            fiber[k] = -1
            variants.append((lat, tuple(fiber), names, []))
        chosen = rng.sample(names, rng.randint(1, len(names)))
        variants.append((lat, (1, -1) + (0,) * (lat.rank - 2), chosen, []))
        variants.append((lat, (1, -1) + (0,) * (lat.rank - 2), names + chosen[:2], []))
    lat = lat_of(_TOWER)
    lat.register("X", (-2, 2, -1, 2))
    for names in (["A", "E3", "X"], ["E2", "E3", "X"], ["E2", "X"]):
        variants.append((lat, (1, -1, 0, 0), names, []))
    seen = Counter()
    mismatches = []
    for args in calls + variants:
        new, old = outcome(ruling_decompose, *args), outcome(dense_ruling_decompose, *args)
        if new != old:
            mismatches.append(args[1:])
        if isinstance(old, tuple):
            seen[next(w for w in ("dependent", "multiplicities", "class") if w in old[1])] += 1
        else:
            seen["complete"] += sum(p.complete for p in old.fibers)
            seen["incomplete"] += sum(not p.complete for p in old.fibers)
    assert mismatches == []
    assert seen["incomplete"] > 1000 and seen["complete"] > 5000, seen
    assert seen["dependent"] > 100 and seen["class"] > 500 and seen["multiplicities"] == 2, seen


def test_chain_boundary_torsion_hands_no_entry_to_dense_elimination(monkeypatch):
    # the boundary L, E0, ..., E(n-2) of the chain program peels to nothing,
    # so no matrix entry reaches a dense kernel; without the peel the count
    # grows as n^2
    entries = 0

    def counting(real):
        def kernel(a, *args, **kwargs):
            nonlocal entries
            entries += sum(map(len, a))
            return real(a, *args, **kwargs)

        return kernel

    for name in ("_bareiss", "_diagonalise"):
        monkeypatch.setattr(sncalc.linalg, name, counting(getattr(sncalc.linalg, name)))
    for n in (128, 256, 512):
        lat = run_program(parse_arrangement(chain_program(n)))
        assert h1_order(lat, ["L"] + [f"E{i}" for i in range(n - 1)]).is_trivial
    assert entries == 0


def _chain_query(n):
    """The chain program with n blow-ups, the (-1)-classes orthogonal to
    H - E0 and E0 found on it, and the closed form of their list: H - E0 -
    E1 and E2, ..., E(n-1)."""
    lat = run_program(parse_arrangement(chain_program(n)))
    units = [tuple(int(r == x) for r in range(n + 1)) for x in range(3, n + 1)]
    expected = sorted([(1, -1, -1) + (0,) * (n - 2)] + units)
    return lat, [((1, -1) + (0,) * (n - 1), 0), ("E0", 0)], expected


def test_chain_curve_classes_and_h1_build_no_dense_matrix(monkeypatch):
    # the differences of the chain's basis have a tridiagonal form, whose
    # continuants hand no entry to a Bareiss pass, and H1 hands the sparse
    # classes to the peel; the dense form of the solve's basis handed n^2
    # entries to `_bareiss`, and H1 built a dense class per boundary name
    entries = built = 0

    def counting(real):
        def kernel(a, *args, **kwargs):
            nonlocal entries
            entries += sum(map(len, a))
            return real(a, *args, **kwargs)

        return kernel

    def class_of(self, name):
        nonlocal built
        built += 1
        return real_class_of(self, name)

    real_class_of = SurfaceLattice.class_of
    for module in (sncalc.linalg, sncalc.lattice):
        monkeypatch.setattr(module, "_bareiss", counting(module._bareiss))
    for n in (128, 256, 512):
        lat, constraints, expected = _chain_query(n)
        assert solve_curve_class(lat, constraints, -1) == expected
        with monkeypatch.context() as mp:
            mp.setattr(SurfaceLattice, "class_of", class_of)
            assert h1_order(lat, ["L"] + [f"E{i}" for i in range(n - 1)]).is_trivial
    assert (entries, built) == (0, 0)


def test_chain_curve_classes_take_near_quadratic_time():
    # 512 infinitely near blow-ups: 130,815 candidates for 511 classes of 513
    # coordinates; the dense Bareiss pass and dense shifts took about 6 s
    lat, constraints, expected = _chain_query(512)
    with time_limit(2):
        found = solve_curve_class(lat, constraints, -1)
    assert found == expected


def _seeded_program(rng):
    """Lines and conics, then up to 11 blow-ups at one, two or three of the
    curves so far or at a free point; many exhaust an intersection."""
    names = [f"C{i}" for i in range(rng.randint(2, 5))]
    steps = [f"curve {name} degree={rng.choice((1, 1, 2))}" for name in names]
    for k in range(rng.randint(1, 11)):
        if rng.random() < 0.3:
            steps.append(f"blowup E{k}")
        else:
            centers = rng.sample(names, min(len(names), rng.choice((1, 1, 1, 2, 2, 3))))
            steps.append(f"blowup E{k} at {','.join(centers)}")
        names.append(f"E{k}")
    return "\n".join(steps) + "\n"


def test_curve_classes_on_forms_that_are_not_chains_match_the_recursive_oracle(monkeypatch):
    # old-versus-new on seeded programs whose difference forms are not
    # tridiagonal, so the walk takes the dense Bareiss pass: the same classes
    # in the same order, the same errors with the same free directions, and
    # the same candidates tried, one cap unit each
    rng = random.Random(0x5EED)
    real_center = sncalc.lattice._definite_center
    dense = 0

    def recording(m, lin):
        nonlocal dense
        dense += 1
        return real_center(m, lin)

    tried = 0
    real_range = helpers.fraction_integer_range
    cap = sncalc.lattice._CANDIDATE_CAP

    def counting_range(center, sq_bound):
        nonlocal tried
        lo, hi = real_range(center, sq_bound)
        tried += max(0, hi - lo + 1)
        return lo, hi

    monkeypatch.setattr(sncalc.lattice, "_definite_center", recording)
    monkeypatch.setattr(helpers, "fraction_integer_range", counting_range)
    seen, mismatches = Counter(), []
    while seen["dense"] < 200:
        try:
            lat = lat_of(_seeded_program(rng))
        except ExcessIntersectionError:
            continue
        constraints = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                key = rng.choice(lat.names())
            else:
                key = tuple(rng.randint(-1, 1) for _ in range(lat.rank))
            constraints.append((key, rng.randint(-1, 1)))
        for self_sq in (-1, -2):
            before = dense
            new = _outcome(solve_curve_class, lat, constraints, self_sq)
            if dense == before:
                continue
            tried = 0
            old = _outcome(recursive_solve_curve_class, lat, constraints, self_sq)
            seen["dense"] += 1
            kind = "error" if isinstance(old, tuple) else "found" if old else "none"
            seen[kind] += 1
            if new != old:
                mismatches.append((lat.names(), constraints, self_sq))
            elif isinstance(old, list) and tried:
                monkeypatch.setattr(sncalc.lattice, "_CANDIDATE_CAP", tried)
                capped = _outcome(solve_curve_class, lat, constraints, self_sq)
                monkeypatch.setattr(sncalc.lattice, "_CANDIDATE_CAP", tried + 1)
                if capped[:1] != (LatticeError,) or _outcome(
                    solve_curve_class, lat, constraints, self_sq
                ) != old:
                    mismatches.append(("cap", lat.names(), constraints, self_sq))
                monkeypatch.setattr(sncalc.lattice, "_CANDIDATE_CAP", cap)
    assert mismatches == []
    assert seen["found"] > 100 and seen["none"] > 20 and seen["error"] > 5, seen
