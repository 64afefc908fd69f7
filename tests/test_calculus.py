import os
import random
import subprocess
import sys
from collections import Counter
from itertools import permutations
from dataclasses import replace
from fractions import Fraction

import pytest

import sncalc
from helpers import (
    count_graph_reads,
    dense_bark,
    dense_bark_component,
    dense_is_admissible_chain_or_fork,
    matrix_bark_chain,
    matrix_chain_d,
    matrix_chain_invariants,
    outcome,
    random_admissible_fork,
    random_tree,
    time_limit,
)
from sncalc import calculus, linalg
from sncalc.calculus import (
    BoundaryTag,
    BoundaryType,
    ChainInvariants,
    _continuants,
    bark,
    bark_chain,
    chain_invariants,
    classify_boundary,
    det_branch_formula,
    det_join_formula,
    discriminant,
    kobayashi_check,
    sharp,
)
from sncalc.errors import InvariantError, NonAdmissibleError, NonTreeError, NotMinimalError
from sncalc.casetable import load_cases
from sncalc.graphs import Chain, DualGraph, QDivisor, build_fork, maximal_twigs
from sncalc.linalg import is_negative_definite
from sncalc.surgery import FiberGraph, fiber_multiplicities

chain = DualGraph.from_chain_weights


def test_discriminant_examples():
    assert discriminant(DualGraph((), frozenset())) == 1
    assert discriminant(chain([-2])) == 2
    assert discriminant(chain([-2, -2, -2])) == 4
    assert discriminant(chain([-3])) == 3
    assert discriminant(chain([-6])) == 6
    assert discriminant(build_fork(-1, [(3,), (3,), (3,)])) == 0


def test_discriminant_restricted_support():
    g = chain([-2, -1, -2])
    assert discriminant(g, ["v1", "v3"]) == 4
    assert discriminant(g, []) == 1
    with pytest.raises(KeyError):
        discriminant(g, ["ghost"])


def test_branch_formula_examples():
    assert det_branch_formula(chain([-2]), "v1") == 2
    assert det_branch_formula(build_fork(-1, [(3,), (3,), (3,)]), "B") == 0
    assert det_branch_formula(build_fork(-1, [(2,), (4,), (4,)]), "B") == 0


def test_branch_formula_rejects_non_trees():
    two = DualGraph.build([("a", -2), ("b", -2)], [])
    with pytest.raises(NonTreeError):
        det_branch_formula(two, "a")


def test_join_formula_examples():
    assert det_join_formula(chain([-2, -2]), ["v1"], ["v2"]) == 3
    assert det_join_formula(chain([-2, -2, -2]), ["v1", "v2"], ["v3"]) == 4
    assert det_join_formula(chain([-1, -1]), ["v1"], ["v2"]) == 0


def test_join_formula_validates_partition():
    g = chain([-2, -2, -2])
    with pytest.raises(ValueError, match="partition"):
        det_join_formula(g, ["v1"], ["v2"])
    with pytest.raises(ValueError, match="exactly 1"):
        det_join_formula(g, ["v1", "v3"], ["v2"])


def test_determinant_recursions_match_direct():
    rng = random.Random(0x2741)
    for _ in range(150):
        g = random_tree(rng, max_vertices=12)
        d = discriminant(g)
        v = rng.choice(g.ids)
        assert det_branch_formula(g, v) == d
        if g.edges:
            a, b = rng.choice(sorted(g.edges))
            keep = set()
            stack = [a]
            while stack:
                u = stack.pop()
                if u in keep:
                    continue
                keep.add(u)
                stack.extend(w for w in g.neighbors(u) if w != b and w not in keep)
            other = [u for u in g.ids if u not in keep]
            assert det_join_formula(g, sorted(keep), other) == d


@pytest.mark.parametrize(
    "bracket,d,d_prime,e,e_tilde,delta",
    [
        ([2], 2, 1, "1/2", "1/2", "1/2"),
        ([2, 2, 2], 4, 3, "3/4", "3/4", "1/4"),
        ([3, 2], 5, 2, "2/5", "3/5", "1/5"),
    ],
)
def test_chain_invariant_examples(bracket, d, d_prime, e, e_tilde, delta):
    ci = chain_invariants(Chain.from_bracket(bracket))
    assert (ci.d, ci.d_prime) == (d, d_prime)
    assert ci.e == Fraction(e) and ci.e_tilde == Fraction(e_tilde)
    assert ci.delta == Fraction(delta)


def test_chain_invariants_reject_non_admissible():
    with pytest.raises(NonAdmissibleError):
        chain_invariants(Chain.from_bracket([2, 1, 2]))


def test_chain_invariant_identities():
    rng = random.Random(0xC4A)
    for _ in range(200):
        bracket = [rng.randint(2, 6) for _ in range(rng.randint(1, 6))]
        ci = chain_invariants(Chain.from_bracket(bracket))
        assert 0 < ci.delta <= ci.e < 1
        assert ci.d >= len(bracket) + 1
        if ci.d == len(bracket) + 1:
            assert all(b == 2 for b in bracket)
        rev = chain_invariants(Chain.from_bracket(bracket[::-1]))
        assert ci.e_tilde == rev.e and ci.d == rev.d
    for k in range(1, 7):
        ci = chain_invariants(Chain.from_bracket([2] * k))
        assert ci.e == Fraction(k, k + 1)


def test_continuants_match_the_matrix_oracle():
    # old-versus-new on seeded chains, half of them admissible, and the empty
    # chain: every prefix discriminant, the invariants and the bark, with
    # identical values and identical errors
    rng = random.Random(0xC0471)
    chains = [Chain.from_bracket([])]
    for index in range(3000):
        top = -2 if index % 2 else 3
        weights = [rng.randint(-6, top) for _ in range(rng.randint(0, 10))]
        chains.append(Chain.from_bracket([-w for w in weights]))
    mismatches = []
    for ch in chains:
        w = ch.chain_weights
        if _continuants(w) != [matrix_chain_d(w[:k]) for k in range(len(w) + 1)]:
            mismatches.append(("continuants", ch.bracket))
        if outcome(chain_invariants, ch) != outcome(matrix_chain_invariants, ch):
            mismatches.append(("chain_invariants", ch.bracket))
        if outcome(bark_chain, ch) != outcome(matrix_bark_chain, ch):
            mismatches.append(("bark_chain", ch.bracket))
    assert mismatches == []
    admissible = [ch for ch in chains if ch.is_admissible() and len(ch)]
    assert len(admissible) > 1400 and len(chains) - len(admissible) > 1400
    assert chain_invariants(chains[0]) == ChainInvariants(1, 1, 1, 1, 1)
    assert outcome(bark_chain, chains[0]) == (ValueError, "right-hand side has wrong length")


def test_chain_checks_raise_under_optimization():
    # a corrupted recurrence must trip the reversal check and the bark check
    # even with -O; shifting the first weight breaks the chain's symmetry
    code = (
        "import sncalc.calculus as ca\n"
        "from sncalc.errors import InvariantError\n"
        "from sncalc.graphs import Chain\n"
        "real = ca._continuants\n"
        "def corrupted(weights):\n"
        "    return real([weights[0] - 1, *weights[1:]])\n"
        "ch = Chain.from_bracket([2, 3])\n"
        "print(ca.chain_invariants(ch).d, sorted(ca.bark_chain(ch).coeffs.values()))\n"
        "ca._continuants = corrupted\n"
        "for f in (ca.chain_invariants, ca.bark_chain):\n"
        "    try:\n"
        "        f(ch)\n"
        "    except InvariantError as exc:\n"
        "        print('InvariantError:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sncalc.__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "5 [Fraction(1, 5), Fraction(3, 5)]",
        "InvariantError: chain [2, 3]: d changes under reversal",
        "InvariantError: bark equation at 'r2' fails",
    ]


def test_long_chain_invariants_take_linear_time():
    # a dense determinant of a 1,200-vertex chain is cubic and takes far
    # longer than the limit; the recurrence is one pass each way
    ch = Chain.from_bracket([2] * 1200)
    with time_limit(1):
        ci = chain_invariants(ch)
        bk = bark_chain(ch)
    e = Fraction(1200, 1201)
    assert ci == ChainInvariants(1201, 1200, e, e, Fraction(1, 1201))
    assert [bk[v] for v in ch.ids] == [Fraction(1200 - i, 1201) for i in range(1200)]


def test_bark_whole_component_examples():
    b = bark(chain([-2]))
    assert b["v1"] == 1
    b2 = bark(chain([-2, -3]))  # admissible chain gets a full-component bark
    g = chain([-2, -3])
    q = g.intersection_matrix()
    for i, v in enumerate(g.ids):
        lhs = sum(q[i][j] * b2[g.ids[j]] for j in range(2))
        assert lhs == g.degree(v) - 2


def test_chain_component_barks_match_the_dense_solve():
    # old-versus-new: a whole admissible chain's bark is the sum of the two
    # chain barks; several components, shuffled vertex order, lone vertices
    rng = random.Random(0xBC4)
    mismatches = []
    singles = 0
    for _ in range(300):
        verts, edges = [], []
        for c in range(rng.randint(1, 4)):
            ids = [f"c{c}_{i}" for i in range(rng.randint(1, 15))]
            verts += [(v, -rng.randint(2, 5)) for v in ids]
            edges += list(zip(ids, ids[1:]))
        rng.shuffle(verts)
        g = DualGraph.build(verts, edges)
        expected = {}
        for comp in g.components():
            expected.update(dense_bark_component(g, comp, True))
            singles += len(comp) == 1
        if list(bark(g).coeffs.items()) != list(expected.items()):
            mismatches.append(g)
    assert mismatches == []
    assert singles > 30


# twigs of discriminant 2..5, as brackets; (2, 2, n), (2, 3, 3), (2, 3, 4)
# and (2, 3, 5) make the forks with sum delta > 1: D_n, E_6, E_7 and E_8 when
# every weight is -2
TWIGS_OF_D = {3: [[3], [2, 2]], 4: [[4], [2, 2, 2]], 5: [[5], [2, 2, 2, 2], [2, 3], [3, 2]]}


def random_twig(rng, longest=9):
    """A twig bracket of 1..longest entries, mostly 2."""
    n = rng.randint(1, longest)
    return [2 if rng.random() < 0.8 else rng.randint(3, 5) for _ in range(n)]


def fork_brackets(rng):
    """Three twig brackets, mostly an admissible fork and else a near miss."""
    shape = rng.choice(["D", "D", "E6", "E7", "E8", "near"])
    if shape == "D":
        brackets = [[2], [2], random_twig(rng)]
    elif shape == "near":  # sum delta <= 1 unless the twigs happen to be short
        brackets = [random_twig(rng) for _ in range(3)]
    else:
        third = TWIGS_OF_D[{"E6": 3, "E7": 4, "E8": 5}[shape]]
        brackets = [[2], rng.choice(TWIGS_OF_D[3]), rng.choice(third)]
    rng.shuffle(brackets)
    return brackets


def fork_component(name, branch_weight, brackets):
    """Vertices and edges of a vertex <name>b with one twig per bracket."""
    verts, edges = [(f"{name}b", branch_weight)], []
    for i, bracket in enumerate(brackets):
        ids = [f"{name}t{i}_{j}" for j in range(len(bracket))]  # tip first
        verts += [(v, -b) for v, b in zip(ids, bracket)]
        edges += [*zip(ids, ids[1:]), (ids[-1], f"{name}b")]
    return verts, edges


def tree_component(rng, name):
    """A random tree whose twigs are admissible but now and then broken by a
    weight of 0..2; branching vertices take any weight from -4 to 1."""
    n = rng.randint(1, 14)
    parent = [rng.randrange(i) for i in range(1, n)]
    degree = [(i > 0) + parent.count(i) for i in range(n)]
    verts = []
    for i in range(n):
        if degree[i] > 2:
            w = rng.randint(-4, 1)
        else:
            w = rng.randint(0, 2) if rng.random() < 0.02 else rng.randint(-5, -2)
        verts.append((f"{name}{i}", w))
    return verts, [(f"{name}{i + 1}", f"{name}{p}") for i, p in enumerate(parent)]


def h_component(rng, name):
    """Two degree-3 vertices joined by a chain, each with two short twigs."""
    verts, edges = [], []
    for side in "lr":
        brackets = [random_twig(rng, 3), random_twig(rng, 3)]
        part = fork_component(name + side, rng.randint(-4, -1), brackets)
        verts += part[0]
        edges += part[1]
    link = [f"{name}m{j}" for j in range(rng.randint(0, 3))]
    path = [f"{name}lb", *link, f"{name}rb"]
    verts += [(v, -rng.randint(2, 4)) for v in link]
    return verts, edges + list(zip(path, path[1:]))


def chain_component(rng, name):
    weights = [-rng.randint(2, 5) for _ in range(rng.randint(1, 8))]
    if rng.random() < 0.4:  # non-admissible chain
        weights[rng.randrange(len(weights))] = rng.randint(0, 3)
    ids = [f"{name}{i}" for i in range(len(weights))]
    return list(zip(ids, weights)), list(zip(ids, ids[1:]))


def seeded_bark_forests(seed, count, kinds):
    """Forests of 1..4 components of the given kinds, vertices shuffled."""
    rng = random.Random(seed)
    forests = []
    for _ in range(count):
        verts, edges = [], []
        for c in range(rng.randint(1, 4)):
            kind = rng.choice(kinds)
            if kind == "fork":
                part = fork_component(f"f{c}", -rng.randint(2, 5), fork_brackets(rng))
            else:
                make = {"tree": tree_component, "h": h_component, "chain": chain_component}
                part = make[kind](rng, f"{kind}{c}_")
            verts += part[0]
            edges += part[1]
        rng.shuffle(verts)
        forests.append(DualGraph.build(verts, edges))
    return forests


def bark_items(g):
    return list(bark(g).coeffs.items())


def dense_bark_items(g):
    return list(dense_bark(g).coeffs.items())


def component_kind(g, comp):
    branching = sum(g.degree(v) > 2 for v in comp)
    if dense_is_admissible_chain_or_fork(g, comp):
        return "admissible fork" if branching else "admissible chain"
    if not branching:
        return "non-admissible chain"
    if branching > 1:
        return "H shape" if comp[0].startswith("h") else "several branching"
    if all(g.weight(v) <= -2 for v in comp):
        return "sum delta <= 1"
    return "weight above -2"


def test_barks_match_the_dense_solves():
    # old-versus-new on seeded forests of admissible forks, near-miss forks,
    # twig-route trees, H shapes and chains in shuffled vertex order: the
    # same coefficients in the same order, or the same error
    forests = seeded_bark_forests(0xBA5C, 2400, ["fork", "fork", "fork", "tree", "h", "chain"])
    mismatches, tally = [], Counter()
    for g in forests:
        expected = outcome(dense_bark_items, g)
        if outcome(bark_items, g) != expected:
            mismatches.append(g)
        if isinstance(expected, tuple):
            tally[expected[0].__name__] += 1
            continue
        comps = g.components()
        tally.update(component_kind(g, comp) for comp in comps)
        tally["several components"] += len(comps) > 1
    assert mismatches == []
    assert tally["admissible fork"] >= 2000, tally
    for kind in ("admissible chain", "non-admissible chain", "sum delta <= 1",
                 "weight above -2", "H shape", "several branching", "NonAdmissibleError"):
        assert tally[kind] >= 50, (kind, tally)
    assert tally["several components"] >= 1000, tally


def test_admissible_forks_are_negative_definite():
    # the oracle behind dropping the definiteness test: all weights <= -2 and
    # sum delta > 1 force w_b + sum e_tilde < 0, and d(fork) is
    # d_1 d_2 d_3 (-w_b - sum e_tilde)
    rng = random.Random(0xF0C)
    admissible = 0
    for _ in range(3000):
        w_b, brackets = -rng.randint(2, 5), fork_brackets(rng)
        inv = [chain_invariants(Chain.from_bracket(b)) for b in brackets]
        if sum(ci.delta for ci in inv) <= 1:
            continue
        admissible += 1
        g = build_fork(w_b, brackets)
        den = w_b + sum(ci.e_tilde for ci in inv)
        assert den < 0
        assert discriminant(g) == -den * inv[0].d * inv[1].d * inv[2].d
        assert is_negative_definite(g.intersection_matrix())
    assert admissible > 2000


def test_bark_builds_no_matrix_and_no_subgraph(monkeypatch):
    forests = seeded_bark_forests(0x6A2D, 300, ["fork", "tree", "h", "chain"])
    expected = [outcome(dense_bark_items, g) for g in forests]

    def refuse(*args, **kwargs):
        raise AssertionError("bark must not build a matrix, solve, subgraph or chain graph")

    monkeypatch.setattr(linalg, "solve_rational", refuse)
    monkeypatch.setattr(linalg, "is_negative_definite", refuse)
    monkeypatch.setattr(calculus, "_leaf_pass", refuse)
    monkeypatch.setattr(DualGraph, "intersection_matrix", refuse)
    monkeypatch.setattr(DualGraph, "subgraph", refuse)
    monkeypatch.setattr(Chain, "to_graph", refuse)
    assert [outcome(bark_items, g) for g in forests] == expected


def test_fork_with_a_denominator_above_zero_is_refused(monkeypatch):
    # w_b + sum e_tilde < 0 is the fork's negative definiteness; a corrupted
    # e_tilde that breaks it must not pass for an admissible fork
    real = calculus.chain_invariants
    monkeypatch.setattr(
        calculus, "chain_invariants", lambda ch: replace(real(ch), e_tilde=Fraction(1))
    )
    with pytest.raises(InvariantError, match="admissible fork at 'B' has d <= 0"):
        bark(build_fork(-2, [[2], [2], [3]]))


def test_bark_check_raises_under_optimization():
    # a perturbed chain bark passes its own check but not the bark equations
    # of the whole component, on each of the three routes and even with -O
    code = (
        "import sncalc.calculus as ca\n"
        "from sncalc.errors import InvariantError\n"
        "from sncalc.graphs import DualGraph, build_fork\n"
        "real = ca._chain_bark\n"
        "def perturbed(ch):\n"
        "    numerators, d = real(ch)\n"
        "    scaled = [7 * x for x in numerators]\n"
        "    scaled[0] += d  # the tip coefficient plus 1/7\n"
        "    return scaled, 7 * d\n"
        "ca._chain_bark = perturbed\n"
        "for g in (DualGraph.from_chain_weights([-2, -3]), build_fork(-2, [[2], [2], [3]]),\n"
        "          build_fork(-1, [[2], [3], [2, 2]])):\n"
        "    try:\n"
        "        ca.bark(g)\n"
        "    except InvariantError as exc:\n"
        "        print('InvariantError:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sncalc.__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "InvariantError: bark equation at 'v1' fails",
        "InvariantError: bark equation at 'B' fails",
        "InvariantError: bark equation at 'T1_1' fails",
    ]


def two_vertex_chains(n):
    return DualGraph.build(
        [(f"c{c}{end}", -2) for c in range(n) for end in "ab"],
        [(f"c{c}a", f"c{c}b") for c in range(n)],
    )


@pytest.mark.parametrize("shape", ["fork, long twig", "D_1203", "2,400 chains"])
def test_barks_take_linear_time(shape):
    # a dense twig or fork solve is cubic in the long twig, and a subgraph
    # per component quadratic in the number of components
    g = {
        "fork, long twig": build_fork(-1, [[2] * 1200, [2], [2]]),
        "D_1203": build_fork(-2, [[2] * 1200, [2], [2]]),
        "2,400 chains": two_vertex_chains(2400),
    }[shape]
    with time_limit(1):
        bk = bark(g)
    if shape == "fork, long twig":  # one chain bark per twig, none on B
        expected = {f"T1_{i + 1}": Fraction(1200 - i, 1201) for i in range(1200)}
        expected.update(T2_1=Fraction(1, 2), T3_1=Fraction(1, 2))
    else:  # on a (-2)-form Q x = deg - 2 is x = 1
        expected = dict.fromkeys(g.ids, 1)
    assert bk == QDivisor(g, expected)


@pytest.mark.parametrize(
    "routine, n",
    [
        (discriminant, 1200),
        (classify_boundary, 1200),
        (bark, 600),
        (discriminant, 4800),
        (classify_boundary, 4800),
    ],
)
def test_long_chain_forms_take_linear_time(routine, n):
    # a (-2)-chain's form is read by leaf elimination over the graph, with
    # no cubic pass and no dense matrix (which alone took seconds at 4,800),
    # and its bark Q x = (-1, 0, ..., 0, -1) is x = 1 from the two chain barks
    g = chain([-2] * n)
    with time_limit(1):
        result = routine(g)
    expected = {
        "discriminant": n + 1,
        "classify_boundary": BoundaryType(BoundaryTag.NEGATIVE_DEFINITE),
        "bark": QDivisor(g, dict.fromkeys(g.ids, 1)),
    }
    assert result == expected[routine.__name__]


def test_bark_twig_examples():
    g = build_fork(-1, [(2,), (2, 2, 2), (2, 2, 2)])
    bk = bark(g)
    assert bk["T1_1"] == Fraction(1, 2)
    assert (bk["T2_1"], bk["T2_2"], bk["T2_3"]) == (
        Fraction(3, 4),
        Fraction(1, 2),
        Fraction(1, 4),
    )
    assert bk["B"] == 0


def coeff_tuple(divisor, ch):
    return tuple(divisor[v] for v in ch.ids)


def test_bark_chain_examples():
    ch = Chain.from_bracket([2])
    assert coeff_tuple(bark_chain(ch), ch) == (Fraction(1, 2),)
    ch = Chain.from_bracket([2, 2])
    assert coeff_tuple(bark_chain(ch), ch) == (Fraction(2, 3), Fraction(1, 3))
    ch = Chain.from_bracket([3])
    assert coeff_tuple(bark_chain(ch), ch) == (Fraction(1, 3),)
    # the tip equation and the interior equations hold exactly
    ch = Chain.from_bracket([2, 3, 2])
    bk = bark_chain(ch)
    g = ch.to_graph()
    q = g.intersection_matrix(ch.ids)
    prods = [
        sum(q[i][j] * bk[ch.ids[j]] for j in range(len(ch))) for i in range(len(ch))
    ]
    assert prods == [-1, 0, 0]
    with pytest.raises(NonAdmissibleError):
        bark_chain(Chain.from_bracket([1, 2]))


def test_bark_errors():
    with pytest.raises(NonAdmissibleError):
        bark(build_fork(-1, [(2,), (2,), (0, 2)]))  # non-admissible twig
    with pytest.raises(NotMinimalError):
        bark(chain([-2, -1, -2]))  # contractible (-1) inside
    tri = DualGraph.build(
        [("a", -2), ("b", -2), ("c", -2)], [("a", "b"), ("b", "c"), ("a", "c")]
    )
    with pytest.raises(NonTreeError):
        bark(tri)


def test_bark_random_fork_properties():
    rng = random.Random(0xBA2)
    for _ in range(60):
        g = random_admissible_fork(rng)
        bk = bark(g)
        support = bk.support()
        assert support  # admissible twigs always contribute
        for v in g.ids:
            assert 0 <= bk[v] <= 1
        # defining equations have residual exactly zero, recomputed from
        # adjunction rather than through the solver's own right-hand side
        q = g.intersection_matrix()
        ids = list(g.ids)
        for i, v in enumerate(ids):
            if v not in support:
                continue
            k_dot = -2 - g.weight(v)
            d_dot = g.weight(v) + g.degree(v)
            bk_dot = sum(q[i][j] * bk[ids[j]] for j in range(len(ids)))
            assert k_dot + d_dot - bk_dot == 0
        assert is_negative_definite(g.intersection_matrix(support))


def test_bark_zero_is_not_negative_definite_edge():
    # a single 0-curve has empty bark; nothing to test for definiteness
    assert bark(chain([0])).coeffs == {}


def test_sharp_examples():
    assert sharp(chain([-2])).coeffs == {}
    assert sharp(chain([0]))["v1"] == 1
    g = build_fork(-1, [(2,), (2, 2, 2), (2, 2, 2)])
    sp = sharp(g)
    assert sp["B"] == 1
    assert sp["T1_1"] == Fraction(1, 2)
    assert sp["T2_1"] == Fraction(1, 4)


def test_classify_boundary_shapes():
    assert classify_boundary(chain([-2, -2, -2])).tag is BoundaryTag.NEGATIVE_DEFINITE
    x = build_fork(0, [(2,)] * 4)
    assert classify_boundary(x).tag is BoundaryTag.TYPE_X
    x1 = build_fork(-1, [(2,)] * 4)
    assert classify_boundary(x1).tag is BoundaryTag.TYPE_X
    y = classify_boundary(build_fork(-1, [(2, 2)] * 3))
    assert y.tag is BoundaryTag.TYPE_Y and y.triple == (3, 3, 3)
    y2 = classify_boundary(build_fork(-1, [(2,), (2, 2, 2), (2, 2, 2)]))
    assert y2.triple == (2, 4, 4)
    h = DualGraph.build(
        [("b1", -1), ("b2", -3), ("l", -2), ("d1", -2), ("r", -2), ("d2", -2), ("m", -2)],
        [("l", "b1"), ("d1", "b1"), ("b1", "m"), ("m", "b2"), ("b2", "r"), ("b2", "d2")],
    )
    assert classify_boundary(h).tag is BoundaryTag.TYPE_H
    # a fork whose twig deltas do not sum to 1 is Other
    other = build_fork(0, [(2,), (2,), (3, 3)])
    assert classify_boundary(other).tag is BoundaryTag.OTHER
    assert classify_boundary(chain([0])).tag is BoundaryTag.OTHER


def test_classify_boundary_requires_connected():
    g = DualGraph.build([("a", -2), ("b", -2)], [])
    with pytest.raises(ValueError):
        classify_boundary(g)


def test_classify_negative_definite_wins_over_pattern():
    # an X-shaped graph with a -3 center is negative definite and reported so
    g = build_fork(-3, [(2,)] * 4)
    assert classify_boundary(g).tag is BoundaryTag.NEGATIVE_DEFINITE


def test_kobayashi_examples():
    ok, slack = kobayashi_check(0, [2], Fraction(0))
    assert ok and slack == Fraction(1, 2)
    ok, slack = kobayashi_check(0, [3], Fraction(0))
    assert ok and slack == Fraction(1, 3)
    ok, slack = kobayashi_check(-1, [2], Fraction(0))
    assert not ok and slack == Fraction(-1, 2)
    with pytest.raises(ValueError):
        kobayashi_check(0, [1], Fraction(0))


def _growth_families(n):
    """Three forests on n vertices: a chain of (-2)s, a fork with twigs
    (-2), (-2) and a chain of (-2)s, and a comb, a spine of (-3)s with a
    (-2) tip on each of its vertices (n even)."""
    ids = [f"v{i}" for i in range(n)]
    fork = DualGraph.build(
        [(v, -2) for v in ids],
        [("v0", "v1"), ("v0", "v2"), ("v0", "v3")] + list(zip(ids[3:], ids[4:])),
    )
    spine, tips = ids[: n // 2], ids[n // 2 :]
    comb = DualGraph.build(
        [(v, -3) for v in spine] + [(v, -2) for v in tips],
        list(zip(spine, spine[1:])) + list(zip(spine, tips)),
    )
    return {"chain": chain([-2] * n), "fork": fork, "comb": comb}


_LAYERS = {
    "leaf pass": lambda g: (discriminant(g), classify_boundary(g)),
    "bark": bark,
    "maximal_twigs": maximal_twigs,
    "intersection_matrix": DualGraph.intersection_matrix,
}


@pytest.mark.parametrize("layer", list(_LAYERS))
def test_linear_layers_read_each_graph_a_linear_number_of_times(layer):
    # the graph data a layer reads, counted exactly: one per adjacency lookup
    # plus the neighbours it returns, and one per vertex entry iterated, so
    # n for each `ids` tuple or weight mapping actually built and for each
    # scan of the vertices.  On each family at n, 2n and 4n vertices the
    # count doubles with n; a rescan of the vertices per vertex, or a pass
    # over a dense matrix, would make it grow as n^2
    counts = Counter()
    for n in (200, 400, 800):
        for family, g in _growth_families(n).items():
            if layer == "maximal_twigs" and family == "chain":
                continue  # a chain has no twigs of its own
            reads = count_graph_reads(g)
            _LAYERS[layer](g)
            counts[family, n] = reads.total()
    for family, n in list(counts):
        if n < 800:
            assert 0 < counts[family, 2 * n] <= 2.05 * counts[family, n], counts


def _case_table_graphs() -> list[DualGraph]:
    """Fresh copies of the case table's forks and f_infty graphs."""
    out = []
    for case in load_cases()["cases"]:
        g = build_fork(case["branch_weight"], case["twigs"])
        out.append(g)
        if case.get("ruling"):
            out.append(g.subgraph(list(case["ruling"]["f_infty"])))
    return out


def test_kept_folds_answer_as_fresh_graphs(monkeypatch):
    # a graph keeps the fold of its whole support, which discriminant,
    # classify_boundary and fiber_multiplicities share: asked in every order
    # on the case table's forks and f_infty graphs, with a discriminant on a
    # smaller support among them, they answer as each does on a fresh graph,
    # and each graph folds its whole support once
    questions = {
        "discriminant": discriminant,
        "classify": classify_boundary,
        "fiber": fiber_multiplicities,
        "support": lambda g: discriminant(g, g.ids[1:]),
    }
    expected = [
        {name: outcome(ask, g) for name, ask, g in zip(questions, questions.values(), fresh)}
        for fresh in zip(*(_case_table_graphs() for _ in questions))
    ]
    folds = []
    real = calculus._subtree_minors

    def counted(diagonal, adj):
        folds.append(len(diagonal))
        return real(diagonal, adj)

    monkeypatch.setattr(calculus, "_subtree_minors", counted)
    mismatches, whole = [], Counter()
    for order in permutations(questions):
        for g, answers in zip(_case_table_graphs(), expected):
            folds.clear()
            for name in order:
                if outcome(questions[name], g) != answers[name]:
                    mismatches.append((order, g, name))
            whole[folds.count(len(g))] += 1
    assert mismatches == []
    assert whole == {1: 24 * len(expected)}
    assert sum(isinstance(a["fiber"], FiberGraph) for a in expected) == 10
