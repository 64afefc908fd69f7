import os
import random
import subprocess
import sys
from itertools import combinations
from math import gcd

import pytest

from helpers import (
    backtracking_fiber_search,
    bench_workloads,
    canonical_degree,
    kernel_fiber_multiplicities,
    matrix_discriminant,
    outcome,
    random_tree,
    two_branch_blowup_graph,
)
import sncalc
import sncalc.surgery
from sncalc.calculus import discriminant
from sncalc.errors import InvariantError, NotAFiberError
from sncalc.graphs import DualGraph, canonical_form, parse_graph
from sncalc.linalg import det_exact, kernel_basis
from sncalc.surgery import (
    FiberGraph,
    RulingBookkeeping,
    blowup_graph,
    contract_minus_one,
    fiber_multiplicities,
    fujita_check,
    is_valid_fiber,
    unique_minus_one_checks,
)

chain = DualGraph.from_chain_weights


def test_blowup_sprouting():
    g = blowup_graph(chain([0]), "v1")
    assert sorted(g.weights.values()) == [-1, -1]
    assert len(g.edges) == 1


def test_blowup_subdivisional():
    g = blowup_graph(chain([-1, -1]), ("v1", "v2"), new_id="m")
    assert g.weights == {"v1": -2, "v2": -2, "m": -1}
    assert g.has_edge("v1", "m") and g.has_edge("m", "v2") and not g.has_edge("v1", "v2")


def test_blowup_errors():
    g = chain([-2, -2])
    with pytest.raises(KeyError):
        blowup_graph(g, "ghost")
    with pytest.raises(KeyError):
        blowup_graph(g, ("v1", "ghost"))
    with pytest.raises(ValueError, match="taken"):
        blowup_graph(g, "v1", new_id="v2")


def test_blowup_matches_the_two_branch_build():
    # every vertex and edge of seeded trees as the center, edges in both
    # orders, and centers that are no vertex or no edge; the new id left to
    # the fresh-id search (half the trees already use e1, e2, ...), fresh,
    # or taken.  Same graph, repr included, or the same error and message.
    rng = random.Random(0xB10)
    mismatches = []
    errors = 0
    for index in range(400):
        g = random_tree(rng, 9)
        if index % 2:
            names = dict(zip(g.ids, (f"e{k}" for k in rng.sample(range(1, len(g) + 2), len(g)))))
            g = DualGraph.build(
                [(names[v], w) for v, w in g.vertices], [(names[a], names[b]) for a, b in g.edges]
            )
        ids = g.ids
        non_edges = [(a, b) for a, b in combinations(ids, 2) if not g.has_edge(a, b)]
        centers = [
            *ids, *sorted(g.edges), *[(b, a) for a, b in sorted(g.edges)],
            "ghost", (ids[0], "ghost"), (ids[0],), (ids[0], ids[0]), tuple(ids[:3]),
            *rng.sample(non_edges, min(3, len(non_edges))),
        ]
        for center in centers:
            for new_id in (None, "fresh", rng.choice(ids)):
                new = outcome(blowup_graph, g, center, new_id)
                old = outcome(two_branch_blowup_graph, g, center, new_id)
                errors += isinstance(new, tuple)
                if new != old or repr(new) != repr(old):
                    mismatches.append((g, center, new_id))
    assert mismatches == []
    assert errors > 2000, errors


def test_contract_examples():
    assert sorted(contract_minus_one(chain([-2, -1, -2]), "v2").weights.values()) == [-1, -1]
    assert len(contract_minus_one(chain([-1]), "v1")) == 0
    g = contract_minus_one(chain([-2, -1]), "v2")
    assert list(g.weights.values()) == [-1]


def test_contract_errors():
    with pytest.raises(ValueError, match="weight"):
        contract_minus_one(chain([-2, -1]), "v1")
    star = DualGraph.build(
        [("c", -1), ("a", -2), ("b", -2), ("d", -2)],
        [("c", "a"), ("c", "b"), ("c", "d")],
    )
    with pytest.raises(ValueError, match="snc"):
        contract_minus_one(star, "c")
    tri = DualGraph.build(
        [("a", -1), ("b", -1), ("c", -1)], [("a", "b"), ("b", "c"), ("a", "c")]
    )
    with pytest.raises(ValueError, match="neighbors already meet"):
        contract_minus_one(tri, "a")


def test_discriminant_invariant_under_blowup():
    rng = random.Random(0xB10)
    for _ in range(250):
        g = random_tree(rng, max_vertices=10, weights=(-4, 1))
        d = discriminant(g)
        if rng.random() < 0.5 or not g.edges:
            center = rng.choice(g.ids)
        else:
            center = rng.choice(sorted(g.edges))
        g2 = blowup_graph(g, center)
        assert discriminant(g2) == d
        # and contraction undoes it
        new = next(v for v in g2.ids if v not in g)
        assert discriminant(contract_minus_one(g2, new)) == d


def test_is_valid_fiber_examples():
    ok, trace = is_valid_fiber(chain([0]))
    assert ok and trace == []
    ok, trace = is_valid_fiber(chain([-2, -1, -2]))
    assert ok and trace is not None and len(trace) == 2
    ok, trace = is_valid_fiber(chain([-3, -1, -3]))
    assert not ok and trace is None
    ok, _ = is_valid_fiber(chain([-1]))
    assert not ok
    with pytest.raises(ValueError):
        is_valid_fiber(DualGraph.build([("a", 0), ("b", 0)], []))


def test_is_valid_fiber_on_long_chains():
    # 1,200 components: deeper than the stack if each contraction step recursed
    ok, trace = is_valid_fiber(chain([-1] + [-2] * 1198 + [-1]))
    assert ok and len(trace) == 1199
    assert is_valid_fiber(chain([-2] * 600 + [-1] + [-2] * 599)) == (False, None)


def test_fiber_multiplicity_examples():
    f = fiber_multiplicities(chain([-2, -1, -2]))
    assert [f.mu(v) for v in f.graph.ids] == [1, 2, 1]
    f = fiber_multiplicities(chain([-1, -2, -2, -1]))
    assert [f.mu(v) for v in f.graph.ids] == [1, 1, 1, 1]
    assert fiber_multiplicities(chain([0])).multiplicities == {"v1": 1}
    f = fiber_multiplicities(chain([-3, -1, -2, -2]))
    assert [f.mu(v) for v in f.graph.ids] == [1, 3, 2, 1]


def test_not_a_fiber_cases():
    # [2,2,1] is negative definite: no kernel, no contraction to a 0-curve
    with pytest.raises(NotAFiberError):
        fiber_multiplicities(chain([-2, -2, -1]))
    with pytest.raises(NotAFiberError):
        fiber_multiplicities(chain([-2]))


def test_fiber_multiplicities_match_the_kernel_route():
    # the benchmark's fibers items, grown fibers and their +-1 perturbations,
    # against the primitive positive kernel vector of the intersection
    # matrix and against the multiplicities tracked while growing
    workload = bench_workloads().WORKLOADS["fibers"]
    mismatches = []
    valid = 0
    for index in range(600):
        item = workload.make(5, index)
        g = parse_graph(item.text)
        new = outcome(fiber_multiplicities, g)
        if new != outcome(kernel_fiber_multiplicities, g):
            mismatches.append(("kernel", index))
        if item.accept and getattr(new, "multiplicities", None) != item.data["mu"]:
            mismatches.append(("grown", index))
        if discriminant(g) != matrix_discriminant(g):
            mismatches.append(("discriminant", index))
        valid += isinstance(new, FiberGraph)
    assert mismatches == []
    assert valid == 300


@pytest.mark.parametrize(
    "weights", [[-2, -2, -1], [0, 0], [1, 1]], ids=["definite", "zero-below", "negative-below"]
)
def test_multiplicities_refuse_a_form_against_zariski(monkeypatch, weights):
    # were a non-fiber taken for a fiber, the leaf pass must see that its
    # form is not singular (D(root) != 0) or that a proper subtree is not
    # negative definite (some D(c) <= 0 below the root)
    monkeypatch.setattr(sncalc.surgery, "is_valid_fiber", lambda g: (True, []))
    with pytest.raises(InvariantError, match="Zariski"):
        fiber_multiplicities(chain(weights))


def test_fiber_graph_validation():
    g = chain([-2, -1, -2])
    with pytest.raises(ValueError, match="primitive"):
        FiberGraph(g, {"v1": 2, "v2": 4, "v3": 2})
    with pytest.raises(ValueError, match="pair"):
        FiberGraph(g, {"v1": 1, "v2": 1, "v3": 1})
    with pytest.raises(ValueError, match="cover"):
        FiberGraph(g, {"v1": 1, "v2": 2})


def test_fiber_graph_pairing_check_matches_the_matrix():
    # Q.mu = 0 read off the adjacency agrees with the intersection matrix,
    # on blown-up fibers and on their multiplicities with one entry raised
    rng = random.Random(0xF1B)
    verdicts = []
    for _ in range(300):
        g = chain([0])
        for _ in range(rng.randint(0, 8)):
            g = blowup_graph(g, rng.choice([*g.ids, *sorted(g.edges)]))
        mu = fiber_multiplicities(g).multiplicities
        if rng.random() < 0.5:
            v = rng.choice(g.ids)
            mu = {**mu, v: mu[v] + 1}
        if gcd(*mu.values()) != 1:
            continue
        pairs = not any(sum(x * mu[u] for x, u in zip(row, g.ids)) for row in g.intersection_matrix())
        verdicts.append(pairs)
        if pairs:
            FiberGraph(g, mu)
        else:
            with pytest.raises(ValueError, match="pair to zero"):
                FiberGraph(g, mu)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def numeric_fiber_characterization(g: DualGraph) -> bool:
    """Negative semidefinite, one-dimensional positive kernel, and a
    (-1)-vertex (or the graph is a single 0-curve)."""
    q = g.intersection_matrix()
    n = len(q)
    mq = [[-x for x in row] for row in q]
    for k in range(1, n + 1):
        for sub in combinations(range(n), k):
            if det_exact([[mq[i][j] for j in sub] for i in sub]) < 0:
                return False
    ker = kernel_basis(q)
    if len(ker) != 1:
        return False
    v = ker[0]
    if not (all(x > 0 for x in v) or all(x < 0 for x in v)):
        return False
    weights = [w for _, w in g.vertices]
    return -1 in weights or (n == 1 and weights[0] == 0)


def test_numeric_characterization_is_not_sufficient():
    """Pinned counterexamples to the biconditional without its genus
    condition (see the notes in the acceptance suite): numerically
    fiber-like trees that no snc contraction sequence reduces to a 0-curve,
    because a fiber's (-1)-components can only ever meet two other
    components.  Each has K.F = 0 for its primitive kernel vector F, not
    the -2 that adjunction forces on a fiber."""
    stars = [
        DualGraph.build(
            [("c", -1), ("a", -3), ("b", -3), ("d", -3)],
            [("c", "a"), ("c", "b"), ("c", "d")],
        ),
        DualGraph.build(
            [("c", -1), ("a", -2), ("b", -4), ("d", -4)],
            [("c", "a"), ("c", "b"), ("c", "d")],
        ),
        # subdivided variant: its only (-1)-vertex has degree 2, yet the
        # contraction gets stuck at the first star above
        DualGraph.build(
            [("c", -2), ("e", -1), ("t1", -4), ("t2", -3), ("t3", -3)],
            [("c", "e"), ("e", "t1"), ("c", "t2"), ("c", "t3")],
        ),
    ]
    for g in stars:
        assert numeric_fiber_characterization(g)
        ok, _ = is_valid_fiber(g)
        assert not ok
        (f,) = kernel_basis(g.intersection_matrix())
        assert canonical_degree([w for _, w in g.vertices], f) == 0


def enumerate_fibers(max_vertices: int) -> list[DualGraph]:
    """All fiber shapes with at most max_vertices components, generated
    forward from the 0-curve by blow-ups, deduplicated up to isomorphism."""
    seen = {canonical_form(chain([0]))}
    frontier = [chain([0])]
    out = [chain([0])]
    while frontier:
        nxt = []
        for g in frontier:
            if len(g) >= max_vertices:
                continue
            centers = list(g.ids) + sorted(g.edges)
            for center in centers:
                g2 = blowup_graph(g, center)
                key = canonical_form(g2)
                if key not in seen:
                    seen.add(key)
                    nxt.append(g2)
                    out.append(g2)
        frontier = nxt
    return out


def test_enumerated_fiber_facts():
    fibers = enumerate_fibers(8)
    assert len(fibers) > 50
    for g in fibers:
        ok, _ = is_valid_fiber(g)
        assert ok
        f = fiber_multiplicities(g)
        minus_ones = [v for v, w in g.vertices if w == -1]
        for v in minus_ones:
            assert g.degree(v) <= 2  # a fiber's (-1)-curves meet at most two
        if len(minus_ones) == 1 and len(g) > 1:
            rep = unique_minus_one_checks(f)
            assert rep.passed, (g.vertices, rep)
            c = minus_ones[0]
            # components of F - C without multiplicity-one curves are chains
            rest = g.without(c)
            for comp in rest.components():
                if all(f.mu(v) > 1 for v in comp):
                    sub = rest.subgraph(comp)
                    assert all(sub.degree(v) <= 2 for v in comp)
            if f.mu(c) == 2:
                if g.degree(c) == 2:
                    assert canonical_form(g) == canonical_form(chain([-2, -1, -2]))
                else:
                    # C is a tip; the rest is a (-2)-chain or a (-2)-fork
                    # with two tips as maximal twigs
                    assert all(w == -2 for v, w in rest.vertices)
                    degs = sorted(rest.degree(v) for v in rest.ids)
                    assert degs[-1] <= 3


def test_greedy_contraction_matches_backtracking_search():
    """Verdict and trace agree with the old depth-first search on every
    fiber shape up to 8 components, the single-weight +-1 perturbations of
    those up to 6, and seeded random trees.  A perturbed fiber is never a
    fiber, so the search runs to exhaustion on each; perturbing the 7- and
    8-component shapes too would cost it about 50 s more."""
    shapes = enumerate_fibers(8)
    graphs = list(shapes)
    for g in shapes:
        if len(g) <= 6:
            for v, w in g.vertices:
                graphs += [g.with_weights({v: w - 1}), g.with_weights({v: w + 1})]
    rng = random.Random(0x6EED)
    graphs += [random_tree(rng, max_vertices=9, weights=(-4, 1)) for _ in range(2000)]
    fibers = 0
    for g in graphs:
        result = is_valid_fiber(g)
        assert result == backtracking_fiber_search(g), g.vertices
        fibers += result[0]
    assert fibers >= len(shapes)


def test_multiplicities_match_backward_trace_replay():
    # second, independent route to the multiplicities: rebuild the fiber
    # from the 0-curve along the reversed contraction trace
    for g in enumerate_fibers(7):
        ok, trace = is_valid_fiber(g)
        assert ok
        stages = [g]
        neighbors_at_contraction = []
        h = g
        for v in trace:
            neighbors_at_contraction.append((v, h.neighbors(v)))
            h = contract_minus_one(h, v)
            stages.append(h)
        mu = {h.ids[0]: 1}
        for v, nbrs in reversed(neighbors_at_contraction):
            mu[v] = sum(mu[u] for u in nbrs)
        f = fiber_multiplicities(g)
        assert {v: f.mu(v) for v in g.ids} == mu


def test_unique_minus_one_examples():
    rep = unique_minus_one_checks(fiber_multiplicities(chain([-2, -1, -2])))
    assert rep.passed and rep.mu_of_minus_one == 2
    assert len(rep.mu_one_components) == 2
    rep = unique_minus_one_checks(fiber_multiplicities(chain([-3, -1, -2, -2])))
    assert rep.passed and rep.mu_of_minus_one == 3
    with pytest.raises(ValueError, match="exactly 1"):
        unique_minus_one_checks(fiber_multiplicities(chain([-1, -2, -2, -1])))
    with pytest.raises(ValueError, match="exactly 1"):
        unique_minus_one_checks(fiber_multiplicities(chain([-1, -1])))


def test_unique_minus_one_checks_rejects_a_non_fiber():
    # passes FiberGraph's checks (Q.mu = 0, primitive) but is no fiber: K.F = 0
    star = (
        [("c", -1), ("a", -3), ("b", -3), ("d", -3)],
        [("c", "a"), ("c", "b"), ("c", "d")],
        {"c": 3, "a": 1, "b": 1, "d": 1},
    )
    verts, edges, mu = star
    with pytest.raises(NotAFiberError):
        unique_minus_one_checks(FiberGraph(DualGraph.build(verts, edges), mu))
    # the same under python -O, where an assert would have been stripped
    code = (
        "from sncalc.errors import NotAFiberError\n"
        "from sncalc.graphs import DualGraph\n"
        "from sncalc.surgery import FiberGraph, unique_minus_one_checks\n"
        f"verts, edges, mu = {star!r}\n"
        "try:\n"
        "    unique_minus_one_checks(FiberGraph(DualGraph.build(verts, edges), mu))\n"
        "except NotAFiberError:\n"
        "    print('NotAFiberError')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sncalc.__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "NotAFiberError"


def test_fujita_examples():
    assert fujita_check(
        RulingBookkeeping(h=2, nu=1, sigma_excess=1, b2_surface=9, b2_boundary=9)
    )
    assert fujita_check(
        RulingBookkeeping(h=3, nu=1, sigma_excess=2, b2_surface=9, b2_boundary=9)
    )
    assert not fujita_check(
        RulingBookkeeping(h=2, nu=1, sigma_excess=1, b2_surface=9, b2_boundary=8)
    )
    # degenerate record built to satisfy the identity
    assert fujita_check(
        RulingBookkeeping(h=0, nu=0, sigma_excess=0, b2_surface=5, b2_boundary=3)
    )
