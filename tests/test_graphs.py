import inspect
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from helpers import (
    count_graph_reads,
    loop_maximal_twigs,
    min_tip_chain_order,
    outcome,
    random_admissible_fork,
    random_forest,
    random_tree,
)
import sncalc
from sncalc.errors import GraphParseError, NonTreeError
from sncalc.graphs import (
    Chain,
    DualGraph,
    QDivisor,
    branching_number,
    build_fork,
    canonical_form,
    emit_dot,
    maximal_twigs,
    parse_graph,
    serialize_graph,
)


def test_parse_two_vertex_example():
    g = parse_graph("vertex b w=-1\nvertex t w=-2\nedge b t\n")
    assert g.weights == {"b": -1, "t": -2}
    assert g.has_edge("t", "b")


def test_parse_x_type_graph():
    text = "\n".join(
        ["vertex c w=0"]
        + [f"vertex t{i} w=-2" for i in range(4)]
        + [f"edge c t{i}" for i in range(4)]
    )
    g = parse_graph(text)
    assert len(g) == 5
    assert len(g.edges) == 4
    assert branching_number(g, "c") == 4


def test_parse_empty_file():
    g = parse_graph("")
    assert len(g) == 0 and not g.edges


def test_parse_comments_and_blank_lines():
    g = parse_graph("# heading\n\nvertex a w=3   # trailing\nvertex b w=-7\nedge a b\n")
    assert g.weights == {"a": 3, "b": -7}


@pytest.mark.parametrize(
    "text,lineno,needle",
    [
        ("vertex a w=-2\nvertex a w=-3\n", 2, "duplicate"),
        ("vertex a w=-2\nedge a b\n", 2, "undeclared"),
        ("vertex a w=-2\nedge a a\n", 2, "self-loop"),
        ("vertex a w=x\n", 1, "bad weight"),
        ("vertex a\n", 1, "expected"),
        ("frob a b\n", 1, "unknown directive"),
        ("vertex a w=-2\nvertex b w=-2\nedge a b\nedge b a\n", 4, "duplicate edge"),
        ("vertex a w=-1\nvertex b w=-1\nvertex c w=-1\nedge a b\nedge b c\nedge c a\n", 6, "cycle"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, needle):
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    assert exc.value.lineno == lineno
    assert needle in str(exc.value)


def test_parse_rejects_cycles():
    text = (
        "vertex a w=-1\nvertex b w=-1\nvertex c w=-1\n"
        "edge a b\nedge b c\nedge c a\n"
    )
    with pytest.raises(GraphParseError, match="cycle"):
        parse_graph(text)


def test_cycles_are_rejected_by_the_parser_only():
    # parse_graph rejects a cycle; DualGraph.build keeps one, and the
    # routines that need a forest check for it themselves
    tri = DualGraph.build([("a", -2), ("b", -2), ("c", -2)], [("a", "b"), ("b", "c"), ("c", "a")])
    assert len(tri.edges) == 3 and not tri.is_forest()
    with pytest.raises(GraphParseError, match="cycle") as exc:
        parse_graph(serialize_graph(tri))
    assert exc.value.lineno == 6
    with pytest.raises(NonTreeError):
        maximal_twigs(tri)
    # a double edge collapses in the edge set, a self-loop is refused
    assert DualGraph.build([("a", -2), ("b", -2)], [("a", "b"), ("b", "a")]).edges == {("a", "b")}
    with pytest.raises(ValueError, match="self-loop"):
        DualGraph.build([("a", -2)], [("a", "a")])


@st.composite
def forests(draw, max_vertices=30):
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    weights = draw(st.lists(st.integers(-9, 3), min_size=n, max_size=n))
    parents = [
        draw(st.one_of(st.none(), st.integers(0, i - 1))) if i else None
        for i in range(n)
    ]
    verts = [(f"n{i}", w) for i, w in enumerate(weights)]
    edges = [(f"n{i}", f"n{p}") for i, p in enumerate(parents) if p is not None]
    return DualGraph.build(verts, edges)


@given(forests())
def test_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


@given(forests())
def test_branching_numbers_sum_to_twice_edges(g):
    assert sum(branching_number(g, v) for v in g.ids) == 2 * len(g.edges)


def test_maximal_twigs_on_the_two_boundary_forks():
    g = build_fork(-1, [(2,), (2, 2, 2), (2, 2, 2)])
    twigs = maximal_twigs(g)
    assert sorted(t.bracket for t in twigs) == [(2,), (2, 2, 2), (2, 2, 2)]
    for t in twigs:
        # tip first, the last component is the one meeting the branch
        assert g.degree(t.ids[0]) == 1
        assert g.has_edge(t.ids[-1], "B")
    g2 = build_fork(-1, [(2, 2)] * 3)
    assert sorted(t.bracket for t in maximal_twigs(g2)) == [(2, 2)] * 3


def test_maximal_twigs_on_x_graph():
    g = build_fork(0, [(2,)] * 4)
    assert [t.bracket for t in maximal_twigs(g)] == [(2,)] * 4


def test_maximal_twigs_rejects_chains_and_cycles():
    with pytest.raises(ValueError, match="chain"):
        maximal_twigs(DualGraph.from_chain_weights([-2, -2]))
    tri = DualGraph.build(
        [("a", -1), ("b", -1), ("c", -1)], [("a", "b"), ("b", "c"), ("a", "c")]
    )
    with pytest.raises(NonTreeError):
        maximal_twigs(tri)


def test_maximal_twigs_partition_property():
    rng = random.Random(0xF0)
    for _ in range(200):
        g = random_forest(rng, max_vertices=14)
        branching = {v for v in g.ids if g.degree(v) >= 3}
        if not branching or any(
            all(g.degree(v) <= 2 for v in comp) for comp in g.components()
        ):
            continue
        twigs = maximal_twigs(g)
        twig_vertices = [v for t in twigs for v in t.ids]
        assert len(twig_vertices) == len(set(twig_vertices))
        # oracle: a vertex is in a twig iff its chain component (after the
        # branching vertices are deleted) contains a tip of g
        rest = g.without(*branching)
        expected = set()
        for comp in rest.components():
            if any(g.degree(v) <= 1 for v in comp):
                expected.update(comp)
        assert set(twig_vertices) == expected


def _shuffled(rng: random.Random, g: DualGraph) -> DualGraph:
    """The same graph with its vertices declared in a random order."""
    vertices = list(g.vertices)
    rng.shuffle(vertices)
    return DualGraph(tuple(vertices), g.edges)


def _walk_inputs(rng: random.Random):
    """Seeded trees, forests, chains and forks, each with its vertices in a
    random order, some trees closed to a cycle, and the empty graph."""
    yield DualGraph((), frozenset())
    for index in range(4000):
        kind = index % 5
        if kind == 0:
            g = random_tree(rng, 14)
        elif kind == 1:
            g = random_forest(rng, 14)
        elif kind == 2:
            weights = [rng.randint(-5, 2) for _ in range(rng.randint(1, 10))]
            g = DualGraph.from_chain_weights(weights)
        elif kind == 3:
            g = random_admissible_fork(rng)
        else:
            g = random_tree(rng, 14)
            a, b = rng.sample(g.ids, 2) if len(g) > 2 else (g.ids[0], g.ids[0])
            if a != b and not g.has_edge(a, b):
                g = DualGraph.build(g.vertices, [*g.edges, (a, b)])
        yield _shuffled(rng, g)


def test_chain_walks_match_the_loop_oracles():
    # old-versus-new: chain_order and maximal_twigs give identical walks and
    # identical errors, so chain_order still starts at the first tip
    mismatches, errors = [], set()
    late_starts = twig_lists = 0
    for g in _walk_inputs(random.Random(0x7A1C)):
        order, twigs = outcome(DualGraph.chain_order, g), outcome(maximal_twigs, g)
        if order != outcome(min_tip_chain_order, g) or twigs != outcome(loop_maximal_twigs, g):
            mismatches.append(g)
        errors.update(v[0] for v in (order, twigs) if isinstance(v[0], type))
        late_starts += isinstance(order[0], str) and order[0] != g.ids[0]
        twig_lists += isinstance(twigs, list)
    assert mismatches == []
    assert late_starts > 300 and twig_lists > 1000
    assert errors == {ValueError, NonTreeError}


def test_emit_dot_counts():
    assert emit_dot(DualGraph((), frozenset())) == "graph dual {\n}\n"
    d = emit_dot(DualGraph.from_chain_weights([-2, -1, -2]))
    assert d.count("--") == 2 and d.count("label") == 3
    y333 = build_fork(-1, [(2, 2)] * 3)
    d = emit_dot(y333)
    assert d.count("label") == 7 and d.count("--") == 6


def test_chain_bracket_negation_and_reversal():
    ch = Chain.from_bracket([3, 2])
    assert ch.chain_weights == (-3, -2)
    assert ch.reversed().bracket == (2, 3)
    assert ch.reversed().reversed() == ch


def test_chain_from_graph_validates_adjacency():
    g = DualGraph.from_chain_weights([-2, -2, -2])
    ch = Chain.from_graph(g, ["v1", "v2", "v3"])
    assert ch.bracket == (2, 2, 2)
    with pytest.raises(ValueError, match="not adjacent"):
        Chain.from_graph(g, ["v1", "v3"])
    tri = DualGraph.build(
        [("a", -1), ("b", -1), ("c", -1)], [("a", "b"), ("b", "c"), ("a", "c")]
    )
    with pytest.raises(ValueError, match="non-consecutive"):
        Chain.from_graph(tri, ["a", "b", "c"])


def test_qdivisor_drops_zeros_and_validates_support():
    g = DualGraph.from_chain_weights([-2, -2])
    d = QDivisor(g, {"v1": 0, "v2": 1})
    assert d.support() == ("v2",)
    with pytest.raises(KeyError):
        QDivisor(g, {"nope": 1})


def test_repr_lists_the_edges_sorted_under_any_hash_seed():
    # the frozenset's own order follows the hash table, which moves with
    # PYTHONHASHSEED; seeds 0 and 3 put these three edges in two other orders
    code = (
        "from sncalc.graphs import DualGraph\n"
        "print(repr(DualGraph.from_chain_weights([-1, -2, -2, -1])))\n"
        "print(repr(DualGraph.build([('a', 0)])))\n"
    )
    expected = (
        "DualGraph(vertices=(('v1', -1), ('v2', -2), ('v3', -2), ('v4', -1)), "
        "edges=frozenset({('v1', 'v2'), ('v2', 'v3'), ('v3', 'v4')}))\n"
        "DualGraph(vertices=(('a', 0),), edges=frozenset())\n"
    )
    for seed in ("0", "3"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.path.dirname(os.path.dirname(sncalc.__file__)),
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == expected, seed


def _two_trees():
    """A forest of two trees, one of them branching, under shuffled ids."""
    return DualGraph.build(
        [("c", -2), ("a", -1), ("x", 0), ("b", -3), ("d", -2), ("y", -2)],
        [("a", "b"), ("b", "c"), ("b", "d"), ("x", "y")],
    )


def test_graph_builds_its_index_at_most_once():
    # components, connectivity, forest and tree tests, weights and weight
    # lookups in any number: the ids tuple and the weight mapping take one
    # pass over the vertices each, the components one adjacency read per
    # vertex, and after the first round only each `weights` copy, n entries,
    # reads the graph again
    g = _two_trees()
    reads = count_graph_reads(g)
    n, m = len(g), len(g.edges)
    for k in range(1, 4):
        assert g.components() == [("c", "a", "b", "d"), ("x", "y")]
        assert not g.is_connected() and g.is_forest() and not g.is_tree()
        assert g.weights == {"c": -2, "a": -1, "x": 0, "b": -3, "d": -2, "y": -2}
        assert [g.weight(v) for v in g.ids] == [-2, -1, 0, -3, -2, -2]
        assert reads == {"vertices": 2 * n, "weights": k * n, "adjacency": n + 2 * m}
    with pytest.raises(KeyError):
        g.weight("ghost")


def test_weight_scans_a_fresh_graph():
    # a graph asked for one weight, as each contraction step asks its new
    # graph, scans up to that vertex and keeps no mapping
    g = _two_trees()
    reads = count_graph_reads(g)
    assert g.weight("x") == 0
    assert reads == {"vertices": 3}
    with pytest.raises(KeyError):
        g.weight("ghost")


def test_copies_of_the_index_are_fresh():
    g = _two_trees()
    g.weights["a"] = 7
    g.components().append(("ghost",))
    assert g.weight("a") == -1 and g.weights["a"] == -1
    assert len(g.components()) == 2


def test_graph_value_ignores_its_index():
    # ==, hash, repr and a pickle round trip are those of a graph that has
    # derived nothing yet
    g, twin = _two_trees(), _two_trees()
    g.components(), g.weights, g.ids, g.is_tree()
    assert g.__dict__.keys() > twin.__dict__.keys()
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
    back = pickle.loads(pickle.dumps(g))
    assert back == twin and hash(back) == hash(twin) and repr(back) == repr(twin)
    assert back.components() == twin.components() and back.weights == twin.weights
    assert g != twin.with_weights({"a": -2})


def test_ids_stay_a_property():
    # the benchmark's tracer counts `ids` through the property's fget and
    # graph construction through `__post_init__`
    assert isinstance(DualGraph.__dict__["ids"], property)
    assert callable(DualGraph.ids.fget)
    assert inspect.isfunction(DualGraph.__dict__["__post_init__"])


def test_canonical_form_is_isomorphism_invariant():
    g1 = build_fork(-1, [(2,), (2, 2)])
    relabeled = DualGraph.build(
        [("x", -2), ("y", -2), ("hub", -1), ("z", -2)],
        [("hub", "z"), ("x", "y"), ("y", "hub")],
    )
    assert canonical_form(g1) == canonical_form(relabeled)
    other = build_fork(-1, [(2,), (2, 3)])
    assert canonical_form(g1) != canonical_form(other)


def test_canonical_form_of_long_chains():
    # 3,000 levels deep: neither building nor comparing the forms recurses
    weights = [-2 - (i % 3) for i in range(3000)]
    g = DualGraph.from_chain_weights(weights)
    # the same chain walked from the other end, under new names and order
    relabeled = DualGraph.build(
        [(f"u{i}", weights[2999 - i]) for i in reversed(range(3000))],
        [(f"u{i}", f"u{i + 1}") for i in range(2999)],
    )
    assert canonical_form(g) == canonical_form(relabeled)
    assert canonical_form(g) != canonical_form(g.with_weights({"v1": -5}))
