"""Weighted dual graphs: representation, parsing and serialization.

A vertex stands for an irreducible component with its self-intersection as
the weight; an edge stands for a transverse intersection point.  An edge
set holds no double edge, and a self-loop is rejected at construction time.
A cycle is not: ``parse_graph`` rejects one, but ``DualGraph.build`` accepts
it, and the routines that need a forest or a tree check ``is_forest`` or
``is_tree`` themselves.

A ``DualGraph`` is an immutable value, so it keeps what it derives from
itself: its ``ids`` tuple, its weight mapping and its components are built
on first use and stored in the instance ``__dict__``, outside the dataclass
fields, so equality, hashing and ``repr`` never see them.  ``weight`` scans
the vertices until the mapping exists and looks up afterwards; ``weights``
and ``components`` return fresh copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Hashable, Iterable, Mapping, Sequence, TypeVar

from .errors import GraphParseError, NonTreeError

__all__ = [
    "DualGraph",
    "Chain",
    "QDivisor",
    "parse_graph",
    "serialize_graph",
    "branching_number",
    "maximal_twigs",
    "build_fork",
    "emit_dot",
    "canonical_form",
]


_Node = TypeVar("_Node", bound=Hashable)


def _norm_edge(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class DualGraph:
    """A simple weighted graph with ordered vertices.

    ``vertices`` keeps the declaration order, which serialization preserves;
    equality ignores nothing (two graphs differing only in vertex order are
    distinct values, but isomorphic -- compare ``canonical_form`` for that).
    """

    vertices: tuple[tuple[str, int], ...]
    edges: frozenset[tuple[str, str]]
    _adj: dict[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self):
        ids = [v for v, _ in self.vertices]
        idset = set(ids)
        if len(idset) != len(ids):
            raise ValueError("duplicate vertex id")
        adj: dict[str, list[str]] = {v: [] for v in ids}
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop at {a!r}")
            if a not in idset or b not in idset:
                raise ValueError(f"edge ({a!r},{b!r}) references unknown vertex")
            adj[a].append(b)
            adj[b].append(a)
        order = {v: i for i, v in enumerate(ids)}
        object.__setattr__(
            self, "_adj", {v: tuple(sorted(ns, key=order.__getitem__)) for v, ns in adj.items()}
        )

    def __repr__(self) -> str:
        # the dataclass text, with the edges sorted rather than in hash order
        edges = ", ".join(map(repr, sorted(self.edges)))
        return f"DualGraph(vertices={self.vertices!r}, edges=frozenset({edges and f'{{{edges}}}'}))"

    @classmethod
    def build(
        cls, vertices: Iterable[tuple[str, int]], edges: Iterable[tuple[str, str]] = ()
    ) -> "DualGraph":
        return cls(tuple((str(v), int(w)) for v, w in vertices),
                   frozenset(_norm_edge(str(a), str(b)) for a, b in edges))

    @classmethod
    def from_chain_weights(cls, weights: Sequence[int], prefix: str = "v") -> "DualGraph":
        ids = [f"{prefix}{i + 1}" for i in range(len(weights))]
        return cls.build(zip(ids, weights), zip(ids, ids[1:]))

    # -- basic queries -------------------------------------------------

    @property
    def ids(self) -> tuple[str, ...]:
        ids = self.__dict__.get("_ids")
        if ids is None:
            ids = self.__dict__["_ids"] = tuple(v for v, _ in self.vertices)
        return ids

    def _weight_map(self) -> dict[str, int]:
        """The kept id -> weight mapping; callers must not change it."""
        w = self.__dict__.get("_weights")
        if w is None:
            w = self.__dict__["_weights"] = dict(self.vertices)
        return w

    @property
    def weights(self) -> dict[str, int]:
        return dict(self._weight_map())

    def weight(self, v: str) -> int:
        w = self.__dict__.get("_weights")
        if w is not None:
            return w[v]
        # a fresh graph asked once (a contraction step) costs no mapping
        for u, x in self.vertices:
            if u == v:
                return x
        raise KeyError(v)

    def __contains__(self, v: str) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self.vertices)

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._adj[v]

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    def has_edge(self, a: str, b: str) -> bool:
        return _norm_edge(a, b) in self.edges

    def _components(self) -> list[tuple[str, ...]]:
        """The kept components; callers must not change the list."""
        comps = self.__dict__.get("_comps")
        if comps is None:
            ids, adj = self.ids, self._adj
            label: dict[str, int] = {}  # vertex -> number of its component
            members: list[list[str]] = []
            for v in ids:
                if v in label:
                    continue
                k = label[v] = len(members)
                members.append([])
                stack = [v]
                while stack:
                    for u in adj[stack.pop()]:
                        if u not in label:
                            label[u] = k
                            stack.append(u)
            for v in ids:  # filled in vertex order, so no sort is needed
                members[label[v]].append(v)
            comps = self.__dict__["_comps"] = [tuple(c) for c in members]
        return comps

    def components(self) -> list[tuple[str, ...]]:
        """Connected components, each as a tuple of ids in vertex order."""
        return list(self._components())

    def is_connected(self) -> bool:
        return len(self._components()) <= 1

    def is_forest(self) -> bool:
        return len(self.edges) == len(self.vertices) - len(self._components())

    def is_tree(self) -> bool:
        return self.is_connected() and self.is_forest()

    def is_chain(self) -> bool:
        """Connected and free of branching vertices (single vertex counts)."""
        return self.is_tree() and all(self.degree(v) <= 2 for v in self.ids)

    def chain_order(self) -> tuple[str, ...]:
        """Vertex ids of a chain walked end to end.

        Of the two walks the one starting at the first tip (in vertex
        order) is returned.
        """
        if not self.is_chain():
            raise ValueError("not a chain")
        tips = [v for v in self.ids if self.degree(v) <= 1]
        # min raises ValueError on the empty graph, which has no tip
        return tuple(_walk_from_tip(self, min(tips, key=self.ids.index)))

    # -- derived graphs ------------------------------------------------

    def subgraph(self, support: Iterable[str]) -> "DualGraph":
        keep = set(support)
        unknown = keep - set(self._adj)
        if unknown:
            raise KeyError(f"unknown vertex ids: {sorted(unknown)}")
        return DualGraph(
            tuple((v, w) for v, w in self.vertices if v in keep),
            frozenset(e for e in self.edges if e[0] in keep and e[1] in keep),
        )

    def without(self, *removed: str) -> "DualGraph":
        return self.subgraph(set(self._adj) - set(removed))

    def with_weights(self, updates: Mapping[str, int]) -> "DualGraph":
        return DualGraph(
            tuple((v, updates.get(v, w)) for v, w in self.vertices), self.edges
        )

    def intersection_matrix(self, support: Sequence[str] | None = None) -> list[list[int]]:
        """The matrix Q with weights on the diagonal and 1 for each edge."""
        sup = list(self.ids if support is None else support)
        at: dict[str, list[int]] = {}  # a repeated id fills every position it has
        for k, v in enumerate(sup):
            at.setdefault(v, []).append(k)
        unknown = at.keys() - self._adj.keys()
        if unknown:
            raise KeyError(f"unknown vertex ids: {sorted(unknown)}")
        w = self._weight_map()
        q = []
        for a in sup:
            row = [0] * len(sup)
            for b in self._adj[a]:
                for k in at.get(b, ()):
                    row[k] = 1
            for k in at[a]:
                row[k] = w[a]
            q.append(row)
        return q


@dataclass(frozen=True)
class Chain:
    """An ordered rational chain; reversal is a distinct value.

    The bracket notation negates the weights, matching the usual convention
    for resolution chains: the chain with weights (-2, -3) prints as [2, 3].
    """

    ids: tuple[str, ...]
    chain_weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.ids) != len(self.chain_weights):
            raise ValueError("ids and weights differ in length")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate id in chain")

    @classmethod
    def from_graph(cls, g: DualGraph, ids: Sequence[str]) -> "Chain":
        ids = tuple(ids)
        w = g._weight_map()
        for v in ids:
            if v not in g:
                raise KeyError(v)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                adjacent = g.has_edge(a, b)
                consecutive = b == ids[i + 1] if i + 1 < len(ids) else False
                if consecutive and not adjacent:
                    raise ValueError(f"consecutive chain entries {a!r},{b!r} not adjacent")
                if not consecutive and adjacent:
                    raise ValueError(f"non-consecutive chain entries {a!r},{b!r} adjacent")
        return cls(ids, tuple(w[v] for v in ids))

    @classmethod
    def from_bracket(cls, bracket: Sequence[int], prefix: str = "r") -> "Chain":
        ids = tuple(f"{prefix}{i + 1}" for i in range(len(bracket)))
        return cls(ids, tuple(-int(b) for b in bracket))

    @property
    def bracket(self) -> tuple[int, ...]:
        return tuple(-w for w in self.chain_weights)

    def reversed(self) -> "Chain":
        return Chain(self.ids[::-1], self.chain_weights[::-1])

    def is_admissible(self) -> bool:
        return all(w <= -2 for w in self.chain_weights)

    def __len__(self) -> int:
        return len(self.ids)

    def to_graph(self) -> DualGraph:
        return DualGraph.build(zip(self.ids, self.chain_weights), zip(self.ids, self.ids[1:]))


@dataclass(frozen=True)
class QDivisor:
    """Rational coefficients on the components of a graph; zeros are omitted."""

    graph: DualGraph
    coeffs: Mapping[str, Fraction]

    def __post_init__(self):
        cleaned = {}
        for v, c in self.coeffs.items():
            if v not in self.graph:
                raise KeyError(f"coefficient on unknown component {v!r}")
            c = Fraction(c)
            if c != 0:
                cleaned[v] = c
        object.__setattr__(self, "coeffs", cleaned)

    def __getitem__(self, v: str) -> Fraction:
        if v not in self.graph:
            raise KeyError(v)
        return self.coeffs.get(v, Fraction(0))

    def support(self) -> tuple[str, ...]:
        return tuple(v for v in self.graph.ids if v in self.coeffs)

    def __sub__(self, other: "QDivisor") -> "QDivisor":
        if other.graph is not self.graph and other.graph != self.graph:
            raise ValueError("divisors live on different graphs")
        keys = set(self.coeffs) | set(other.coeffs)
        return QDivisor(self.graph, {v: self[v] - other[v] for v in keys})


# -- file format -------------------------------------------------------
#
#   # comment
#   vertex <id> w=<integer>
#   edge <id> <id>


def parse_graph(text: str) -> DualGraph:
    """Parse the line-based graph format; raise GraphParseError on bad input.

    Every error carries its line number; a cycle is reported at the edge
    that closes the first one.
    """
    vertices: list[tuple[str, int]] = []
    seen: set[str] = set()
    edges: set[tuple[str, str]] = set()
    parent: dict[str, str] = {}  # union-find over the edges read so far
    cycle_at = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 3 or not parts[2].startswith("w="):
                raise GraphParseError("expected 'vertex <id> w=<integer>'", lineno)
            vid = parts[1]
            if vid in seen:
                raise GraphParseError(f"duplicate vertex id {vid!r}", lineno)
            try:
                w = int(parts[2][2:])
            except ValueError:
                raise GraphParseError(f"bad weight {parts[2][2:]!r}", lineno) from None
            seen.add(vid)
            vertices.append((vid, w))
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise GraphParseError("expected 'edge <id> <id>'", lineno)
            a, b = parts[1], parts[2]
            if a == b:
                raise GraphParseError(f"self-loop at {a!r}", lineno)
            if a not in seen or b not in seen:
                raise GraphParseError(f"edge references undeclared vertex", lineno)
            e = _norm_edge(a, b)
            if e in edges:
                raise GraphParseError(f"duplicate edge {a!r} {b!r}", lineno)
            edges.add(e)
            ra, rb = _find(parent, a), _find(parent, b)
            if ra == rb:
                cycle_at = cycle_at or lineno
            else:
                parent[ra] = rb
        else:
            raise GraphParseError(f"unknown directive {parts[0]!r}", lineno)
    if cycle_at is not None:
        raise GraphParseError("graph contains a cycle; only forests are supported", cycle_at)
    return DualGraph(tuple(vertices), frozenset(edges))


def _find(parent: dict[_Node, _Node], v: _Node) -> _Node:
    """The root of v in a union-find forest, halving the path on the way."""
    parent.setdefault(v, v)
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def serialize_graph(g: DualGraph) -> str:
    """Deterministic inverse of parse_graph: vertices in order, edges sorted."""
    lines = [f"vertex {v} w={w}" for v, w in g.vertices]
    lines += [f"edge {a} {b}" for a, b in sorted(g.edges)]
    return "\n".join(lines) + ("\n" if lines else "")


def branching_number(g: DualGraph, v: str) -> int:
    """Number of other components meeting v, i.e. its degree."""
    if v not in g:
        raise KeyError(v)
    return g.degree(v)


def maximal_twigs(g: DualGraph) -> list[Chain]:
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
    w = g._weight_map()
    walks = [_walk_from_tip(g, v) for v in g.ids if g.degree(v) <= 1]
    # a walk in a forest: consecutive ids meet and no other two do
    return [Chain(tuple(walk), tuple(w[u] for u in walk)) for walk in walks]


def _walk_from_tip(g: DualGraph, tip: str) -> list[str]:
    """The vertices from a tip up to the other tip of its chain or to just
    before the first branching vertex, whichever comes first."""
    walk, prev = [tip], None
    while True:
        nxt = [u for u in g.neighbors(walk[-1]) if u != prev]
        if not nxt or g.degree(nxt[0]) > 2:
            return walk
        prev = walk[-1]
        walk.append(nxt[0])


def build_fork(branch_weight: int, twig_brackets: Sequence[Sequence[int]]) -> DualGraph:
    """A branching vertex B with one chain per bracket hanging off it.

    Twigs are attached tip-first: vertex T<i>_1 is the tip, the last vertex
    of each twig meets B.  Brackets are negated weights as usual.
    """
    verts: list[tuple[str, int]] = [("B", branch_weight)]
    edges: list[tuple[str, str]] = []
    for i, bracket in enumerate(twig_brackets, start=1):
        ids = [f"T{i}_{j + 1}" for j in range(len(bracket))]
        verts += [(v, -int(b)) for v, b in zip(ids, bracket)]
        edges += list(zip(ids, ids[1:])) + [(ids[-1], "B")]
    return DualGraph.build(verts, edges)


def emit_dot(g: DualGraph) -> str:
    """Graphviz text for the graph; labels carry the weights."""
    lines = ["graph dual {"]
    for v, w in g.vertices:
        lines.append(f'  "{v}" [label="{v} ({w})"];')
    for a, b in sorted(g.edges):
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- canonical form ----------------------------------------------------


def _ahu(g: DualGraph, root: str) -> tuple[int, ...]:
    """Flat, prefix-free preorder code of the tree hanging from root: weight,
    child count, then the sorted child codes.  Neither building nor
    comparing codes recurses."""
    weight, parent, order = g._weight_map(), {root: None}, [root]
    for v in order:  # breadth-first: parents come before their children
        for u in g.neighbors(v):
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    code: dict[str, tuple[int, ...]] = {}
    for v in reversed(order):
        kids = sorted(code.pop(u) for u in g.neighbors(v) if u != parent[v])
        code[v] = (weight[v], len(kids), *chain.from_iterable(kids))
    return code[root]


def _tree_centers(g: DualGraph, comp: tuple[str, ...]) -> list[str]:
    # peel leaves until one or two vertices remain
    if len(comp) == 1:
        return [comp[0]]
    degree = {v: len([u for u in g.neighbors(v) if u in comp]) for v in comp}
    layer = [v for v in comp if degree[v] <= 1]
    remaining = len(comp)
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for u in g.neighbors(v):
                if degree.get(u, 0) > 0:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    return sorted(layer)


def canonical_form(g: DualGraph):
    """A value equal for exactly the isomorphic weighted forests."""
    if not g.is_forest():
        raise NonTreeError("canonical form implemented for forests only")
    encodings = []
    for comp in g.components():
        centers = _tree_centers(g, comp)
        encodings.append(min(_ahu(g, c) for c in centers))
    return tuple(sorted(encodings))
