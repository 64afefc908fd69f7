"""Blow-up and blow-down surgery on dual graphs, and the fiber calculus.

A blow-up inserts a (-1)-vertex, sprouting on a vertex or subdividing an
edge; contraction is its inverse and is only allowed where the image stays
an snc tree.  A graph is a valid fiber when some contraction sequence ends
in a single 0-vertex; since any admissible contraction of a fiber leaves a
fiber, one greedy pass decides this.  Its multiplicities, the kernel of
the intersection form, are read off one leaf pass by Zariski's lemma.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .calculus import _leaf_pass
from .errors import InvariantError, NotAFiberError
from .graphs import DualGraph

__all__ = [
    "FiberGraph",
    "RulingBookkeeping",
    "UniqueMinusOneReport",
    "blowup_graph",
    "contract_minus_one",
    "is_valid_fiber",
    "fiber_multiplicities",
    "unique_minus_one_checks",
    "fujita_check",
]


def _fresh_id(g: DualGraph) -> str:
    k = 1
    while f"e{k}" in g:
        k += 1
    return f"e{k}"


def blowup_graph(
    g: DualGraph, center: str | tuple[str, str], new_id: str | None = None
) -> DualGraph:
    """Blow up a point on one component (sprouting) or on an edge
    (subdivisional).

    The new vertex has weight -1; the center vertex loses 1 from its weight,
    and for an edge center both endpoints do.
    """
    if new_id is None:
        new_id = _fresh_id(g)
    if new_id in g:
        raise ValueError(f"vertex id {new_id!r} already taken")
    if isinstance(center, str):
        if center not in g:
            raise KeyError(center)
        ends, cut = (center,), ()
    else:
        ends = a, b = center
        if not g.has_edge(a, b):
            raise KeyError(f"no edge between {a!r} and {b!r}")
        cut = ({tuple(sorted(ends))},)
    verts = tuple((v, w - 1 if v in ends else w) for v, w in g.vertices) + ((new_id, -1),)
    # an edge center is cut; with no argument, difference is a plain copy
    edges = set(g.edges).difference(*cut)
    edges |= {tuple(sorted((v, new_id))) for v in ends}
    return DualGraph(verts, frozenset(edges))


def contract_minus_one(g: DualGraph, v: str) -> DualGraph:
    """Contract a non-branching (-1)-vertex; neighbors gain 1 and join up."""
    if v not in g:
        raise KeyError(v)
    if g.weight(v) != -1:
        raise ValueError(f"{v!r} has weight {g.weight(v)}, not -1")
    ns = g.neighbors(v)
    if len(ns) > 2:
        raise ValueError(f"{v!r} meets {len(ns)} components; image would not be snc")
    if len(ns) == 2 and g.has_edge(ns[0], ns[1]):
        raise ValueError("neighbors already meet; image would not be snc")
    verts = tuple((u, w + 1 if u in ns else w) for u, w in g.vertices if u != v)
    edges = {e for e in g.edges if v not in e}
    if len(ns) == 2:
        edges.add(tuple(sorted(ns)))
    return DualGraph(verts, frozenset(edges))


def is_valid_fiber(g: DualGraph) -> tuple[bool, list[str] | None]:
    """Contract the first (-1)-vertex meeting at most two others until one
    vertex is left; return (True, trace of contracted ids) if it is a
    0-vertex, else (False, None).  The greedy choice is sound: a fiber's
    (-1)-curves meet at most two components and contracting one leaves a
    fiber (Miyanishi, Open Algebraic Surfaces, lemma on singular fibers).
    """
    if len(g) == 0 or len(g.components()) != 1:
        raise ValueError("fiber candidates must be nonempty and connected")
    if len(g.edges) != len(g) - 1:
        return False, None  # a cycle never contracts to a tree
    trace: list[str] = []
    while len(g) > 1:
        v = next((v for v, w in g.vertices if w == -1 and g.degree(v) <= 2), None)
        if v is None:
            return False, None
        g = contract_minus_one(g, v)
        trace.append(v)
    return (True, trace) if g.vertices[0][1] == 0 else (False, None)


@dataclass(frozen=True)
class FiberGraph:
    """A valid fiber with its component multiplicities.

    The weighted sum of components pairs to zero with every component, and
    the multiplicity vector is primitive.
    """

    graph: DualGraph
    multiplicities: dict[str, int]

    def __post_init__(self):
        ids = self.graph.ids
        if set(self.multiplicities) != set(ids):
            raise ValueError("multiplicities must cover exactly the components")
        mu = [self.multiplicities[v] for v in ids]
        if any(m < 1 for m in mu):
            raise ValueError("multiplicities are positive")
        if gcd(*mu) != 1:
            raise ValueError("multiplicity vector must be primitive")
        g, m = self.graph, self.multiplicities
        for v, w in g.vertices:
            if w * m[v] + sum(m[u] for u in g.neighbors(v)) != 0:
                raise ValueError("weighted sum does not pair to zero with each component")

    def mu(self, v: str) -> int:
        return self.multiplicities[v]


def fiber_multiplicities(g: DualGraph) -> FiberGraph:
    """Multiplicities of a valid fiber from the leaf pass of -Q rooted at its
    first component: mu(root) = 1 and mu(c) = mu(parent) E(c) / D(c) going
    down, made a primitive integer vector.  By Zariski's lemma (Barth, Hulek,
    Peters and Van de Ven, III.8.2) a fiber's form is singular and its proper
    connected subgraphs are negative definite: D(root) = 0, every other D > 0."""
    ok, _ = is_valid_fiber(g)
    if not ok:
        raise NotAFiberError("graph does not contract to a smooth 0-curve")
    order, up, minors, products, _ = _leaf_pass(g, g.ids)
    if minors[0] or any(d <= 0 for d in minors[1:]):
        raise InvariantError("a valid fiber's subtree determinants break Zariski's lemma")
    mu = [Fraction(1)] * len(g)
    for c in order[1:]:
        mu[c] = mu[up[c]] * products[c] / minors[c]
    scale = lcm(*(m.denominator for m in mu))
    ints = [m.numerator * (scale // m.denominator) for m in mu]
    h = gcd(*ints)
    return FiberGraph(g, {v: x // h for v, x in zip(g.ids, ints)})


@dataclass(frozen=True)
class UniqueMinusOneReport:
    """Structure facts about a fiber with a unique (-1)-component."""

    minus_one: str
    mu_of_minus_one: int
    mu_one_components: tuple[str, ...]
    first_branch: tuple[str, ...]
    mu_exceeds_one: bool
    exactly_two_mu_one: bool
    mu_one_are_tips: bool
    mu_one_in_first_branch: bool

    @property
    def passed(self) -> bool:
        return (
            self.mu_exceeds_one
            and self.exactly_two_mu_one
            and self.mu_one_are_tips
            and self.mu_one_in_first_branch
        )


def unique_minus_one_checks(f: FiberGraph) -> UniqueMinusOneReport:
    """Check the structure forced on a fiber with a unique (-1)-curve.

    The first branch consists of the components created no later than the
    first branching component in the blow-up sequence recovering the fiber
    from a 0-curve (the whole fiber when it is a chain); creation order is
    read off a contraction trace, reversed.
    """
    g = f.graph
    minus_ones = [v for v, w in g.vertices if w == -1]
    if len(minus_ones) != 1:
        raise ValueError(f"{len(minus_ones)} components of weight -1; report needs exactly 1")
    c = minus_ones[0]
    ok, trace = is_valid_fiber(g)
    if not ok:
        raise NotAFiberError("graph does not contract to a smooth 0-curve")
    # contracted first = created last; the surviving 0-curve has time 0
    creation = {v: len(trace) - i for i, v in enumerate(trace)}
    for v in g.ids:
        creation.setdefault(v, 0)
    branching = sorted((v for v in g.ids if g.degree(v) >= 3), key=creation.__getitem__)
    b1 = branching[0] if branching else c
    first_branch = tuple(v for v in g.ids if creation[v] <= creation[b1])
    mu_one = tuple(v for v in g.ids if f.mu(v) == 1)
    return UniqueMinusOneReport(
        minus_one=c,
        mu_of_minus_one=f.mu(c),
        mu_one_components=mu_one,
        first_branch=first_branch,
        mu_exceeds_one=f.mu(c) > 1,
        exactly_two_mu_one=len(mu_one) == 2,
        mu_one_are_tips=all(g.degree(v) <= 1 for v in mu_one),
        mu_one_in_first_branch=all(v in first_branch for v in mu_one),
    )


@dataclass(frozen=True)
class RulingBookkeeping:
    """The characteristic numbers of a ruled pair.

    h counts horizontal boundary components, nu the fibers contained in the
    boundary, sigma_excess the total number of extra non-boundary fiber
    components, and the b2 fields are the second Betti numbers of the
    surface and of the boundary divisor.
    """

    h: int
    nu: int
    sigma_excess: int
    b2_surface: int
    b2_boundary: int


def fujita_check(r: RulingBookkeeping) -> bool:
    """The count identity tying fiber excess to horizontal components."""
    return r.sigma_excess == r.h + r.nu + r.b2_surface - r.b2_boundary - 2
