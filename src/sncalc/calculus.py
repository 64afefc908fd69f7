"""Discriminants, chain invariants, barks and boundary classification.

The discriminant of a reduced divisor is det(-Q) of its intersection
matrix, with the empty divisor given discriminant 1.  On a chain with
weights w_1..w_n it is the continuant d_n of d_0 = 1, d_k = -w_k d_(k-1) -
d_(k-2), so the chain invariants and chain barks come from one forward and
one backward pass of that recurrence, with no matrix.  Barks are the unique
rational divisors supported on admissible twigs (or on whole admissible
chain/fork components) that make K + D - Bk D orthogonal to the supporting
components; adjunction K.C = -2 - C^2 for rational components is hard-coded
throughout.  Every bark is a sum of chain barks: a twig's own, the two of an
admissible chain, and on each twig T_i of an admissible fork with branching
vertex b, bark_chain(T_i) + x_b bark_chain(T_i reversed) with
x_b = (1 - sum delta_i) / (w_b + sum e_tilde_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvariantError, NonAdmissibleError, NonTreeError, NotMinimalError
from .graphs import Chain, DualGraph, QDivisor, _walk_from_tip, maximal_twigs
from .linalg import _subtree_minors, det_exact

__all__ = [
    "ChainInvariants",
    "BoundaryTag",
    "BoundaryType",
    "discriminant",
    "det_branch_formula",
    "det_join_formula",
    "chain_invariants",
    "bark",
    "bark_chain",
    "sharp",
    "classify_boundary",
    "kobayashi_check",
]


def _leaf_pass(g: DualGraph, support: Sequence[str]):
    """`linalg._subtree_minors` on -Q of g on the support, indexed by
    position in it and rooted at the first id of each component: the fold
    record (`linalg._Forest`) with no rows.  Each edge is passed as 1: on a
    forest only the squares of the off-diagonal entries enter D and E.
    None when an id is repeated or unknown, or the support spans a cycle.

    The record of the full support, asked for as the graph's own `ids`
    tuple, is kept in the instance `__dict__` under '_fold' (as `DualGraph`
    keeps its index), so `discriminant`, `classify_boundary` and
    `fiber_multiplicities` of one graph fold it once; it lives as long as
    the graph, is never compared, and its readers must not change it."""
    whole = support is g.ids
    if whole and "_fold" in g.__dict__:
        return g.__dict__["_fold"]
    w = g._weight_map()
    at = {v: k for k, v in enumerate(support)}
    if len(at) != len(support) or not at.keys() <= w.keys():
        return None
    adj = [[(at[u], 1) for u in g.neighbors(v) if u in at] for v in support]
    fold = _subtree_minors([-w[v] for v in support], adj)
    if whole:
        g.__dict__["_fold"] = fold
    return fold


def discriminant(g: DualGraph, support: Iterable[str] | None = None) -> Fraction:
    """det(-Q) restricted to the given components; empty support gives 1.
    The leaf pass gives it as the determinant of its fold record, and any
    other support (a repeated or unknown id, a cycle) as (-1)^n det(Q).
    The whole graph is passed as its `ids` tuple, whose fold is kept."""
    sup = g.ids if support is None else list(support)
    fold = _leaf_pass(g, sup)
    if fold is None:
        return (-1) ** len(sup) * det_exact(g.intersection_matrix(sup))
    return Fraction(fold.det)


def _continuants(weights: Sequence[int]) -> list[int]:
    """Discriminants of the prefixes of a chain: entry k is d(weights[:k])."""
    d = [0, 1]  # d_(-1) = 0 and d_0 = 1 seed d_k = -w_k d_(k-1) - d_(k-2)
    for w in weights:
        d.append(-w * d[-1] - d[-2])
    return d[1:]


def det_branch_formula(g: DualGraph, c: str) -> Fraction:
    """Discriminant via the expansion along one component.

    With D_1..D_k the connected components of g - c and C_i the component of
    D_i meeting c:

        d(D) = -c^2 prod d(D_i) - sum_i d(D_i - C_i) prod_{j != i} d(D_j)
    """
    if c not in g:
        raise KeyError(c)
    if not g.is_tree():
        raise NonTreeError("the branch expansion needs a tree")
    rest = g.without(c)
    comps = rest.components()
    d_comp = [discriminant(rest, comp) for comp in comps]
    total = Fraction(-g.weight(c))
    for d in d_comp:
        total *= d
    for i, comp in enumerate(comps):
        members = set(comp)
        meeting = [v for v in g.neighbors(c) if v in members]
        if len(meeting) != 1:  # tree: each branch hangs off one edge
            raise InvariantError(f"a branch at {c!r} meets it {len(meeting)} times")
        term = discriminant(rest, [v for v in comp if v != meeting[0]])
        for j, d in enumerate(d_comp):
            if j != i:
                term *= d
        total -= term
    return total


def det_join_formula(g: DualGraph, d1: Iterable[str], d2: Iterable[str]) -> Fraction:
    """Discriminant of a one-edge join: d(D1)d(D2) - d(D1-C1)d(D2-C2)."""
    s1, s2 = set(d1), set(d2)
    if s1 & s2 or s1 | s2 != set(g.ids):
        raise ValueError("the two parts must partition the vertices")
    joins = [e for e in g.edges if (e[0] in s1) != (e[1] in s1)]
    if len(joins) != 1:
        raise ValueError(f"parts joined by {len(joins)} edges, need exactly 1")
    if not g.subgraph(s1).is_connected() or not g.subgraph(s2).is_connected():
        raise ValueError("both parts must be connected")
    (a, b) = joins[0]
    c1, c2 = (a, b) if a in s1 else (b, a)
    return discriminant(g, s1) * discriminant(g, s2) - discriminant(
        g, s1 - {c1}
    ) * discriminant(g, s2 - {c2})


@dataclass(frozen=True)
class ChainInvariants:
    """The five numerical invariants of an admissible chain.

    d and d' are integers (d' drops the tip); e = d'/d, delta = 1/d, and
    e_tilde is e of the reversed chain.
    """

    d: int
    d_prime: int
    e: Fraction
    e_tilde: Fraction
    delta: Fraction


def chain_invariants(ch: Chain) -> ChainInvariants:
    if not ch.is_admissible():
        raise NonAdmissibleError(
            f"chain {list(ch.bracket)} has a component above -2; e and delta undefined"
        )
    # the forward pass gives d and d(w[:-1]), the backward pass d of the
    # reversed chain and d' = d(w[1:]); both passes must agree on d
    n = len(ch)
    forward = _continuants(ch.chain_weights)
    backward = _continuants(ch.chain_weights[::-1])
    d, d_rev = forward[n], backward[n]
    if d != d_rev:
        raise InvariantError(f"chain {list(ch.bracket)}: d changes under reversal")
    d_prime = backward[n - 1] if n else 1
    d_rev_prime = forward[n - 1] if n else 1
    return ChainInvariants(
        d=d,
        d_prime=d_prime,
        e=Fraction(d_prime, d),
        e_tilde=Fraction(d_rev_prime, d_rev),
        delta=Fraction(1, d),
    )


# -- barks -------------------------------------------------------------


def _check_minimal(g: DualGraph) -> None:
    # isolated (-1)-components are tolerated: they have no twigs and get an
    # empty bark, so no twig semantics can go wrong on them
    for v, w in g.vertices:
        if w == -1 and 1 <= g.degree(v) <= 2:
            raise NotMinimalError(
                f"component {v!r} is a contractible (-1)-curve; minimalize first"
            )


def _two_ended_bark(ch: Chain, far: Fraction) -> dict[str, Fraction]:
    """x on an admissible chain with Q x = (-1, 0, ..., 0, -far): the chain
    bark from its tip plus far times the one from its other end."""
    near, d = _chain_bark(ch)
    other, _ = _chain_bark(ch.reversed())  # d does not change under reversal
    p, q = far.numerator, far.denominator
    return {v: Fraction(q * x + p * y, q * d) for v, x, y in zip(ch.ids, near, reversed(other))}


def bark(g: DualGraph) -> QDivisor:
    """The bark of a reduced snc-minimal forest, a sum of chain barks.

    A component's twigs are the walks from its tips.  An admissible chain
    gets its two chain barks, one from each end.  On an admissible fork,
    b's own row gives x_b = (1 - sum delta_i) / (w_b + sum e_tilde_i), and
    twig T_i gets bark_chain(T_i) + x_b bark_chain(T_i reversed); the
    denominator is -d(fork) / prod d_i, negative as the fork is negative
    definite.  Any other component gets the chain bark of each twig, which
    must be admissible, and a non-admissible chain gets nothing.  Q x =
    deg - 2 is re-checked on the whole support.
    """
    if not g.is_forest():
        raise NonTreeError("bark of a cyclic graph is undefined")
    _check_minimal(g)
    w = g._weight_map()
    coeffs: dict[str, Fraction] = {}
    for comp in g.components():
        twigs = [
            Chain(tuple(walk), tuple(w[v] for v in walk))
            for walk in (_walk_from_tip(g, v) for v in comp if g.degree(v) <= 1)
        ]
        branching = [v for v in comp if g.degree(v) > 2]
        admissible = all(w[v] <= -2 for v in comp)
        if not branching:
            if admissible:  # twigs[0] runs from one end of the chain to the other
                x = _two_ended_bark(twigs[0], Fraction(1))
                coeffs.update((v, x[v]) for v in comp)
            continue
        # admissible fork = the resolution graph of a non-cyclic quotient
        # singularity: one degree-three branching vertex, with twig
        # discriminants (2,2,n), (2,3,3), (2,3,4) or (2,3,5), i.e.
        # reciprocals summing above 1
        if admissible and len(branching) == 1 and g.degree(branching[0]) == 3:
            inv = [chain_invariants(t) for t in twigs]
            deltas = sum(ci.delta for ci in inv)
            if deltas > 1:
                b = branching[0]
                den = w[b] + sum(ci.e_tilde for ci in inv)
                if den >= 0:  # d(fork) <= 0: not negative definite
                    raise InvariantError(f"admissible fork at {b!r} has d <= 0")
                x = {b: (1 - deltas) / den}
                for t in twigs:
                    x.update(_two_ended_bark(t, x[b]))
                coeffs.update((v, x[v]) for v in comp)
                continue
        for t in twigs:
            if not t.is_admissible():
                raise NonAdmissibleError(f"maximal twig {list(t.bracket)} is not admissible")
            numerators, d = _chain_bark(t)
            coeffs.update((v, Fraction(x, d)) for v, x in zip(t.ids, numerators))
    # the defining equations must hold exactly
    for v, x_v in coeffs.items():
        if w[v] * x_v + sum(coeffs.get(u, 0) for u in g.neighbors(v)) != g.degree(v) - 2:
            raise InvariantError(f"bark equation at {v!r} fails")
    return QDivisor(g, coeffs)


def bark_chain(ch: Chain) -> QDivisor:
    """The divisor supported on the chain with tip product -1, 0 elsewhere.

    Its coefficients are x_i = d(w[i+1:]) / d(w), read off one backward
    pass; Q x = (-1, 0, ..., 0) is re-checked row by row.
    """
    if not ch.is_admissible():
        raise NonAdmissibleError(f"chain {list(ch.bracket)} is not admissible")
    if not len(ch):  # no tip to carry the -1
        raise ValueError("right-hand side has wrong length")
    numerators, d = _chain_bark(ch)
    return QDivisor(ch.to_graph(), {v: Fraction(x, d) for v, x in zip(ch.ids, numerators)})


def _chain_bark(ch: Chain) -> tuple[list[int], int]:
    """The bark of a nonempty admissible chain as integer numerators over
    d = d(w): x_i d = d(w[i+1:]), re-checked against Q (x d) = (-d, 0, ..., 0)."""
    n = len(ch)
    suffix = _continuants(ch.chain_weights[::-1])  # suffix[k] = d(w[n-k:])
    d = suffix[n]
    x = suffix[n - 1 :: -1]
    for i, w in enumerate(ch.chain_weights):
        row = w * x[i] + (x[i - 1] if i else 0) + (x[i + 1] if i + 1 < n else 0)
        if row != (-d if i == 0 else 0):
            raise InvariantError(f"bark equation at {ch.ids[i]!r} fails")
    return x, d


def sharp(g: DualGraph) -> QDivisor:
    """D - Bk D, coefficientwise on the reduced divisor."""
    bk = bark(g)
    return QDivisor(g, {v: 1 - bk[v] for v in g.ids})


# -- boundary classification -------------------------------------------


class BoundaryTag(Enum):
    NEGATIVE_DEFINITE = "negative-definite"
    TYPE_X = "X"
    TYPE_H = "H"
    TYPE_Y = "Y"
    OTHER = "other"


@dataclass(frozen=True)
class BoundaryType:
    tag: BoundaryTag
    triple: tuple[int, int, int] | None = None

    def __str__(self) -> str:
        if self.tag is BoundaryTag.TYPE_Y:
            return f"Y{self.triple}"
        return self.tag.value


def classify_boundary(g: DualGraph) -> BoundaryType:
    """Match a connected rational tree against the boundary shapes.

    Negative definiteness wins first; then the literal patterns: (X) is a
    degree-4 center with four (-2)-tips, (H) has two degree-3 branching
    vertices joined by a chain, each carrying two (-2)-tips, and (Y) is a
    fork whose three maximal twigs are admissible with twig deltas summing
    to 1.  Everything else is Other.
    """
    if not g.is_connected() or len(g) == 0:
        raise ValueError("classification needs a nonempty connected graph")
    if not g.is_tree():
        raise NonTreeError("boundaries are trees")
    if all(d > 0 for d in _leaf_pass(g, g.ids).minors):  # every D(v) of -Q
        return BoundaryType(BoundaryTag.NEGATIVE_DEFINITE)
    branching = [v for v in g.ids if g.degree(v) >= 3]
    if len(branching) == 1:
        b = branching[0]
        if g.degree(b) == 4 and len(g) == 5 and all(
            g.weight(v) == -2 for v in g.ids if v != b
        ):
            return BoundaryType(BoundaryTag.TYPE_X)
        if g.degree(b) == 3:
            twigs = maximal_twigs(g)
            if len(twigs) == 3 and all(t.is_admissible() for t in twigs):
                inv = [chain_invariants(t) for t in twigs]
                if sum(ci.delta for ci in inv) == 1:
                    triple = tuple(sorted(ci.d for ci in inv))
                    return BoundaryType(BoundaryTag.TYPE_Y, triple)
    elif len(branching) == 2 and all(g.degree(v) == 3 for v in branching):
        twigs = maximal_twigs(g)
        if len(twigs) == 4 and all(t.bracket == (2,) for t in twigs):
            return BoundaryType(BoundaryTag.TYPE_H)
    return BoundaryType(BoundaryTag.OTHER)


def kobayashi_check(
    chi_open: int, group_orders: Iterable[int], kd_sharp_sq: Fraction
) -> tuple[bool, Fraction]:
    """Evaluate chi + sum 1/|G| >= (1/3) (K + D#)^2 exactly.

    Returns the truth value together with the slack (left minus right).
    """
    orders = list(group_orders)
    if any(o < 2 for o in orders):
        raise ValueError("local fundamental groups have order at least 2")
    lhs = Fraction(chi_open) + sum((Fraction(1, o) for o in orders), Fraction(0))
    slack = lhs - Fraction(kd_sharp_sq) / 3
    return slack >= 0, slack
