"""Shared generators for randomized suites (all callers pass a seeded rng),
the canonical degree of a fiber-like kernel vector, and a backtracking
fiber search used as an oracle."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from sncalc.graphs import DualGraph, canonical_form
from sncalc.surgery import contract_minus_one


def random_tree(
    rng: random.Random, max_vertices: int = 20, weights: tuple[int, int] = (-5, 2)
) -> DualGraph:
    n = rng.randint(1, max_vertices)
    verts = [(f"v{i}", rng.randint(*weights)) for i in range(n)]
    edges = [(f"v{i}", f"v{rng.randint(0, i - 1)}") for i in range(1, n)]
    return DualGraph.build(verts, edges)


def random_forest(
    rng: random.Random, max_vertices: int = 20, weights: tuple[int, int] = (-5, 2)
) -> DualGraph:
    n = rng.randint(0, max_vertices)
    verts = [(f"v{i}", rng.randint(*weights)) for i in range(n)]
    edges = []
    for i in range(1, n):
        if rng.random() < 0.8:
            edges.append((f"v{i}", f"v{rng.randint(0, i - 1)}"))
    return DualGraph.build(verts, edges)


def random_admissible_fork(rng: random.Random) -> DualGraph:
    """A branching vertex with 3..4 admissible twigs of length 1..4."""
    from sncalc.graphs import build_fork

    n_twigs = rng.randint(3, 4)
    brackets = [
        [rng.randint(2, 5) for _ in range(rng.randint(1, 4))] for _ in range(n_twigs)
    ]
    return build_fork(rng.randint(-3, 0), brackets)


def canonical_degree(weights, kernel_vector) -> int:
    """K.F for F the primitive positive integer multiple of kernel_vector.

    kernel_vector spans the kernel of a negative semidefinite tree form and
    has entries of one sign; by adjunction K.C = -2 - C^2 for each smooth
    rational component C, so K.F = sum of m_i (-2 - w_i).
    """
    v = [Fraction(x) for x in kernel_vector]
    scale = lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = gcd(*ints)
    m = [abs(x) // g for x in ints]
    return sum(mi * (-2 - w) for mi, w in zip(m, weights))


def backtracking_fiber_search(g: DualGraph) -> tuple[bool, list[str] | None]:
    """Search for a contraction sequence ending in a single 0-vertex.

    The depth-first search that `sncalc.surgery.is_valid_fiber` replaced,
    kept as a test oracle for its verdict and contraction trace.

    Returns (True, trace) with the contracted vertex ids in order, or
    (False, None).  The search is depth-first over all (-1)-choices with
    failures memoized on canonical forms, so isomorphic dead ends are
    pruned.
    """
    if len(g) == 0 or len(g.components()) != 1:
        raise ValueError("fiber candidates must be nonempty and connected")
    if len(g.edges) != len(g) - 1:
        return False, None  # a cycle never contracts to a tree
    failed: set = set()

    def search(h: DualGraph) -> list[str] | None:
        if len(h) == 1:
            return [] if h.vertices[0][1] == 0 else None
        candidates = [v for v, w in h.vertices if w == -1 and h.degree(v) <= 2]
        if not candidates:
            return None  # cheap dead end; not worth memoizing
        key = canonical_form(h)
        if key in failed:
            return None
        for v in candidates:
            tail = search(contract_minus_one(h, v))
            if tail is not None:
                return [v, *tail]
        failed.add(key)
        return None

    trace = search(g)
    return trace is not None, trace
